"""Hot numeric kernels: tie counting and comparison-kernel weighted sums.

Everything downstream (rank transforms, plugin variances, the copula lab's
conditional expectations) compares a variable with itself, and reduces to
one primitive: the stable sort of the variable and the tie runs in it.  On
top of that primitive sit two functions over a sample of size n:

* ``comparison_counts(values)`` -- for every element, how many sample values
  are strictly below it and how many are at or below it.  These are the
  start and the end of the element's tie run in the sorted order.
* ``comparison_weighted_sums(values, weights, omega)`` -- for every element
  ``i`` the sum ``sum_j K(values_i, values_j) * weights_j`` with the
  tie-weighted step kernel ``K(a, b) = omega*1{a<=b} + (1-omega)*1{a<b}``.
  That is ``omega`` times the weight from the element's run start onwards
  plus ``1 - omega`` times the weight beyond its run end, read from suffix
  sums at the run boundaries.  ``weights`` may be (n,) or (n, k); a matrix
  is sorted once and gives exactly the k single-column results.

Both run in O(n log n), one sort per call.  The literal O(n^2) pairwise
evaluation lives in the tests and in :mod:`rankreg.bruteforce`, which are the
correctness oracles for this sorted path.
"""

import numpy as np

__all__ = [
    "backend_name",
    "comparison_counts",
    "comparison_weighted_sums",
]


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _tie_runs(values):
    """Stable sort order of ``values`` and the [start, end) of each tie run in it."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], ordered.size)
    return order, starts, ends


def comparison_counts(values):
    """Per-element counts (#{j: v_j < v_i}, #{j: v_j <= v_i}) as int64 arrays."""
    order, starts, ends = _tie_runs(values)
    lengths = ends - starts
    below = np.empty(values.size, dtype=np.int64)
    at_or_below = np.empty(values.size, dtype=np.int64)
    below[order] = np.repeat(starts, lengths)
    at_or_below[order] = np.repeat(ends, lengths)
    return below, at_or_below


def comparison_weighted_sums(values, weights, omega):
    """t_i = sum_j K(values_i, values_j) * weights_j with the tie-weighted kernel K.

    ``weights`` is (n,) or (n, k); the result has the same shape.
    """
    omega = float(omega)
    order, starts, ends = _tie_runs(values)
    w_sorted = weights[order]
    # suffix[k] = sum of w_sorted[k:], accumulated right to left
    suffix = np.zeros((w_sorted.shape[0] + 1,) + w_sorted.shape[1:])
    suffix[:-1] = np.cumsum(w_sorted[::-1], axis=0)[::-1]
    per_run = omega * suffix[starts] + (1.0 - omega) * suffix[ends]
    out = np.empty(w_sorted.shape)
    out[order] = np.repeat(per_run, ends - starts, axis=0)
    return out
