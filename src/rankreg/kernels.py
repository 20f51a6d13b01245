"""Hot numeric kernels on one primitive: the tie runs of a variable.

Everything downstream (rank transforms, plugin variances, the copula lab's
conditional expectations) compares a variable with itself, so it depends on
the variable only through its tie runs.  ``tie_runs(values)`` finds them by
the package's one sort of a ranked variable, in O(n log n); a run id does
not depend on the order of tied elements, so the sort need not be stable and
numpy's default (SIMD where the CPU has it) serves.  The two functions over
the runs of a sample of size n then cost O(n + R) for R runs:

* ``comparison_counts(runs)`` -- for every element, how many sample values
  are strictly below it and how many are at or below it: cumulative run sizes.
* ``comparison_weighted_sums(runs, weights, omega)`` -- for every element
  ``i`` the sum ``sum_j K(values_i, values_j) * weights_j`` with the
  tie-weighted step kernel ``K(a, b) = omega*1{a<=b} + (1-omega)*1{a<b}``:
  per column a ``bincount`` of the weights per run, a suffix sum over the
  runs and a gather.  A (n, k) weight matrix gives exactly the k
  single-column results.

The literal O(n^2) pairwise evaluation lives in the tests and in
:mod:`rankreg.bruteforce`, which are the correctness oracles for this path.
"""

from typing import NamedTuple

import numpy as np

__all__ = [
    "TieRuns",
    "backend_name",
    "tie_runs",
    "comparison_counts",
    "comparison_weighted_sums",
]


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


class TieRuns(NamedTuple):
    """Dense run id of each element (0..R-1 in value order) and each run's size."""

    run: np.ndarray
    sizes: np.ndarray

    @property
    def tied(self):
        """Number of elements that share their value with at least one other."""
        return int(self.sizes[self.sizes > 1].sum())


def tie_runs(values):
    """Tie runs of ``values`` from one sort; tied elements may come in any order."""
    order = np.argsort(values)
    ordered = values[order]
    run_start = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    run = np.empty(values.size, dtype=np.intp)
    run[order] = np.cumsum(run_start) - 1
    return TieRuns(run, np.diff(np.append(np.flatnonzero(run_start), values.size)))


def comparison_counts(runs):
    """Per-element counts (#{j: v_j < v_i}, #{j: v_j <= v_i}) as int64 arrays."""
    ends = np.cumsum(runs.sizes)
    at_or_below = ends[runs.run]
    return at_or_below - runs.sizes[runs.run], at_or_below


def comparison_weighted_sums(runs, weights, omega, rows=slice(None)):
    """t_i = sum_j K(values_i, values_j) * weights_j with the tie-weighted kernel K.

    ``weights`` is (n,) or (n, k) and the result has the same shape.  Given
    an index ``rows``, ``weights`` has one row per indexed element, every
    other element weighs zero, and the result still covers the whole sample.
    """
    omega = float(omega)
    run = runs.run[rows]
    n_runs = runs.sizes.size
    columns = weights.reshape(weights.shape[0], -1).T
    # suffix[r] = total weight of runs r, r+1, ..., R-1; suffix[R] = 0
    suffix = np.zeros((n_runs + 1, columns.shape[0]))
    for k, column in enumerate(columns):
        suffix[:-1, k] = np.cumsum(np.bincount(run, column, n_runs)[::-1])[::-1]
    per_run = omega * suffix[:-1] + (1.0 - omega) * suffix[1:]
    return per_run[runs.run].reshape((runs.run.size,) + weights.shape[1:])
