"""Hot numeric kernels: tie counting and comparison-kernel weighted sums.

Everything downstream (rank transforms, plugin variances) reduces to two
primitives over a sample of size n:

* ``comparison_counts(values)`` -- for every element, how many sample values
  are strictly below it and how many are at or below it.
* ``comparison_weighted_sums(points, data, weights, omega)`` -- for every
  evaluation point ``t`` the sum ``sum_j K(t, data_j) * weights_j`` with the
  tie-weighted step kernel ``K(a, b) = omega*1{a<=b} + (1-omega)*1{a<b}``.

Both run in O(n log n) by sorting once and binary-searching.  The literal
O(n^2) pairwise evaluation is kept as ``comparison_weighted_sums_pairwise``;
it is the correctness oracle for the sorted path and the slow side of the
benchmark.

Two interchangeable backends are provided: numba-jitted loops (default when
numba imports) and pure numpy.  Select explicitly with the environment
variable ``RANKREG_BACKEND=numba`` or ``RANKREG_BACKEND=numpy``; the numpy
path is also the automatic fallback when numba is unavailable.  Both backends
perform the same floating-point operations in the same order.
"""

import os

import numpy as np

__all__ = [
    "backend_name",
    "comparison_counts",
    "comparison_weighted_sums",
    "comparison_weighted_sums_pairwise",
    "IMPLEMENTATIONS",
]


# ---------------------------------------------------------------------------
# pure-numpy backend
# ---------------------------------------------------------------------------

def _np_comparison_counts(values):
    s = np.sort(values, kind="mergesort")
    below = np.searchsorted(s, values, side="left")
    at_or_below = np.searchsorted(s, values, side="right")
    return below.astype(np.int64), at_or_below.astype(np.int64)


def _np_comparison_weighted_sums(points, data, weights, omega):
    order = np.argsort(data, kind="mergesort")
    data_sorted = data[order]
    w_sorted = weights[order]
    # suffix[k] = sum of w_sorted[k:], accumulated right to left
    suffix = np.zeros(data_sorted.shape[0] + 1)
    suffix[:-1] = np.cumsum(w_sorted[::-1])[::-1]
    ge = np.searchsorted(data_sorted, points, side="left")
    gt = np.searchsorted(data_sorted, points, side="right")
    return omega * suffix[ge] + (1.0 - omega) * suffix[gt]


def _np_comparison_weighted_sums_pairwise(points, data, weights, omega):
    out = np.empty(points.shape[0])
    for i in range(points.shape[0]):
        t = points[i]
        kernel_row = omega * (t <= data) + (1.0 - omega) * (t < data)
        out[i] = kernel_row @ weights
    return out


# ---------------------------------------------------------------------------
# numba backend
# ---------------------------------------------------------------------------

_HAVE_NUMBA = False
if os.environ.get("RANKREG_BACKEND", "numba").lower() != "numpy":
    try:
        from numba import njit

        _HAVE_NUMBA = True
    except ImportError:  # pragma: no cover - depends on environment
        _HAVE_NUMBA = False

if _HAVE_NUMBA:

    @njit(cache=True)
    def _nb_comparison_counts(values):
        n = values.shape[0]
        order = np.argsort(values, kind="mergesort")
        below = np.empty(n, dtype=np.int64)
        at_or_below = np.empty(n, dtype=np.int64)
        i = 0
        while i < n:
            j = i
            v = values[order[i]]
            while j + 1 < n and values[order[j + 1]] == v:
                j += 1
            for k in range(i, j + 1):
                below[order[k]] = i
                at_or_below[order[k]] = j + 1
            i = j + 1
        return below, at_or_below

    @njit(cache=True)
    def _nb_comparison_weighted_sums(points, data, weights, omega):
        n = data.shape[0]
        order = np.argsort(data, kind="mergesort")
        data_sorted = np.empty(n)
        w_sorted = np.empty(n)
        for k in range(n):
            data_sorted[k] = data[order[k]]
            w_sorted[k] = weights[order[k]]
        suffix = np.zeros(n + 1)
        acc = 0.0
        for k in range(n - 1, -1, -1):
            acc += w_sorted[k]
            suffix[k] = acc
        m = points.shape[0]
        out = np.empty(m)
        for i in range(m):
            t = points[i]
            ge = np.searchsorted(data_sorted, t, side="left")
            gt = np.searchsorted(data_sorted, t, side="right")
            out[i] = omega * suffix[ge] + (1.0 - omega) * suffix[gt]
        return out

    @njit(cache=True)
    def _nb_comparison_weighted_sums_pairwise(points, data, weights, omega):
        m = points.shape[0]
        n = data.shape[0]
        out = np.empty(m)
        for i in range(m):
            t = points[i]
            acc = 0.0
            for j in range(n):
                if t < data[j]:
                    acc += weights[j]
                elif t == data[j]:
                    acc += omega * weights[j]
            out[i] = acc
        return out


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

IMPLEMENTATIONS = {
    "numpy": {
        "comparison_counts": _np_comparison_counts,
        "comparison_weighted_sums": _np_comparison_weighted_sums,
        "comparison_weighted_sums_pairwise": _np_comparison_weighted_sums_pairwise,
    }
}
if _HAVE_NUMBA:
    IMPLEMENTATIONS["numba"] = {
        "comparison_counts": _nb_comparison_counts,
        "comparison_weighted_sums": _nb_comparison_weighted_sums,
        "comparison_weighted_sums_pairwise": _nb_comparison_weighted_sums_pairwise,
    }

_requested = os.environ.get("RANKREG_BACKEND", "").lower()
if _requested and _requested not in ("numba", "numpy"):
    raise RuntimeError(f"RANKREG_BACKEND must be 'numba' or 'numpy', got {_requested!r}")
if _requested == "numba" and not _HAVE_NUMBA:  # pragma: no cover
    raise RuntimeError("RANKREG_BACKEND=numba requested but numba is not importable")
_BACKEND = _requested or ("numba" if _HAVE_NUMBA else "numpy")


def backend_name():
    """Name of the active kernel backend ('numba' or 'numpy')."""
    return _BACKEND


def comparison_counts(values):
    """Per-element counts (#{j: v_j < v_i}, #{j: v_j <= v_i}) as int64 arrays."""
    return IMPLEMENTATIONS[_BACKEND]["comparison_counts"](values)


def comparison_weighted_sums(points, data, weights, omega):
    """t_i = sum_j K(points_i, data_j) * weights_j with the tie-weighted kernel K."""
    return IMPLEMENTATIONS[_BACKEND]["comparison_weighted_sums"](
        points, data, weights, float(omega)
    )


def comparison_weighted_sums_pairwise(points, data, weights, omega):
    """Literal O(n^2) evaluation of comparison_weighted_sums (correctness oracle)."""
    return IMPLEMENTATIONS[_BACKEND]["comparison_weighted_sums_pairwise"](
        points, data, weights, float(omega)
    )
