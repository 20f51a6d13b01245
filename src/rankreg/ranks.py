"""Empirical CDFs, the tie-weighted rank transform, and rank correlation.

Ranks are defined through a weight ``omega`` in [0, 1] that interpolates
between assigning tied observations the smallest possible rank (omega=0),
the mid-rank (omega=0.5), and the largest possible rank (omega=1):

    rank_i = omega * ecdf(s, s_i) + (1-omega) * ecdf_left(s, s_i) + (1-omega)/n

On tie-free data every choice of omega produces the same ranks
{1/n, ..., n/n}.  The same omega must be applied to both variables of a
pair; every function here and downstream takes a single omega for that
reason.

The scalar comparison kernel K(a, b) = omega*1{a<=b} + (1-omega)*1{a<b} is
the pairwise building block of the rank: averaging it over the sample
reproduces the transform exactly,

    rank_i = (1/n) sum_j K(s_j, s_i) + (1-omega)/n,

which is the identity the influence-function machinery in
:mod:`rankreg.inference` relies on.
"""

import numpy as np

from . import kernels
from .errors import DegenerateInputError, InvalidInputError

__all__ = [
    "comparison_kernel",
    "ecdf",
    "ecdf_left",
    "rank_transform",
    "spearman",
    "centered_rank_moment",
    "slope_decomposition",
    "tie_count",
]


def check_omega(omega):
    omega = float(omega)
    if not (0.0 <= omega <= 1.0):
        raise InvalidInputError(f"omega must lie in [0, 1], got {omega}")
    return omega


def _as_sample(values, name="sample"):
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        arr = arr.reshape(-1)
    if arr.size == 0:
        raise InvalidInputError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values; ranks are undefined")
    return arr


def ecdf(sample, t):
    """Fraction of sample points <= t (right-continuous empirical CDF)."""
    arr = _as_sample(sample)
    return np.count_nonzero(arr <= t) / arr.size


def ecdf_left(sample, t):
    """Fraction of sample points strictly below t (left limit of the ECDF)."""
    arr = _as_sample(sample)
    return np.count_nonzero(arr < t) / arr.size


def comparison_kernel(a, b, omega=1.0):
    """K(a, b): 1 if a < b, omega if a == b, 0 if a > b."""
    omega = check_omega(omega)
    if a < b:
        return 1.0
    if a == b:
        return omega
    return 0.0


def rank_transform(sample, omega=1.0):
    """Tie-weighted ranks in (0, 1], one per observation.

    Computed from the tie runs in O(n log n).  Tied raw values receive
    identical ranks; values are compared with exact equality (no epsilon
    tolerance, since a fuzzy tie would silently change the estimand).
    """
    omega = check_omega(omega)
    arr = _as_sample(sample)
    below, at_or_below = kernels.comparison_counts(kernels.tie_runs(arr))
    return ranks_from_counts(below, at_or_below, arr.size, omega)


def ranks_from_counts(below, at_or_below, n, omega):
    """Ranks from the counts of sample values below and at or below each point.

    The counts may be integers or floats holding integers; both give the same
    bits.  ``omega`` must already be checked.
    """
    return ranks_over_counts(np.array(below, dtype=np.float64),
                             np.array(at_or_below, dtype=np.float64), n, omega)


def ranks_over_counts(below, at_or_below, n, omega):
    """:func:`ranks_from_counts` of float count arrays, written over ``at_or_below``.

    ``below`` is overwritten too; no array of their size is made.
    """
    # (omega*at_or_below + (1-omega)*below + (1-omega)) / n: one division keeps
    # e.g. (0.5*4 + 0.5*2 + 0.5)/10 bit-equal to 0.35
    at_or_below *= omega
    below *= 1.0 - omega
    at_or_below += below
    at_or_below += 1.0 - omega
    at_or_below /= n
    return at_or_below


def tie_count(values):
    """Number of observations that share their value with at least one other."""
    return kernels.tie_runs(_as_sample(values, "values")).tied


def _pearson(a, b):
    da = a - a.mean()
    db = b - b.mean()
    va = np.mean(da * da)
    vb = np.mean(db * db)
    if va <= 0.0 or vb <= 0.0:
        raise DegenerateInputError("rank variance is zero (all values tied)")
    return float(np.mean(da * db) / np.sqrt(va * vb))


def _rank_pair(x, y, omega):
    """Ranks of x and y under one omega, after checking that their lengths match."""
    x = _as_sample(x, "x")
    y = _as_sample(y, "y")
    if x.size != y.size:
        raise InvalidInputError("x and y must have equal length")
    return rank_transform(x, omega), rank_transform(y, omega)


def spearman(x, y, omega=1.0):
    """Rank correlation: Pearson correlation of the two rank vectors."""
    rx, ry = _rank_pair(x, y, omega)
    if rx.size < 2:
        raise InvalidInputError("need at least two observations")
    return _pearson(rx, ry)


def centered_rank_moment(x, y, k, l, omega=1.0):
    """Sample moment (1/n) sum_i (Rx_i - mean Rx)^k (Ry_i - mean Ry)^l."""
    rx, ry = _rank_pair(x, y, omega)
    if not all(float(order).is_integer() and order >= 0 for order in (k, l)):
        raise InvalidInputError(f"moment orders must be nonnegative integers, got {k} and {l}")
    return float(np.mean((rx - rx.mean()) ** k * (ry - ry.mean()) ** l))


def slope_decomposition(x, y, omega=1.0):
    """Split the rank-rank OLS slope into rank correlation times an SD ratio.

    Returns ``(slope, rank_corr, sd_ratio)`` with
    ``slope == rank_corr * sd_ratio`` where ``sd_ratio`` is the ratio of the
    rank standard deviations S_y / S_x.  On tie-free data the ratio is one
    and the slope equals the rank correlation; with ties the two can differ
    arbitrarily.
    """
    rx, ry = _rank_pair(x, y, omega)
    rank_corr = _pearson(rx, ry)  # refuses a rank variance of zero
    sd_ratio = float(np.std(ry)) / float(np.std(rx))
    return rank_corr * sd_ratio, rank_corr, sd_ratio
