"""Nonparametric bootstrap with mandatory rank recomputation.

Each replicate draws whole observation rows (y, x, W, group) with
replacement and refits the resample, *including the rank transform*.
Resampling precomputed rank rows is not valid: the ranks are sample
statistics themselves, and freezing them drops exactly the noise component
the bootstrap is supposed to reproduce.  (A regression test guards this
distinction.)

A resample is read as the multiplicities ``m = bincount(idx)`` of the drawn
indices (the multinomial-weights view of Efron's bootstrap) and fit by the
same prepared sample as the point estimate, ``estimators._Sample.solve(m)``:
x and y are sorted once per bootstrap call, and a resample's ranks are run
totals of ``m``, the same numbers a fresh rank transform of it gives.

Determinism: replicate b draws from its own counter-derived RNG stream
``SeedSequence(seed).spawn()[b]``, so the replicate vector depends only on
(seed, reps, n) and not on execution order.  Replicates run one after the
other in this thread.  Resamples whose design is degenerate (e.g. a
covariate column collapsing to a constant multiple of another, or a group
with fewer than 2 rows) are redrawn from the same stream and counted; more
than 10% rejections raises a diagnostic error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    BootstrapDiagnosticError,
    DegenerateInputError,
    InvalidInputError,
    SingularDesignError,
)
from .estimators import _Sample
from .inference import InferenceReport, normal_quantile

__all__ = [
    "BootstrapPlan",
    "bootstrap_distribution",
    "bootstrap_ci",
    "bootstrap_se",
    "bootstrap_report",
]

_MAX_ATTEMPTS_PER_REPLICATE = 100


@dataclass(frozen=True)
class BootstrapPlan:
    reps: int = 999
    seed: int = 0
    ci_kind: str = "percentile"  # "percentile" | "normal"
    alpha: float = 0.05

    def __post_init__(self):
        if self.reps < 1:
            raise InvalidInputError("bootstrap needs at least one replicate")
        if self.ci_kind not in ("percentile", "normal"):
            raise InvalidInputError(f"unknown ci_kind {self.ci_kind!r}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidInputError("alpha must lie in (0, 1)")


def replicate_statistic(d, spec, omega, seed, b, sample=None):
    """Statistic of replicate b; pure function of (data, spec, omega, seed, b).

    The statistic is the slope (one per group for grouped fits), or beta for
    rank-level.  Returns (value, rejections) where rejections counts redrawn
    degenerate resamples for this replicate.  ``sample`` is the prepared
    ``estimators._Sample`` of ``d``; a loop over replicates passes it so
    that the sample is sorted once.
    """
    if sample is None:
        sample = _Sample(d, spec, omega)
        sample.solve()  # a degenerate sample fails here, not as redraws
    # identical to SeedSequence(seed).spawn(...)[b] but O(1) in b
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    rejections = 0
    for _ in range(_MAX_ATTEMPTS_PER_REPLICATE):
        m = np.bincount(rng.integers(0, d.n, size=d.n), minlength=d.n)
        try:
            _, _, blocks = sample.solve(m)
        except (SingularDesignError, AssumptionViolationError, DegenerateInputError):
            rejections += 1
            continue
        width = None if sample.spec == "rank-level" else 1
        return np.concatenate([coef[:width] for _, _, coef, _ in blocks]), rejections
    raise BootstrapDiagnosticError(
        f"replicate {b}: {_MAX_ATTEMPTS_PER_REPLICATE} consecutive degenerate resamples"
    )


def _replicates(sample, plan):
    """(B, k) statistic replicates of a prepared sample."""
    values = []
    total_rejections = 0
    for b in range(plan.reps):
        value, rejections = replicate_statistic(
            sample.data, sample.spec, sample.omega, plan.seed, b, sample
        )
        values.append(value)
        total_rejections += rejections
    if total_rejections > 0.1 * plan.reps:
        raise BootstrapDiagnosticError(
            f"{total_rejections} degenerate resamples out of {plan.reps} replicates "
            "(>10%); the design is too fragile to bootstrap"
        )
    return np.array(values)


def bootstrap_distribution(d, spec, omega, plan):
    """B statistic replicates, ranks recomputed per resample.

    Returns an array of shape (B,) for a scalar statistic, else (B, q).
    Replicate b depends only on (d, spec, omega, plan.seed, b): each lives in
    its own RNG stream and lands in the result by index.
    """
    sample = _Sample(d, spec, omega)
    sample.solve()  # a degenerate sample fails here, not as redraws
    out = _replicates(sample, plan)
    return out[:, 0] if out.shape[1] == 1 else out


def bootstrap_se(replicates):
    """Standard error(s) of the estimate: sample SD of the replicates."""
    reps = np.asarray(replicates, dtype=np.float64)
    if reps.ndim == 1:
        reps = reps[:, None]
    if reps.shape[0] < 2:
        raise InvalidInputError("need at least two replicates for a bootstrap SE")
    se = reps.std(axis=0, ddof=1)
    return float(se[0]) if se.size == 1 else se


def _type1_quantile(sorted_reps, q):
    """Order statistic at ceil(q*B) (1-indexed); exact and exactly testable."""
    b = sorted_reps.shape[0]
    k = int(np.ceil(q * b))
    k = min(max(k, 1), b)
    return float(sorted_reps[k - 1])


def bootstrap_ci(replicates, point, plan):
    """Percentile or normal-with-bootstrap-SE interval for a scalar statistic."""
    reps = np.asarray(replicates, dtype=np.float64).reshape(-1)
    if plan.ci_kind == "percentile":
        if reps.size < 50:
            raise InvalidInputError("percentile interval needs at least 50 replicates")
        s = np.sort(reps)
        return (
            _type1_quantile(s, plan.alpha / 2.0),
            _type1_quantile(s, 1.0 - plan.alpha / 2.0),
        )
    half = normal_quantile(plan.alpha / 2.0) * bootstrap_se(reps)
    return float(point - half), float(point + half)


def bootstrap_report(d, spec, omega, plan):
    """InferenceReport for the target statistic with bootstrap SEs and CIs.

    The statistic is the leading k coefficients of the fit: k = p for
    rank-level, one slope per group for grouped fits, the slope otherwise.
    """
    sample = _Sample(d, spec, omega)
    fit = sample.fit()
    reps2d = _replicates(sample, plan)
    k = reps2d.shape[1]
    point = fit.estimates[:k]
    se = reps2d.std(axis=0, ddof=1)
    ci = np.array([bootstrap_ci(reps2d[:, j], point[j], plan) for j in range(k)])
    # variance on the sqrt(n) scale to stay comparable with analytic reports
    variance = np.diag((se**2) * d.n)
    return InferenceReport(
        method="bootstrap",
        names=fit.coef_names[:k],
        estimates=point,
        variance=variance,
        se=se,
        ci=ci,
        alpha=plan.alpha,
        n=d.n,
    )
