"""Nonparametric bootstrap with mandatory rank recomputation.

Each replicate draws whole observation rows (y, x, W, group) with
replacement and reruns the full pipeline on the resample, *including the
rank transform*.  Resampling precomputed rank rows is not valid: the ranks
are sample statistics themselves, and freezing them drops exactly the noise
component the bootstrap is supposed to reproduce.  (A regression test guards
this distinction.)

Determinism: replicate b draws from its own counter-derived RNG stream
``SeedSequence(seed).spawn()[b]``, so the replicate vector depends only on
(seed, reps, n) and not on execution order or worker count.  Resamples whose
design is degenerate (e.g. a covariate column collapsing to a constant
multiple of another) are redrawn from the same stream and counted; more than
10% rejections raises a diagnostic error.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    BootstrapDiagnosticError,
    DegenerateInputError,
    InvalidInputError,
    SingularDesignError,
)
from .estimators import Dataset, fit_spec
from .inference import InferenceReport, normal_quantile
from .ranks import check_omega

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


def _statistic(fit):
    """Target statistic per specification: the slope(s), or beta for rank-level."""
    if fit.spec == "rank-level":
        return np.asarray(fit.beta, dtype=np.float64)
    return np.atleast_1d(np.asarray(fit.slope, dtype=np.float64))


def _resample(d, indices):
    return Dataset(
        y=d.y[indices],
        x=None if d.x is None else d.x[indices],
        w=d.w[indices],
        g=None if d.g is None else np.asarray(d.g)[indices],
        w_names=d.w_names,
    )


def replicate_statistic(d, spec, omega, seed, b):
    """Statistic of replicate b; pure function of (data, spec, omega, seed, b).

    Returns (value, rejections) where rejections counts redrawn degenerate
    resamples for this replicate.
    """
    # identical to SeedSequence(seed).spawn(...)[b] but O(1) in b
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    rejections = 0
    for _ in range(_MAX_ATTEMPTS_PER_REPLICATE):
        indices = rng.integers(0, d.n, size=d.n)
        try:
            fit = fit_spec(_resample(d, indices), spec, omega)
        except (SingularDesignError, AssumptionViolationError, DegenerateInputError,
                InvalidInputError):
            rejections += 1
            continue
        return _statistic(fit), rejections
    raise BootstrapDiagnosticError(
        f"replicate {b}: {_MAX_ATTEMPTS_PER_REPLICATE} consecutive degenerate resamples"
    )


def bootstrap_distribution(d, spec, omega, plan, n_jobs=None):
    """B statistic replicates, ranks recomputed per resample.

    Returns an array of shape (B,) for a scalar statistic, else (B, q).
    Output is bitwise independent of ``n_jobs``: replicates live in their own
    RNG streams and land in a preallocated buffer by index.
    """
    omega = check_omega(omega)
    if n_jobs is None:
        n_jobs = int(os.environ.get("RANKREG_JOBS", "1"))
    point = _statistic(fit_spec(d, spec, omega))  # also validates the original sample
    out = np.empty((plan.reps, point.size))
    rejections = np.zeros(plan.reps, dtype=np.int64)

    def run(b):
        out[b], rejections[b] = replicate_statistic(d, spec, omega, plan.seed, b)

    if n_jobs > 1:
        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            list(pool.map(run, range(plan.reps)))
    else:
        for b in range(plan.reps):
            run(b)
    total_rejections = int(rejections.sum())
    if total_rejections > 0.1 * plan.reps:
        raise BootstrapDiagnosticError(
            f"{total_rejections} degenerate resamples out of {plan.reps} replicates "
            "(>10%); the design is too fragile to bootstrap"
        )
    return out[:, 0] if point.size == 1 else out


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


def bootstrap_report(d, spec, omega, plan, n_jobs=None):
    """InferenceReport for the target statistic with bootstrap SEs and CIs."""
    fit = fit_spec(d, spec, omega)
    point = _statistic(fit)
    reps = bootstrap_distribution(d, spec, omega, plan, n_jobs=n_jobs)
    reps2d = reps[:, None] if reps.ndim == 1 else reps
    se = reps2d.std(axis=0, ddof=1)
    ci = np.array([
        bootstrap_ci(reps2d[:, k], point[k], plan) for k in range(point.size)
    ])
    if fit.spec == "rank-level":
        names = list(d.w_names)
    elif fit.spec == "rank-rank-group":
        names = [f"rank(x)@{label}" for label in d.group_names]
    else:
        names = ["rank(x)"]
    # variance on the sqrt(n) scale to stay comparable with analytic reports
    variance = np.diag((se**2) * d.n)
    return InferenceReport(
        method="bootstrap",
        names=names,
        estimates=point,
        variance=variance,
        se=se,
        ci=ci,
        alpha=plan.alpha,
        n=d.n,
    )
