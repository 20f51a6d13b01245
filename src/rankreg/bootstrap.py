"""Nonparametric bootstrap with mandatory rank recomputation.

Each replicate draws whole observation rows (y, x, W, group) with
replacement and refits the resample, *including the rank transform*.
Resampling precomputed rank rows is not valid: the ranks are sample
statistics themselves, and freezing them drops exactly the noise component
the bootstrap is supposed to reproduce.  (A regression test guards this
distinction.)

A resample is read as the multiplicities ``m = bincount(idx)`` of the drawn
indices (the multinomial-weights view of Efron's bootstrap) and solved by
the point estimate's own fit, which is its prepared ``estimators._Sample``:
x and y are sorted once per dataset, and a resample's ranks are run totals
of ``m`` over their tie runs, as a fresh rank transform of it gives.

Replicates are solved in chunks: as many resamples as fit ``_CHUNK_BYTES``
of stacked [Z, r] (every row weighted by sqrt(m), so rows drawn zero times
add nothing) go through one ``_Sample.solve_stack`` call, which makes one
stacked QR per fit block and one batched singular-value pass.  The rejection
rule stays exact: a resample whose R factor has condition number below 1e10
cannot trip the 1e-12 pivoted-QR rule, so only the others take the
column-pivoted QR, one at a time.  Memory stays bounded by the chunk, not
by B.

Determinism: replicate b draws from its own counter-derived RNG stream
``SeedSequence(seed).spawn()[b]``, so the replicate vector depends only on
(seed, reps, n) and not on execution order or chunking; each replicate's
arithmetic is its own, so its value does not depend on the chunk it lands
in.  Resamples whose design is degenerate (e.g. a covariate column
collapsing to a constant multiple of another, or a group with fewer than 2
rows) are redrawn from the same stream and counted; more than 10%
rejections raises a diagnostic error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BootstrapDiagnosticError, InvalidInputError
from .estimators import fit_spec
from .inference import InferenceReport, check_alpha, check_seed, confidence_interval

__all__ = [
    "BootstrapPlan",
    "bootstrap_distribution",
    "bootstrap_ci",
    "bootstrap_se",
    "bootstrap_report",
]

_MAX_ATTEMPTS_PER_REPLICATE = 100
# bytes of stacked [Z, r] per chunk of replicates
_CHUNK_BYTES = 1 << 19


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
        check_alpha(self.alpha)
        check_seed(self.seed)


def _chunk(sample, seed, replicates):
    """Statistics (len(replicates), k) of the listed replicates and their redraw count.

    Replicate b draws from its own stream ``SeedSequence(seed, spawn_key=(b,))``
    (identical to ``SeedSequence(seed).spawn(...)[b]`` but O(1) in b); the
    draws of the chunk are solved as one stack, and each refused draw is
    redrawn from its own stream in the next, smaller stack.
    """
    n = sample.data.n
    streams = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
               for b in replicates]
    width = None if sample.runs_x is None else 1
    values = [None] * len(replicates)
    pending = list(range(len(replicates)))
    rejections = 0
    for _ in range(_MAX_ATTEMPTS_PER_REPLICATE):
        m = np.array([np.bincount(streams[i].integers(0, n, size=n), minlength=n)
                      for i in pending], dtype=np.float64)
        _, coef, _, errors = sample.solve_stack(m)
        stats = coef[:, :, :width].reshape(len(pending), -1)
        for i, stat, err in zip(pending, stats, errors):
            if err is None:
                values[i] = stat
        pending = [i for i, err in zip(pending, errors) if err is not None]
        rejections += len(pending)
        if not pending:
            return np.array(values), rejections
    raise BootstrapDiagnosticError(
        f"replicate {replicates[pending[0]]}: {_MAX_ATTEMPTS_PER_REPLICATE} "
        "consecutive degenerate resamples"
    )


def _replicates(sample, plan):
    """(B, k) statistic replicates of a prepared sample, solved in chunks."""
    size = max(1, _CHUNK_BYTES // sample.system.nbytes)
    values, total_rejections = [], 0
    for lo in range(0, plan.reps, size):
        chunk, rejections = _chunk(sample, plan.seed, range(lo, min(lo + size, plan.reps)))
        values.append(chunk)
        total_rejections += rejections
    if total_rejections > 0.1 * plan.reps:
        raise BootstrapDiagnosticError(
            f"{total_rejections} degenerate resamples out of {plan.reps} replicates "
            "(>10%); the design is too fragile to bootstrap"
        )
    return np.concatenate(values)


def bootstrap_distribution(d, spec, omega, plan):
    """B statistic replicates, ranks recomputed per resample.

    Returns an array of shape (B,) for a scalar statistic, else (B, q).
    Replicate b depends only on (d, spec, omega, plan.seed, b): each lives in
    its own RNG stream and lands in the result by index.
    """
    # a degenerate sample fails in its own fit, not as redraws
    out = _replicates(fit_spec(d, spec, omega), plan)
    return out[:, 0] if out.shape[1] == 1 else out


def _check_count(reps, ci_kind="normal"):
    """Refuse fewer replicates than an SE needs, or an interval of ``ci_kind``."""
    if reps < 2:
        raise InvalidInputError("need at least two replicates for a bootstrap SE")
    if ci_kind == "percentile" and reps < 50:
        raise InvalidInputError("percentile interval needs at least 50 replicates")


def bootstrap_se(replicates):
    """Standard error(s) of the estimate: sample SD of the replicates."""
    reps = np.asarray(replicates, dtype=np.float64)
    if reps.ndim == 1:
        reps = reps[:, None]
    _check_count(reps.shape[0])
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
    _check_count(reps.size, plan.ci_kind)
    if plan.ci_kind == "percentile":
        s = np.sort(reps)
        return (
            _type1_quantile(s, plan.alpha / 2.0),
            _type1_quantile(s, 1.0 - plan.alpha / 2.0),
        )
    return confidence_interval(point, bootstrap_se(reps), 1, plan.alpha)


def bootstrap_report(fit, plan):
    """InferenceReport for the target statistic of a fit with bootstrap SEs and CIs.

    The replicates resample the fit, which is its own prepared sample.  The
    statistic is the leading k coefficients of the fit: k = p for
    rank-level, one slope per group for grouped fits, the slope otherwise.  A plan too small for
    the SE or the interval is refused before any replicate is drawn.
    """
    _check_count(plan.reps, plan.ci_kind)
    reps2d = _replicates(fit, plan)
    k = reps2d.shape[1]
    point = fit.estimates[:k]
    se = np.atleast_1d(bootstrap_se(reps2d))
    ci = np.array([bootstrap_ci(reps2d[:, j], point[j], plan) for j in range(k)])
    # variance on the sqrt(n) scale to stay comparable with analytic reports
    variance = np.diag((se**2) * fit.n)
    return InferenceReport(
        method="bootstrap",
        names=fit.coef_names[:k],
        estimates=point,
        variance=variance,
        se=se,
        ci=ci,
        alpha=plan.alpha,
        n=fit.n,
    )
