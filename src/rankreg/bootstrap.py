"""Nonparametric bootstrap with mandatory rank recomputation.

Each replicate draws whole observation rows (y, x, W, group) with
replacement and refits the resample, *including the rank transform*.
Resampling precomputed rank rows is not valid: the ranks are sample
statistics themselves, and freezing them drops exactly the noise component
the bootstrap is supposed to reproduce.  (A regression test guards this
distinction.)

A resample is read as the multiplicities ``m = bincount(idx)`` of the drawn
indices (the multinomial-weights view of Efron's bootstrap).  The tie runs
of x and y are found by one stable sort per variable and bootstrap call; a
resample's ranks are then run totals of ``m`` over those runs, the same
integers a fresh rank transform of the resample counts.  The fit uses the
rows with ``m > 0`` scaled by sqrt(m), whose QR R factor is that of the
design with repeated rows, so the singular-design rule is unchanged.

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
from .estimators import _check_nu, _solve, fit_spec
from .inference import InferenceReport, normal_quantile
from .kernels import comparison_counts
from .ranks import ranks_from_counts

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


class _Resampler:
    """A fitted sample prepared for resampling by multiplicities.

    ``run_x``/``run_y`` hold, per observation, the start of its tie run in
    the sorted order (its count of values strictly below), which indexes the
    run in every resample.  ``rows`` lists the observations group by group
    (one block for ungrouped fits), so each replicate's group blocks are
    contiguous without a sort.
    """

    def __init__(self, fit):
        d = fit.data
        self.data = d
        self.spec = fit.spec
        self.omega = fit.omega
        self.run_x = None if fit.spec == "rank-level" else comparison_counts(d.x)[0]
        self.run_y = None if fit.spec == "level-rank" else comparison_counts(d.y)[0]
        if fit.spec == "rank-rank-group":
            self.rows = np.argsort(d.group_index, kind="stable")
        else:
            self.rows = np.arange(d.n)
        self.names = list(d.w_names)
        if self.run_x is not None:
            self.names = ["rank(x)"] + self.names

    def _ranks(self, run, rows, mult):
        """Ranks of ``rows`` within the resample, from run totals of ``mult``."""
        run = run[rows]
        per_run = np.bincount(run, weights=mult, minlength=self.data.n)
        at_or_below = np.cumsum(per_run)[run]
        below = at_or_below - per_run[run]
        return ranks_from_counts(below, at_or_below, self.data.n, self.omega)

    def statistic(self, m):
        """Statistic of the resample with multiplicities ``m``.

        Raises SingularDesignError, AssumptionViolationError or
        DegenerateInputError when the resample's design is degenerate.
        """
        d = self.data
        rows = self.rows[m[self.rows] > 0]
        mult = m[rows]
        response = d.y[rows] if self.run_y is None else self._ranks(self.run_y, rows, mult)
        columns = [d.w[rows], response]
        if self.run_x is not None:
            columns.insert(0, self._ranks(self.run_x, rows, mult))
        system = np.column_stack(columns)
        system *= np.sqrt(mult)[:, None]
        if self.spec == "rank-rank-group":
            groups = d.group_index[rows]
            counts = np.bincount(groups, minlength=d.n_groups)
            sizes = np.bincount(groups, weights=mult, minlength=d.n_groups)
            if np.any(sizes < 2):
                raise DegenerateInputError("a group has fewer than 2 rows in the resample")
            ends = np.cumsum(counts)
            blocks = zip(ends - counts, ends, sizes)
        else:
            blocks = [(0, rows.size, d.n)]
        value = []
        for lo, hi, size in blocks:
            coef, gram_inv = _solve(system[lo:hi], self.names)
            if self.run_x is None:
                value.append(coef)
            else:
                _check_nu(gram_inv, size)
                value.append(coef[:1])
        return np.concatenate(value)


def replicate_statistic(d, spec, omega, seed, b, resampler=None):
    """Statistic of replicate b; pure function of (data, spec, omega, seed, b).

    Returns (value, rejections) where rejections counts redrawn degenerate
    resamples for this replicate.  ``resampler`` is the ``_Resampler`` of the
    fit of ``d``; a loop over replicates passes it so that the sample is fit
    and sorted once.
    """
    if resampler is None:
        resampler = _Resampler(fit_spec(d, spec, omega))
    # identical to SeedSequence(seed).spawn(...)[b] but O(1) in b
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    rejections = 0
    for _ in range(_MAX_ATTEMPTS_PER_REPLICATE):
        m = np.bincount(rng.integers(0, d.n, size=d.n), minlength=d.n)
        try:
            return resampler.statistic(m), rejections
        except (SingularDesignError, AssumptionViolationError, DegenerateInputError):
            rejections += 1
    raise BootstrapDiagnosticError(
        f"replicate {b}: {_MAX_ATTEMPTS_PER_REPLICATE} consecutive degenerate resamples"
    )


def _replicates(fit, plan):
    """(B, q) statistic replicates of a fitted sample."""
    resampler = _Resampler(fit)
    out = np.empty((plan.reps, _statistic(fit).size))
    total_rejections = 0
    for b in range(plan.reps):
        out[b], rejections = replicate_statistic(
            fit.data, fit.spec, fit.omega, plan.seed, b, resampler
        )
        total_rejections += rejections
    if total_rejections > 0.1 * plan.reps:
        raise BootstrapDiagnosticError(
            f"{total_rejections} degenerate resamples out of {plan.reps} replicates "
            "(>10%); the design is too fragile to bootstrap"
        )
    return out


def bootstrap_distribution(d, spec, omega, plan):
    """B statistic replicates, ranks recomputed per resample.

    Returns an array of shape (B,) for a scalar statistic, else (B, q).
    Replicate b depends only on (d, spec, omega, plan.seed, b): each lives in
    its own RNG stream and lands in a preallocated buffer by index.
    """
    out = _replicates(fit_spec(d, spec, omega), plan)
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
    """InferenceReport for the target statistic with bootstrap SEs and CIs."""
    fit = fit_spec(d, spec, omega)
    point = _statistic(fit)
    reps2d = _replicates(fit, plan)
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
