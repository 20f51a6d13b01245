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
add nothing) are solved as one stack, with one QR call per fit block and
one batched singular-value pass.  Each slice of chunks solves them in one
workspace (``estimators._Resamples``), built once and reused by every chunk
and redraw of the slice: the draws' multiplicities, sqrt(m), the (c, q+1, n)
columns of [Z, r], which LAPACK's ``dgeqrf`` factors in place, and the run
ids the ranks are gathered through.  The rejection rule stays exact: a
resample whose R factor has condition number below 1e10 cannot trip the
1e-12 pivoted-QR rule, so only the others take the column-pivoted QR, one
at a time.  Memory stays bounded by the chunk, not by B.

Determinism: replicate b draws from its own counter-derived RNG stream
``SeedSequence(seed).spawn()[b]``, so the replicate vector depends only on
(seed, reps, n) and not on execution order or chunking, and not on how many
processes run them; each replicate's arithmetic is its own, so its value
does not depend on the chunk it lands in.  ``_spread`` runs the chunks on
the usable CPUs and joins them in replicate order.  Resamples whose design
is degenerate (e.g. a covariate column collapsing to a constant multiple of
another, or a group with fewer than 2 rows) are redrawn from the same
stream and counted; more than 10% rejections raises a diagnostic error.
"""

import os
import pickle
import signal
import threading
import time
from dataclasses import dataclass

import numpy as np

from .errors import BootstrapDiagnosticError, InvalidInputError
from .estimators import _Resamples, fit_spec
from .inference import (InferenceReport, check_alpha, check_integer, check_seed,
                        confidence_interval)

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
# least time the remaining units would take in one process for a split to pay
# for its forks (1.4 ms for a 38 MB process, 19 ms at 666 MB)
_SPLIT_MIN_S = 0.05
# set while this process runs a split, as its caller or one of its workers
_splitting = False


def _cpus():
    """Usable CPUs, or 1 where the platform cannot fork or report them.

    Also 1 while the process runs other threads: a forked worker holds only
    the calling thread, so a lock another thread held would never be freed.
    """
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        return len(os.sched_getaffinity(0))
    return 1


def _fork(run, lo, hi):
    """A worker running units lo..hi-1: its pid and the read end of its pipe.

    The worker pickles the slice down the pipe and leaves through
    ``os._exit``; if the slice raises it exits nonzero and sends nothing.
    (None, None) if no worker could be started.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # out of processes or memory: the caller runs the slice
        os.close(r)
        os.close(w)
        return None, None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                pipe.write(pickle.dumps(run(lo, hi), pickle.HIGHEST_PROTOCOL))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _receive(pid, pipe):
    """The pickled slice a worker sent, once it is reaped; None if it sent none."""
    if pid is None:
        return None
    with pipe:
        sent = pipe.read()
    return sent if os.waitpid(pid, 0)[1] == 0 else None


def _spread(run, units):
    """Concatenate the arrays of ``run(lo, hi)`` over units 0..units-1.

    ``run(lo, hi)`` returns a tuple of arrays over units lo..hi-1, each
    unit's values its own, so they are joined in unit order bitwise as one
    process computes them.  Unit 0 runs here and is timed.  If the other
    units would take at least ``_SPLIT_MIN_S`` at that pace, they are cut
    into one contiguous slice per usable CPU: the first runs here and the
    others in forked workers.  The slice of a worker that failed, or could
    not be started, runs again here, in unit order, so the lowest failing
    unit raises its own error.  A process that is running a split runs
    further calls serially, so workers never fork.
    """
    global _splitting
    start = time.perf_counter()
    parts = [run(0, 1)]
    rest = units - 1
    workers = min(_cpus(), rest)
    if _splitting or workers < 2 or (time.perf_counter() - start) * rest < _SPLIT_MIN_S:
        if rest:
            parts.append(run(1, units))
        return tuple(np.concatenate(column) for column in zip(*parts))
    cuts = [1 + rest * i // workers for i in range(workers + 1)]
    forked = []
    _splitting = True
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            forked.append((lo, hi, *_fork(run, lo, hi)))
        parts.append(run(cuts[0], cuts[1]))
        while forked:
            lo, hi, pid, pipe = forked[0]
            sent = _receive(pid, pipe)
            del forked[0]
            parts.append(run(lo, hi) if sent is None else pickle.loads(sent))
    finally:
        _splitting = False
        for _, _, pid, pipe in forked:
            if pid is not None:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return tuple(np.concatenate(column) for column in zip(*parts))


@dataclass(frozen=True)
class BootstrapPlan:
    reps: int = 999
    seed: int = 0
    ci_kind: str = "percentile"  # "percentile" | "normal"
    alpha: float = 0.05

    def __post_init__(self):
        if check_integer(self.reps, "bootstrap reps") < 1:
            raise InvalidInputError("bootstrap needs at least one replicate")
        if self.ci_kind not in ("percentile", "normal"):
            raise InvalidInputError(f"unknown ci_kind {self.ci_kind!r}")
        check_alpha(self.alpha)
        check_seed(self.seed)


def _chunk(work, seed, replicates):
    """Statistics (len(replicates), k) of the listed replicates and their redraw count.

    ``work`` is the :class:`estimators._Resamples` workspace the chunk is
    solved in, with a row for each replicate.  Replicate b draws from its
    own stream ``SeedSequence(seed, spawn_key=(b,))`` (identical to
    ``SeedSequence(seed).spawn(...)[b]`` but O(1) in b) and writes the
    ``bincount`` of its draw into its row of ``work.m``; the draws of the
    chunk are solved as one stack, and each refused draw is redrawn from its
    own stream in the next, smaller stack, the leading rows of the same
    workspace.
    """
    sample = work.sample
    n = sample.data.n
    streams = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
               for b in replicates]
    width = None if sample.runs_x is None else 1
    values = [None] * len(replicates)
    pending = list(range(len(replicates)))
    rejections = 0
    for _ in range(_MAX_ATTEMPTS_PER_REPLICATE):
        for row, i in zip(work.m, pending):
            row[:] = np.bincount(streams[i].integers(0, n, size=n), minlength=n)[sample.order]
        _, coef, _, errors = work.solve(len(pending))
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
    """(B, k) statistic replicates of a prepared sample, solved in chunks.

    Each slice of chunks that ``_spread`` runs, in this process or in a
    forked worker, solves them in one workspace of its own, sized for its
    first chunk, which does not outlive the slice.
    """
    size = max(1, _CHUNK_BYTES // sample.system.nbytes)

    def run(lo, hi):  # chunks lo..hi-1: their replicates and redraw counts
        work = _Resamples(sample, min(size, plan.reps - lo * size))
        chunks = [_chunk(work, plan.seed, range(c * size, min(c * size + size, plan.reps)))
                  for c in range(lo, hi)]
        return np.concatenate([v for v, _ in chunks]), np.array([r for _, r in chunks])

    values, rejections = _spread(run, -(-plan.reps // size))
    total_rejections = int(rejections.sum())
    if total_rejections > 0.1 * plan.reps:
        raise BootstrapDiagnosticError(
            f"{total_rejections} degenerate resamples out of {plan.reps} replicates "
            "(>10%); the design is too fragile to bootstrap"
        )
    return values


def bootstrap_distribution(d, spec, omega, plan):
    """B statistic replicates, ranks recomputed per resample.

    Returns an array of shape (B,) for a scalar statistic, else (B, q).
    Replicate b depends only on (d, spec, omega, plan.seed, b), and not on
    how many processes run them: each lives in its own RNG stream and lands
    in the result by index.
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


def _as_replicates(replicates):
    """``replicates`` as a float array, refused unless every value is finite."""
    reps = np.asarray(replicates, dtype=np.float64)
    if not np.isfinite(reps).all():
        raise InvalidInputError("bootstrap replicates must all be finite")
    return reps


def bootstrap_se(replicates):
    """Standard error(s) of the estimate: sample SD of the replicates."""
    reps = _as_replicates(replicates)
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
    reps = _as_replicates(replicates).reshape(-1)
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
