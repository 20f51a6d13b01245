"""Bootstrap resampling: determinism, interval construction, rank recomputation."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from rankreg import (
    AssumptionViolationError,
    BootstrapDiagnosticError,
    BootstrapPlan,
    Dataset,
    InvalidInputError,
    RankRegressionError,
    SingularDesignError,
    bootstrap_ci,
    bootstrap_distribution,
    bootstrap_report,
    bootstrap_se,
    fit_rank_rank,
    fit_spec,
    ols,
    plugin_slope_variance,
    rank_transform,
)
import rankreg.bootstrap as bootstrap
import rankreg.copulas as copulas
import rankreg.estimators as estimators
from rankreg.bootstrap import _CHUNK_BYTES, _chunk, _replicates
from rankreg.estimators import FitResult, _Resamples, _Sample

from conftest import make_tied_sample


def _dataset(rng, n=80, tied=False):
    x = make_tied_sample(rng, n) if tied else rng.normal(size=n)
    y = 0.7 * x + rng.normal(size=n)
    return Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"])


def _resample(d, indices):
    return Dataset(
        y=d.y[indices],
        x=None if d.x is None else d.x[indices],
        w=d.w[indices],
        g=None if d.g is None else np.asarray(d.g)[indices],
        w_names=d.w_names,
    )


def _literal_replicate(d, spec, omega, seed, b):
    """Replicate b by the literal route: build the resample and refit it.

    A resample is rejected and redrawn when it misses a group, when a group
    has fewer than 2 rows (Dataset refuses it), or when the refit's design
    is degenerate.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
    rejections = 0
    while True:
        indices = rng.integers(0, d.n, size=d.n)
        if d.g is not None and np.unique(d.group_index[indices]).size < d.n_groups:
            rejections += 1
            continue
        try:
            fit = fit_spec(_resample(d, indices), spec, omega)
        except (SingularDesignError, AssumptionViolationError, InvalidInputError):
            rejections += 1
            continue
        value = fit.beta if spec == "rank-level" else np.atleast_1d(fit.slope)
        return np.asarray(value, dtype=np.float64), rejections


def _tied_design(rng, n=90, labels=("A", "B", "C")):
    """Heavily tied x and y, a binary covariate, and three groups."""
    x = make_tied_sample(rng, n, support=5)
    y = 0.5 * x + make_tied_sample(rng, n, support=4)
    flag = (rng.random(n) < 0.4).astype(float)
    g = np.array(labels)[rng.integers(0, len(labels), n)]
    return Dataset(y=y, x=x, w=np.column_stack([np.ones(n), flag]), g=g,
                   w_names=["const", "flag"])


class TestDistribution:
    def test_identity_resample_reproduces_estimate(self, rng):
        d = _dataset(rng)
        fit = fit_rank_rank(d, 1.0)
        identity = _resample(d, np.arange(d.n))
        refit = fit_rank_rank(identity, 1.0)
        assert refit.slope == fit.slope

    def test_fixed_seed_bitwise_reproducible(self, rng):
        d = _dataset(rng, tied=True)
        plan = BootstrapPlan(reps=60, seed=42)
        a = bootstrap_distribution(d, "rank-rank", 1.0, plan)
        b = bootstrap_distribution(d, "rank-rank", 1.0, plan)
        assert np.array_equal(a, b)

    def test_independent_of_evaluation_order(self, rng):
        d = _dataset(rng)
        plan = BootstrapPlan(reps=30, seed=9)
        reference = bootstrap_distribution(d, "rank-rank", 1.0, plan)
        sample = _Sample(d, "rank-rank", 1.0)
        shuffled = np.empty(plan.reps)
        for b in reversed(range(plan.reps)):
            values, _ = _chunk(_Resamples(sample, 1), plan.seed, [b])
            shuffled[b] = values[0, 0]
        assert np.array_equal(reference, shuffled)

    def test_se_close_to_plugin_under_smooth_dgp(self):
        rng = np.random.default_rng(31)
        n = 1000
        z1 = rng.standard_normal(n)
        z2 = 0.4 * z1 + np.sqrt(1 - 0.16) * rng.standard_normal(n)
        d = Dataset(y=z2, x=z1, w=np.ones((n, 1)))
        fit = fit_rank_rank(d, 1.0)
        plugin_se = float(plugin_slope_variance(fit, d).se[0])
        reps = bootstrap_distribution(d, "rank-rank", 1.0, BootstrapPlan(reps=500, seed=7))
        assert bootstrap_se(reps) == pytest.approx(plugin_se, rel=0.15)

    def test_ties_in_resamples_are_fine(self, rng):
        # even continuous data produce ties inside the resample; the pipeline
        # must rank and fit them without complaint
        d = _dataset(rng, n=50)
        reps = bootstrap_distribution(d, "rank-rank", 1.0, BootstrapPlan(reps=25, seed=0))
        assert np.all(np.isfinite(reps))

    def test_fragile_design_raises_diagnostic(self, rng):
        # an indicator column hit by a single row: ~35% of resamples miss it
        # and collapse the design, which must surface as a diagnostic error
        n = 12
        flag = np.zeros(n)
        flag[3] = 1.0
        d = Dataset(
            y=rng.normal(size=n),
            x=rng.normal(size=n),
            w=np.column_stack([np.ones(n), flag]),
        )
        with pytest.raises(BootstrapDiagnosticError):
            bootstrap_distribution(d, "rank-rank", 1.0, BootstrapPlan(reps=200, seed=1))

    def test_degenerate_sample_fails_before_resampling(self, rng):
        # a design singular on the whole sample is singular on every resample;
        # it fails as such, not as redraws of every replicate
        n = 30
        z = rng.normal(size=n)
        d = Dataset(y=rng.normal(size=n), x=rng.normal(size=n),
                    w=np.column_stack([np.ones(n), z, z]))
        with pytest.raises(SingularDesignError):
            bootstrap_distribution(d, "rank-rank", 1.0, BootstrapPlan(reps=5, seed=0))
        with pytest.raises(SingularDesignError):
            FitResult(d, "rank-rank", 1.0)

    def test_rank_level_returns_coefficient_matrix(self, rng):
        n = 60
        d = Dataset(
            y=rng.normal(size=n),
            w=np.column_stack([np.ones(n), (rng.random(n) > 0.5).astype(float)]),
        )
        reps = bootstrap_distribution(d, "rank-level", 1.0, BootstrapPlan(reps=20, seed=3))
        assert reps.shape == (20, 2)


SPECS = ("rank-rank", "rank-rank-group", "level-rank", "rank-level")


class TestLiteralOracle:
    """Multiplicity-weighted replicates against the literal resample-and-refit."""

    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    def test_matches_literal_refit(self, rng, spec, omega):
        d = _tied_design(rng)
        plan = BootstrapPlan(reps=30, seed=3)
        reps = bootstrap_distribution(d, spec, omega, plan).reshape(plan.reps, -1)
        for b in range(plan.reps):
            want, _ = _literal_replicate(d, spec, omega, plan.seed, b)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(reps[b] - want)) <= 1e-12 * scale

    def test_collinear_covariate_rejections_match(self, rng):
        # a binary covariate with nonzero levels 1 and 3: resamples that miss
        # its 3 rare rows make it a multiple of the intercept, which a
        # singularity check taken from Z'MZ (error on the cond^2 scale) lets
        # through with a garbage slope
        n = 40
        level = np.ones(n)
        level[[4, 17, 33]] = 3.0
        d = Dataset(y=make_tied_sample(rng, n), x=make_tied_sample(rng, n),
                    w=np.column_stack([np.ones(n), level]))
        sample = _Sample(d, "rank-rank", 0.5)
        total = 0
        for b in range(80):
            (value,), rejections = _chunk(_Resamples(sample, 1), 2, [b])
            want, want_rejections = _literal_replicate(d, "rank-rank", 0.5, 2, b)
            assert rejections == want_rejections
            assert abs(value[0] - want[0]) <= 1e-12 * abs(want[0])
            total += rejections
        assert total > 0

    @pytest.mark.parametrize("labels", [
        ["A"] * 57 + ["B"] * 3,
        ["A"] * 40 + ["B"] * 17 + ["C"] * 3,
    ], ids=["two-groups", "three-groups"])
    def test_resample_missing_a_group_is_redrawn(self, rng, labels):
        # a resample that misses a whole group used to shrink the label set:
        # with 2 groups the survivor's slope filled both columns, with 3 the
        # replicate did not fit its slot and a raw ValueError escaped
        n = len(labels)
        d = Dataset(y=make_tied_sample(rng, n), x=make_tied_sample(rng, n),
                    w=np.ones((n, 1)), g=np.array(labels))
        sample = _Sample(d, "rank-rank-group", 1.0)
        missed = 0
        for b in range(40):
            (value,), rejections = _chunk(_Resamples(sample, 1), 1, [b])
            want, want_rejections = _literal_replicate(d, "rank-rank-group", 1.0, 1, b)
            assert value.shape == (d.n_groups,)
            assert rejections == want_rejections
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))
            r = np.random.default_rng(np.random.SeedSequence(1, spawn_key=(b,)))
            missed += np.unique(d.group_index[r.integers(0, n, size=n)]).size < d.n_groups
        assert missed > 0

    @pytest.mark.parametrize("spec", SPECS)
    def test_replicates_independent_of_order_and_count(self, rng, spec):
        d = _tied_design(rng, n=60)
        full = bootstrap_distribution(d, spec, 0.5, BootstrapPlan(reps=24, seed=8))
        prefix = bootstrap_distribution(d, spec, 0.5, BootstrapPlan(reps=10, seed=8))
        assert np.array_equal(full[:10], prefix)
        sample = _Sample(d, spec, 0.5)
        reversed_order = np.empty_like(full.reshape(24, -1))
        for b in reversed(range(24)):
            reversed_order[b] = _chunk(_Resamples(sample, 1), 8, [b])[0][0]
        assert np.array_equal(full.reshape(24, -1), reversed_order)


class TestStackedReplicates:
    """Chunked replicates: the condition-number skip, chunk bounds and memory."""

    @staticmethod
    def _scaled(rng, scale, n=40):
        x = make_tied_sample(rng, n)
        return Dataset(y=x + make_tied_sample(rng, n), x=x,
                       w=np.column_stack([np.ones(n), scale * rng.normal(size=n)]))

    def test_covariate_scaled_past_the_skip_bound_is_judged_exactly(self, rng, monkeypatch):
        # a covariate scaled by 1e11 gives every draw a design with condition
        # number 3e11-5e11, inside (1e10, 1e12): the batched pass cannot clear
        # it, so the pivoted-QR rule judges each draw, and accepts it (its
        # diagonal ratio is at least 2.3e-12)
        d = self._scaled(rng, 1e11)
        wants = [_literal_replicate(d, "rank-rank", 0.5, 2, b) for b in range(60)]
        judged = []
        singular = estimators._singular

        def spy(R, column_names=None):
            judged.append(np.linalg.cond(R))
            return singular(R, column_names)

        monkeypatch.setattr(estimators, "_singular", spy)
        sample = FitResult(d, "rank-rank", 0.5)
        for b, (want, want_rejections) in enumerate(wants):
            (value,), rejections = _chunk(_Resamples(sample, 1), 2, [b])
            assert rejections == want_rejections == 0
            assert abs(value[0] - want[0]) <= 1e-12 * abs(want[0])
        assert len(judged) == 61
        assert 1e10 < min(judged) and max(judged) < 1e12

    def test_covariate_scaled_beyond_the_rule_is_refused(self, rng):
        # scaled by 1e14 the pivoted diagonal ratio is about 3e-15, under the
        # 1e-12 rule: the sample is refused, and so is every draw, as the
        # literal refit refuses each of the same 100 resamples
        d = self._scaled(rng, 1e14)
        with pytest.raises(SingularDesignError):
            bootstrap_distribution(d, "rank-rank", 0.5, BootstrapPlan(reps=5, seed=2))
        with pytest.raises(BootstrapDiagnosticError, match="100 consecutive"):
            _chunk(_Resamples(_Sample(d, "rank-rank", 0.5), 1), 2, [0])
        r = np.random.default_rng(np.random.SeedSequence(2, spawn_key=(0,)))
        for _ in range(100):
            with pytest.raises(SingularDesignError):
                fit_spec(_resample(d, r.integers(0, d.n, size=d.n)), "rank-rank", 0.5)

    @pytest.mark.parametrize("grouped, seed", [(False, 1), (True, 10)],
                             ids=["singular-draw", "dropped-group"])
    def test_chunks_equal_replicates_one_at_a_time(self, rng, grouped, seed):
        # n = 2,000 fits 8-10 replicates in a chunk, so 60 replicates span 6-8
        # chunks; the seeds give redraws inside chunks: a level covariate
        # whose 4 rare rows a draw misses, or a 5-row group (distinct x) that
        # a draw leaves with fewer than 2 rows, with one distinct x, or drops
        n, reps = 2000, 60
        x, y = make_tied_sample(rng, n), make_tied_sample(rng, n)
        if grouped:
            small = [7, 300, 900, 1400, 1999]
            g = np.where(np.isin(np.arange(n), small), "B", "A")
            x[small] = [0.0, 2.0, 4.0, 6.0, 8.0]
            d = Dataset(y=y, x=x, w=np.ones((n, 1)), g=g)
        else:
            level = np.ones(n)
            level[[10, 500, 1200, 1900]] = 3.0
            d = Dataset(y=y, x=x, w=np.column_stack([np.ones(n), level]))
        spec = "rank-rank-group" if grouped else "rank-rank"
        sample = _Sample(d, spec, 0.5)
        size = _CHUNK_BYTES // sample.system.nbytes
        assert 3 * size < reps
        full = bootstrap_distribution(d, spec, 0.5, BootstrapPlan(reps=reps, seed=seed))
        one_at_a_time = np.empty_like(full.reshape(reps, -1))
        redrawn = []
        for b in reversed(range(reps)):
            (one_at_a_time[b],), rejections = _chunk(_Resamples(sample, 1), seed, [b])
            redrawn += [b] * rejections
        assert np.array_equal(full.reshape(reps, -1), one_at_a_time)
        assert any(0 < b % size < size - 1 for b in redrawn)
        if grouped:
            dropped = 0
            for b in set(redrawn):
                r = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
                for _ in range(redrawn.count(b)):
                    dropped += "B" not in g[r.integers(0, n, size=n)]
            assert dropped > 0

    def test_memory_is_bounded_by_the_chunk(self):
        # 64 replicates at n = 20,000: their (B, n) draws alone are 10 MB,
        # while a chunk holds one replicate's 0.48 MB [Z, r]
        rng = np.random.default_rng(0)
        n = 20_000
        d = Dataset(y=rng.normal(size=n), x=rng.normal(size=n), w=np.ones((n, 1)))
        sample = FitResult(d, "rank-rank", 1.0)
        tracemalloc.start()
        try:
            _replicates(sample, BootstrapPlan(reps=64, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * _CHUNK_BYTES


def _income_sample(n):
    """boot-replicates' shape: incomes rounded to $100 (about 990 runs at n = 2,000), one covariate."""
    rng = np.random.default_rng(7)
    z = rng.standard_normal((3, n))
    x = np.round(np.exp(np.log(50_000.0) + 0.7 * z[0]) / 100.0) * 100.0
    y = np.round(np.exp(np.log(45_000.0) + 0.8 * (0.35 * z[0] + 0.94 * z[1])) / 100.0) * 100.0
    return FitResult(Dataset(y=y, x=x, w=np.column_stack([np.ones(n), z[2]])), "rank-rank", 1.0)


class TestWorkspace:
    """A slice of chunks is solved in one workspace: a chunk makes no array of the stack's size."""

    def test_a_chunk_allocates_no_stack_sized_array(self):
        # the workspace holds the (c, q+1, n) columns, m, sqrt(m), the run ids
        # and the run counts; a chunk makes its draws one at a time, one
        # bincount per ranked variable (R per resample), arrays of (q+1)^2 per
        # resample, and numpy's ufunc buffer of at most 8,192 values
        sample = _income_sample(2000)
        size = _CHUNK_BYTES // sample.system.nbytes
        assert size == 8
        tracemalloc.start()
        try:
            work = _Resamples(sample, size)
            workspace = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _chunk(work, 7, range(size))
            peak = tracemalloc.get_traced_memory()[1] - workspace
        finally:
            tracemalloc.stop()
        assert work.columns.nbytes == 8 * 4 * 2000 * 8
        assert peak < workspace / 10

    def test_peak_does_not_grow_with_the_replicates(self, monkeypatch):
        # one process, where every chunk is traced; the workspace is sized for
        # the first chunk, so the peak grows by the replicates' own values and
        # their chunks' entries alone, under 64 bytes a replicate, where one
        # chunk's columns are 512 KB
        monkeypatch.setattr(bootstrap, "_cpus", lambda: 1)
        sample = _income_sample(2000)
        peaks = {}
        for reps in (80, 640):
            tracemalloc.start()
            try:
                _replicates(sample, BootstrapPlan(reps=reps, seed=0))
                peaks[reps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[640] - peaks[80] < 64 * (640 - 80)


class TestFrozenRankRegression:
    def test_frozen_ranks_change_the_distribution(self, rng):
        # resampling precomputed rank rows (the invalid shortcut) must give a
        # detectably different replicate distribution on tied data, because
        # the resample's tie pattern changes the ranks themselves
        n = 60
        x = (rng.random(n) < 0.75).astype(float)
        y = 2.0 * x + (rng.random(n) < 0.5).astype(float)
        d = Dataset(y=y, x=x, w=np.ones((n, 1)))
        plan = BootstrapPlan(reps=400, seed=11)
        proper = bootstrap_distribution(d, "rank-rank", 1.0, plan)

        rx = rank_transform(x, 1.0)
        ry = rank_transform(y, 1.0)
        frozen = np.empty(plan.reps)
        for b in range(plan.reps):
            r = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(b,)))
            idx = r.integers(0, d.n, size=d.n)
            Z = np.column_stack([rx[idx], np.ones(d.n)])
            frozen[b] = ols(Z, ry[idx])[0]
        # same resample indices, so every difference is rank recomputation;
        # the frozen shortcut misstates the spread, not just single draws
        assert np.max(np.abs(proper - frozen)) > 1e-3
        assert abs(np.std(proper) - np.std(frozen)) > 0.25 * np.std(proper)


class TestCi:
    def test_constant_replicates(self):
        plan = BootstrapPlan(reps=100, seed=0)
        assert bootstrap_ci(np.full(100, 3.25), 3.25, plan) == (3.25, 3.25)

    def test_type1_quantile_positions(self):
        plan = BootstrapPlan(reps=200, seed=0, alpha=0.05)
        reps = np.arange(1.0, 201.0)
        lo, hi = bootstrap_ci(reps, 100.0, plan)
        # ceil(0.025*200) = 5th and ceil(0.975*200) = 195th order statistics
        assert (lo, hi) == (5.0, 195.0)

    def test_kinds_agree_for_symmetric_replicates(self, rng):
        point = 0.4
        reps = point + rng.standard_normal(5000) * 0.03
        pct = bootstrap_ci(reps, point, BootstrapPlan(reps=5000, seed=0))
        nrm = bootstrap_ci(reps, point, BootstrapPlan(reps=5000, seed=0, ci_kind="normal"))
        assert pct[0] == pytest.approx(nrm[0], abs=0.005)
        assert pct[1] == pytest.approx(nrm[1], abs=0.005)

    def test_percentile_needs_enough_replicates(self):
        plan = BootstrapPlan(reps=10, seed=0)
        with pytest.raises(InvalidInputError):
            bootstrap_ci(np.arange(10.0), 5.0, plan)

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            BootstrapPlan(reps=0)
        with pytest.raises(InvalidInputError):
            BootstrapPlan(ci_kind="studentized")
        with pytest.raises(InvalidInputError):
            BootstrapPlan(alpha=1.0)


class TestReport:
    def test_report_shape_and_interval(self, rng):
        d = _dataset(rng, n=60)
        plan = BootstrapPlan(reps=99, seed=2)
        report = bootstrap_report(fit_rank_rank(d, 1.0), plan)
        assert report.method == "bootstrap"
        assert report.names == ["rank(x)"]
        assert report.ci.shape == (1, 2)
        assert report.ci[0, 0] <= report.estimates[0] <= report.ci[0, 1]


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch, tmp_path):
    """Split every loop over three CPUs; returns the pids that forked, in order."""
    log = tmp_path / "forks"
    fork = os.fork

    def logged():
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return fork()

    monkeypatch.setattr(os, "fork", logged)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(bootstrap, "_SPLIT_MIN_S", 0.0)
    return lambda: [int(pid) for pid in log.read_text().split()] if log.exists() else []


def _run_both(monkeypatch, forks, call):
    """``call()`` on one CPU, then split over three: both results."""
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = call()
    assert forks() == []
    split = call()
    assert forks() and set(forks()) == {os.getpid()}
    return alone, split


def _failing_sample(first, error):
    """A copula sampler that raises ``error(rep)`` from rep ``first`` on."""
    sample = copulas.CopulaModel.sample

    def failing(model, n, rng):
        rep = rng.bit_generator.seed_seq.spawn_key[0]
        if rep >= first:
            raise error(rep)
        return sample(model, n, rng)

    return failing


class TestSpread:
    """Forked workers give what one process gives, fail as it fails, and leave nothing."""

    @pytest.mark.parametrize("spec", SPECS)
    def test_bootstrap_is_bitwise_the_same_split(self, rng, monkeypatch, forks, spec):
        # one replicate per chunk, so 60 replicates are 60 units to split
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1)
        d = _tied_design(rng)

        def call():
            fit = FitResult(d, spec, 0.5)
            out = [bootstrap_distribution(d, spec, 0.5, BootstrapPlan(reps=60, seed=3))]
            for kind in ("percentile", "normal"):
                report = bootstrap_report(fit, BootstrapPlan(reps=60, seed=4, ci_kind=kind))
                out += [report.se, report.ci, report.variance]
            return [a.tobytes() for a in out]

        alone, split = _run_both(monkeypatch, forks, call)
        assert split == alone
        _no_children()

    def test_coverage_is_bitwise_the_same_split(self, monkeypatch, forks):
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1 << 12)
        plan = BootstrapPlan(reps=50, ci_kind="normal")

        def call():
            return copulas.coverage_experiment(
                copulas.reflection(0.3), n=80, reps=9, seed=5,
                methods=("plugin", "hom", "ew", "bootstrap"), bootstrap_plan=plan)

        alone, split = _run_both(monkeypatch, forks, call)
        assert [repr(row) for row in split] == [repr(row) for row in alone]
        _no_children()

    def test_coverage_stacks_are_bitwise_the_same_split(self, monkeypatch, forks):
        # 9 reps in stacks of three: stack 0 runs alone, and the other two are
        # cut into two slices, one of them forked
        monkeypatch.setattr(copulas, "_STACK_DRAWS", 3 * 80)
        monkeypatch.setattr(copulas, "_STACKS_PER_CPU", 1)
        assert copulas._stack_size(80, 9) == 3

        def call():
            return copulas.coverage_experiment(copulas.reflection(0.3), n=80, reps=9, seed=5)

        alone, split = _run_both(monkeypatch, forks, call)
        assert [repr(row) for row in split] == [repr(row) for row in alone]
        assert forks() == [os.getpid()]
        _no_children()

    def test_workers_never_fork(self, monkeypatch, forks):
        # each rep's bootstrap has 5 chunks; in a worker it runs serially, so
        # every fork comes from this process: 2 by rep 0's own bootstrap,
        # which runs before the reps are split, and 2 for the reps
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1 << 12)
        copulas.coverage_experiment(copulas.reflection(0.3), n=80, reps=7, seed=1,
                                    methods=("bootstrap",),
                                    bootstrap_plan=BootstrapPlan(reps=50))
        assert forks() == [os.getpid()] * 4
        _no_children()

    def test_slice_without_a_worker_runs_here(self, monkeypatch, forks):
        # the second fork fails as under a process limit; its slice runs here
        def call():
            return [repr(row) for row in copulas.coverage_experiment(
                copulas.reflection(0.5), n=40, reps=10, seed=2)]

        alone, split = _run_both(monkeypatch, forks, call)
        fork = os.fork
        started = []

        def limited():
            started.append(os.getpid())
            if len(started) == 2:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", limited)
        assert call() == split == alone
        assert started == [os.getpid()] * 2
        _no_children()

    def test_threaded_process_stays_serial(self, forks):
        # a forked worker would hold only this thread
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            rows = copulas.coverage_experiment(copulas.reflection(0.5), n=40, reps=10, seed=2)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks() == []
        assert [repr(row) for row in rows] == [repr(row) for row in copulas.coverage_experiment(
            copulas.reflection(0.5), n=40, reps=10, seed=2)]
        assert forks() == [os.getpid()] * 2

    @pytest.mark.parametrize("first", [0, 2, 5, 8],
                             ids=["first-unit", "caller-slice", "worker-1", "worker-2"])
    @pytest.mark.parametrize("error", [
        lambda rep: InvalidInputError(f"rep {rep} refused"),
        lambda rep: SingularDesignError(f"rep {rep} is singular", column=f"c{rep}"),
    ], ids=["invalid", "singular"])
    def test_failure_is_the_one_process_failure(self, monkeypatch, forks, first, error):
        # 10 reps over 3 CPUs: rep 0 is timed here, then reps 1-3 run here and
        # 4-6 and 7-9 in two workers; the lowest failing rep raises
        monkeypatch.setattr(copulas.CopulaModel, "sample", _failing_sample(first, error))

        def call():
            with pytest.raises(RankRegressionError) as err:
                copulas.coverage_experiment(copulas.reflection(0.5), n=40, reps=10, seed=2)
            return type(err.value), str(err.value), getattr(err.value, "column", None)

        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            alone = call()
        assert alone[1].startswith(f"rep {first} ")
        assert call() == alone
        assert forks() == ([] if first == 0 else [os.getpid()] * 2)
        _no_children()

    def test_interrupted_caller_reaps_its_workers(self, monkeypatch, forks):
        sample = copulas.CopulaModel.sample

        def interrupted(model, n, rng):  # rep 2 runs in the caller's slice
            if rng.bit_generator.seed_seq.spawn_key[0] == 2:
                raise KeyboardInterrupt
            return sample(model, n, rng)

        monkeypatch.setattr(copulas.CopulaModel, "sample", interrupted)
        with pytest.raises(KeyboardInterrupt):
            copulas.coverage_experiment(copulas.reflection(0.5), n=40, reps=10, seed=2)
        assert forks() == [os.getpid()] * 2
        assert not bootstrap._splitting
        _no_children()


class TestPercentileCoverage:
    def test_percentile_ci_covers_under_independence(self):
        # B = 299, n = 500: empirical percentile-interval coverage of the
        # true slope (zero under independence) over 1000 draws
        reps = 1000
        n = 500
        plan_template = dict(reps=299, alpha=0.05)
        covered = 0
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(4321, spawn_key=(rep,)))
            d = Dataset(y=rng.random(n), x=rng.random(n), w=np.ones((n, 1)))
            plan = BootstrapPlan(seed=rep, **plan_template)
            boots = bootstrap_distribution(d, "rank-rank", 1.0, plan)
            fit = fit_rank_rank(d, 1.0)
            lo, hi = bootstrap_ci(boots, fit.slope, plan)
            covered += lo <= 0.0 <= hi
        assert abs(covered / reps - 0.95) <= 0.025


@pytest.mark.parametrize("call, message", [
    (lambda: bootstrap_se([0.3]), "need at least two replicates for a bootstrap SE"),
    (lambda: bootstrap_se(np.ones((1, 3))), "need at least two replicates for a bootstrap SE"),
    (lambda: BootstrapPlan(seed=-1), "seed must be a nonnegative integer, got -1"),
    (lambda: bootstrap_se([1.0, np.nan, 2.0]), "bootstrap replicates must all be finite"),
    (lambda: bootstrap_se(np.array([[0.1, 0.2], [np.inf, 0.3], [0.2, 0.1]])),
     "bootstrap replicates must all be finite"),
    # a NaN sorts last, so it would still count in B and move the upper quantile
    (lambda: bootstrap_ci(np.r_[np.arange(60.0), np.nan], 0.0, BootstrapPlan(reps=61)),
     "bootstrap replicates must all be finite"),
    (lambda: bootstrap_ci(np.r_[np.arange(60.0), -np.inf], 0.0,
                          BootstrapPlan(reps=61, ci_kind="normal")),
     "bootstrap replicates must all be finite"),
], ids=["se-one-scalar", "se-one-vector", "plan-seed", "se-nan", "se-inf-vector",
        "ci-percentile-nan", "ci-normal-inf"])
def test_refusal_messages(call, message):
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message
