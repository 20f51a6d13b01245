"""Bootstrap resampling: determinism, interval construction, rank recomputation."""

import numpy as np
import pytest

from rankreg import (
    AssumptionViolationError,
    BootstrapDiagnosticError,
    BootstrapPlan,
    Dataset,
    InvalidInputError,
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
from rankreg.bootstrap import replicate_statistic

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
        shuffled = np.empty(plan.reps)
        for b in reversed(range(plan.reps)):
            value, _ = replicate_statistic(d, "rank-rank", 1.0, plan.seed, b)
            shuffled[b] = value[0]
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
            replicate_statistic(d, "rank-rank", 1.0, 0, 0)

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
        total = 0
        for b in range(80):
            value, rejections = replicate_statistic(d, "rank-rank", 0.5, 2, b)
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
        missed = 0
        for b in range(40):
            value, rejections = replicate_statistic(d, "rank-rank-group", 1.0, 1, b)
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
        reversed_order = np.empty_like(full.reshape(24, -1))
        for b in reversed(range(24)):
            reversed_order[b] = replicate_statistic(d, spec, 0.5, 8, b)[0]
        assert np.array_equal(full.reshape(24, -1), reversed_order)


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
        report = bootstrap_report(d, "rank-rank", 1.0, plan)
        assert report.method == "bootstrap"
        assert report.names == ["rank(x)"]
        assert report.ci.shape == (1, 2)
        assert report.ci[0, 0] <= report.estimates[0] <= report.ci[0, 1]


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
