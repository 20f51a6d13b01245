"""Copula samplers, closed-form oracles, variance curves, and calibration."""

import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankreg.estimators as estimators
import rankreg.inference as inference
from rankreg import (
    AssumptionViolationError,
    BootstrapPlan,
    CalibrationError,
    CopulaModel,
    Dataset,
    InvalidInputError,
    RankRegressionError,
    bootstrap_report,
    calibrate_parameter,
    copulas,
    fit_spec,
    gaussian,
    independence,
    quadratic,
    rank_transform,
    reflection,
    reflection_closed_forms,
    sample_copula,
    spearman,
    student_t1,
    true_rank_correlation,
    variance_curve,
    variance_triple_mc,
)
from rankreg.copulas import CoverageRow
from rankreg.estimators import _QR_ROWS
from rankreg.inference import ew_covariance, hom_covariance, plugin_slope_variance
from rankreg.kernels import tie_runs


class TestClosedForms:
    def test_values_at_one_half(self):
        forms = reflection_closed_forms(0.5)
        assert forms.sigma2 == pytest.approx(0.5625, abs=1e-15)
        assert forms.sigma2_hom == pytest.approx(0.4375, abs=1e-15)
        assert forms.sigma2_ew == pytest.approx(0.375, abs=1e-15)
        assert forms.rho == pytest.approx(0.75, abs=1e-15)

    def test_ew_at_one_fifth_against_moment_form(self):
        # second evaluation route: the centered-moment composition
        # 144 (M22 - 2 rho M31 + rho^2 / 80) with the family's moments
        a = 0.2
        m22 = 1 / 80 - a**3 / 6 + a**4 / 3 - a**5 / 6
        m31 = 1 / 80 - a**3 / 8 + a**4 / 4 - 3 * a**5 / 20
        rho = 1 - 2 * a**3
        via_moments = 144 * (m22 - 2 * rho * m31 + rho**2 / 80)
        forms = reflection_closed_forms(a)
        assert forms.sigma2_ew == pytest.approx(via_moments, abs=1e-12)
        assert forms.sigma2_ew == pytest.approx(0.061218816, abs=1e-9)

    def test_naive_inflation_grows_as_parameter_shrinks(self):
        small = reflection_closed_forms(0.1)
        mid = reflection_closed_forms(0.5)
        assert small.sigma2_hom / small.sigma2 > mid.sigma2_hom / mid.sigma2

    def test_parameter_range(self):
        with pytest.raises(InvalidInputError):
            reflection_closed_forms(0.0)
        with pytest.raises(InvalidInputError):
            reflection_closed_forms(1.0)


class TestSamplers:
    def test_gaussian_independence(self):
        x, y = sample_copula(gaussian(0.0), 100_000, 3)
        assert spearman(x, y, 0.5) == pytest.approx(0.0, abs=0.01)

    def test_reflection_rank_correlation(self):
        x, y = sample_copula(reflection(0.5), 100_000, 4)
        assert spearman(x, y, 0.5) == pytest.approx(0.75, abs=0.01)

    def test_quadratic_monotone_limit(self):
        x, y = sample_copula(quadratic(1.0), 20_000, 5)
        assert spearman(x, y, 0.5) >= 0.999

    def test_student_t1_heavy_tails_sample(self):
        x, y = sample_copula(student_t1(0.5), 50_000, 6)
        assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
        assert spearman(x, y, 0.5) > 0.2

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            gaussian(1.5)
        with pytest.raises(InvalidInputError):
            quadratic(-0.1)
        with pytest.raises(InvalidInputError):
            reflection(1.0)
        with pytest.raises(InvalidInputError):
            CopulaModel("independence", 0.3)
        with pytest.raises(InvalidInputError):
            CopulaModel("archimedean", 0.3)

    def test_seed_reproducibility(self):
        a = sample_copula(gaussian(0.4), 100, 9)
        b = sample_copula(gaussian(0.4), 100, 9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("family", ["gaussian", "student_t1"])
    def test_draw_is_the_two_normal_construction(self, family):
        # z2 = theta z1 + sqrt(1 - theta^2) z, from the same stream; the t1
        # pair divides both by sqrt(chi2_1), drawn after them
        theta, n = -0.35, 500
        x, y = CopulaModel(family, theta).sample(n, np.random.default_rng(41))
        rng = np.random.default_rng(41)
        z1 = rng.standard_normal(n)
        z2 = theta * z1 + np.sqrt(1.0 - theta * theta) * rng.standard_normal(n)
        if family == "student_t1":
            mix = np.sqrt(rng.chisquare(1, n))
            z1, z2 = z1 / mix, z2 / mix
        assert x.tobytes() == z1.tobytes() and y.tobytes() == z2.tobytes()


class TestVarianceTripleMc:
    def test_independence_all_one(self):
        triple = variance_triple_mc(independence(), 200_000, 1)
        assert triple.sigma2 == pytest.approx(1.0, abs=0.05)
        assert triple.sigma2_hom == pytest.approx(1.0, abs=0.05)
        assert triple.sigma2_ew == pytest.approx(1.0, abs=0.05)
        assert triple.rho == pytest.approx(0.0, abs=0.02)

    def test_reflection_matches_closed_forms(self):
        triple = variance_triple_mc(reflection(0.5), 500_000, 2)
        forms = reflection_closed_forms(0.5)
        assert triple.sigma2 == pytest.approx(forms.sigma2, abs=0.02)
        assert triple.sigma2_hom == pytest.approx(forms.sigma2_hom, abs=0.02)
        assert triple.sigma2_ew == pytest.approx(forms.sigma2_ew, abs=0.02)
        assert triple.rho == pytest.approx(forms.rho, abs=0.01)

    def test_convergence_within_mc_noise(self):
        # disjoint-seed replications bracket the closed forms within 3 SEs
        for a in (0.2, 0.5, 0.8):
            forms = reflection_closed_forms(a)
            draws = np.array([
                [t.sigma2, t.sigma2_hom, t.sigma2_ew]
                for t in (variance_triple_mc(reflection(a), 100_000, seed)
                          for seed in range(8))
            ])
            means = draws.mean(axis=0)
            ses = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
            targets = [forms.sigma2, forms.sigma2_hom, forms.sigma2_ew]
            for mean, se, target in zip(means, ses, targets):
                assert abs(mean - target) < 3 * max(se, 1e-6)

    def test_gaussian_at_calibrated_parameter(self):
        # hom and ew close to the correct variance, both slightly above
        # (the hom ratio is ~1.13 at this parameter, ew ~1.05)
        triple = variance_triple_mc(gaussian(0.40), 300_000, 3)
        assert 1.0 < triple.sigma2_hom / triple.sigma2 < 1.15
        assert 1.0 < triple.sigma2_ew / triple.sigma2 < 1.15

    def test_student_t1_at_calibrated_parameter(self):
        # hom well below the correct variance, ew essentially equal
        triple = variance_triple_mc(student_t1(0.445), 300_000, 4)
        assert triple.sigma2_hom / triple.sigma2 < 0.85
        assert triple.sigma2_ew / triple.sigma2 == pytest.approx(1.0, abs=0.08)

    def test_quadratic_at_calibrated_parameter(self):
        # both naive variances substantially below the correct one
        triple = variance_triple_mc(quadratic(0.131), 300_000, 5)
        assert triple.sigma2_hom < 0.8 * triple.sigma2
        assert triple.sigma2_ew < 0.9 * triple.sigma2

    def test_depends_only_on_copula(self):
        model = gaussian(0.3)
        x, y = sample_copula(model, 50_000, 7)
        u = rank_transform(x, 0.5)
        v = rank_transform(y, 0.5)

        class _Fixed:
            def __init__(self, x, y):
                self._xy = (x, y)

            def sample(self, n, seed):
                return self._xy

        base = variance_triple_mc(_Fixed(x, y), 50_000, 0)
        warped = variance_triple_mc(_Fixed(np.exp(x), np.arctan(y)), 50_000, 0)
        assert warped.sigma2 == base.sigma2
        assert warped.sigma2_ew == base.sigma2_ew
        assert warped.rho == base.rho
        assert np.array_equal(u, rank_transform(np.exp(x), 0.5))

    def test_needs_enough_draws(self):
        with pytest.raises(InvalidInputError):
            variance_triple_mc(independence(), 100, 0)


class TestVarianceCurve:
    def test_independence_endpoints_near_one(self):
        rows = variance_curve("gaussian", [0.0], n_mc=100_000, seed=0)
        triple = rows[0][1]
        assert triple.sigma2 == pytest.approx(1.0, abs=0.06)
        assert triple.sigma2_hom == pytest.approx(1.0, abs=0.06)
        assert triple.sigma2_ew == pytest.approx(1.0, abs=0.06)

    def test_student_t1_zero_parameter_is_not_independence(self):
        # the shared radial mixing makes the t1 components dependent even at
        # zero correlation: the rank correlation vanishes but the correct
        # variance sits well above one while 1 - rho^2 stays at one
        rows = variance_curve("student_t1", [0.0], n_mc=100_000, seed=0)
        triple = rows[0][1]
        assert triple.rho == pytest.approx(0.0, abs=0.02)
        assert triple.sigma2_hom == pytest.approx(1.0, abs=0.06)
        assert triple.sigma2 > 1.2

    def test_gaussian_curve_is_smooth(self):
        grid = np.linspace(0.0, 0.9, 10)
        rows = variance_curve("gaussian", grid, n_mc=50_000, seed=1)
        values = np.array([triple.sigma2 for _, triple in rows])
        steps = np.abs(np.diff(values))
        assert np.max(steps) <= 5.0 * max(np.median(steps), 1e-3)


class TestCalibration:
    def test_gaussian_zero_target(self):
        theta = calibrate_parameter("gaussian", 0.0, seed=0, n_mc=100_000)
        assert theta == pytest.approx(0.0, abs=0.02)

    def test_reflection_inverts_closed_form(self):
        # rho = 1 - 2 a^3 so target 0.75 corresponds to a = 0.5; with a
        # million draws the Monte Carlo noise floor is ~1e-3 on the rank
        # correlation, i.e. ~2e-3 on the parameter
        a = calibrate_parameter("reflection", 0.75, tolerance=0.001, seed=0,
                                n_mc=1_000_000)
        assert a == pytest.approx(0.5, abs=2e-3)

    @pytest.mark.parametrize("family", ["gaussian", "student_t1", "quadratic", "reflection"])
    def test_round_trip_on_target_grid(self, family):
        for target in (0.2, 0.384, 0.6):
            param = calibrate_parameter(family, target, seed=11, n_mc=100_000)
            model = CopulaModel(family, param)
            x, y = sample_copula(model, 200_000, 123)
            assert spearman(x, y, 0.5) == pytest.approx(target, abs=0.01)

    def test_unreachable_target(self):
        with pytest.raises(CalibrationError):
            calibrate_parameter("reflection", 1.5, seed=0, n_mc=20_000)

    @pytest.mark.parametrize("family", ["gaussian", "reflection"])
    def test_bisection_ends_by_its_width_rule(self, family, monkeypatch):
        # with tolerance 0 only the halving bracket stops the search: the two
        # ends and about 25 midpoints
        calls = []

        def counted(x, y, omega):
            calls.append(omega)
            return spearman(x, y, omega)

        monkeypatch.setattr(copulas, "spearman", counted)
        param = calibrate_parameter(family, 0.3, tolerance=0.0, seed=2, n_mc=2_000)
        assert 0.0 < param < 1.0
        assert len(calls) <= 30

    def test_gaussian_calibrated_for_mobility_benchmark(self):
        # the 0.384 benchmark lands near theta = 0.4 for the gaussian family
        theta = calibrate_parameter("gaussian", 0.384, seed=3, n_mc=200_000)
        assert theta == pytest.approx(0.40, abs=0.02)


class TestTrueRankCorrelation:
    def test_closed_forms(self):
        assert true_rank_correlation(independence()) == 0.0
        assert true_rank_correlation(reflection(0.2)) == pytest.approx(1 - 2 * 0.2**3)
        for a in (1e-6, 0.2, 0.5, 0.7, 0.999):
            assert true_rank_correlation(reflection(a)) == reflection_closed_forms(a).rho

    def test_mc_truth_is_cached_and_stable(self):
        model = gaussian(0.4)
        first = true_rank_correlation(model, n_mc=200_000)
        second = true_rank_correlation(model, n_mc=200_000)
        assert first == second
        assert first == pytest.approx(0.3845, abs=0.01)


class TestCoverageExperiment:
    def test_independence_all_methods_nominal(self):
        from rankreg import coverage_experiment, independence

        rows = coverage_experiment(
            independence(), n=1000, reps=2000,
            methods=("plugin", "hom", "ew"), seed=2020)
        for row in rows:
            assert abs(row.coverage - 0.95) <= 0.02, row.method
            assert row.mean_ci_width > 0.0
            assert row.mc_se < 0.01

    def test_bootstrap_reuses_the_rep_fit(self, monkeypatch):
        # each rep fits its sample once; the bootstrap replicates it passes to
        # the interval are those of bootstrap_distribution on the same sample
        import rankreg.bootstrap as bootstrap
        import rankreg.estimators as estimators
        from rankreg import bootstrap_distribution, coverage_experiment, reflection

        fit_calls = []
        fit_init = estimators.FitResult.__init__
        seen = []
        replicates = bootstrap._replicates

        def counting_init(fit, *args):
            fit_calls.append(fit)
            fit_init(fit, *args)

        def spy(sample, plan):
            out = replicates(sample, plan)
            seen.append((sample.data, plan, out[:, 0]))
            return out

        # the spies see only this process's fits, so the reps stay on one CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(estimators.FitResult, "__init__", counting_init)
        monkeypatch.setattr(bootstrap, "_replicates", spy)
        coverage_experiment(reflection(0.3), n=60, reps=4, methods=("bootstrap",),
                            seed=5, bootstrap_plan=BootstrapPlan(reps=50, seed=0))
        assert len(fit_calls) == 4
        assert len(seen) == 4
        monkeypatch.undo()
        for d, plan, boots in seen:
            assert np.array_equal(boots, bootstrap_distribution(d, "rank-rank", 1.0, plan))

    def test_bootstrap_defaults_to_299_replicates(self):
        def rows(plan):
            return copulas.coverage_experiment(reflection(0.3), n=40, reps=3,
                                               methods=("bootstrap",), alpha=0.1, seed=2,
                                               bootstrap_plan=plan)

        assert repr(rows(None)) == repr(rows(BootstrapPlan(reps=299)))

    def test_reports_width_and_mc_se(self):
        from rankreg import coverage_experiment, reflection

        rows = coverage_experiment(reflection(0.5), n=400, reps=100,
                                   methods=("plugin",), seed=3)
        row = rows[0]
        assert row.n == 400 and row.reps == 100
        assert row.true_value == pytest.approx(0.75)


def _per_rep_rows(model, n, reps, methods, alpha, omega, seed, plan):
    """The coverage rows rep by rep: Dataset, fit_spec, then each method's interval."""
    truth = true_rank_correlation(model)
    covered, widths = np.zeros((2, reps, len(methods)))
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        x, y = model.sample(n, rng)
        fit = fit_spec(Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"]), "rank-rank",
                       omega)
        variances = {"plugin": plugin_slope_variance, "hom": hom_covariance,
                     "ew": ew_covariance,
                     "bootstrap": lambda fit, alpha: bootstrap_report(fit, replace(
                         plan, seed=int(rng.integers(2**63)), alpha=alpha))}
        for k, m in enumerate(methods):
            lo, hi = variances[m](fit, alpha=alpha).ci[0]
            covered[rep, k] = lo <= truth <= hi
            widths[rep, k] = hi - lo
    rows = []
    for k, m in enumerate(methods):
        cov = float(covered[:, k].mean())
        rows.append(CoverageRow(method=m, coverage=cov, mean_ci_width=float(widths[:, k].mean()),
                                mc_se=float(np.sqrt(max(cov * (1.0 - cov), 1e-12) / reps)),
                                n=n, reps=reps, alpha=alpha, true_value=float(truth)))
    return rows


def _outcome(call):
    """The repr of what ``call()`` returns, or the type and message of its error."""
    try:
        return repr(call())
    except RankRegressionError as err:
        return type(err), str(err)


def _stacks_of(m, size, n):
    """Force stacks of ``size`` reps of n draws, in this process."""
    m.setattr(copulas, "_STACK_DRAWS", size * n)
    m.setattr(copulas, "_STACKS_PER_CPU", 1)
    m.setattr(os, "sched_getaffinity", lambda pid: {0})


# a few parameters per family, so the population truths are drawn once
MODELS = [gaussian(0.4), gaussian(-0.9), student_t1(-0.5), student_t1(1.0), quadratic(0.3),
          quadratic(1.0), reflection(0.2), reflection(0.7), independence()]


class TestStackedReps:
    """Reps solved in stacks give the rows, and the errors, of one rep at a time."""

    @settings(max_examples=100, deadline=None)
    @given(model=st.sampled_from(MODELS),
           n=st.one_of(st.integers(3, 60), st.integers(61, 600),
                       st.integers(2 * _QR_ROWS, 2500)),
           reps=st.integers(1, 7), size=st.integers(2, 4),
           methods=st.lists(st.sampled_from(["plugin", "hom", "ew", "bootstrap"]),
                            min_size=1, max_size=4, unique=True),
           alpha=st.sampled_from([0.01, 0.05, 0.1, 0.5]),
           omega=st.sampled_from([0.0, 0.25, 0.5, 1.0]), seed=st.integers(0, 2**32))
    def test_rows_are_bitwise_those_of_one_rep_at_a_time(self, model, n, reps, size, methods,
                                                           alpha, omega, seed):
        plan = BootstrapPlan(reps=20, ci_kind="normal")
        args = (model, n, reps, tuple(methods), alpha, omega, seed)
        with pytest.MonkeyPatch.context() as m:
            _stacks_of(m, size, n)
            assert copulas._stack_size(n, reps) == min(size, reps)
            stacked = _outcome(lambda: copulas.coverage_experiment(*args, bootstrap_plan=plan))
        assert stacked == _outcome(lambda: _per_rep_rows(*args, plan))

    @pytest.mark.parametrize("refused", [
        # a non-finite x at rep 7, then an all-tied x at rep 8: rep 7 raises
        {7: np.nan, 8: 0.5},
        # an all-tied x at rep 2, then a non-finite x at rep 3: rep 2 raises
        {2: 0.5, 3: np.inf},
        # an all-tied x at rep 2, then a draw that raises at rep 3: rep 2 raises
        {2: 0.5, 3: InvalidInputError("rep 3 refused")},
    ], ids=["non-finite", "all-tied", "all-tied-then-raising"])
    @pytest.mark.parametrize("methods", [("plugin", "hom", "ew"), ("ew", "bootstrap")])
    def test_the_lowest_refused_rep_raises_its_own_error(self, monkeypatch, refused, methods):
        sample = CopulaModel.sample

        def refusing(model, n, rng):  # rep k's x is all refused[k], or it raises refused[k]
            x, y = sample(model, n, rng)
            rep = rng.bit_generator.seed_seq.spawn_key[0]
            if isinstance(refused.get(rep), Exception):
                raise refused[rep]
            return (np.full(n, refused[rep]) if rep in refused else x), y

        monkeypatch.setattr(CopulaModel, "sample", refusing)
        args = (reflection(0.3), 40, 10, methods, 0.05, 1.0, 4)
        plan = BootstrapPlan(reps=20, ci_kind="normal")
        expected = _outcome(lambda: _per_rep_rows(*args, plan))
        first = min(refused)
        assert expected[1] == ("x contains non-finite values" if np.isnan(refused[first])
                               else "design is numerically singular at rank(x)")
        with monkeypatch.context() as m:
            _stacks_of(m, 5, 40)  # the refused reps sit inside a stack of reps 0-4 or 5-9
            assert _outcome(lambda: copulas.coverage_experiment(
                *args, bootstrap_plan=plan)) == expected

    def test_the_first_stage_rule_is_the_lone_fits(self, monkeypatch):
        # a rep of the stack is refused by the lone fit's first-stage rule
        # itself: with the threshold above every rank variance, the stack and
        # rep by rep both raise it
        monkeypatch.setattr(estimators, "_DEGENERATE_VAR", 1.0)
        args = (reflection(0.3), 40, 6, ("plugin", "hom", "ew"), 0.05, 1.0, 4)
        expected = _outcome(lambda: _per_rep_rows(*args, None))
        assert expected == (AssumptionViolationError,
                            "rank variation is fully explained by the covariates")
        with monkeypatch.context() as m:
            _stacks_of(m, 3, 40)
            assert _outcome(lambda: copulas.coverage_experiment(*args)) == expected

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    @pytest.mark.parametrize("model", [quadratic(0.3), reflection(0.7)])
    def test_plugin_sums_over_many_chunks_are_the_lone_fits(self, monkeypatch, chunk, model):
        # at n = 300 each rep's plugin sum runs over 300, 43 or 5 chunks
        monkeypatch.setattr(inference, "_CHUNK_ENTRIES", chunk)
        args = (model, 300, 8, ("plugin",), 0.05, 0.5, 9)
        with monkeypatch.context() as m:
            _stacks_of(m, 4, 300)
            stacked = _outcome(lambda: copulas.coverage_experiment(*args))
        assert stacked == _outcome(lambda: _per_rep_rows(*args, None))

    def test_a_stack_is_one_qr_and_no_lone_fit(self, monkeypatch):
        calls = {"fits": 0, "qr": 0}
        fit_init, r_factors = estimators.FitResult.__init__, estimators._r_factors

        def counting_init(fit, *args):
            calls["fits"] += 1
            fit_init(fit, *args)

        def counting_qr(system):
            calls["qr"] += 1
            return r_factors(system)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(estimators.FitResult, "__init__", counting_init)
        monkeypatch.setattr(estimators, "_r_factors", counting_qr)
        monkeypatch.setattr(copulas, "_r_factors", counting_qr)
        size = copulas._stack_size(1000, 40)
        assert size > 1
        copulas.coverage_experiment(reflection(0.2), 1000, 40, seed=7)
        assert calls == {"fits": 0, "qr": math.ceil(40 / size)}
        assert copulas._stack_size(copulas._STACK_DRAWS + 1, 10_000) == 1

    def test_intervals_build_no_covariance_or_report(self, monkeypatch):
        # each method's slope variances come from the stack's arrays, not from
        # a (2c, 2c) variance and a report per stack
        def refused(*args, **kwargs):
            raise AssertionError("a generic covariance or report was built")

        for module in (inference, copulas):
            for name in ("hom_covariance", "ew_covariance", "_report_from_variance"):
                monkeypatch.setattr(module, name, refused, raising=False)
        with monkeypatch.context() as m:
            _stacks_of(m, 4, 60)
            rows = copulas.coverage_experiment(reflection(0.3), 60, 10, alpha=0.1, omega=0.5,
                                               seed=2)
        assert [row.method for row in rows] == ["plugin", "hom", "ew"]

    def test_one_tie_runs_call_per_stack(self, monkeypatch):
        # x and y of every rep in a stack are sorted in one call
        calls = []

        def counting(values):
            calls.append(values.shape)
            return tie_runs(values)

        monkeypatch.setattr(copulas, "tie_runs", counting)
        with monkeypatch.context() as m:
            _stacks_of(m, 4, 50)
            copulas.coverage_experiment(gaussian(0.4), 50, 10, seed=5)
        assert calls == [(2, 4, 50), (2, 4, 50), (2, 2, 50)]

    def test_small_reps_stack_no_larger_than_their_report(self, monkeypatch):
        # by draws alone a stack at n = 3 would hold 1,666 reps, whose streams
        # and bounds would outweigh its draws
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(copulas, "_STACKS_PER_CPU", 1)
        c = copulas._stack_size(3, 10_000)
        assert c == copulas._STACK_REPS < copulas._STACK_DRAWS // 3
        tracemalloc.start()
        try:
            copulas.coverage_experiment(reflection(0.3), 3, 5 * c, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * estimators._CHUNK_ENTRIES  # 4 MiB

    def test_a_lone_method_name_is_one_method(self):
        def rows(methods):
            return repr(copulas.coverage_experiment(reflection(0.2), 50, 3, methods=methods))

        assert rows("plugin") == rows(("plugin",))


@pytest.mark.parametrize("call, message", [
    (lambda: copulas.coverage_experiment(gaussian(0.5), 50, 1, methods=("jackknife",)),
     "unknown se method 'jackknife'"),
    (lambda: copulas.coverage_experiment(reflection(0.2), 50, 3, methods="plugin,hom"),
     "unknown se method 'plugin,hom'"),
    (lambda: CopulaModel("gaussian", 0.5).sample(0, 1), "need n >= 1 draws"),
    (lambda: calibrate_parameter("independence", 0.3),
     "independence copula has no parameter to calibrate"),
    (lambda: CopulaModel("gaussian", 0.5).sample(10, -1),
     "seed must be a nonnegative integer, got -1"),
    (lambda: variance_curve("gaussian", [0.5], n_mc=10_000, seed=-1),
     "seed must be a nonnegative integer, got -1"),
    (lambda: variance_curve("gaussian", [], n_mc=10_000), "parameter grid is empty"),
    (lambda: calibrate_parameter("gaussian", 0.3, seed=-1),
     "seed must be a nonnegative integer, got -1"),
    (lambda: calibrate_parameter("gaussian", 0.3, tolerance=-1.0),
     "tolerance must be nonnegative, got -1.0"),
    (lambda: calibrate_parameter("gaussian", 0.3, tolerance=float("nan")),
     "tolerance must be nonnegative, got nan"),
    (lambda: calibrate_parameter("gaussian", 0.3, tolerance=float("inf")),
     "tolerance must be finite, got inf"),
    (lambda: calibrate_parameter("gaussian", 0.3, tolerance=2.0),
     "tolerance must be below 2, got 2.0"),
    (lambda: calibrate_parameter("gaussian", 0.3, tolerance=5.0),
     "tolerance must be below 2, got 5.0"),
], ids=["coverage-method", "coverage-method-string", "sample-none", "calibrate-independence",
        "sample-seed", "curve-seed", "curve-empty-grid", "calibrate-seed", "calibrate-tol", "calibrate-tol-nan",
        "calibrate-tol-inf", "calibrate-tol-2", "calibrate-tol-5"])
def test_refusal_messages(call, message):
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"alpha": 1.5}, "alpha must lie in the open interval (0, 1), got 1.5"),
    ({"omega": 2.0}, "omega must lie in [0, 1], got 2.0"),
    ({"seed": -1}, "seed must be a nonnegative integer, got -1"),
    ({"n": 2}, "need n >= p + 2 observations (n=2, p=1)"),
], ids=["alpha", "omega", "seed", "n"])
def test_coverage_refuses_bad_arguments_before_any_draw(monkeypatch, kwargs, message):
    # a bad alpha or omega used to be refused only after the population truth
    # had been drawn: 1M draws, 0.3 s for gaussian(0.5)
    def no_truth(model):
        raise AssertionError("the population truth was drawn")

    monkeypatch.setattr(copulas, "true_rank_correlation", no_truth)
    with pytest.raises(InvalidInputError) as err:
        copulas.coverage_experiment(gaussian(0.5), **{"n": 50, "reps": 2, **kwargs})
    assert str(err.value) == message


def _bootstrap_with_fractional_reps():
    fit = fit_spec(Dataset(y=np.arange(8.0), x=np.arange(8.0) % 3), "rank-rank")
    return bootstrap_report(fit, BootstrapPlan(reps=60.5))


@pytest.mark.parametrize("call, message", [
    (_bootstrap_with_fractional_reps, "bootstrap reps must be an integer, got 60.5"),
    (lambda: copulas.coverage_experiment(reflection(0.2), 10.5, 3),
     "n must be an integer, got 10.5"),
    (lambda: copulas.coverage_experiment(reflection(0.2), 10, 2.5),
     "reps must be an integer, got 2.5"),
    (lambda: variance_curve("gaussian", [0.3], n_mc=10000.5),
     "n_mc must be an integer, got 10000.5"),
    (lambda: calibrate_parameter("gaussian", 0.3, n_mc=10000.5),
     "n_mc must be an integer, got 10000.5"),
    (lambda: reflection(0.2).sample(10.5, 0), "n must be an integer, got 10.5"),
], ids=["bootstrap-reps", "coverage-n", "coverage-reps", "curve-n-mc", "calibrate-n-mc",
        "sample-n"])
def test_fractional_counts_are_refused(call, message):
    # each would otherwise escape as a TypeError from range or numpy, after
    # the arguments around it had been accepted
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message
