"""Copula samplers, closed-form oracles, variance curves, and calibration."""

import numpy as np
import pytest

from rankreg import (
    BootstrapPlan,
    CalibrationError,
    CopulaModel,
    InvalidInputError,
    calibrate_parameter,
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

    def test_gaussian_calibrated_for_mobility_benchmark(self):
        # the 0.384 benchmark lands near theta = 0.4 for the gaussian family
        theta = calibrate_parameter("gaussian", 0.384, seed=3, n_mc=200_000)
        assert theta == pytest.approx(0.40, abs=0.02)


class TestTrueRankCorrelation:
    def test_closed_forms(self):
        assert true_rank_correlation(independence()) == 0.0
        assert true_rank_correlation(reflection(0.2)) == pytest.approx(1 - 2 * 0.2**3)

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
        import rankreg.copulas as copulas
        import rankreg.estimators as estimators
        from rankreg import bootstrap_distribution, coverage_experiment, reflection

        fit_calls = []
        sample_fit = estimators._Sample.fit
        seen = []
        replicates = copulas._replicates

        def counting_fit(sample):
            fit_calls.append(sample)
            return sample_fit(sample)

        def spy(sample, plan):
            out = replicates(sample, plan)
            seen.append((sample.data, plan, out[:, 0]))
            return out

        monkeypatch.setattr(estimators._Sample, "fit", counting_fit)
        monkeypatch.setattr(copulas, "_replicates", spy)
        coverage_experiment(reflection(0.3), n=60, reps=4, methods=("bootstrap",),
                            seed=5, bootstrap_plan=BootstrapPlan(reps=50, seed=0))
        assert len(fit_calls) == 4
        assert len(seen) == 4
        monkeypatch.undo()
        for d, plan, boots in seen:
            assert np.array_equal(boots, bootstrap_distribution(d, "rank-rank", 1.0, plan))

    def test_reports_width_and_mc_se(self):
        from rankreg import coverage_experiment, reflection

        rows = coverage_experiment(reflection(0.5), n=400, reps=100,
                                   methods=("plugin",), seed=3)
        row = rows[0]
        assert row.n == 400 and row.reps == 100
        assert row.true_value == pytest.approx(0.75)
