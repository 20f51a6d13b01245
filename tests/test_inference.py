"""Plugin variances, naive variances, intervals, and the omega sweep."""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankreg import (
    BootstrapPlan,
    Dataset,
    InvalidInputError,
    RankRegressionError,
    confidence_interval,
    ew_covariance,
    fit_level_rank,
    fit_rank_level,
    fit_rank_rank,
    fit_rank_rank_by_group,
    fit_spec,
    hom_covariance,
    influence_rows,
    linear_combo_inference,
    normal_quantile,
    omega_sweep,
    plugin_covariance,
    plugin_slope_variance,
    rank_transform,
    reflection,
    reflection_closed_forms,
    sample_copula,
)
from rankreg import inference
from rankreg.bootstrap import bootstrap_report
from rankreg.bruteforce import influence_rows_pairwise

from conftest import make_tied_sample


def _intercept_dataset(x, y):
    n = len(x)
    return Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"])


class TestPluginSlopeVariance:
    def test_independence_is_one(self):
        rng = np.random.default_rng(7)
        d = _intercept_dataset(rng.random(5000), rng.random(5000))
        fit = fit_rank_rank(d, 1.0)
        report = plugin_slope_variance(fit, d)
        assert report.variance[0, 0] == pytest.approx(1.0, abs=0.1)

    def test_reflection_closed_form(self):
        rng = np.random.default_rng(11)
        x, y = sample_copula(reflection(0.5), 20000, rng)
        d = _intercept_dataset(x, y)
        fit = fit_rank_rank(d, 1.0)
        report = plugin_slope_variance(fit, d)
        assert report.variance[0, 0] == pytest.approx(0.5625, abs=0.05)

    def test_small_fixture_matches_double_sum(self, rng):
        x = np.array([3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8], dtype=float)
        y = np.array([2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5], dtype=float)
        d = _intercept_dataset(x, y)
        for omega in (0.0, 0.5, 1.0):
            fit = fit_rank_rank(d, omega)
            fast = plugin_slope_variance(fit, d).variance[0, 0]
            psi_slow = influence_rows_pairwise(fit, d).psi[:, 0]
            slow = float(np.mean(psi_slow**2))
            assert fast == pytest.approx(slow, abs=1e-10)

    def test_invariant_under_increasing_transforms(self, rng):
        x = make_tied_sample(rng, 80)
        y = make_tied_sample(rng, 80)
        d = _intercept_dataset(x, y)
        fit = fit_rank_rank(d, 0.5)
        base = plugin_slope_variance(fit, d).variance[0, 0]
        d2 = _intercept_dataset(np.exp(x / 10.0), np.arctan(y))
        fit2 = fit_rank_rank(d2, 0.5)
        assert plugin_slope_variance(fit2, d2).variance[0, 0] == pytest.approx(
            base, abs=1e-12)

    def test_mismatched_dataset_rejected(self, rng):
        d = _intercept_dataset(rng.normal(size=30), rng.normal(size=30))
        other = _intercept_dataset(rng.normal(size=30), rng.normal(size=30))
        fit = fit_rank_rank(d, 1.0)
        with pytest.raises(InvalidInputError):
            plugin_slope_variance(fit, other)

    def test_consistency_improves_with_n(self):
        # |sigma2_hat - 1| under independence shrinks in median across n
        reps = 200
        medians = []
        for k, n in enumerate((500, 2000, 8000)):
            errs = []
            for rep in range(reps):
                rng = np.random.default_rng(
                    np.random.SeedSequence(2024, spawn_key=(k, rep)))
                d = _intercept_dataset(rng.random(n), rng.random(n))
                fit = fit_rank_rank(d, 1.0)
                errs.append(abs(plugin_slope_variance(fit, d).variance[0, 0] - 1.0))
            medians.append(np.median(errs))
        assert medians[0] > medians[1] > medians[2]

    def test_influence_columns_are_centered(self):
        # model-based simulated data: psi column means are o(1)
        rng = np.random.default_rng(5)
        n = 2000
        x = rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = 0.8 * x + w @ [0.0, 0.4] + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w)
        fit = fit_rank_rank(d, 1.0)
        rows = influence_rows(fit, d)
        scale = np.sqrt(np.mean(rows.psi**2, axis=0))
        assert np.all(np.abs(rows.psi.mean(axis=0)) <= 5.0 * scale / np.sqrt(n))
        assert np.all(rows.scales > 0.0)


class TestPluginJointCovariance:
    def test_slope_entry_matches_scalar_path(self, rng):
        # tied x and y with a covariate: the slope path is the second moment
        # of the full influence rows' slope column
        n = 60
        x, y = make_tied_sample(rng, n), make_tied_sample(rng, n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        d = Dataset(y=y, x=x, w=w)
        for spec in ("rank-rank", "level-rank"):
            for omega in (0.0, 0.5, 1.0):
                fit = fit_spec(d, spec, omega)
                joint = plugin_covariance(fit, d)
                scalar = plugin_slope_variance(fit, d)
                assert joint.variance[0, 0] == pytest.approx(scalar.variance[0, 0], abs=1e-10)
                assert scalar.names == fit.coef_names[:1]
                full = influence_rows(fit, d)
                assert scalar.variance[0, 0] == pytest.approx(
                    np.mean(full.psi[:, 0] ** 2), rel=1e-12, abs=0.0), spec

    def test_symmetric_psd(self, rng):
        n = 70
        x = make_tied_sample(rng, n)
        w = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = 0.5 * x + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w)
        fit = fit_rank_rank(d, 1.0)
        sigma = plugin_covariance(fit, d).variance
        assert np.allclose(sigma, sigma.T)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-8

    def test_diagonal_matches_pairwise_coordinates(self, rng):
        n = 50
        x = rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n), make_tied_sample(rng, n)])
        y = x + w @ [0.2, -0.3, 0.1] + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w)
        fit = fit_rank_rank(d, 0.5)
        joint = plugin_covariance(fit, d).variance
        psi_slow = influence_rows_pairwise(fit, d).psi
        slow_diag = np.mean(psi_slow**2, axis=0)
        assert np.diag(joint) == pytest.approx(slow_diag, abs=1e-10)

    def test_theta_p_quadratic_form_identity(self, rng):
        d = _intercept_dataset(rng.normal(size=80), rng.normal(size=80))
        fit = fit_rank_rank(d, 1.0)
        joint = plugin_covariance(fit, d)
        p = 0.25
        weights = np.array([p, 1.0])  # slope coordinate first, then intercept
        combo = linear_combo_inference(
            joint.variance, weights, joint.estimates, joint.n)
        direct = float(weights @ joint.variance @ weights)
        assert combo.variance[0, 0] == pytest.approx(direct, abs=1e-14)
        assert combo.estimates[0] == pytest.approx(fit.beta[0] + fit.slope * p)


@pytest.mark.parametrize("spec", ["rank-rank", "rank-rank-group", "level-rank", "rank-level"])
def test_every_reported_variance_is_bitwise_symmetric(rng, spec):
    # the report writer spells a variance out from its upper triangle
    n = 200
    w = np.column_stack([np.ones(n), rng.normal(size=n)])
    g = np.arange(n) % 3 if spec == "rank-rank-group" else None
    d = Dataset(y=make_tied_sample(rng, n), x=make_tied_sample(rng, n), w=w, g=g)
    fit = fit_spec(d, spec, 0.5)
    reports = [plugin_covariance(fit), hom_covariance(fit), ew_covariance(fit),
               bootstrap_report(fit, BootstrapPlan(reps=60, seed=1))]
    assert all(report.variance.shape[0] > 1 for report in reports[:3])
    for report in reports:
        bits = report.variance.view(np.uint64)
        assert np.array_equal(bits, bits.T), report.method


class TestGroupedCovariance:
    def test_single_group_matches_plain_joint(self, rng):
        # one group is one block over the same rows: the grouped path must do
        # the plain path's arithmetic, so every number agrees bit for bit
        n = 300
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        draws = [(rng.normal(size=n), rng.normal(size=n)),
                 (make_tied_sample(rng, n), make_tied_sample(rng, n))]
        for x, y in draws:
            dg = Dataset(y=y, x=x, w=w, g=np.zeros(n, dtype=int))
            d = Dataset(y=y, x=x, w=w)
            for omega in (0.0, 0.5, 1.0):
                fit_g, fit = fit_rank_rank_by_group(dg, omega), fit_rank_rank(d, omega)
                assert np.array_equal(fit_g.estimates, fit.estimates)
                for method in (plugin_covariance, hom_covariance, ew_covariance):
                    assert np.array_equal(method(fit_g).variance, method(fit).variance), \
                        (method.__name__, omega)

    def test_foreign_group_labels_rejected(self, rng):
        n = 600
        x, y = rng.normal(size=n), rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        g = rng.integers(0, 3, n)
        d = Dataset(y=y, x=x, w=w, g=g)
        fit = fit_rank_rank_by_group(d, 1.0)
        permuted = Dataset(y=y, x=x, w=w, g=rng.permutation(g))
        for method in (plugin_covariance, hom_covariance, ew_covariance):
            method(fit, d)
            with pytest.raises(InvalidInputError):
                method(fit, permuted)
        # a fit reads only its own dataset: even an equal copy is refused
        plain = fit_rank_rank(Dataset(y=y, x=x, w=w), 1.0)
        for method, f in [(influence_rows, fit), (plugin_covariance, fit),
                          (hom_covariance, fit), (ew_covariance, fit),
                          (plugin_slope_variance, plain)]:
            method(f)
            method(f, f.data)
            e = f.data
            copy = Dataset(y=e.y.copy(), x=e.x.copy(), w=e.w.copy(),
                           g=None if e.g is None else e.g.copy())
            with pytest.raises(InvalidInputError, match="different dataset"):
                method(f, copy)

    def test_cross_group_covariance_against_monte_carlo(self):
        # groups with disjoint x supports but a shared y scale: the pooled
        # ranks correlate the two slope estimates even though the groups'
        # draws are independent; compare the plugin cross term with the
        # covariance over Monte Carlo replications (group labels iid, as the
        # sampling theory assumes)
        def draw(rng, m):
            g = (rng.random(m) < 0.5).astype(int)
            x = np.where(g == 0, rng.random(m), rng.random(m) + 2.0)
            base = np.where(g == 0, x, x - 2.0)
            y = base + 0.5 * rng.standard_normal(m)
            return Dataset(y=y, x=x, w=np.ones((m, 1)), g=g)

        n, reps = 800, 2500
        slopes = np.zeros((reps, 2))
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(99, spawn_key=(rep,)))
            slopes[rep] = fit_rank_rank_by_group(draw(rng, n), 1.0).slope
        mc_cov = np.cov(slopes[:, 0], slopes[:, 1])[0, 1] * n

        rng = np.random.default_rng(1234)
        d = draw(rng, 4000)
        fit = fit_rank_rank_by_group(d, 1.0)
        joint = plugin_covariance(fit, d)
        plug_cov = joint.variance[0, 1]
        assert abs(mc_cov) > 0.5  # the channel is live in this construction
        assert np.sign(plug_cov) == np.sign(mc_cov)
        assert plug_cov == pytest.approx(mc_cov, rel=0.35)

    def test_group_theta_ci_from_quadratic_form(self, rng):
        n = 60
        x, y = rng.normal(size=n), rng.normal(size=n)
        g = np.repeat([0, 1], n // 2)
        d = Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"], g=g)
        fit = fit_rank_rank_by_group(d, 1.0)
        joint = plugin_covariance(fit, d)
        # theta for group 0 at p=0.25: slope@0 has index 0, const@0 index 2
        weights = np.zeros(4)
        weights[0] = 0.25
        weights[2] = 1.0
        combo = linear_combo_inference(joint.variance, weights, joint.estimates, n)
        z = normal_quantile(0.025)
        expect_half = z * np.sqrt(weights @ joint.variance @ weights / n)
        assert combo.ci[0][1] - combo.ci[0][0] == pytest.approx(2 * expect_half, abs=1e-12)


class TestLevelRankVariance:
    def test_perfect_fit_still_carries_rank_noise(self, rng):
        # y built exactly from the estimated ranks: the residual terms vanish
        # identically, but the outcome stays in levels so the rank-noise
        # kernel term remains; analytically its variance is 0.2 * slope^2
        n = 20000
        a, b = 2.0, 1.0
        x = rng.random(n)
        y = a * rank_transform(x, 1.0) + b
        d = _intercept_dataset(x, y)
        fit = fit_level_rank(d, 1.0)
        assert np.max(np.abs(fit.residuals)) < 1e-10
        report = plugin_slope_variance(fit, d)
        assert report.variance[0, 0] == pytest.approx(0.2 * a * a, rel=0.05)

    def test_small_fixture_matches_double_sum(self, rng):
        n = 12
        x = make_tied_sample(rng, n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = x + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w)
        for omega in (0.0, 1.0):
            fit = fit_level_rank(d, omega)
            fast = plugin_covariance(fit, d).variance
            psi = influence_rows_pairwise(fit, d).psi
            slow = psi.T @ psi / n
            assert fast == pytest.approx(slow, abs=1e-10)


class TestRankLevelVariance:
    def test_binary_fixture_matches_double_sum(self, rng):
        n = 16
        flag = np.tile([0.0, 1.0], n // 2)
        y = make_tied_sample(rng, n)
        d = Dataset(y=y, w=np.column_stack([np.ones(n), flag]), w_names=["const", "flag"])
        fit = fit_rank_level(d, 0.5)
        fast = plugin_covariance(fit, d).variance
        psi = influence_rows_pairwise(fit, d).psi
        assert fast == pytest.approx(psi.T @ psi / n, abs=1e-10)

    def test_psd(self, rng):
        n = 60
        d = Dataset(
            y=rng.normal(size=n),
            w=np.column_stack([np.ones(n), rng.normal(size=(n, 2))]),
        )
        fit = fit_rank_level(d, 1.0)
        sigma = plugin_covariance(fit, d).variance
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-8

    def test_intercept_only_continuous_variance_degenerates(self, rng):
        # with continuous y the mean rank is (n+1)/2n regardless of the data,
        # and the two influence terms cancel up to O(1/n)
        n = 400
        d = Dataset(y=rng.normal(size=n), w=np.ones((n, 1)))
        fit = fit_rank_level(d, 1.0)
        report = plugin_covariance(fit, d)
        assert report.variance[0, 0] < 1e-3


class TestNaiveVariances:
    def test_independence_both_near_one(self):
        rng = np.random.default_rng(21)
        d = _intercept_dataset(rng.random(5000), rng.random(5000))
        fit = fit_rank_rank(d, 1.0)
        assert hom_covariance(fit, d).variance[0, 0] == pytest.approx(1.0, abs=0.1)
        assert ew_covariance(fit, d).variance[0, 0] == pytest.approx(1.0, abs=0.1)

    def test_reflection_closed_forms(self):
        rng = np.random.default_rng(31)
        x, y = sample_copula(reflection(0.5), 20000, rng)
        d = _intercept_dataset(x, y)
        fit = fit_rank_rank(d, 1.0)
        assert hom_covariance(fit, d).variance[0, 0] == pytest.approx(0.4375, abs=0.05)
        assert ew_covariance(fit, d).variance[0, 0] == pytest.approx(0.375, abs=0.05)

    def test_perfect_fit_hom_is_zero(self, rng):
        x = rng.normal(size=40)
        d = Dataset(y=x, x=x, w=np.ones((40, 1)))
        fit = fit_rank_rank(d, 1.0)
        assert hom_covariance(fit, d).variance[0, 0] == pytest.approx(0.0, abs=1e-20)

    def test_matches_bivariate_display_formulas(self, rng):
        # the general sandwich reduces to the classical bivariate formulas
        x, y = make_tied_sample(rng, 200), rng.normal(size=200)
        d = _intercept_dataset(x, y)
        fit = fit_rank_rank(d, 0.5)
        rx = fit.ranks_x
        eps = fit.residuals
        sx2 = np.mean((rx - rx.mean()) ** 2)
        n = d.n
        hom_display = np.sum(eps**2) / (n * sx2)
        ew_display = np.sum(eps**2 * (rx - rx.mean()) ** 2) / (n * sx2**2)
        assert hom_covariance(fit, d).variance[0, 0] == pytest.approx(
            hom_display, rel=1e-10)
        assert ew_covariance(fit, d).variance[0, 0] == pytest.approx(
            ew_display, rel=1e-10)

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    def test_grouped_variances_are_the_textbook_sandwiches(self, rng, omega):
        # each block's sandwich from its own lstsq on the sample's (pooled)
        # ranks, scaled by the pooled n; block g sits at every G-th row and
        # column from g.  Every spec, with an intercept and a covariate; the
        # grouped fit has 3 blocks, the others one.
        n = 300
        x, y = make_tied_sample(rng, n), make_tied_sample(rng, n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        for spec in ("rank-rank", "level-rank", "rank-level", "rank-rank-group"):
            n_groups = 3 if spec == "rank-rank-group" else 1
            g = rng.integers(0, n_groups, n)
            fit = fit_spec(Dataset(y=y, x=x, w=w, g=g if n_groups > 1 else None), spec, omega)
            ranked = [] if spec == "rank-level" else [rank_transform(x, omega)]
            design = np.column_stack(ranked + [w])
            response = y if spec == "level-rank" else rank_transform(y, omega)
            size = n_groups * design.shape[1]
            hom, ew = np.zeros((size, size)), np.zeros((size, size))
            for group in range(n_groups):
                Z, r = design[g == group], response[g == group]
                e = r - Z @ np.linalg.lstsq(Z, r, rcond=None)[0]
                bread = np.linalg.inv(Z.T @ Z)
                block = np.ix_(range(group, size, n_groups), range(group, size, n_groups))
                hom[block] = n * bread * np.mean(e**2)
                ew[block] = n * bread @ (Z.T * e**2) @ Z @ bread
            for method, want in ((hom_covariance, hom), (ew_covariance, ew)):
                got = method(fit).variance
                assert np.all(got[want == 0.0] == 0.0), spec
                np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0, err_msg=spec)

    def test_reflection_ratio_blows_up(self):
        # at a = 0.2 the naive limits exceed the correct variance by ~3.4x
        # (hom) and ~6.6x (ew); check the estimates reproduce that margin
        rng = np.random.default_rng(17)
        x, y = sample_copula(reflection(0.2), 40000, rng)
        d = _intercept_dataset(x, y)
        fit = fit_rank_rank(d, 1.0)
        correct = plugin_slope_variance(fit, d).variance[0, 0]
        hom = hom_covariance(fit, d).variance[0, 0]
        ew = ew_covariance(fit, d).variance[0, 0]
        forms = reflection_closed_forms(0.2)
        assert hom / correct > 2.0
        assert ew / correct > 4.0
        assert hom / correct == pytest.approx(forms.sigma2_hom / forms.sigma2, rel=0.25)
        assert ew / correct == pytest.approx(forms.sigma2_ew / forms.sigma2, rel=0.25)

    def test_quadratic_copula_naive_below_correct(self):
        # quadratic family at the parameter matched to rank correlation
        # 0.384: hom and ew fall short of the correct variance in nearly
        # every replication
        from rankreg import quadratic

        theta = 0.131
        wins_hom = 0
        wins_ew = 0
        reps = 100
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(55, spawn_key=(rep,)))
            x, y = sample_copula(quadratic(theta), 4000, rng)
            d = _intercept_dataset(x, y)
            fit = fit_rank_rank(d, 1.0)
            correct = plugin_slope_variance(fit, d).variance[0, 0]
            wins_hom += hom_covariance(fit, d).variance[0, 0] < correct
            wins_ew += ew_covariance(fit, d).variance[0, 0] < correct
        assert wins_hom >= 0.95 * reps
        assert wins_ew >= 0.95 * reps


class TestConfidenceInterval:
    def test_frozen_normal_quantile(self):
        # reference constant for the 97.5% point of the standard normal
        assert normal_quantile(0.025) == pytest.approx(1.959963984540054, abs=1e-9)

    def test_normal_quantile_matches_scipy(self):
        for p in (1e-12, 1e-6, 0.001, 0.005, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 0.975):
            assert normal_quantile(p) == pytest.approx(
                scipy.stats.norm.isf(p), rel=1e-14, abs=1e-300)

    def test_example_interval(self):
        lo, hi = confidence_interval(0.0, 1.0, 100, alpha=0.05)
        assert lo == pytest.approx(-0.196, abs=1e-3)
        assert hi == pytest.approx(0.196, abs=1e-3)

    def test_alpha_must_be_interior(self):
        with pytest.raises(InvalidInputError):
            confidence_interval(0.0, 1.0, 100, alpha=1.0)
        with pytest.raises(InvalidInputError):
            confidence_interval(0.0, 1.0, 100, alpha=0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
    def test_reports_refuse_alpha_outside_unit_interval(self, rng, alpha):
        # alpha in [1, 2) passed normal_quantile and inverted every interval
        d = _intercept_dataset(rng.normal(size=40), rng.normal(size=40))
        fit = fit_rank_rank(d, 1.0)
        for report in (plugin_covariance, plugin_slope_variance, hom_covariance, ew_covariance):
            with pytest.raises(InvalidInputError, match="alpha must lie in"):
                report(fit, d, alpha=alpha)
        with pytest.raises(InvalidInputError, match="alpha must lie in"):
            linear_combo_inference(np.eye(2), [1.0, 0.0], [0.1, 0.2], n=40, alpha=alpha)
        with pytest.raises(InvalidInputError, match="alpha must lie in"):
            omega_sweep(d, "rank-rank", [0.5], alpha=alpha)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5])
    def test_every_alpha_refusal_is_one_message(self, rng, alpha):
        # BootstrapPlan used to say "alpha must lie in (0, 1)", without the value
        message = re.escape(f"alpha must lie in the open interval (0, 1), got {alpha}")
        fit = fit_rank_rank(_intercept_dataset(rng.normal(size=40), rng.normal(size=40)), 1.0)
        for refuse in (lambda: confidence_interval(0.0, 1.0, 100, alpha=alpha),
                       lambda: plugin_covariance(fit, alpha=alpha),
                       lambda: BootstrapPlan(alpha=alpha)):
            with pytest.raises(InvalidInputError, match=message):
                refuse()

    def test_zero_sigma_degenerates(self):
        assert confidence_interval(0.3, 0.0, 50) == (0.3, 0.3)

    def test_report_interval_consistency(self, rng):
        d = _intercept_dataset(rng.normal(size=100), rng.normal(size=100))
        fit = fit_rank_rank(d, 1.0)
        report = plugin_slope_variance(fit, d, alpha=0.10)
        lo, hi = confidence_interval(
            report.estimates[0], np.sqrt(report.variance[0, 0]), report.n, alpha=0.10)
        assert report.ci[0] == pytest.approx([lo, hi], abs=1e-14)


class TestLinearCombo:
    def test_unit_vector_reproduces_coordinate(self, rng):
        d = _intercept_dataset(rng.normal(size=60), rng.normal(size=60))
        fit = fit_rank_rank(d, 1.0)
        joint = plugin_covariance(fit, d)
        combo = linear_combo_inference(
            joint.variance, [1.0, 0.0], joint.estimates, joint.n)
        assert combo.se[0] == pytest.approx(joint.se[0], abs=1e-14)
        assert combo.ci[0] == pytest.approx(joint.ci[0], abs=1e-14)

    def test_identity_covariance(self):
        combo = linear_combo_inference(np.eye(2), [1.0, 1.0], [0.0, 0.0], n=1)
        assert combo.variance[0, 0] == pytest.approx(2.0)
        assert combo.se[0] == pytest.approx(np.sqrt(2.0))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            linear_combo_inference(np.eye(2), [1.0], [0.0, 0.0], n=10)


class TestOmegaSweep:
    def test_tie_free_rows_identical(self, rng):
        d = _intercept_dataset(rng.normal(size=50), rng.normal(size=50))
        result = omega_sweep(d, "rank-rank", [0.0, 0.25, 0.5, 0.75, 1.0])
        ref = result.rows[0]
        for row in result.rows[1:]:
            # ranks (hence estimates) do not depend on omega without ties;
            # the variance picks up omega only through the kernel's diagonal
            # self-comparison term, an O(1/n) effect
            assert row.estimates == pytest.approx(ref.estimates, abs=1e-12)
            assert row.se == pytest.approx(ref.se, rel=0.01)
        assert result.average == pytest.approx(ref.estimates, abs=1e-12)

    def test_tied_rows_differ(self, rng):
        x = np.array([3, 4, 7, 7, 10, 11, 15, 15, 15, 15], dtype=float)
        y = make_tied_sample(rng, 10)
        while np.unique(y).size < 2:
            y = make_tied_sample(rng, 10)
        d = _intercept_dataset(x, y)
        result = omega_sweep(d, "rank-rank", [0.0, 1.0])
        assert abs(result.rows[0].estimates[0] - result.rows[1].estimates[0]) > 1e-6

    def test_singleton_grid_matches_direct_fit(self, rng):
        d = _intercept_dataset(rng.normal(size=40), rng.normal(size=40))
        result = omega_sweep(d, "rank-rank", [0.5])
        fit = fit_rank_rank(d, 0.5)
        report = plugin_covariance(fit, d)
        assert result.rows[0].estimates == pytest.approx(report.estimates, abs=1e-14)
        assert result.rows[0].se == pytest.approx(report.se, abs=1e-14)


class TestGroupedThetaCoverage:
    def test_theta_ci_coverage_against_mc(self):
        # expected-outcome-rank measure theta = beta_g + 0.25 rho_g on a
        # grouped fixture whose groups share one gaussian copula, so the true
        # coefficients are the pooled ones: rho = rank corr, beta = (1-rho)/2
        from rankreg import gaussian, sample_copula, true_rank_correlation

        model = gaussian(0.4)
        rho_true = true_rank_correlation(model)
        theta_true = (1.0 - rho_true) / 2.0 + 0.25 * rho_true
        reps = 2000
        n = 600
        covered = 0
        z = normal_quantile(0.025)
        for rep in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence(654, spawn_key=(rep,)))
            x, y = sample_copula(model, n, rng)
            g = (rng.random(n) < 0.5).astype(int)
            d = Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"], g=g)
            fit = fit_rank_rank_by_group(d, 1.0)
            joint = plugin_covariance(fit, d)
            weights = np.zeros(4)
            weights[0] = 0.25  # rank(x)@0
            weights[2] = 1.0   # const@0
            combo = linear_combo_inference(joint.variance, weights, joint.estimates, n)
            lo, hi = combo.ci[0]
            covered += lo <= theta_true <= hi
        assert abs(covered / reps - 0.95) <= 0.02


@st.composite
def _tied_problem(draw):
    """Small tied sample, a spec and omega; 2-3 groups for the grouped spec.

    W is a constant and a covariate, or, as under --no-intercept, the
    covariate alone.
    """
    n = draw(st.integers(12, 40))
    support = draw(st.integers(2, 5))
    points = st.lists(st.integers(0, support - 1), min_size=n, max_size=n)
    x = np.array(draw(points), dtype=float)
    y = np.array(draw(points), dtype=float)
    seed = draw(st.integers(0, 2**32 - 1))
    covariate = np.random.default_rng(seed).normal(size=n)
    w = np.column_stack([np.ones(n), covariate] if draw(st.booleans()) else [covariate])
    spec = draw(st.sampled_from(["rank-rank", "rank-rank-group", "level-rank",
                                 "rank-level"]))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0]))
    g = np.arange(n) % draw(st.integers(2, 3)) if spec == "rank-rank-group" else None
    return Dataset(y=y, x=x, w=w, g=g), spec, omega


@st.composite
def _chunked_problem(draw):
    """A tied problem of any spec with ω anywhere in [0, 1]; 2-4 groups interleaved in input order."""
    n = draw(st.integers(16, 48))
    support = draw(st.integers(2, 5))
    points = st.lists(st.integers(0, support - 1), min_size=n, max_size=n)
    x = np.array(draw(points), dtype=float)
    y = np.array(draw(points), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covariate = rng.normal(size=n)
    w = np.column_stack([np.ones(n), covariate] if draw(st.booleans()) else [covariate])
    spec = draw(st.sampled_from(["rank-rank", "rank-rank-group", "level-rank",
                                 "rank-level"]))
    omega = draw(st.floats(0.0, 1.0))
    g = None
    if spec == "rank-rank-group":
        g = rng.permutation(np.arange(n) % draw(st.integers(2, 4)))
    return Dataset(y=y, x=x, w=w, g=g), spec, omega


class TestChunkedAssembly:
    @settings(max_examples=60, deadline=None)
    @given(_chunked_problem(), st.sampled_from([1, 7]))
    def test_chunks_that_split_blocks_are_exact(self, problem, chunk_rows):
        d, spec, omega = problem
        try:
            fit = fit_spec(d, spec, omega)
        except RankRegressionError:
            assume(False)
        slow = influence_rows_pairwise(fit, d).psi
        reference = slow.T @ slow / d.n
        saved = inference._CHUNK_ENTRIES
        inference._CHUNK_ENTRIES = chunk_rows * len(fit.coef_names)
        try:
            fast = influence_rows(fit, d).psi
            sigma = plugin_covariance(fit, d).variance
        finally:
            inference._CHUNK_ENTRIES = saved
        assert np.max(np.abs(fast - slow)) < 1e-10
        # the 1e-24 floor is for all-tied draws, whose variance is 0 and both
        # sides rounding noise
        assert np.max(np.abs(sigma - reference)) <= 1e-12 * np.max(np.abs(reference)) + 1e-24

    @pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
    def test_grouped_chunks_straddle_groups_exactly(self, omega, tied):
        # chunks are cut across group bounds: 1-row and 7-row chunks and the
        # default one-chunk fit give every influence value bit for bit, and
        # only the plugin's sums over the chunks are regrouped
        rng = np.random.default_rng(5)
        sizes = [3, 3, 4, 25, 3, 12]
        n = sum(sizes)
        g = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        draw = (lambda: make_tied_sample(rng, n)) if tied else (lambda: rng.random(n))
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        fit = fit_rank_rank_by_group(Dataset(y=draw(), x=draw(), w=w, g=g), omega)
        width = len(fit.coef_names)
        assert [hi - lo for lo, hi in fit.bounds] == sizes
        assert sum(lo < 7 for lo, _ in fit.bounds) >= 3  # the first 7-row chunk meets 3 groups
        assert inference._CHUNK_ENTRIES // width > n  # the default chunk holds every group
        saved = inference._CHUNK_ENTRIES
        results = []
        for rows in (1, 7, None):
            inference._CHUNK_ENTRIES = saved if rows is None else rows * width
            try:
                results.append((influence_rows(fit).psi, plugin_covariance(fit).variance))
            finally:
                inference._CHUNK_ENTRIES = saved
        (psi, sigma), *others = results
        for other_psi, other_sigma in others:
            assert np.array_equal(other_psi, psi)
            assert np.max(np.abs(other_sigma - sigma)) <= 1e-13 * np.max(np.abs(sigma))

    def test_no_influence_matrix_is_formed(self):
        # n = 20,000 rows, G = 100 groups and q = 3: the n x Gq influence
        # matrix alone would take 48 MB
        rng = np.random.default_rng(3)
        n, groups = 20_000, 100
        x = rng.integers(0, 200, n).astype(float)
        y = rng.integers(0, 200, n).astype(float)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        fit = fit_rank_rank_by_group(Dataset(y=y, x=x, w=w, g=rng.permutation(np.arange(n) % groups)))
        matrix_bytes = 8 * n * len(fit.coef_names)
        assert matrix_bytes == 48_000_000
        tracemalloc.start()
        try:
            plugin_covariance(fit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < matrix_bytes / 2


@pytest.fixture(scope="module")
def large_data():
    # 200,000 rows and q = 5 regressors: one n x q array is 8 MB
    rng = np.random.default_rng(3)
    n = 200_000
    x = rng.integers(0, 500, n).astype(float)
    y = rng.integers(0, 500, n).astype(float)
    d = Dataset(y=y, x=x, w=np.column_stack([np.ones(n), rng.normal(size=(n, 3))]))
    d.runs_x, d.runs_y  # the dataset's tie runs, found before any fit
    return d


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneCopyPerFit:
    """A fit holds each n-row array once, and a variance adds one n x q array at most."""

    def test_fit_holds_its_design_once(self, large_data):
        # [Z, r] once, plus eps and the matrix-vector product that forms it;
        # stored ranks and residuals, or a QR copy of the whole design, would
        # each add to it
        n = large_data.n
        peak = _peak_bytes(lambda: fit_spec(large_data, "rank-rank", 0.5))
        assert peak < 1.6 * 8 * n * (large_data.p + 2)

    @pytest.mark.parametrize("variance", [plugin_covariance, ew_covariance],
                             ids=["plugin", "ew"])
    def test_variance_writes_its_products_in_place(self, large_data, variance):
        # Z A^-1 is written once, into the array that is then read: a second
        # n x q temporary beside it would reach 2x
        fit = fit_spec(large_data, "rank-rank", 0.5)
        n, q = fit.n, fit.coef.shape[1]
        assert _peak_bytes(lambda: variance(fit)) < 1.5 * 8 * n * q


class TestInfluenceMatrixForm:
    @settings(max_examples=60, deadline=None)
    @given(_tied_problem())
    def test_matches_double_sum_on_tied_samples(self, problem):
        d, spec, omega = problem
        try:
            fit = fit_spec(d, spec, omega)
            fast = influence_rows(fit, d).psi
        except RankRegressionError:
            assume(False)
        slow = influence_rows_pairwise(fit, d).psi
        assert np.max(np.abs(fast - slow)) < 1e-10

    def test_ill_scaled_covariate_matches_double_sum(self, rng):
        # a covariate with mean 1e4 and unit spread makes Z'Z ill-conditioned;
        # A^-1 from the R factor must keep the influence rows exact
        n = 60
        x = make_tied_sample(rng, n)
        y = make_tied_sample(rng, n)
        w = np.column_stack([np.ones(n), 1e4 + rng.normal(size=n)])
        g = np.arange(n) % 2
        for spec in ("rank-rank", "rank-rank-group", "level-rank", "rank-level"):
            d = Dataset(y=y, x=x, w=w, g=g if spec == "rank-rank-group" else None)
            fit = fit_spec(d, spec, 0.5)
            fast = influence_rows(fit, d).psi
            slow = influence_rows_pairwise(fit, d).psi
            assert np.max(np.abs(fast - slow)) < 1e-10 * max(1.0, np.max(np.abs(slow)))


@st.composite
def _scaled_problem(draw):
    """Any spec, with or without an intercept, 1-3 covariates scaled 1e-3 to 1e3; 2-4 groups."""
    n = draw(st.integers(12, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = draw(st.sampled_from([2, 5, None]))
    x, y = ((rng.normal(size=n), rng.normal(size=n)) if support is None
            else rng.integers(0, support, (2, n)).astype(float))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3)))
    w = rng.normal(size=(n, len(scales))) * scales
    if draw(st.booleans()):
        w = np.column_stack([np.ones(n), w])
    spec = draw(st.sampled_from(["rank-rank", "rank-rank-group", "level-rank",
                                 "rank-level"]))
    g = rng.permutation(np.arange(n) % draw(st.integers(2, 4))) if spec == "rank-rank-group" else None
    return Dataset(y=y, x=x, w=w, g=g), spec


@settings(max_examples=100, deadline=None)
@given(_scaled_problem())
def test_normal_equations_give_the_constant_terms(problem):
    # the constants -(W beta)'C/n (level-rank: (y - W beta)'C/n) and
    # -eps'rank(x) A^-1[0, :]/n, summed over each block's rows, are the
    # coefficients with the slope's entry set to 0, negated (level-rank: the
    # slope in its own entry), since the block's Z'eps = 0 and Z'C = n I
    d, spec = problem
    try:
        fit = fit_spec(d, spec, 0.5)
    except RankRegressionError:
        assume(False)
    kx = 0 if fit.runs_x is None else 1
    for g, (lo, hi) in enumerate(fit.bounds):
        Z, r = fit.system[lo:hi, :-1], fit.system[lo:hi, -1]
        C = Z @ fit.a_inv[g]
        w_beta = Z[:, kx:] @ fit.coef[g, kx:]
        literal = (r - w_beta if fit.runs_y is None else -w_beta) @ C / fit.n
        literal -= (fit.eps[lo:hi] @ Z[:, 0]) * fit.a_inv[g, 0] / fit.n * kx
        closed = np.zeros_like(literal)
        if fit.runs_y is None:
            closed[0] = fit.coef[g, 0]
        else:
            closed[kx:] = -fit.coef[g, kx:]
        bound = 1e-12 * np.linalg.cond(Z) * max(1.0, np.max(np.abs(fit.coef[g])))
        assert np.max(np.abs(literal - closed)) <= bound


def _tiny_fit(spec, grouped=False):
    y, x = np.arange(8.0), np.array([3.0, 1, 4, 1, 5, 9, 2, 6])
    g = np.repeat(["a", "b"], 4) if grouped else None
    return fit_spec(Dataset(y=y, x=x, w=np.ones((8, 1)), w_names=["const"], g=g), spec, 1.0)


_SLOPE_ONLY = ("slope-only variance applies to rank-rank and level-rank fits; "
               "use plugin_covariance for grouped or rank-level fits")


@pytest.mark.parametrize("call, message", [
    (lambda: plugin_slope_variance(_tiny_fit("rank-rank-group", grouped=True)), _SLOPE_ONLY),
    (lambda: plugin_slope_variance(_tiny_fit("rank-level")), _SLOPE_ONLY),
    (lambda: omega_sweep(_tiny_fit("rank-rank").data, "rank-rank", []), "omega grid is empty"),
    (lambda: confidence_interval(0.0, -1.0, 10), "sigma must be nonnegative"),
    (lambda: confidence_interval(0.0, 1.0, 0), "n must be at least 1"),
    (lambda: confidence_interval(0.0, float("nan"), 10), "sigma must be nonnegative"),
    (lambda: confidence_interval(0.0, 1.0, float("nan")), "n must be at least 1"),
    (lambda: linear_combo_inference([[1.0]], [1.0], [0.5], n=0), "n must be at least 1"),
    (lambda: linear_combo_inference([[1.0]], [1.0], [0.5], n=float("nan")),
     "n must be at least 1"),
    (lambda: normal_quantile(0.0), "tail probability must lie in (0, 1), got 0.0"),
    (lambda: normal_quantile(1.0), "tail probability must lie in (0, 1), got 1.0"),
], ids=["slope-grouped", "slope-rank-level", "sweep-empty-grid", "ci-sigma", "ci-n",
        "ci-nan-sigma", "ci-nan-n", "combo-n", "combo-nan-n", "quantile-0", "quantile-1"])
def test_refusal_messages(call, message):
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message
