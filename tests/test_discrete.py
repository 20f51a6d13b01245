"""Monte Carlo checks of the plugin variance on discrete data, against an exact truth.

The paper's inference needs no continuity, yet the copula families draw
continuous data.  Here (X, Y) has an explicit joint pmf on a 3 x 4 grid, so
every sample is heavily tied, and the population omega-slope of rank(y) on
rank(x) is a finite sum:

    beta(omega) = Cov(F_X^w(X), F_Y^w(Y)) / Var(F_X^w(X)),
    F^w = omega F + (1 - omega) F_-,

with F(v) = P(V <= v) and F_-(v) = P(V < v).  With a binary covariate w
added to the pmf, the population coefficients of every spec are the normal
equations summed over the grid cells.  The gates are those of criteria 05
and 09: n Var(slope) over the mean plugin variance within 10%, and 95%
coverage of the exact slope within +-0.02.
"""

import numpy as np
import pytest

from rankreg import Dataset, fit_spec, plugin_covariance, plugin_slope_variance

# rows are the three levels of x, columns the four levels of y
PMF = np.array([[0.10, 0.08, 0.05, 0.02],
                [0.05, 0.10, 0.10, 0.05],
                [0.02, 0.05, 0.13, 0.25]])
# the second group of the grouped check, with its own dependence
PMF_B = np.array([[0.20, 0.06, 0.04, 0.02],
                  [0.04, 0.12, 0.10, 0.02],
                  [0.02, 0.08, 0.10, 0.20]])
N = 800
REPS = 1500


def _tie_weighted_cdf(masses, omega):
    """F^w at each level of a discrete margin with these masses."""
    cdf = np.cumsum(masses)
    return omega * cdf + (1.0 - omega) * (cdf - masses)


def exact_slope(pmf, omega):
    """Population rank-rank slope of a joint pmf, as a finite sum."""
    px, py = pmf.sum(axis=1), pmf.sum(axis=0)
    u, v = _tie_weighted_cdf(px, omega), _tie_weighted_cdf(py, omega)
    du, dv = u - px @ u, v - py @ v
    return float(du @ pmf @ dv / (px @ du**2))


def _draw(rng, pmf, n):
    """n draws of (x, y) on the grid levels 1, 2, ..."""
    cell = rng.choice(pmf.size, size=n, p=pmf.ravel())
    return cell // pmf.shape[1] + 1.0, cell % pmf.shape[1] + 1.0


def _intercept_only(x, y, g=None):
    return Dataset(y=y, x=x, w=np.ones((x.size, 1)), w_names=["const"], g=g)


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
def test_exact_slope_is_the_fit_of_the_population(omega):
    # a sample holding each cell 100 p times has ranks F^w + (1 - omega)/100,
    # a shift the intercept absorbs, so its OLS slope is the population slope
    counts = np.rint(100 * PMF).astype(int).ravel()
    cells = np.repeat(np.arange(PMF.size), counts)
    x, y = cells // PMF.shape[1] + 1.0, cells % PMF.shape[1] + 1.0
    fit = fit_spec(_intercept_only(x, y), "rank-rank", omega)
    assert fit.slope == pytest.approx(exact_slope(PMF, omega), abs=1e-12)


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
def test_rank_rank_plugin_variance_and_coverage(omega):
    rng = np.random.default_rng(20261019)
    truth = exact_slope(PMF, omega)
    slopes, variances, covered = np.empty(REPS), np.empty(REPS), np.empty(REPS)
    for rep in range(REPS):
        fit = fit_spec(_intercept_only(*_draw(rng, PMF, N)), "rank-rank", omega)
        report = plugin_slope_variance(fit)
        slopes[rep], variances[rep] = fit.slope, report.variance[0, 0]
        lo, hi = report.ci[0]
        covered[rep] = lo <= truth <= hi
    ratio = N * slopes.var(ddof=1) / variances.mean()
    assert 0.9 <= ratio <= 1.1, ratio
    assert abs(covered.mean() - 0.95) <= 0.02, covered.mean()


def test_grouped_plugin_variance_on_pooled_ranks():
    # group b (share 0.4) draws from its own pmf; both groups rank in the
    # pooled sample, which ties their slopes together
    rng = np.random.default_rng(20261020)
    reps = 1000
    slopes, variances = np.empty((reps, 2)), np.empty((reps, 2))
    for rep in range(reps):
        in_b = rng.random(N) < 0.4
        xa, ya = _draw(rng, PMF, N)
        xb, yb = _draw(rng, PMF_B, N)
        d = _intercept_only(np.where(in_b, xb, xa), np.where(in_b, yb, ya),
                            g=np.where(in_b, "b", "a"))
        fit = fit_spec(d, "rank-rank-group", 0.5)
        slopes[rep] = fit.slope
        # estimates run coefficient-major: the two slopes come first
        variances[rep] = np.diag(plugin_covariance(fit).variance)[:2]
    ratio = N * slopes.var(axis=0, ddof=1) / variances.mean(axis=0)
    assert np.all((0.9 <= ratio) & (ratio <= 1.1)), ratio


# a binary covariate w with P(w = 1 | x, y) rising in both, so that holding
# it fixed moves the rank-rank slope; PMF_W is the joint pmf of (x, y, w)
P_W = np.array([[0.2, 0.3, 0.4, 0.5],
                [0.3, 0.4, 0.5, 0.6],
                [0.4, 0.5, 0.6, 0.8]])
PMF_W = np.stack([PMF * (1.0 - P_W), PMF * P_W], axis=-1)
OMEGAS = (0.0, 0.5, 1.0)
# the coefficient each spec's check gates: the slope on rank(x), or for
# rank-level the coefficient on the raw x
GATED = {"rank-rank": 0, "level-rank": 0, "rank-level": 1}


def exact_coefficients(pmf3, spec, omega):
    """Population OLS coefficients of a spec under a joint pmf of (x, y, w).

    The cells are the grid points, with x and y on the levels 1, 2, ... and
    w on 0, 1; the design and response of each spec are evaluated per cell,
    and the normal equations are finite sums over the cells.
    """
    i, j, k = np.indices(pmf3.shape).reshape(3, -1)
    p = pmf3.ravel()
    u = _tie_weighted_cdf(pmf3.sum(axis=(1, 2)), omega)[i]
    v = _tie_weighted_cdf(pmf3.sum(axis=(0, 2)), omega)[j]
    one = np.ones_like(p)
    design, response = {
        "rank-rank": ([u, one, k], v),      # rank(y) on rank(x), 1, w
        "level-rank": ([u, one], j + 1.0),  # raw y on rank(x), 1
        "rank-level": ([one, i + 1.0], v),  # rank(y) on 1, raw x
    }[spec]
    design = np.column_stack(design)
    return np.linalg.solve(design.T @ (p[:, None] * design), design.T @ (p * response))


def _spec_dataset(spec, x, y, w):
    """The dataset of a spec's design: W is [1, w], [1] or [1, x]."""
    one = np.ones_like(y)
    if spec == "rank-rank":
        return Dataset(y=y, x=x, w=np.column_stack([one, w]), w_names=["const", "w"])
    if spec == "level-rank":
        return _intercept_only(x, y)
    return Dataset(y=y, w=np.column_stack([one, x]), w_names=["const", "x"])


def _draw_with_covariate(rng, n):
    """n draws of (x, y, w) from PMF_W: x and y on levels 1, 2, ..., w on 0, 1."""
    i, j, k = np.unravel_index(rng.choice(PMF_W.size, size=n, p=PMF_W.ravel()), PMF_W.shape)
    return i + 1.0, j + 1.0, k.astype(float)


@pytest.mark.parametrize("spec", list(GATED))
def test_exact_coefficients_are_the_fit_of_the_population(spec):
    # PMF_W is in thousandths, so 1,000 rows hold every cell exactly; their
    # ranks are the population's shifted by a constant, which the intercept
    # absorbs
    counts = np.rint(1000 * PMF_W).astype(int).ravel()
    i, j, k = np.unravel_index(np.repeat(np.arange(PMF_W.size), counts), PMF_W.shape)
    d = _spec_dataset(spec, i + 1.0, j + 1.0, k.astype(float))
    for omega in OMEGAS:
        fit = fit_spec(d, spec, omega)
        truth = exact_coefficients(PMF_W, spec, omega)
        assert fit.estimates[GATED[spec]] == pytest.approx(truth[GATED[spec]], abs=1e-12)


@pytest.mark.parametrize("spec, seed", [("rank-rank", 20261021), ("level-rank", 20261022),
                                        ("rank-level", 20261023)])
def test_plugin_variance_and_coverage_by_spec(spec, seed):
    # each draw is fitted at every omega: the three checks share their samples
    rng = np.random.default_rng(seed)
    k = GATED[spec]
    truth = np.array([exact_coefficients(PMF_W, spec, omega)[k] for omega in OMEGAS])
    estimates, variances, covered = (np.empty((REPS, len(OMEGAS))) for _ in range(3))
    for rep in range(REPS):
        d = _spec_dataset(spec, *_draw_with_covariate(rng, N))
        for o, omega in enumerate(OMEGAS):
            report = plugin_covariance(fit_spec(d, spec, omega))
            estimates[rep, o], variances[rep, o] = report.estimates[k], report.variance[k, k]
            lo, hi = report.ci[k]
            covered[rep, o] = lo <= truth[o] <= hi
    ratio = N * estimates.var(axis=0, ddof=1) / variances.mean(axis=0)
    assert np.all((0.9 <= ratio) & (ratio <= 1.1)), ratio
    assert np.all(np.abs(covered.mean(axis=0) - 0.95) <= 0.02), covered.mean(axis=0)


def exact_pooled_slopes(pmfs, shares, omega):
    """Each group's population rank-rank slope when both rank in the pooled sample.

    The ranks are the pooled margins' F^w, the mixture of the groups' pmfs
    by their shares; each slope is the within-group regression on them.
    """
    pooled = sum(share * pmf for share, pmf in zip(shares, pmfs))
    u = _tie_weighted_cdf(pooled.sum(axis=1), omega)
    v = _tie_weighted_cdf(pooled.sum(axis=0), omega)
    slopes = []
    for pmf in pmfs:
        px, py = pmf.sum(axis=1), pmf.sum(axis=0)
        du, dv = u - px @ u, v - py @ v
        slopes.append(float(du @ pmf @ dv / (px @ du**2)))
    return np.array(slopes)


def test_exact_pooled_slopes_are_the_fit_of_the_population():
    # 600 rows of group a and 400 of group b hold every cell exactly
    parts = [np.repeat(np.arange(pmf.size), np.rint(rows * pmf).astype(int).ravel())
             for rows, pmf in ((600, PMF), (400, PMF_B))]
    cells = np.concatenate(parts)
    g = np.repeat(["a", "b"], [part.size for part in parts])
    d = _intercept_only(cells // PMF.shape[1] + 1.0, cells % PMF.shape[1] + 1.0, g=g)
    for omega in OMEGAS:
        fit = fit_spec(d, "rank-rank-group", omega)
        truth = exact_pooled_slopes((PMF, PMF_B), (0.6, 0.4), omega)
        np.testing.assert_allclose(fit.slope, truth, rtol=0, atol=1e-12)


def test_grouped_coverage_on_pooled_ranks():
    # the design of test_grouped_plugin_variance_on_pooled_ranks, against
    # each group's exact slope on the pooled ranks; that test's omega = 1/2
    # is left out to hold the suite's time
    rng = np.random.default_rng(20261024)
    reps, omegas = 1000, (0.0, 1.0)
    truth = np.array([exact_pooled_slopes((PMF, PMF_B), (0.6, 0.4), omega) for omega in omegas])
    covered = np.empty((reps, len(omegas), 2))
    for rep in range(reps):
        in_b = rng.random(N) < 0.4
        xa, ya = _draw(rng, PMF, N)
        xb, yb = _draw(rng, PMF_B, N)
        d = _intercept_only(np.where(in_b, xb, xa), np.where(in_b, yb, ya),
                            g=np.where(in_b, "b", "a"))
        for o, omega in enumerate(omegas):
            # estimates run coefficient-major: the two slopes come first
            lo, hi = plugin_covariance(fit_spec(d, "rank-rank-group", omega)).ci[:2].T
            covered[rep, o] = (lo <= truth[o]) & (truth[o] <= hi)
    coverage = covered.mean(axis=0)
    assert np.all(np.abs(coverage - 0.95) <= 0.02), coverage
