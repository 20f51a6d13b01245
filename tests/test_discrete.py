"""Monte Carlo checks of the plugin variance on discrete data, against an exact truth.

The paper's inference needs no continuity, yet the copula families draw
continuous data.  Here (X, Y) has an explicit joint pmf on a 3 x 4 grid, so
every sample is heavily tied, and the population omega-slope of rank(y) on
rank(x) is a finite sum:

    beta(omega) = Cov(F_X^w(X), F_Y^w(Y)) / Var(F_X^w(X)),
    F^w = omega F + (1 - omega) F_-,

with F(v) = P(V <= v) and F_-(v) = P(V < v).  The gates are those of
criteria 05 and 09: n Var(slope) over the mean plugin variance within 10%,
and 95% coverage of the exact slope within +-0.02.
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
