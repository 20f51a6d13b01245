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
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankreg import (
    BootstrapPlan,
    Dataset,
    bootstrap_report,
    fit_spec,
    linear_combo_inference,
    plugin_covariance,
    plugin_slope_variance,
)

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


def exact_coefficients(pmf3, spec, omega, intercept=True):
    """Population OLS coefficients of a spec under a joint pmf of (x, y, w).

    The cells are the grid points, with x and y on the levels 1, 2, ... and
    w on 0, 1; the design and response of each spec are evaluated per cell,
    and the normal equations are finite sums over the cells.  Without an
    intercept w takes the constant's place, and is left out when it has one
    level, where it is all zero.
    """
    i, j, k = np.indices(pmf3.shape).reshape(3, -1)
    p = pmf3.ravel()
    u = _tie_weighted_cdf(pmf3.sum(axis=(1, 2)), omega)[i]
    v = _tie_weighted_cdf(pmf3.sum(axis=(0, 2)), omega)[j]
    one = np.ones_like(p)
    w = [k] * (pmf3.shape[2] > 1)
    design, response = {
        "rank-rank": ([u, one, k], v),      # rank(y) on rank(x), 1, w
        "level-rank": ([u, one], j + 1.0),  # raw y on rank(x), 1
        "rank-level": ([one, i + 1.0], v),  # rank(y) on 1, raw x
    }[spec] if intercept else {
        "rank-rank": ([u, *w], v),          # rank(y) on rank(x), w
        "level-rank": ([u, *w], j + 1.0),   # raw y on rank(x), w
        "rank-level": ([*w, i + 1.0], v),   # rank(y) on w, raw x
    }[spec]
    design = np.column_stack(design)
    return np.linalg.solve(design.T @ (p[:, None] * design), design.T @ (p * response))


def _spec_dataset(spec, x, y, w, intercept=True):
    """The dataset of a spec's design: W is [1, w], [1] or [1, x].

    Without an intercept W is [w] or [w, x], with w left out when it has
    one level, as in :func:`exact_coefficients`.
    """
    if not intercept:
        columns = {"w": w} if w.any() else {}
        if spec == "rank-level":
            columns["x"], x = x, None
        return Dataset(y=y, x=x, w=np.column_stack(list(columns.values())) if columns else None,
                       w_names=list(columns))
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


def exact_pooled_slopes(table, omega):
    """Each group's population rank-rank slope on the pooled ranks, then each group's intercept.

    ``table`` holds the (group, x, y) cell masses.  The ranks are the pooled
    margins' F^w, and each slope is the within-group regression on them.  The
    coefficients run as the grouped fit's: every group's slope, then every
    group's intercept, so one group is the intercept-only rank-rank fit.
    Complex input stays complex, so complex-step differentiation sees through.
    """
    u = _tie_weighted_cdf(table.sum(axis=(0, 2)), omega)
    v = _tie_weighted_cdf(table.sum(axis=(0, 1)), omega)
    slopes, consts = [], []
    for mass in table:
        pmf = mass / mass.sum()
        px, py = pmf.sum(axis=1), pmf.sum(axis=0)
        du, dv = u - px @ u, v - py @ v
        slopes.append(du @ pmf @ dv / (px @ du**2))
        consts.append(py @ v - slopes[-1] * (px @ u))
    return np.array(slopes + consts)


# group a holds 60% of the population and group b 40%
POOLED = np.stack([0.6 * PMF, 0.4 * PMF_B])


def test_exact_pooled_slopes_are_the_fit_of_the_population():
    # 600 rows of group a and 400 of group b hold every cell exactly
    parts = [np.repeat(np.arange(pmf.size), np.rint(rows * pmf).astype(int).ravel())
             for rows, pmf in ((600, PMF), (400, PMF_B))]
    cells = np.concatenate(parts)
    g = np.repeat(["a", "b"], [part.size for part in parts])
    d = _intercept_only(cells // PMF.shape[1] + 1.0, cells % PMF.shape[1] + 1.0, g=g)
    for omega in OMEGAS:
        fit = fit_spec(d, "rank-rank-group", omega)
        truth = exact_pooled_slopes(POOLED, omega)[:2]
        np.testing.assert_allclose(fit.slope, truth, rtol=0, atol=1e-12)


def test_grouped_coverage_on_pooled_ranks():
    # the design of test_grouped_plugin_variance_on_pooled_ranks, against
    # each group's exact slope on the pooled ranks; that test's omega = 1/2
    # is left out to hold the suite's time
    rng = np.random.default_rng(20261024)
    reps, omegas = 1000, (0.0, 1.0)
    truth = np.array([exact_pooled_slopes(POOLED, omega)[:2] for omega in omegas])
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


# ---------------------------------------------------------------------------
# exact delta-method oracle for the plugin covariance
# ---------------------------------------------------------------------------
#
# Every coefficient is a smooth function theta(p) of the cell probabilities,
# so under multinomial sampling sqrt(n)(theta_hat - theta) has the variance
# J (diag p - p p') J' with J = d theta / d p.  A sample that holds every
# cell exactly n p_c times has the empirical distribution p, so its plugin
# covariance must equal that matrix.  J comes from complex-step
# differentiation, exact to rounding.  At omega < 1 the sample ranks carry a
# +(1 - omega)/n shift that F^w lacks, which moves only the intercept's row
# and column; the whole matrix is compared at omega = 1.

DELTA_RTOL = 1e-12


def delta_covariance(theta, p):
    """J (diag p - p p') J' of theta at the pmf p, J by complex step."""
    h = 1e-30
    jac = np.empty((theta(p).size, p.size))
    for c in range(p.size):
        step = np.zeros(p.size, complex)
        step[c] = 1j * h
        jac[:, c] = theta(p + step.reshape(p.shape)).imag / h
    flat = p.ravel()
    return jac @ (np.diag(flat) - np.outer(flat, flat)) @ jac.T


def _assert_plugin_is_delta(d, spec, theta, p, omega, intercepts, p_rank):
    """The plugin covariance of d against the delta covariance of theta at p.

    Entries outside the intercepts' rows and columns are gated at omega, the
    whole matrix at omega = 1, and for the rank-rank fits the variance of
    theta_p = intercept + p_rank * slope of every block at omega = 1.  That
    variance w' V w cancels to 0 at one p_rank, so near it the relative
    bound also allows a few rounding units of the size |w|' |V| |w| of its
    terms.
    """
    for w in dict.fromkeys((omega, 1.0)):
        fit = fit_spec(d, spec, w)
        plugin = plugin_covariance(fit)
        delta = delta_covariance(lambda q: theta(q, w), p)
        keep = np.ones(delta.shape, bool)
        if w < 1.0:
            keep[intercepts, :] = keep[:, intercepts] = False
        assert np.abs(plugin.variance - delta)[keep].max() <= DELTA_RTOL * np.abs(delta).max()
        if w < 1.0 or spec not in ("rank-rank", "rank-rank-group"):
            continue
        for g, const in enumerate(intercepts):  # block g's slope is estimate g
            weights = np.zeros(len(delta))
            weights[g], weights[const] = p_rank, 1.0
            combo = linear_combo_inference(plugin.variance, weights, plugin.estimates, fit.n)
            want = weights @ delta @ weights
            scale = np.abs(weights) @ np.abs(delta) @ np.abs(weights)
            rounding = 8 * np.finfo(float).eps * scale
            assert abs(combo.variance[0, 0] - want) <= DELTA_RTOL * want + rounding


def _oracle_case(spec, counts, intercept=True):
    """The sample that holds a count table's cells, theta(q, omega), and the intercepts.

    rank-rank-group takes a (group, x, y) table of two groups; the other
    specs take an (x, y, w) table, where rank-rank without a covariate (w of
    one level) is the one-group pooled fit.  Without an intercept there are
    no intercepts, and w takes the constant's place.
    """
    a, b, c = np.unravel_index(np.repeat(np.arange(counts.size), counts.ravel()), counts.shape)
    if not intercept:
        return (_spec_dataset(spec, a + 1.0, b + 1.0, c.astype(float), intercept=False),
                lambda q, omega: exact_coefficients(q, spec, omega, intercept=False), [])
    if spec == "rank-rank-group":
        d = _intercept_only(b + 1.0, c + 1.0, g=np.array(["a", "b"])[a])
        return d, exact_pooled_slopes, [2, 3]
    if spec == "rank-rank" and counts.shape[2] == 1:
        return (_intercept_only(a + 1.0, b + 1.0),
                lambda q, omega: exact_pooled_slopes(np.moveaxis(q, 2, 0), omega), [1])
    return (_spec_dataset(spec, a + 1.0, b + 1.0, c.astype(float)),
            lambda q, omega: exact_coefficients(q, spec, omega),
            [0 if spec == "rank-level" else 1])


# every cell occupied: each level is present and the designs stay well
# conditioned (a level held by one row of 16 moved an entry by 9e-13)
_counts = st.integers(1, 9)
_sides = st.integers(2, 6)


@settings(max_examples=120, deadline=None)
@given(spec=st.sampled_from(list(GATED)),
       counts=st.tuples(_sides, _sides, st.sampled_from([1, 2])).flatmap(
           lambda shape: hnp.arrays(np.int64, shape, elements=_counts)),
       omega=st.floats(0.0, 1.0), p_rank=st.floats(0.0, 1.0), intercept=st.booleans())
# equal counts of 6 x and 5 y levels: theta_p's variance is 0 at p_rank = 7/12
@example(spec="rank-rank", counts=np.full((6, 5, 1), 2), omega=0.0, p_rank=0.5625, intercept=True)
@example(spec="rank-rank", counts=np.full((6, 5, 1), 2), omega=1.0, p_rank=7 / 12, intercept=True)
def test_plugin_covariance_is_the_delta_method(spec, counts, omega, p_rank, intercept):
    # without an intercept nothing absorbs the sample ranks' +(1 - omega)/n
    # shift, so only omega = 1 fits the population; with no intercept to
    # exclude, the whole matrix is gated, and theta_p is not checked
    d, theta, intercepts = _oracle_case(spec, counts, intercept)
    _assert_plugin_is_delta(d, spec, theta, counts / counts.sum(),
                            omega if intercept else 1.0, intercepts, p_rank)


@settings(max_examples=30, deadline=None)
@given(counts=st.tuples(_sides, _sides).flatmap(
           lambda shape: hnp.arrays(np.int64, (2, *shape), elements=_counts)),
       omega=st.floats(0.0, 1.0), p_rank=st.floats(0.0, 1.0))
def test_grouped_plugin_covariance_is_the_delta_method(counts, omega, p_rank):
    d, theta, intercepts = _oracle_case("rank-rank-group", counts)
    _assert_plugin_is_delta(d, "rank-rank-group", theta, counts / counts.sum(), omega,
                            intercepts, p_rank)


@pytest.mark.parametrize("spec", [*GATED, "rank-rank-group"])
def test_bootstrap_se_is_the_delta_se(spec):
    # the populations of the exactness checks above, resampled 2,000 times
    # at mid-ranks; the bootstrap's SE of each gated slope is within 10% of
    # the delta method's
    omega = 0.5
    if spec == "rank-rank-group":
        counts, gated = np.rint(1000 * POOLED).astype(int), [0, 1]
    else:
        counts, gated = np.rint(1000 * PMF_W).astype(int), [GATED[spec]]
    d, theta, _ = _oracle_case(spec, counts)
    delta = delta_covariance(lambda q: theta(q, omega), counts / counts.sum())
    report = bootstrap_report(fit_spec(d, spec, omega), BootstrapPlan(reps=2000, seed=7))
    ratio = report.se[gated] / np.sqrt(np.diag(delta)[gated] / d.n)
    assert np.all(np.abs(ratio - 1.0) <= 0.1), ratio
