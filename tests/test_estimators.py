"""Fits for the four specifications, their projections, and mobility measures."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankreg import (
    AssumptionViolationError,
    Dataset,
    InvalidInputError,
    SingularDesignError,
    expected_rank_at,
    fit_level_rank,
    fit_rank_level,
    fit_rank_rank,
    fit_rank_rank_by_group,
    fit_spec,
    influence_rows,
    ols,
    rank_transform,
    spearman,
)
from rankreg.estimators import SPECS, _solve

from conftest import make_tied_sample


def _intercept_data(rng, n, tied=False):
    x = make_tied_sample(rng, n) if tied else rng.normal(size=n)
    y = 0.6 * x + rng.normal(size=n)
    return Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"])


class TestOls:
    def test_mean(self):
        assert ols(np.ones((3, 1)), [1, 2, 3]) == pytest.approx([2.0])

    def test_identity_design(self):
        assert ols(np.eye(2), [3, 4]) == pytest.approx([3.0, 4.0])

    def test_duplicated_column_is_singular(self, rng):
        z = rng.normal(size=(20, 1))
        with pytest.raises(SingularDesignError):
            ols(np.column_stack([z, z]), rng.normal(size=20))

    def test_error_names_offending_column(self, rng):
        z = rng.normal(size=(20, 1))
        design = np.column_stack([np.ones(20), z, z])
        with pytest.raises(SingularDesignError, match="(b|c)"):
            ols(design, rng.normal(size=20), column_names=["a", "b", "c"])

    @pytest.mark.parametrize("n", [50, 500])
    @pytest.mark.parametrize("layout, named", [
        ("x11", 2), ("1x1", 2), ("11x", 0), ("xzx", 2), ("1xx", 2),
    ])
    def test_identical_columns_named_by_pivot_position(self, rng, n, layout, named):
        # the pivoted QR swaps each pivot into place and breaks exact ties by
        # position, so of two identical columns it names the one it reaches
        # second ("11x": x moves to the front and column 0 to the back)
        cols = {"1": np.ones(n), "x": 3.0 * rng.normal(size=n), "z": rng.normal(size=n)}
        design = np.column_stack([cols[c] for c in layout])
        with pytest.raises(SingularDesignError) as info:
            ols(design, rng.normal(size=n))
        assert info.value.column == named

    def test_normal_equations(self, rng):
        Z = rng.normal(size=(60, 4))
        r = rng.normal(size=60)
        coef = ols(Z, r)
        resid = r - Z @ coef
        assert np.max(np.abs(Z.T @ resid)) < 1e-8 * np.abs(Z.T @ r).max()


def _lapack_pivoted_solve(Z, r):
    """The solve on LAPACK's column-pivoted QR of Z: the reference for _solve.

    Returns (coef, gram_inv), or the column the rejection rule names.
    """
    n, q = Z.shape
    Q, R, piv = scipy.linalg.qr(Z, mode="economic", pivoting=True)
    diag = np.zeros(q)
    diag[:min(n, q)] = np.abs(np.diag(R))
    if diag[0] == 0.0 or diag[-1] < 1e-12 * diag[0]:
        return int(piv[int(np.argmax(diag < 1e-12 * max(diag[0], 1e-300)))])
    coef = np.empty(q)
    coef[piv] = scipy.linalg.solve_triangular(R, Q.T @ r)
    r_inv = scipy.linalg.solve_triangular(R, np.eye(q))
    gram_inv = np.empty((q, q))
    gram_inv[np.ix_(piv, piv)] = r_inv @ r_inv.T
    return coef, gram_inv


@st.composite
def _designs(draw):
    """Random designs with an intercept, some columns scaled by 1e8 and at
    most one defect (duplicate, multiple of the intercept, zero column).

    Either n < q, or n is large enough for a well-conditioned random design,
    where two stable solves agree to far below 1e-12.
    """
    q = draw(st.integers(1, 6))
    if q > 1 and draw(st.booleans()):
        n = draw(st.integers(1, q - 1))
    else:
        n = draw(st.integers(3 * q + 10, 3 * q + 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.normal(size=(n, q))
    cols = draw(st.permutations(range(q)))
    Z[:, cols[0]] = 1.0
    for j in draw(st.sets(st.integers(0, q - 1))):
        Z[:, j] *= 1e8
    defect = draw(st.sampled_from(["none", "duplicate", "intercept-multiple", "zero"]))
    if q >= 2 and defect == "duplicate":
        Z[:, cols[1]] = Z[:, cols[-1]]
    elif q >= 2 and defect == "intercept-multiple":
        Z[:, cols[1]] = draw(st.sampled_from([-3.0, 0.5, 2.0, 1e8])) * Z[:, cols[0]]
    elif defect == "zero":
        Z[:, cols[-1]] = 0.0
    return Z, rng.normal(size=n)


class TestSolveAgainstPivotedQR:
    @settings(max_examples=300, deadline=None)
    @given(_designs())
    def test_matches_lapack_pivoted_qr(self, problem):
        Z, r = problem
        want = _lapack_pivoted_solve(Z, r)
        try:
            coef, gram_inv = _solve(np.column_stack([Z, r]))
        except SingularDesignError as err:
            assert isinstance(want, int), "the reference accepts the design"
            # LAPACK's norms of two identical columns can differ by rounding
            # in its BLAS kernels, which then decides the one it names
            assert err.column == want or np.array_equal(Z[:, err.column], Z[:, want])
            return
        assert not isinstance(want, int), f"the reference rejects column {want}"
        # relative on the column-equilibrated problem, where 1e8 scales cancel
        length = np.linalg.norm(Z, axis=0)
        assert np.max(np.abs(coef - want[0]) * length) <= 1e-12 * np.linalg.norm(r)
        scaled = np.outer(length, length)
        assert np.max(np.abs(gram_inv - want[1]) * scaled) <= (
            1e-12 * np.max(np.abs(want[1]) * scaled))


@st.composite
def _tied_grouped_samples(draw):
    """A small tied sample in 1-3 groups, a spec, omega and a row permutation."""
    sizes = draw(st.lists(st.integers(8, 20), min_size=1, max_size=3))
    n = sum(sizes)
    support = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, support, n).astype(float)
    y = rng.integers(0, support, n).astype(float)
    w = np.column_stack([np.ones(n), np.round(rng.normal(size=n), 1)])
    g = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    spec = draw(st.sampled_from(SPECS))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return Dataset(y=y, x=x, w=w, g=g), spec, omega, rng.permutation(n)


def _assert_close(a, b):
    """Equal to 1e-12 relative to the largest magnitude in b (at least 1)."""
    assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


class TestFitAgainstDirectOls:
    """Every spec against rank_transform and ols on each block's rows.

    The oracle ranks each variable afresh and solves each block's design as
    given; it shares no code with the fit's prepared sample beyond the solve.
    """

    @settings(max_examples=200, deadline=None)
    @given(_tied_grouped_samples())
    def test_blocks_match_ols_and_permute_with_rows(self, problem):
        d, spec, omega, perm = problem
        try:
            fit = fit_spec(d, spec, omega)
        except (SingularDesignError, AssumptionViolationError):
            assume(False)
        rx, ry = rank_transform(d.x, omega), rank_transform(d.y, omega)
        if spec == "rank-level":
            assert fit.ranks_x is None
            design = d.w
        else:
            assert np.array_equal(fit.ranks_x, rx)
            design = np.column_stack([rx, d.w])
        if spec == "level-rank":
            assert fit.ranks_y is None
            response = d.y
        else:
            assert np.array_equal(fit.ranks_y, ry)
            response = ry
        if spec == "rank-rank-group":
            blocks = [d.group_index == k for k in range(d.n_groups)]
            coefs = np.column_stack([fit.slope, fit.beta])
        else:
            blocks = [np.ones(d.n, dtype=bool)]
            coefs = [fit.estimates]
        for rows, coef in zip(blocks, coefs):
            want = ols(design[rows], response[rows])
            _assert_close(coef, want)
            _assert_close(fit.residuals[rows], response[rows] - design[rows] @ want)

        moved = Dataset(y=d.y[perm], x=d.x[perm], w=d.w[perm], g=d.g[perm])
        refit = fit_spec(moved, spec, omega)
        _assert_close(refit.estimates, fit.estimates)
        _assert_close(refit.residuals, fit.residuals[perm])
        _assert_close(influence_rows(refit, moved).psi, influence_rows(fit, d).psi[perm])


class TestRankRank:
    def test_identical_sequences(self, rng):
        x = rng.normal(size=30)
        d = Dataset(y=x, x=x, w=np.ones((30, 1)), w_names=["const"])
        fit = fit_rank_rank(d, 1.0)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-12)

    def test_tie_free_slope_equals_rank_correlation(self, rng):
        for _ in range(20):
            d = _intercept_data(rng, 40)
            fit = fit_rank_rank(d, float(rng.random()))
            assert fit.slope == pytest.approx(spearman(d.x, d.y), abs=1e-12)

    def test_tied_fixture_against_normal_equations(self):
        x, y = np.array([1.0, 1.0, 2.0, 3.0]), np.array([4.0, 3.0, 2.0, 1.0])
        d = Dataset(y=y, x=x, w=np.ones((4, 1)), w_names=["const"])
        fit = fit_rank_rank(d, 1.0)
        rx, ry = rank_transform(x, 1.0), rank_transform(y, 1.0)
        Z = np.column_stack([rx, np.ones(4)])
        theta = np.linalg.solve(Z.T @ Z, Z.T @ ry)
        assert fit.slope == pytest.approx(theta[0], abs=1e-12)
        assert fit.beta[0] == pytest.approx(theta[1], abs=1e-12)

    def test_residuals_orthogonal_to_regressors(self, rng):
        n = 60
        x = rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=(n, 2))])
        y = 0.3 * x + w @ [0.5, -1.0, 2.0] + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w)
        fit = fit_rank_rank(d, 0.5)
        design = np.column_stack([fit.ranks_x, w])
        assert np.max(np.abs(design.T @ fit.residuals)) < 1e-8 * n

    def test_frisch_waugh_identity(self, rng):
        n = 80
        x = rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n), (rng.random(n) > 0.4)])
        y = x + w @ [1.0, 0.2, -0.5] + rng.normal(size=n)
        d = Dataset(y=y, x=x, w=w.astype(float))
        fit = fit_rank_rank(d, 1.0)
        nu = fit.ranks_x - d.w @ fit.gamma
        partialled = float(fit.ranks_y @ nu) / float(nu @ nu)
        assert fit.slope == pytest.approx(partialled, abs=1e-10)

    def test_degenerate_first_stage_rejected(self, rng):
        n = 50
        x = rng.normal(size=n)
        rx = rank_transform(x, 1.0)
        # covariate nearly collinear with the ranks: passes the QR rank check
        # but leaves no first-stage residual variation
        w = np.column_stack([np.ones(n), rx + 1e-8 * rng.normal(size=n)])
        d = Dataset(y=rng.normal(size=n), x=x, w=w)
        with pytest.raises(AssumptionViolationError):
            fit_rank_rank(d, 1.0)

    def test_slope_depends_on_omega_under_ties(self):
        x = np.array([0, 0, 0, 1, 1, 2, 2, 2, 3, 3], dtype=float)
        y = np.array([1, 0, 2, 2, 3, 1, 3, 4, 4, 4], dtype=float)
        d = Dataset(y=y, x=x, w=np.ones((10, 1)))
        s0 = fit_rank_rank(d, 0.0).slope
        s1 = fit_rank_rank(d, 1.0).slope
        assert abs(s0 - s1) > 1e-3

    def test_invariant_under_increasing_transforms(self, rng):
        d = _intercept_data(rng, 50, tied=True)
        base = fit_rank_rank(d, 0.5)
        d2 = Dataset(y=np.arctan(d.y), x=np.exp(d.x / 10.0), w=d.w)
        other = fit_rank_rank(d2, 0.5)
        assert other.slope == pytest.approx(base.slope, abs=1e-12)
        assert other.beta[0] == pytest.approx(base.beta[0], abs=1e-12)


class TestRankRankByGroup:
    def test_single_group_matches_ungrouped(self, rng):
        n = 40
        x, y = rng.normal(size=n), rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        d = Dataset(y=y, x=x, w=w, g=np.zeros(n, dtype=int))
        dg = Dataset(y=y, x=x, w=w)
        grouped = fit_rank_rank_by_group(d, 0.5)
        plain = fit_rank_rank(dg, 0.5)
        assert grouped.slope[0] == pytest.approx(plain.slope, abs=1e-12)
        assert grouped.beta[0] == pytest.approx(plain.beta, abs=1e-12)
        assert grouped.gamma[0] == pytest.approx(plain.gamma, abs=1e-12)

    def test_duplicated_group_rows_give_equal_slopes(self, rng):
        n = 25
        x, y = rng.normal(size=n), rng.normal(size=n)
        d = Dataset(
            y=np.concatenate([y, y]),
            x=np.concatenate([x, x]),
            w=np.ones((2 * n, 1)),
            g=np.repeat([1, 2], n),
        )
        fit = fit_rank_rank_by_group(d, 1.0)
        assert fit.slope[0] == pytest.approx(fit.slope[1], abs=1e-12)

    def test_pooled_ranks_differ_from_within_group_ranks(self, rng):
        # disjoint x supports but interleaved y values: the other group's y
        # draws distort the pooled y ranks, so the pooled-rank slope is not
        # the within-group rank correlation
        n = 10
        x1 = rng.random(n)
        x2 = rng.random(n) + 5.0
        y1 = x1 + 0.3 * rng.normal(size=n)
        y2 = rng.random(n) ** 3
        d = Dataset(
            y=np.concatenate([y1, y2]),
            x=np.concatenate([x1, x2]),
            w=np.ones((2 * n, 1)),
            g=np.repeat(["a", "b"], n),
        )
        fit = fit_rank_rank_by_group(d, 1.0)
        within = spearman(x1, y1, 1.0)
        assert abs(fit.slope[0] - within) > 0.05

    def test_matches_interacted_pooled_regression(self, rng):
        n = 60
        x, y = rng.normal(size=n), rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        g = np.repeat([0, 1, 2], n // 3)
        d = Dataset(y=y, x=x, w=w, g=g)
        fit = fit_rank_rank_by_group(d, 1.0)
        # pooled regression on group-interacted regressors
        rx, ry = fit.ranks_x, fit.ranks_y
        cols = []
        for k in range(3):
            ind = (g == k).astype(float)
            cols.append(ind * rx)
        for j in range(w.shape[1]):
            for k in range(3):
                ind = (g == k).astype(float)
                cols.append(ind * w[:, j])
        theta = ols(np.column_stack(cols), ry)
        assert theta[:3] == pytest.approx(fit.slope, abs=1e-10)
        assert theta[3:6] == pytest.approx(fit.beta[:, 0], abs=1e-10)
        assert theta[6:9] == pytest.approx(fit.beta[:, 1], abs=1e-10)

    def test_small_group_rejected(self, rng):
        with pytest.raises(InvalidInputError):
            Dataset(
                y=rng.normal(size=10),
                x=rng.normal(size=10),
                w=np.ones((10, 1)),
                g=np.array([0] * 9 + [1]),
            )

    def test_per_group_singular_names_group(self, rng):
        n = 24
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        g = np.repeat(["ok", "bad"], n // 2)
        # covariate constant within group "bad" duplicates its intercept
        z = np.where(g == "bad", 1.0, rng.normal(size=n))
        d = Dataset(y=y, x=x, w=np.column_stack([np.ones(n), z]), g=g)
        with pytest.raises(SingularDesignError, match="bad") as info:
            fit_rank_rank_by_group(d, 1.0)
        # the group label keeps the column the ungrouped rule names
        rows = g == "bad"
        with pytest.raises(SingularDesignError) as plain:
            ols(np.column_stack([rank_transform(x, 1.0), d.w])[rows], y[rows])
        assert plain.value.column is not None
        assert info.value.column == plain.value.column

    def test_per_group_first_stage_names_group_once(self, rng):
        n = 40
        x = rng.normal(size=n)
        g = np.repeat(["ok", "bad"], n // 2)
        # within group "bad" the covariate is rank(x) up to 1e-8 noise
        rx = rank_transform(x, 1.0)
        z = np.where(g == "bad", rx + 1e-8 * rng.normal(size=n), rng.normal(size=n))
        d = Dataset(y=rng.normal(size=n), x=x, w=np.column_stack([np.ones(n), z]), g=g)
        with pytest.raises(AssumptionViolationError) as info:
            fit_rank_rank_by_group(d, 1.0)
        assert str(info.value) == (
            "group 'bad': rank variation is fully explained by the covariates")

    def test_group_with_fewer_rows_than_regressors_is_singular(self, rng):
        # two rows cannot identify rank(x) and two covariates; the QR's R
        # factor is not square, which must still surface as a singular design
        n = 20
        g = np.array(["big"] * 18 + ["pair"] * 2)
        d = Dataset(y=rng.normal(size=n), x=rng.normal(size=n),
                    w=np.column_stack([np.ones(n), rng.normal(size=n)]), g=g)
        with pytest.raises(SingularDesignError, match="pair"):
            fit_rank_rank_by_group(d, 1.0)


class TestLevelRank:
    def test_exact_fit_on_ranks(self, rng):
        x = rng.normal(size=30)
        y = rank_transform(x, 1.0)
        d = Dataset(y=y, x=x, w=np.ones((30, 1)))
        fit = fit_level_rank(d, 1.0)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.beta[0] == pytest.approx(0.0, abs=1e-12)

    def test_constant_outcome(self, rng):
        x = rng.normal(size=30)
        d = Dataset(y=np.full(30, 7.0), x=x, w=np.ones((30, 1)))
        fit = fit_level_rank(d, 0.5)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.beta[0] == pytest.approx(7.0, abs=1e-12)

    def test_against_normal_equations(self, rng):
        n = 10
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        w = np.column_stack([np.ones(n), rng.normal(size=n)])
        d = Dataset(y=y, x=x, w=w)
        fit = fit_level_rank(d, 0.5)
        Z = np.column_stack([rank_transform(x, 0.5), w])
        theta = np.linalg.solve(Z.T @ Z, Z.T @ y)
        assert fit.slope == pytest.approx(theta[0], abs=1e-10)
        assert fit.beta == pytest.approx(theta[1:], abs=1e-10)


class TestRankLevel:
    def test_intercept_only_mean_rank(self, rng):
        y = make_tied_sample(rng, 30)
        d = Dataset(y=y, w=np.ones((30, 1)))
        fit = fit_rank_level(d, 1.0)
        assert fit.beta[0] == pytest.approx(rank_transform(y, 1.0).mean(), abs=1e-12)

    def test_binary_regressor_is_mean_rank_difference(self, rng):
        n = 40
        y = rng.normal(size=n)
        flag = (rng.random(n) > 0.5).astype(float)
        d = Dataset(y=y, w=np.column_stack([np.ones(n), flag]))
        fit = fit_rank_level(d, 1.0)
        ry = rank_transform(y, 1.0)
        diff = ry[flag == 1].mean() - ry[flag == 0].mean()
        assert fit.beta[1] == pytest.approx(diff, abs=1e-12)

    def test_duplicated_column_rejected(self, rng):
        n = 20
        z = rng.normal(size=n)
        d = Dataset(y=rng.normal(size=n), w=np.column_stack([np.ones(n), z, z]))
        with pytest.raises(SingularDesignError):
            fit_rank_level(d, 1.0)


class TestExpectedRankAt:
    def test_arithmetic(self):
        assert expected_rank_at(0.2, 0.4, 0.25) == pytest.approx(0.3)

    def test_endpoints(self):
        assert expected_rank_at(0.7, -0.2, 0.0) == pytest.approx(0.7)
        assert expected_rank_at(0.7, -0.2, 1.0) == pytest.approx(0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            expected_rank_at(0.2, 0.4, 1.5)


class TestDatasetValidation:
    def test_too_few_rows(self, rng):
        with pytest.raises(InvalidInputError):
            Dataset(y=[1.0, 2.0], x=[1.0, 2.0], w=np.ones((2, 1)))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(y=[1.0, np.nan, 2.0], x=[1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidInputError):
            Dataset(y=[1.0, 2.0, 3.0], x=[1.0, 2.0])
