"""Metamorphic tests on tied data: relations that a wrong tie run breaks.

Every kernel reads a ranked variable only through its tie runs, so a run id
that is off by one, a run split in two or two runs merged changes the
ranks and the kernel sums.  Each test here relates two computations whose
answers must agree exactly, or to rounding where the summation order
differs.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rankreg import (
    AssumptionViolationError,
    Dataset,
    InvalidInputError,
    RankRegressionError,
    fit_spec,
    influence_rows,
    plugin_covariance,
    rank_transform,
)
from rankreg.bruteforce import influence_rows_pairwise
from rankreg.estimators import SPECS, _Sample

from conftest import make_tied_sample


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([16, 64, 256]), st.integers(2, 8),
       st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), st.integers(0, 2**32 - 1))
def test_rank_of_negated_sample_reflects(n, support, omega, seed):
    # rank_w(x) = 1 + 1/n - rank_{1-w}(-x).  With n a power of two and omega a
    # multiple of 1/4 every term is a short dyadic fraction, so both sides are
    # exact and must agree bit for bit.
    x = np.random.default_rng(seed).integers(0, support, n).astype(float)
    left = rank_transform(x, omega)
    right = 1.0 + 1.0 / n - rank_transform(-x, 1.0 - omega)
    assert np.array_equal(left, right)


def _tied_dataset(rng, n, groups=None):
    x = make_tied_sample(rng, n)
    y = make_tied_sample(rng, n)
    w = np.column_stack([np.ones(n), np.round(rng.normal(size=n), 1)])
    return Dataset(y=y, x=x, w=w, g=groups)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
def test_increasing_transforms_leave_fit_and_plugin_bitwise(rng, spec, omega):
    # a strictly increasing map keeps every tie run, so the ranks, the design
    # and every kernel sum are the same numbers; a raw (unranked) y is kept
    d = _tied_dataset(rng, 90, groups=np.arange(90) % 3)
    moved = Dataset(y=d.y if spec == "level-rank" else np.arctan(d.y - 5.0),
                    x=np.exp(d.x / 3.0) + d.x**3, w=d.w, g=d.g)
    base = plugin_covariance(fit_spec(d, spec, omega), d)
    other = plugin_covariance(fit_spec(moved, spec, omega), moved)
    assert np.array_equal(other.estimates, base.estimates)
    assert np.array_equal(other.variance, base.variance)
    assert np.array_equal(other.se, base.se)


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
def test_affine_reparametrisation_of_w_keeps_slope_and_se(rng, spec, omega):
    # W -> W A, with A's first column e_0 so the intercept column stays.  The
    # slope on rank(x) depends on W only through its column span.  Row 1 of A
    # is A[1, 1] e_1 (w1 enters no other column), so for rank-level, whose
    # coefficients move by A^-1, the one on w1 and its SE scale by 1 / A[1, 1].
    n = 120
    w = np.column_stack([np.ones(n), make_tied_sample(rng, n, support=4),
                         np.round(rng.normal(size=n), 1)])
    d = Dataset(y=make_tied_sample(rng, n), x=make_tied_sample(rng, n), w=w, g=np.arange(n) % 3)
    base = plugin_covariance(fit_spec(d, spec, omega), d)
    keep = [k for k, name in enumerate(base.names) if name.startswith("rank(x)")]
    keep = keep or [base.names.index("w1")]
    slope = base.estimates[keep]
    # the second matrix measures w1 in units 1e7 times larger, so its
    # projection residual's second moment falls by 1e-14
    for a in (np.array([[1.0, 3.0, -2.0], [0.0, 1.0, 0.0], [0.0, 0.5, 2.5]]),
              np.diag([1.0, 1e-7, 1.0])):
        moved = Dataset(y=d.y, x=d.x, w=w @ a, g=d.g)
        other = plugin_covariance(fit_spec(moved, spec, omega), moved)
        scale = a[1, 1] if spec == "rank-level" else 1.0
        slope_moved = other.estimates[keep] * scale
        assert np.max(np.abs(slope_moved - slope)) <= 1e-10 * np.max(np.abs(slope))
        assert np.max(np.abs(other.se[keep] * scale / base.se[keep] - 1.0)) <= 1e-10


@st.composite
def _resampled(draw):
    """A small tied sample in 1-3 groups, a spec, omega and multiplicities."""
    sizes = draw(st.lists(st.integers(8, 16), min_size=1, max_size=3))
    n = sum(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = draw(st.integers(2, 6))
    x = rng.integers(0, support, n).astype(float)
    y = rng.integers(0, support, n).astype(float)
    w = np.column_stack([np.ones(n), np.round(rng.normal(size=n), 1)])
    g = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    m = rng.integers(0, 4, n)
    spec = draw(st.sampled_from(SPECS))
    omega = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return Dataset(y=y, x=x, w=w, g=g), spec, omega, m


def _outcome(call):
    """The call's result, or the type and message of the error it raised."""
    try:
        return call()
    except RankRegressionError as err:
        return f"{type(err).__name__}: {err}"


@settings(max_examples=150, deadline=None)
@given(_resampled())
def test_multiplicities_equal_repeated_rows(problem):
    d, spec, omega, m = problem
    grouped = spec == "rank-rank-group"
    # a group left with fewer than 2 rows: solve_stack refuses the draw, while
    # the repeated rows lose the group or fail the dataset's own checks
    assume(not grouped or np.all(np.bincount(d.group_index, weights=m) >= 2))
    try:
        repeated = Dataset(y=np.repeat(d.y, m), x=np.repeat(d.x, m),
                           w=np.repeat(d.w, m, axis=0),
                           g=np.repeat(d.g, m) if grouped else None)
    except InvalidInputError:
        assume(False)
    want = _outcome(lambda: fit_spec(repeated, spec, omega))
    _, coef, _, errors = _Sample(d, spec, omega).solve_stack(m[None])
    got = coef[0] if errors[0] is None else f"{type(errors[0]).__name__}: {errors[0]}"
    if isinstance(want, str) or isinstance(got, str):  # both refuse, for one reason
        assert got == want
        return
    if spec == "rank-rank-group":
        want = np.column_stack([want.slope, want.beta])
    else:
        want = want.estimates[None, :]
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("times", [1, 2, 3])
def test_resample_judges_rank_variation_by_its_own_size(rng, times):
    # z is rank(x) plus noise orthogonal to [1, rank(x)], scaled so that the
    # residual variance of rank(x) on [1, z] is 0.7e-12, under the 1e-12
    # floor.  Repeating every row multiplies the residual sum of squares and
    # the resample's size alike, so the resample is refused like the sample;
    # scaled by the sample's n instead, it would pass for times >= 2.
    n = 40
    x = rng.permutation(n) + 1.0
    r = rank_transform(x, 1.0)
    basis = np.column_stack([np.ones(n), r])
    e = rng.normal(size=n)
    e -= basis @ np.linalg.lstsq(basis, e, rcond=None)[0]
    centred = r - r.mean()
    a, target = centred @ centred, 0.7e-12 * n  # ||residual||^2 = A E / (A + E)
    e *= np.sqrt(target * a / (a - target) / (e @ e))
    d = Dataset(y=rng.normal(size=n), x=x, w=np.column_stack([np.ones(n), r + e]))
    with pytest.raises(AssumptionViolationError, match="fully explained"):
        fit_spec(d, "rank-rank", 1.0)
    (err,) = _Sample(d, "rank-rank", 1.0).solve_stack(np.full((1, n), times))[3]
    assert isinstance(err, AssumptionViolationError) and "fully explained" in str(err)


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0])
def test_many_two_row_groups_match_double_sum(rng, omega):
    # G = n/2: each group is exactly identified, and the pooled kernel sums
    # of its two rows reach every observation
    n = 60
    x = make_tied_sample(rng, n, support=5)
    pairs = x.reshape(-1, 2)
    pairs[pairs[:, 0] == pairs[:, 1], 1] += 1.0  # distinct x within each group
    d = Dataset(y=make_tied_sample(rng, n), x=x, w=np.ones((n, 1)),
                g=np.repeat(np.arange(n // 2), 2))
    fit = fit_spec(d, "rank-rank-group", omega)
    assert d.n_groups == n // 2
    fast = influence_rows(fit, d).psi
    slow = influence_rows_pairwise(fit, d).psi
    assert np.max(np.abs(fast - slow)) < 1e-10 * max(1.0, np.max(np.abs(slow)))
