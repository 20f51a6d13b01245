"""Rank transform, empirical CDFs, comparison kernel, and rank correlation."""

import numpy as np
import pytest

from rankreg import (
    DegenerateInputError,
    InvalidInputError,
    centered_rank_moment,
    comparison_kernel,
    ecdf,
    ecdf_left,
    rank_transform,
    slope_decomposition,
    spearman,
    tie_count,
)
from rankreg.bruteforce import rank_transform_pairwise

from conftest import make_tied_sample

TIED = [3, 4, 7, 7, 10, 11, 15, 15, 15, 15]


class TestEcdf:
    def test_tied_fixture(self):
        assert ecdf(TIED, 7) == 0.4

    def test_single_point(self):
        assert ecdf([5], 5) == 1.0

    def test_below_support(self):
        assert ecdf([1, 2, 3], 0) == 0.0

    def test_left_tied_fixture(self):
        # values strictly below 7 are {3, 4}
        assert ecdf_left(TIED, 7) == 0.2

    def test_left_single_point(self):
        assert ecdf_left([5], 5) == 0.0

    def test_left_above_support(self):
        assert ecdf_left([1, 2, 3], 10) == 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError):
            ecdf([], 1.0)
        with pytest.raises(InvalidInputError):
            ecdf_left([], 1.0)

    def test_nan_rejected(self):
        with pytest.raises(InvalidInputError):
            ecdf([1.0, np.nan], 1.0)

    def test_left_below_right_and_monotone(self, rng):
        sample = make_tied_sample(rng, 40)
        grid = np.linspace(sample.min() - 1, sample.max() + 1, 60)
        left = [ecdf_left(sample, t) for t in grid]
        right = [ecdf(sample, t) for t in grid]
        assert all(l <= r for l, r in zip(left, right))
        assert all(a <= b for a, b in zip(left, left[1:]))
        assert all(a <= b for a, b in zip(right, right[1:]))


class TestComparisonKernel:
    def test_less(self):
        assert comparison_kernel(3, 5, 0.5) == 1.0

    def test_tie_returns_omega(self):
        assert comparison_kernel(5, 5, 0.5) == 0.5

    def test_greater(self):
        assert comparison_kernel(7, 5, 1.0) == 0.0

    def test_omega_validated(self):
        with pytest.raises(InvalidInputError):
            comparison_kernel(1, 2, 1.5)


class TestRankTransform:
    def test_smallest_rank_row(self):
        assert rank_transform(TIED, 0.0).tolist() == [
            0.1, 0.2, 0.3, 0.3, 0.5, 0.6, 0.7, 0.7, 0.7, 0.7]

    def test_mid_rank_row(self):
        assert rank_transform(TIED, 0.5).tolist() == [
            0.1, 0.2, 0.35, 0.35, 0.5, 0.6, 0.85, 0.85, 0.85, 0.85]

    def test_largest_rank_row(self):
        assert rank_transform(TIED, 1.0).tolist() == [
            0.1, 0.2, 0.4, 0.4, 0.5, 0.6, 1.0, 1.0, 1.0, 1.0]

    def test_tie_free_gives_k_over_n_for_every_omega(self, rng):
        for n in (1, 2, 7, 50):
            sample = rng.permutation(rng.normal(size=n) + np.arange(n) * 10)
            expected = np.sort((np.arange(n) + 1.0) / n)
            for omega in (0.0, 0.25, 0.5, 1.0):
                ranks = rank_transform(sample, omega)
                assert np.allclose(np.sort(ranks), expected, atol=1e-15)
                # sort order assigns them
                assert np.array_equal(np.argsort(ranks), np.argsort(sample))

    def test_matches_kernel_sum_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 40))
            sample = make_tied_sample(rng, n) if rng.random() < 0.5 else rng.normal(size=n)
            omega = float(rng.random())
            fast = rank_transform(sample, omega)
            slow = rank_transform_pairwise(sample, omega)
            assert np.max(np.abs(fast - slow)) < 1e-12

    def test_entries_in_unit_interval(self, rng):
        sample = make_tied_sample(rng, 60)
        for omega in (0.0, 0.5, 1.0):
            ranks = rank_transform(sample, omega)
            assert np.all(ranks > 0.0) and np.all(ranks <= 1.0)

    def test_tied_values_get_identical_ranks(self, rng):
        sample = make_tied_sample(rng, 50)
        ranks = rank_transform(sample, 0.5)
        for v in np.unique(sample):
            assert np.unique(ranks[sample == v]).size == 1

    def test_invariant_under_increasing_transform(self, rng):
        sample = make_tied_sample(rng, 50)
        for omega in (0.0, 0.5, 1.0):
            base = rank_transform(sample, omega)
            assert np.array_equal(base, rank_transform(np.exp(sample / 10.0), omega))
            assert np.array_equal(base, rank_transform(np.arctan(sample), omega))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            rank_transform([], 0.5)
        with pytest.raises(InvalidInputError):
            rank_transform([1.0, np.inf], 0.5)
        with pytest.raises(InvalidInputError):
            rank_transform([1.0, 2.0], -0.1)


class TestSpearman:
    def test_perfect_concordance(self):
        for omega in (0.0, 0.5, 1.0):
            assert spearman([1, 2, 3], [10, 20, 30], omega) == pytest.approx(1.0)

    def test_perfect_discordance(self):
        for omega in (0.0, 0.5, 1.0):
            assert spearman([1, 2, 3], [30, 20, 10], omega) == pytest.approx(-1.0)

    def test_hand_computed_value(self):
        # ranks [.25,.5,.75,1] vs [.5,.25,1,.75]: Pearson correlation 0.6
        assert spearman([1, 2, 3, 4], [2, 1, 4, 3], 1.0) == pytest.approx(0.6, abs=1e-15)

    def test_symmetry_and_invariance(self, rng):
        x = make_tied_sample(rng, 40)
        y = rng.normal(size=40)
        for omega in (0.0, 0.5, 1.0):
            assert spearman(x, y, omega) == pytest.approx(spearman(y, x, omega), abs=1e-14)
            assert spearman(np.exp(x / 10), np.arctan(y), omega) == pytest.approx(
                spearman(x, y, omega), abs=1e-14)

    def test_all_tied_is_degenerate(self):
        for pair_function in (spearman, slope_decomposition):
            with pytest.raises(DegenerateInputError, match="rank variance is zero"):
                pair_function([1, 1, 1], [1, 2, 3], 0.5)


@pytest.mark.parametrize("pair_function", [
    spearman, slope_decomposition,
    # a negative order too: the lengths are checked first
    lambda x, y, omega: centered_rank_moment(x, y, -1, 0, omega),
], ids=["spearman", "slope_decomposition", "centered_rank_moment"])
def test_unequal_lengths_are_refused(pair_function):
    with pytest.raises(InvalidInputError, match="^x and y must have equal length$"):
        pair_function([1, 2, 3], [1, 2], 0.5)


class TestCenteredRankMoment:
    def test_negative_order_is_refused(self):
        with pytest.raises(InvalidInputError, match="moment orders must be nonnegative"):
            centered_rank_moment([1, 2, 3], [1, 2, 3], -1, 0)

    @pytest.mark.parametrize("k, l", [(0.5, 1), (1.5, 2), (2, float("nan"))])
    def test_fractional_order_is_refused(self, k, l):
        # a fractional power of a negative deviation used to return nan
        with pytest.raises(InvalidInputError, match="moment orders must be nonnegative integers"):
            centered_rank_moment([1, 2, 3], [1, 2, 3], k, l)

    def test_first_moment_is_zero(self, rng):
        x = rng.normal(size=30)
        y = make_tied_sample(rng, 30)
        assert centered_rank_moment(x, y, 1, 0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_uniform_limits(self):
        # tie-free ranks are k/n, so M_20 -> 1/12 and M_40 -> 1/80
        n = 1_000_000
        x = np.arange(n, dtype=float)
        y = np.arange(n, dtype=float)
        assert centered_rank_moment(x, y, 2, 0, 1.0) == pytest.approx(1 / 12, abs=1e-3)
        assert centered_rank_moment(x, y, 4, 0, 1.0) == pytest.approx(1 / 80, abs=1e-3)


class TestSlopeDecomposition:
    def test_tie_free_ratio_is_one(self, rng):
        x = rng.normal(size=60)
        y = rng.normal(size=60)
        slope, rank_corr, ratio = slope_decomposition(x, y, 1.0)
        assert ratio == pytest.approx(1.0, abs=1e-12)
        assert slope == pytest.approx(rank_corr, abs=1e-12)

    def test_identity_data(self):
        slope, rank_corr, ratio = slope_decomposition([1, 2, 3, 4], [1, 2, 3, 4], 0.5)
        assert (slope, rank_corr, ratio) == pytest.approx((1.0, 1.0, 1.0))

    def test_tied_fixture_ratio_matches_direct_sds(self):
        x, y = [1, 1, 2, 3], [1, 2, 3, 4]
        _, _, ratio = slope_decomposition(x, y, 1.0)
        sx = np.std(rank_transform(x, 1.0))
        sy = np.std(rank_transform(y, 1.0))
        assert ratio == pytest.approx(sy / sx, abs=1e-14)

    def test_product_identity_fuzz(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 40))
            x = make_tied_sample(rng, n) if rng.random() < 0.5 else rng.normal(size=n)
            y = make_tied_sample(rng, n) if rng.random() < 0.5 else rng.normal(size=n)
            if np.unique(x).size < 2 or np.unique(y).size < 2:
                continue
            omega = float(rng.random())
            slope, rank_corr, ratio = slope_decomposition(x, y, omega)
            assert slope == pytest.approx(rank_corr * ratio, abs=1e-12)


def test_tie_count():
    assert tie_count(TIED) == 6  # the pair of 7s plus four 15s
    assert tie_count([1, 2, 3]) == 0


@pytest.mark.parametrize("call, message", [
    (lambda: spearman([1.0], [2.0]), "need at least two observations"),
], ids=["spearman-one"])
def test_refusal_messages(call, message):
    with pytest.raises(InvalidInputError) as err:
        call()
    assert str(err.value) == message
