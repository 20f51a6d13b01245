"""Correctness of the low-level kernels against their literal definitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankreg import InvalidInputError, kernels


def _samples(rng, n):
    continuous = rng.normal(size=n)
    tied = rng.choice(np.arange(6.0), size=n)
    return [continuous, tied]


def _pairwise_sums(values, weights, omega):
    """sum_j K(values_i, values_j) * weights_j, one row of the kernel at a time."""
    out = np.empty(values.size)
    for i in range(values.size):
        kernel_row = omega * (values[i] <= values) + (1.0 - omega) * (values[i] < values)
        out[i] = kernel_row @ weights
    return out


def test_counts_match_definition(rng):
    for values in _samples(rng, 73):
        below, at_or_below = kernels.comparison_counts(kernels.tie_runs(values))
        for i in range(values.size):
            assert below[i] == np.sum(values < values[i])
            assert at_or_below[i] == np.sum(values <= values[i])


def test_tie_runs_are_dense_in_value_order(rng):
    for values in _samples(rng, 80) + [np.zeros(5), np.array([2.5])]:
        runs = kernels.tie_runs(values)
        assert np.array_equal(runs.sizes, np.bincount(runs.run))
        assert runs.sizes.min() >= 1
        same = values[:, None] == values[None, :]
        below = values[:, None] < values[None, :]
        assert np.array_equal(runs.run[:, None] == runs.run[None, :], same)
        assert np.array_equal(runs.run[:, None] < runs.run[None, :], below)
        assert runs.tied == np.sum(same.sum(axis=1) > 1)


def _mergesort_runs(values):
    """Run ids and sizes by a stable mergesort, gathered and scattered as tie_runs does."""
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    run_start = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    run = np.empty(values.size, dtype=np.intp)
    run[order] = np.cumsum(run_start) - 1
    return run, np.diff(np.append(np.flatnonzero(run_start), values.size))


@st.composite
def _tied_floats(draw):
    """Heavily tied floats holding both -0.0 and 0.0, and a permutation of them.

    Sizes run from numpy's small-array sort to its SIMD path.
    """
    n = draw(st.one_of(st.integers(1, 40), st.integers(41, 40_000)))
    pool = [-0.0, 0.0] + draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.choice(np.array(pool), size=n), rng.permutation(n)


@settings(max_examples=100, deadline=None)
@given(_tied_floats())
def test_tie_runs_equal_stable_sort_bitwise(problem):
    values, perm = problem
    runs = kernels.tie_runs(values)
    run, sizes = _mergesort_runs(values)
    assert runs.run.dtype == run.dtype and np.array_equal(runs.run, run)
    assert runs.sizes.dtype == sizes.dtype and np.array_equal(runs.sizes, sizes)
    # a run id belongs to the value, not to the element's position
    permuted = kernels.tie_runs(values[perm])
    assert np.array_equal(permuted.run, runs.run[perm])
    assert np.array_equal(permuted.sizes, runs.sizes)


@st.composite
def _tied_stacks(draw):
    """A stack (c, n) of heavily tied integer rows, each row with its own support."""
    c, n = draw(st.integers(1, 5)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = [draw(st.integers(1, 8)) for _ in range(c)]
    return np.array([rng.integers(0, k, size=n) for k in support], dtype=np.float64)


@settings(max_examples=100, deadline=None)
@given(_tied_stacks(), st.sampled_from([0.0, 0.3, 1.0]))
def test_stack_runs_are_each_rows_runs(stack, omega):
    # a stack's runs, counts and per-block kernel sums are bitwise each row's own
    runs = kernels.tie_runs(stack)
    c, n = stack.shape
    assert runs.run.shape == (c, n) and runs.sizes.shape[0] == c
    counts = kernels.comparison_counts(runs)
    weights = np.random.default_rng(c * n).normal(size=(c * n, 2))
    blocks = np.repeat(np.arange(c), n)
    table = kernels.comparison_run_sums(runs, weights, omega, slice(None), blocks, c)
    for i, row in enumerate(stack):
        alone = kernels.tie_runs(row)
        width = alone.sizes.size
        assert np.array_equal(runs.run[i], alone.run)
        assert np.array_equal(runs.sizes[i, :width], alone.sizes)
        assert not runs.sizes[i, width:].any()
        for stacked, own in zip(counts, kernels.comparison_counts(alone)):
            assert stacked.dtype == own.dtype and np.array_equal(stacked[i], own)
        own = kernels.comparison_run_sums(alone, weights[i * n:(i + 1) * n], omega)
        assert np.array_equal(table[:width, :, i], own[:, :, 0])
        assert not table[width:, :, i].any()


@settings(max_examples=60, deadline=None)
@given(_tied_stacks(), st.sampled_from([0.0, 0.3, 1.0]))
def test_run_sums_are_the_omega_mix_bitwise(stack, omega):
    # omega = 1 takes the suffix scan alone and omega < 1 mixes it in place;
    # the table keeps the bits of (1 - omega) * above + omega * at_or_above,
    # each from the per-run weights
    runs = kernels.tie_runs(stack)
    c, n = stack.shape
    width = runs.sizes.shape[-1]
    weights = np.random.default_rng(c * n).normal(size=(c * n, 2))
    blocks = np.repeat(np.arange(c), n)
    table = kernels.comparison_run_sums(runs, weights, omega, slice(None), blocks, c)
    for k in range(2):
        per_run = np.bincount(runs.run.reshape(-1) * c + blocks, weights[:, k], width * c)
        at_or_above = np.cumsum(per_run.reshape(width, c)[::-1], axis=0)[::-1]
        above = np.zeros_like(at_or_above)
        above[:-1] = at_or_above[1:]
        want = (1.0 - omega) * above + omega * at_or_above
        assert np.array_equal(table[:, k].view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape", [(0,), (2, 0), (0, 3)])
def test_tie_runs_refuse_an_empty_sample(shape):
    # still a ValueError, which numpy's failed reshape used to raise
    with pytest.raises(InvalidInputError) as err:
        kernels.tie_runs(np.zeros(shape))
    assert isinstance(err.value, ValueError)
    assert str(err.value) == f"tie runs need at least one sample of at least one value, got shape {shape}"


def test_weighted_sums_match_pairwise(rng):
    for values in _samples(rng, 90):
        runs = kernels.tie_runs(values)
        weights = rng.normal(size=90)
        rows = np.flatnonzero(rng.random(90) < 0.3)
        in_rows = np.zeros(90)
        in_rows[rows] = weights[rows]
        for omega in (0.0, 0.3, 0.5, 1.0):
            # every element of a run has its run's entry of the one-block table
            fast = kernels.comparison_run_sums(runs, weights, omega)[runs.run, 0, 0]
            slow = _pairwise_sums(values, weights, omega)
            assert np.max(np.abs(fast - slow)) < 1e-12
            fast = kernels.comparison_run_sums(runs, weights[rows], omega, rows)[runs.run, 0, 0]
            slow = _pairwise_sums(values, in_rows, omega)
            assert np.max(np.abs(fast - slow)) < 1e-12
            # block g's column of the per-run table holds the sums of its members alone
            blocks = rng.integers(0, 3, rows.size)
            table = kernels.comparison_run_sums(runs, weights[rows], omega, rows, blocks, 3)
            for g in range(3):
                slow = _pairwise_sums(values, np.where(np.isin(np.arange(90), rows[blocks == g]),
                                                       weights, 0.0), omega)
                assert np.max(np.abs(table[runs.run, 0, g] - slow)) < 1e-12


def test_weight_matrix_equals_column_calls_bitwise(rng):
    for values in _samples(rng, 64) + [np.zeros(5), np.array([2.5])]:
        weights = rng.normal(size=(values.size, 4))
        runs = kernels.tie_runs(values)
        for omega in (0.0, 0.5, 1.0):
            batched = kernels.comparison_run_sums(runs, weights, omega)
            assert batched.shape == (runs.sizes.size, weights.shape[1], 1)
            for k in range(weights.shape[1]):
                single = kernels.comparison_run_sums(runs, weights[:, k], omega)
                assert single.shape == (runs.sizes.size, 1, 1)
                assert np.array_equal(batched[:, k], single[:, 0])


def test_backend_name_is_known():
    assert kernels.backend_name() == "numpy"
