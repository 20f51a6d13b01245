"""Correctness of the low-level kernels against their literal definitions."""

import numpy as np

from rankreg import kernels


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


def test_weighted_sums_match_pairwise(rng):
    for values in _samples(rng, 90):
        runs = kernels.tie_runs(values)
        weights = rng.normal(size=90)
        rows = np.flatnonzero(rng.random(90) < 0.3)
        in_rows = np.zeros(90)
        in_rows[rows] = weights[rows]
        for omega in (0.0, 0.3, 0.5, 1.0):
            fast = kernels.comparison_weighted_sums(runs, weights, omega)
            slow = _pairwise_sums(values, weights, omega)
            assert np.max(np.abs(fast - slow)) < 1e-12
            fast = kernels.comparison_weighted_sums(runs, weights[rows], omega, rows)
            slow = _pairwise_sums(values, in_rows, omega)
            assert np.max(np.abs(fast - slow)) < 1e-12


def test_weight_matrix_equals_column_calls_bitwise(rng):
    for values in _samples(rng, 64) + [np.zeros(5), np.array([2.5])]:
        weights = rng.normal(size=(values.size, 4))
        runs = kernels.tie_runs(values)
        for omega in (0.0, 0.5, 1.0):
            batched = kernels.comparison_weighted_sums(runs, weights, omega)
            assert batched.shape == weights.shape
            for k in range(weights.shape[1]):
                single = kernels.comparison_weighted_sums(runs, weights[:, k], omega)
                assert np.array_equal(batched[:, k], single)


def test_backend_name_is_known():
    assert kernels.backend_name() == "numpy"
