"""Hot numeric kernels on one primitive: the tie runs of a variable.

Everything downstream (rank transforms, plugin variances, the copula lab's
conditional expectations) compares a variable with itself, so it depends on
the variable only through its tie runs.  ``tie_runs(values)`` finds them by
the package's one sort of a ranked variable, in O(n log n); a run id does
not depend on the order of tied elements, so the sort need not be stable and
numpy's default (SIMD where the CPU has it) serves.  A stack (c, n) of
samples is sorted row by row in one call, each row with runs of its own.
The functions over the runs of a sample of size n then cost O(n + R) for R
runs:

* ``comparison_counts(runs)`` -- for every element, how many sample values
  are strictly below it and how many are at or below it: cumulative run sizes.
* ``comparison_run_sums(runs, weights, omega, rows, blocks, n_blocks)`` --
  for every run ``r`` and block ``g`` the sum ``sum_j K(v_r, values_j) *
  weights_j`` over the weighted elements ``j`` of block ``g``, with ``v_r``
  the value of run ``r`` and the tie-weighted step kernel ``K(a, b) =
  omega*1{a<=b} + (1-omega)*1{a<b}``: per column one ``bincount`` over the
  ids ``run * n_blocks + block`` and a suffix sum over the runs, written
  into the table in place.  At omega = 1 that suffix sum is the table; for
  omega < 1 it is mixed in place with itself shifted by one run.  The table
  is (R, k, n_blocks) for k weight columns, whatever the number of
  elements, and each column is exactly its one-column table.
  Gathering it at ``runs.run`` gives every element its run's sums.

The literal O(n^2) pairwise evaluation lives in the tests and in
:mod:`rankreg.bruteforce`, which are the correctness oracles for this path.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "TieRuns",
    "backend_name",
    "tie_runs",
    "comparison_counts",
    "comparison_run_sums",
]


def backend_name():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


class TieRuns(NamedTuple):
    """Dense run id of each element (0..R-1 in value order) and each run's size."""

    run: np.ndarray
    sizes: np.ndarray

    @property
    def tied(self):
        """Number of elements that share their value with at least one other."""
        return int(self.sizes[self.sizes > 1].sum())


def tie_runs(values):
    """Tie runs of ``values`` from one sort; tied elements may come in any order.

    ``values`` may be a stack (c, n) of samples, sorted row by row: each row
    has runs of its own, ``run`` (c, n) holds ids local to the row, and
    ``sizes`` (c, R) each row's run sizes, padded with zeros up to the most
    runs R of any row.  An empty sample, or an empty stack, has no runs and
    is refused.
    """
    if values.size == 0:
        raise InvalidInputError(
            f"tie runs need at least one sample of at least one value, got shape {values.shape}")
    rows = values.reshape(-1, values.shape[-1])  # a lone sample is a stack of one
    c, n = rows.shape
    order = np.argsort(rows, axis=1)
    order += n * np.arange(c)[:, None]  # positions in the flat stack
    ordered = rows.reshape(-1)[order]
    run_start = np.ones((c, n), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_start[:, 1:])
    ids = np.cumsum(run_start, axis=1) - 1
    run = np.empty(c * n, dtype=np.intp)
    run[order] = ids
    width = int(ids[:, -1].max()) + 1
    ids += width * np.arange(c)[:, None]  # one bincount: row i owns bins i*R..i*R+R-1
    sizes = np.bincount(ids.reshape(-1), minlength=c * width)
    return TieRuns(run.reshape(values.shape), sizes.reshape(values.shape[:-1] + (width,)))


def comparison_counts(runs):
    """Per-element counts (#{j: v_j < v_i}, #{j: v_j <= v_i}) as int64 arrays.

    Each row of a stack has its own counts, read off the flat run sizes,
    where row i's runs start at i*R; a lone sample is a stack of one.
    """
    run, sizes = runs
    width = sizes.shape[-1]
    flat = run + width * np.arange(run.size // run.shape[-1]).reshape(run.shape[:-1] + (1,))
    at_or_below = np.cumsum(sizes, axis=-1).reshape(-1)[flat]
    below = sizes.reshape(-1)[flat]
    return np.subtract(at_or_below, below, out=below), at_or_below


def comparison_run_sums(runs, weights, omega, rows=slice(None), blocks=None, n_blocks=1):
    """Per-run table of the kernel sums, (R, k, n_blocks) for (m,) or (m, k) ``weights``.

    ``weights`` has one row per element indexed by ``rows``, and ``blocks``
    (None for one block) gives each of those elements its block in
    0..n_blocks-1.  Entry [r, l, g] is sum_j K(v_r, values_j) * weights[j, l]
    over the weighted elements j of block g, with v_r the value of run r;
    every element of run r has that sum.  The elements of a stack's runs are
    its rows in turn; each row must be a block of its own, whose run ids are
    the row's.
    """
    omega = float(omega)
    n_runs = runs.sizes.shape[-1]
    ids = runs.run.reshape(-1)[rows]
    if blocks is not None:
        ids = ids * n_blocks
        ids += blocks
    columns = weights.reshape(weights.shape[0], -1).T
    table = np.empty((n_runs, columns.shape[0], n_blocks))
    for k, column in enumerate(columns):
        per_run = np.bincount(ids, column, n_runs * n_blocks).reshape(n_runs, n_blocks)
        out = table[:, k]
        # row r is the weight of runs r, r+1, ..., R-1, which is the table at omega = 1
        np.cumsum(per_run[::-1], axis=0, out=out[::-1])
        if omega < 1.0:  # (1 - omega) * row r+1 (0 past the last run) + omega * row r
            np.multiply(out[1:], 1.0 - omega, out=per_run[:-1])
            per_run[-1] = 0.0
            out *= omega
            out += per_run
    return table

