"""OLS fits for the four rank regression specifications.

The four specifications differ in which side of the regression is
rank-transformed:

* ``rank-rank``        rank(y) on rank(x) and covariates W
* ``rank-rank-group``  the same, fit separately per subpopulation while the
                       ranks stay pooled across the whole sample
* ``level-rank``       raw y on rank(x) and W
* ``rank-level``       rank(y) on W only

All four take one path.  A prepared sample (``_Sample``) ranks each ranked
variable from the tie runs its ``Dataset`` keeps and orders the rows group
by group; its ``solve_stack(m)`` fits every block (the whole sample, or one
group) of each resample in a stack of multiplicities m.  ``FitResult``
is the sample solved as the stack of one where every multiplicity is 1;
a chunk of bootstrap replicates is a stack of draws.  Covariates are taken
exactly as given; no intercept column is added here (the CLI adds one by
default).  Each block takes the R factor of the design with the response
appended from ``_r_factors``, the package's one QR: LAPACK's ``dgeqrf``
run in place on the block by columns, or for a tall block on batches of
its row slices and then on their stacked R factors (TSQR).  That factor
gives both the coefficients and A^-1 = (Z'Z/n)^-1; a batched
singular-value pass over the small R factors clears the well-conditioned
ones, and a column-pivoted QR of each other R factor decides whether its
design is singular.  By the
Frisch-Waugh-Lovell identity A^-1 holds every projection the asymptotic
variance needs later: the first stage of rank(x) on W and, per covariate
column, the projection of that column on the remaining regressors.  A fit
keeps the block form, (G, q) coefficients, (G, q, q) A^-1 and the R factors,
which carry the design's singular values, with G = 1 unless it is grouped,
and reads every reported quantity off it.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.linalg import lapack_lite

from .errors import (
    AssumptionViolationError,
    DegenerateInputError,
    InvalidInputError,
    SingularDesignError,
)
from . import kernels
from .ranks import check_omega, ranks_from_counts, ranks_over_counts

__all__ = [
    "Dataset",
    "FitResult",
    "ols",
    "fit_rank_rank",
    "fit_rank_rank_by_group",
    "fit_level_rank",
    "fit_rank_level",
    "fit_spec",
    "expected_rank_at",
]

SPECS = ("rank-rank", "rank-rank-group", "level-rank", "rank-level")
# the specs that rank x, those that rank y, and the one fit per group
RANKS_X = frozenset(SPECS) - {"rank-level"}
RANKS_Y = frozenset(SPECS) - {"level-rank"}
GROUPED = "rank-rank-group"

# reciprocal-condition threshold on the R factor of the pivoted QR
_RCOND_MIN = 1e-12
# reciprocal condition of R above which that threshold cannot be reached
_SKIP_RCOND = 1e-10
# pivot norms this close, relative to the column's length, are a tie; the
# rounding between duplicate columns' norms is ~1e-16 of it up to n = 1e6
_TIE = 1e-13
# in-sample residual variance below this is treated as a degenerate projection
_DEGENERATE_VAR = 1e-12
# rows per slice of the blocked QR of a tall block: one QR of a taller block
# runs out of cache, and a shorter one is as fast as the slices
_QR_ROWS = 1024
# entries per batch of row slices of the blocked QR, and per row chunk of the
# influence rows: 512 KiB of float64
_CHUNK_ENTRIES = 1 << 16


def _column_matrix(w, n):
    if w is None:
        return np.zeros((n, 0))
    arr = np.asarray(w, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


@dataclass
class Dataset:
    """One regression sample: response, rankable regressor, covariates, groups.

    ``x`` may be omitted for the rank-level specification, where the
    covariate matrix absorbs every regressor.  Group labels may be arbitrary
    hashables; they are densified to 0..n_groups-1 with the original labels
    kept for reporting.  The tie runs of x and y are found on first use and
    kept: ties are a property of the data, not of omega or the specification.
    """

    y: np.ndarray
    x: np.ndarray | None = None
    w: np.ndarray | None = None
    g: np.ndarray | None = None
    w_names: list[str] | None = None
    group_index: np.ndarray = field(init=False, default=None, repr=False)
    group_names: list = field(init=False, default=None, repr=False)

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        n = self.y.size
        if n == 0:
            raise InvalidInputError("dataset is empty")
        if not np.all(np.isfinite(self.y)):
            raise InvalidInputError("y contains non-finite values")
        if self.x is not None:
            self.x = np.asarray(self.x, dtype=np.float64).reshape(-1)
            if self.x.size != n:
                raise InvalidInputError("x and y must have equal length")
            if not np.all(np.isfinite(self.x)):
                raise InvalidInputError("x contains non-finite values")
        self.w = _column_matrix(self.w, n)
        if self.w.shape[0] != n:
            raise InvalidInputError("w must have one row per observation")
        if not np.all(np.isfinite(self.w)):
            raise InvalidInputError("w contains non-finite values")
        if n < self.w.shape[1] + 2:
            raise InvalidInputError(
                f"need n >= p + 2 observations (n={n}, p={self.w.shape[1]})"
            )
        if self.w_names is None:
            self.w_names = [f"w{j}" for j in range(self.w.shape[1])]
        elif len(self.w_names) != self.w.shape[1]:
            raise InvalidInputError("w_names length must match covariate count")
        if self.g is not None:
            labels = np.asarray(self.g).reshape(-1)
            if labels.size != n:
                raise InvalidInputError("g and y must have equal length")
            names, dense = np.unique(labels, return_inverse=True)
            # plain Python labels, so messages read 'bad', not np.str_('bad')
            names = names.tolist()
            counts = np.bincount(dense)
            if np.any(counts < 2):
                small = names[int(np.argmin(counts))]
                raise InvalidInputError(f"group {small!r} has fewer than 2 observations")
            self.group_index = dense.astype(np.int64)
            self.group_names = names

    @property
    def n(self):
        return self.y.size

    @property
    def p(self):
        return self.w.shape[1]

    @property
    def n_groups(self):
        return 0 if self.group_index is None else len(self.group_names)

    @functools.cached_property
    def runs_x(self):
        """:class:`kernels.TieRuns` of x, or None without x."""
        return None if self.x is None else kernels.tie_runs(self.x)

    @functools.cached_property
    def runs_y(self):
        """:class:`kernels.TieRuns` of y."""
        return kernels.tie_runs(self.y)


def _pivoted_diagonal(R):
    """Diagonal magnitudes and column order of a column-pivoted QR of ``R``.

    Householder steps with LAPACK's pivot rule (``geqp3``): each step takes
    the remaining column with the largest norm below the finished rows, the
    first of equal norms.  Columns that are equal in the design reach R with
    norms that differ by rounding, so norms within ``_TIE`` of the largest
    column's length count as equal.  Plain floats: R is q x q for a handful
    of regressors, where numpy's per-call overhead exceeds the arithmetic.
    """
    k, q = R.shape
    cols = R.T.tolist()
    order = list(range(q))
    length = [math.hypot(*c) for c in cols]
    norms = length[:]
    diag = [0.0] * q
    for i in range(k):
        top = max(range(i, q), key=norms.__getitem__)
        floor = norms[top] - _TIE * length[top]
        pvt = i
        while norms[pvt] < floor:
            pvt += 1
        if pvt != i:
            for seq in (cols, order, norms, length):
                seq[i], seq[pvt] = seq[pvt], seq[i]
        nrm = diag[i] = norms[i]
        if nrm == 0.0:
            break  # every remaining column is zero below row i
        v = cols[i][i:]
        v[0] += math.copysign(nrm, v[0])
        scale = 1.0 / (nrm * abs(v[0]))  # 2 / v'v
        for j in range(i + 1, q):
            c = cols[j]
            s = scale * sum(map(operator.mul, v, c[i:]))
            c[i + 1:] = tail = [a - s * b for a, b in zip(c[i + 1:], v[1:])]
            norms[j] = math.hypot(*tail)
    return diag, order


def _singular(R, column_names=None):
    """The rejection rule on one R factor: None, or the error naming the column.

    The design is singular when the diagonal of a column-pivoted QR of R
    decays below ``_RCOND_MIN`` of its first entry; since Z P = Q (R P), that
    diagonal is the one of Z's own pivoted QR.
    """
    diag, order = _pivoted_diagonal(R)
    if diag[0] != 0.0 and diag[-1] >= _RCOND_MIN * diag[0]:
        return None
    cut = _RCOND_MIN * max(diag[0], 1e-300)
    bad = order[next((k for k, v in enumerate(diag) if v < cut), 0)]
    name = column_names[bad] if column_names else f"column {bad}"
    return SingularDesignError(f"design is numerically singular at {name}", column=bad)


def _leading_dimension(stack):
    """Column stride, in entries, of the items of a stack (k, q+1, rows) read by columns.

    None unless each column's rows are adjacent and neither the columns nor
    the items overlap, as in a C-contiguous stack (rows) or a row block
    [lo, hi) of one (the stack's row count): the layout LAPACK reads where it
    lies.  The stride of an axis of length 1 is never stepped, as numpy's
    flags hold.
    """
    k, width, rows = stack.shape
    item, column, row = stack.strides
    size = stack.itemsize
    lda = max(1, rows) if width == 1 else column // size
    adjacent = rows < 2 or row == size
    apart = width == 1 or (column % size == 0 and lda >= rows)
    disjoint = k < 2 or item >= width * lda * size
    return lda if adjacent and apart and disjoint else None


def _householder(stack):
    """R factors (k, q+1, q+1) of a stack (k, q+1, rows) of contiguous columns, overwritten.

    Item i of the stack holds [Z, r] by columns, which LAPACK reads as the
    column-major rows x (q+1) matrix with the stack's column stride as its
    leading dimension, and LAPACK's ``dgeqrf`` factors it where it lies,
    with the workspace its own query asks for.  numpy's QR runs the same
    routine the same way on a copy, so the R factor is bitwise numpy's
    R-only QR of the system.  A system with fewer rows than columns gets
    zero rows below its R.
    """
    lda = _leading_dimension(stack)
    # LAPACK writes where it is pointed, whatever numpy's flags say
    if lda is None or not (stack.dtype == np.float64 and stack.flags.writeable):
        raise ValueError("dgeqrf needs a writeable float64 stack of contiguous columns")
    k, width, rows = stack.shape
    if rows == 0:
        return np.zeros((k, width, width))
    # lapack_lite takes a C-contiguous array and passes LAPACK its first
    # entry: each item's first column, from which LAPACK steps by lda
    firsts = stack[:, 0]
    tau, work = np.empty(width), np.empty(1)
    lapack_lite.dgeqrf(rows, width, firsts[:1], lda, tau, work, -1, 0)
    lwork = max(width, int(work[0]))
    work = np.empty(lwork)
    for a in firsts:
        info = lapack_lite.dgeqrf(rows, width, a, lda, tau, work, lwork, 0)["info"]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgeqrf refused argument {-info}")
    R = np.zeros((k, width, width))
    for i in range(min(rows, width)):  # row i of R is column i of the factored stack from i on
        R[:, i, i:] = stack[:, i:, i]
    return R


def _r_factors(system):
    """R factors of a stack (k, q+1, rows) of [Z, r] by columns, each (q+1, q+1).

    The package's one QR.  Item i of ``system`` holds its [Z, r] by columns,
    the Fortran layout LAPACK reads; the R factor of [Z, r] holds Z's R
    factor and Q'r, so Q is never formed.  A block of fewer than
    2 * ``_QR_ROWS`` rows is factored where it lies when each column's rows
    are adjacent, as in a C-contiguous stack or a row block of one, which
    overwrites it, as a bootstrap chunk's workspace wants; any other stack,
    such as the transposed view of a coverage stack's row-major [Z, r] that
    its variances still read, is copied first.  A taller block is
    factored by row slices (TSQR) and only read: its ``_QR_ROWS``-row slices
    are copied a batch of about ``_CHUNK_ENTRIES`` entries at a time and
    factored there, then their stacked R factors with the remaining rows
    are factored once.  Its R is that of one QR up to the sign of each row,
    which moves no solution or singular value; each slice's R is its own,
    the same in any batch.
    """
    k, width, rows = system.shape
    if rows < 2 * _QR_ROWS:
        in_place = _leading_dimension(system) is not None
        return _householder(system if in_place else np.ascontiguousarray(system))
    n_slices, rest = divmod(rows, _QR_ROWS)
    top = np.empty((k, width, n_slices * width + rest))
    top[:, :, n_slices * width:] = system[:, :, rows - rest:]
    tops = top[:, :, :n_slices * width].reshape(k, width, n_slices, width)
    # slice j of item i is slices[i, j], its rows by columns (a view)
    slices = system[:, :, :rows - rest].reshape(k, width, n_slices, _QR_ROWS).transpose(0, 2, 1, 3)
    step = max(1, _CHUNK_ENTRIES // (k * _QR_ROWS * width))
    for s in range(0, n_slices, step):
        batch = np.ascontiguousarray(slices[:, s:s + step])
        R = _householder(batch.reshape(-1, width, _QR_ROWS)).reshape(k, -1, width, width)
        # the rows of each slice's R, by columns
        tops[:, :, s:s + step] = R.transpose(0, 3, 1, 2)
    return _householder(top)


def _solve_factors(R, column_names=None):
    """Least-squares coefficients and (Z'Z)^-1 of a stack of systems from their R factors.

    ``R`` is (k, q+1, q+1), the R factors of k systems [Z, r].  Returns the
    coefficients (k, q), (Z'Z)^-1 = R^-1 R^-T (k, q, q) and a list of k
    entries, None or the :class:`SingularDesignError` that refuses the
    system; a refused system's coefficients are NaN.  Accuracy follows
    cond(Z) rather than the cond(Z)^2 of inverting Z'Z.

    The rejection rule is exact at the cost of one batched singular-value
    pass: the diagonal of the triangular factor of any column permutation of
    R lies between R's extreme singular values, so a system whose R has a
    reciprocal condition above ``_SKIP_RCOND`` cannot fall under
    ``_RCOND_MIN``, with a hundredfold margin for rounding.  Only the others
    take the column-pivoted QR of ``_singular``, one at a time.
    """
    k, q = R.shape[0], R.shape[-1] - 1
    Rz = R[:, :q, :q]
    # plain floats: a stack is a handful of small blocks, where each numpy
    # call costs more than its arithmetic
    errors = [None if s[-1] > _SKIP_RCOND * s[0] else _singular(Rz[i], column_names)
              for i, s in enumerate(np.linalg.svd(Rz, compute_uv=False).tolist())]
    refused = [i for i, err in enumerate(errors) if err is not None]
    if refused:  # solved as the identity, then set to NaN
        Rz = Rz.copy()
        Rz[refused] = np.eye(q)
    # one solve against [Q'r, I] gives the coefficients and R^-1; the LU
    # factors of an upper-triangular R are I and R: back substitution
    rhs = np.empty((k, q, q + 1))
    rhs[:] = np.eye(q, q + 1, 1)
    rhs[:, :, 0] = R[:, :q, q]
    sol = np.linalg.solve(Rz, rhs)
    r_inv = sol[:, :, 1:]
    coef, gram_inv = sol[:, :, 0], r_inv @ r_inv.transpose(0, 2, 1)
    if refused:
        coef[refused] = gram_inv[refused] = np.nan
    return coef, gram_inv, errors


def _solve(system, column_names=None):
    """Least-squares coefficients of r on Z plus (Z'Z)^-1 for one system [Z, r].

    ``system`` is the design with the response as its last column, which
    :func:`_r_factors` reads by columns and does not overwrite.  The stack of
    one of :func:`_solve_factors`; raises its :class:`SingularDesignError`.
    """
    if system.shape[1] == 1:
        return np.zeros(0), np.zeros((0, 0))
    coef, gram_inv, errors = _solve_factors(_r_factors(system.T[None]), column_names)
    if errors[0] is not None:
        raise errors[0]
    return coef[0], gram_inv[0]


def _residuals(system, bounds, coef):
    """r - Z b for the rows [lo, hi) of ``system`` [Z, r] of each block, b its row of ``coef``."""
    eps = system[:, -1].copy()
    for (lo, hi), b in zip(bounds, coef):
        eps[lo:hi] -= system[lo:hi, :-1] @ b
    return eps


def ols(design, response, column_names=None):
    """Least squares via QR, with a column-pivoted singularity check.

    Raises :class:`SingularDesignError` naming the offending column when the
    diagonal of the design's column-pivoted R factor decays below the
    reciprocal-condition threshold.  The returned coefficients satisfy the
    normal equations to the accuracy of the orthogonal decomposition.
    """
    Z = np.asarray(design, dtype=np.float64)
    if Z.ndim == 1:
        Z = Z.reshape(-1, 1)
    r = np.asarray(response, dtype=np.float64).reshape(-1)
    if r.size != Z.shape[0]:
        raise InvalidInputError("design and response lengths differ")
    system = np.column_stack([Z, r])
    if not np.all(np.isfinite(system)):
        raise InvalidInputError("design and response must be finite")
    return _solve(system, column_names)[0]


class _Sample:
    """A sample prepared for one specification, to fit as it is or resampled.

    The ranks of each ranked variable come from the tie runs of the dataset.
    ``x[order]`` puts any per-observation x in the fit's row order: ``order``
    sorts the rows stably by group when ``grouped``, so each group's rows are
    contiguous, and is ``slice(None)`` otherwise.  ``bounds`` holds each fit
    block's [lo, hi) in that order, and ``system`` the sample's own [Z, r] in
    it.  :class:`FitResult` is the sample solved, so a command prepares one:
    the variances and the bootstrap read the fit's own design.  The sample
    holds each n-row array once: ``ranks_x`` and ``ranks_y`` are computed on
    access from the rank columns of ``system``.
    """

    def __init__(self, d, spec, omega):
        if spec not in SPECS:
            raise InvalidInputError(f"unknown specification {spec!r}; expected one of {SPECS}")
        omega = check_omega(omega)
        if spec not in RANKS_X and d.p == 0:
            raise InvalidInputError(f"{spec} fit needs at least one regressor column")
        if spec == GROUPED and d.group_index is None:
            raise InvalidInputError("grouped fit needs group labels")
        if spec in RANKS_X and d.x is None:
            raise InvalidInputError(f"{spec} fit needs the ranked regressor x")
        self.data, self.spec, self.omega = d, spec, omega
        self.runs_x = d.runs_x if spec in RANKS_X else None
        self.runs_y = d.runs_y if spec in RANKS_Y else None
        ranks_x, ranks_y = (
            None if runs is None
            else ranks_from_counts(*kernels.comparison_counts(runs), d.n, omega)
            for runs in (self.runs_x, self.runs_y))
        self.grouped = spec == GROUPED
        self.order = np.argsort(d.group_index, kind="stable") if self.grouped else slice(None)
        self.names = list(d.w_names) if self.runs_x is None else ["rank(x)"] + list(d.w_names)
        counts = np.bincount(d.group_index).tolist() if self.grouped else [d.n]
        ends = list(itertools.accumulate(counts))
        self.bounds = list(zip([0] + ends[:-1], ends))
        columns = [ranks_x, d.w, d.y if ranks_y is None else ranks_y]
        self.system = np.column_stack([c for c in columns if c is not None])[self.order]

    def to_input_order(self, values):
        """``values`` (n, ...) in the fit's row order, copied back to input order."""
        out = np.empty_like(values)
        out[self.order] = values
        return out

    @property
    def ranks_x(self):
        """rank(x) in input order, read off :attr:`system` on access; None unless x is ranked."""
        return None if self.runs_x is None else self.to_input_order(self.system[:, 0])

    @property
    def ranks_y(self):
        """rank(y) in input order, read off :attr:`system` on access; None unless y is ranked."""
        return None if self.runs_y is None else self.to_input_order(self.system[:, -1])

    def solve_stack(self, m=None):
        """Solve every fit block of the sample, or of each resample in a stack of multiplicities.

        ``m`` is None for the sample itself, else (c, n) multiplicities of
        the rows in input order, one resample per row of ``m``, solved in a
        :class:`_Resamples` of their own.  Returns the R factors
        (c, G, q+1, q+1) of each fit block's [Z, r], the coefficients
        (c, G, q) and (Z'Z)^-1 (c, G, q, q) of the G fit blocks, and per
        resample None or the error that refuses it (its values are NaN).

        A resample of any total size ranks by run totals of its multiplicities
        and weights every row by sqrt(m): rows with m = 0 add nothing to the R
        factor, which is that of the design with each row repeated m times, so
        it equals the fit of the repeated rows and the singular-design rule is
        unchanged.  Each block is one :func:`_r_factors` call over the stack;
        the coefficients, the singular-value pass and the first-stage check
        are batched over every block of every resample.  A refused block names
        rank(x) when x is all tied in it; a resample with a group of fewer
        than 2 rows is refused with DegenerateInputError.
        """
        if m is None:
            sizes = np.array([[hi - lo for lo, hi in self.bounds]])
            # the fit reads its system afterwards: when a block is short enough
            # to be factored where it lies, every block is factored in one copy
            # of it, by columns; tall blocks alone are read by row slices
            columns = self.system.T[None]
            if sizes.min() < 2 * _QR_ROWS:
                columns = np.ascontiguousarray(columns)
            return self._solve_blocks(columns, sizes)
        work = _Resamples(self, len(m))
        work.m[:] = np.asarray(m, dtype=np.float64)[:, self.order]
        return work.solve(len(m))

    def _solve_blocks(self, columns, sizes, m=None):
        """:meth:`solve_stack` of the stack ``columns`` (c, q+1, n) of [Z, r] by columns.

        The rows are in the fit's row order; ``sizes`` (c, G) holds each
        block's size, and ``m`` the multiplicities in that order, None for
        the sample.  :func:`_r_factors` overwrites a block of a C-contiguous stack.
        """
        c, n_blocks = sizes.shape
        R = np.empty((c, n_blocks) + (columns.shape[1],) * 2)
        for g, (lo, hi) in enumerate(self.bounds):
            R[:, g] = _r_factors(columns[:, :, lo:hi])
        coef, gram_inv, singular = _solve_factors(R.reshape((c * n_blocks,) + R.shape[2:]), self.names)
        coef = coef.reshape(c, n_blocks, -1)
        gram_inv = gram_inv.reshape((c, n_blocks) + gram_inv.shape[1:])
        refused = [err is not None for err in singular]
        if self.runs_x is not None:
            # 1 / (Z'Z)^-1[0, 0] is the sum of squares of rank(x) - W'gamma;
            # (Z'Z)^-1[0, 0] >= 1 / |rank(x)|^2 > 0, and NaN when refused
            first = (gram_inv[:, :, 0, 0] * sizes).ravel().tolist()
            refused = [bad or 1.0 / v <= _DEGENERATE_VAR for bad, v in zip(refused, first)]
        errors = [None] * c
        if m is not None:  # a Dataset has no group of fewer than 2 rows
            for i in np.flatnonzero((sizes < 2).any(axis=1)).tolist():
                errors[i] = DegenerateInputError("a group has fewer than 2 rows in the resample")
        for k in [k for k, bad in enumerate(refused) if bad]:
            i, g = divmod(k, n_blocks)
            if errors[i] is None:
                errors[i] = self._refusal(singular[k], None if m is None else m[i], g)
        return R, coef, gram_inv, errors

    def _refusal(self, err, m, g):
        """The error refusing block g of the sample, or of the resample with multiplicities m."""
        err = err or AssumptionViolationError("rank variation is fully explained by the covariates")
        lo, hi = self.bounds[g]
        # an all-tied x makes rank(x) a constant column, which the pivot may
        # keep in place of the intercept it duplicates
        if isinstance(err, SingularDesignError) and self.runs_x is not None:
            run = self.runs_x.run[self.order][lo:hi]
            if np.ptp(run if m is None else run[m[lo:hi] > 0]) == 0:
                err = SingularDesignError("design is numerically singular at rank(x)", column=0)
        if self.grouped:
            err.args = (f"group {self.data.group_names[g]!r}: {err}",)
        return err


class _Resamples:
    """One workspace for stacks of up to ``size`` resamples of a prepared sample.

    It holds every array of a stack's size: the multiplicities ``m``
    (size, n) of the rows in the fit's row order, their square roots, and
    the columns (size, q+1, n) of each resample's [Z, r], which
    :func:`_r_factors` factors where they lie.  Per ranked variable it holds
    the ids (size, n) of each row's run, offset so that resample i owns runs
    i*R..i*R+R-1, and the counts (size, R) below and at or below each run
    that its ranks are computed in.  A caller fills the leading rows of
    ``m`` and :meth:`solve` reuses the rest, stack after stack; only the
    ``bincount`` of each ranked variable is made afresh, R values per
    resample, and freed before the ranks are.
    """

    def __init__(self, sample, size):
        self.sample = sample
        n, width = sample.system.shape
        self.m = np.empty((size, n))
        self.root = np.empty((size, n))
        self.columns = np.empty((size, width, n))
        # the columns that are not ranks, copied in again for every stack
        self.fixed = slice(0 if sample.runs_x is None else 1,
                           width if sample.runs_y is None else width - 1)
        self.base = np.ascontiguousarray(sample.system[:, self.fixed].T)
        self.ranked = []
        for j, runs in ((0, sample.runs_x), (width - 1, sample.runs_y)):
            if runs is not None:
                n_runs = runs.sizes.size
                ids = runs.run[sample.order] + n_runs * np.arange(size)[:, None]
                self.ranked.append((j, ids, *np.empty((2, size, n_runs))))

    def solve(self, c):
        """:meth:`_Sample.solve_stack` of the resamples in the first c rows of ``m``."""
        sample = self.sample
        m, columns = self.m[:c], self.columns[:c]
        columns[:, self.fixed] = self.base
        totals = m.sum(axis=1, keepdims=True)
        for j, ids, below, at_or_below in self.ranked:
            # a resample's ranks are run totals of its multiplicities, scaled
            # by its own size: one bincount over the stack, then every row
            # gathers the rank of its run
            ids, below, at_or_below = ids[:c], below[:c], at_or_below[:c]
            per_run = np.bincount(ids.reshape(-1), m.reshape(-1), below.size).reshape(below.shape)
            np.cumsum(per_run, axis=1, out=at_or_below)
            np.subtract(at_or_below, per_run, out=below)
            del per_run
            ranks = ranks_over_counts(below, at_or_below, totals, sample.omega).reshape(-1)
            for i in range(c):
                np.take(ranks, ids[i], out=columns[i, j], mode="clip")
        columns *= np.sqrt(m, out=self.root[:c])[:, None, :]
        sizes = np.add.reduceat(m, [lo for lo, _ in sample.bounds], axis=1)
        return sample._solve_blocks(columns, sizes, m)


class FitResult(_Sample):
    """A prepared sample, solved: its fit as :meth:`_Sample.solve_stack` gives it.

    A fit has G blocks, one per group for the grouped fit, else one over the
    whole sample.  ``coef`` (G, q) holds each block's coefficients on
    Z = [rank(x), W] (Z = W for rank-level) and ``a_inv`` (G, q, q) its A^-1
    with A = Z'Z/n over the block's rows and n the pooled count.  Column l
    of Z A^-1 is the projection residual of Z_l on the other regressors over
    its second moment, which is everything the inference step needs.
    ``r_factors`` (G, q+1, q+1) are the blocks' R factors of [Z, r]; ``eps``
    holds the residuals in the fit's row order, and ``residuals``, computed
    from it on access, in input order.

    ``slope``, ``beta`` and ``gamma`` (the first-stage projection of rank(x)
    on W, by Frisch-Waugh-Lovell) are read off the blocks, per group for a
    grouped fit; ``slope`` and ``gamma`` are None for rank-level.
    ``estimates`` and ``coef_names`` run coefficient-major, then group.
    Inference and the bootstrap read the design and group blocks the fit
    prepared rather than rebuild them.
    """

    def __init__(self, d, spec, omega):
        super().__init__(d, spec, omega)
        R, coef, gram_inv, errors = self.solve_stack()
        if errors[0] is not None:
            raise errors[0]
        self.r_factors, self.coef, self.a_inv = R[0], coef[0], d.n * gram_inv[0]
        self.eps = _residuals(self.system, self.bounds, self.coef)

    @property
    def residuals(self):
        """The residuals in input order, computed from ``eps`` on access."""
        return self.to_input_order(self.eps)

    @property
    def n(self):
        return self.data.n

    @property
    def condition_number(self):
        """2-norm condition number of the design Z over all blocks.

        Z's R factors have Z's singular values, so for a grouped fit the
        stacked (G q, q) factors of its blocks have the pooled design's.
        """
        q = self.coef.shape[1]
        return float(np.linalg.cond(self.r_factors[:, :q, :q].reshape(-1, q)))

    def _per_block(self, values):
        """``values`` (G, ...) per group for a grouped fit, else its one block."""
        return values if self.grouped else values[0]

    @property
    def slope(self):
        if self.runs_x is None:
            return None
        slope = self.coef[:, 0]
        return slope if self.grouped else float(slope[0])

    @property
    def beta(self):
        return self._per_block(self.coef[:, 0 if self.runs_x is None else 1:])

    @property
    def gamma(self):
        if self.runs_x is None:
            return None
        # column 0 of A^-1 is proportional to e_0 minus the first-stage coefficients
        return self._per_block(-self.a_inv[:, 1:, 0] / self.a_inv[:, :1, 0])

    @property
    def coef_names(self):
        if not self.grouped:
            return list(self.names)
        return [f"{name}@{label}" for name in self.names for label in self.data.group_names]

    @property
    def estimates(self):
        """Coefficients aligned with :attr:`coef_names`."""
        return self.coef.T.flatten()


def fit_rank_rank(d, omega=1.0):
    """Joint OLS of rank(y) on (rank(x), W)."""
    return FitResult(d, "rank-rank", omega)


def fit_level_rank(d, omega=1.0):
    """OLS of raw y on (rank(x), W)."""
    return FitResult(d, "level-rank", omega)


def fit_rank_level(d, omega=1.0):
    """OLS of rank(y) on W alone."""
    return FitResult(d, "rank-level", omega)


def fit_rank_rank_by_group(d, omega=1.0):
    """Per-group OLS of rank(y) on (rank(x), W) with ranks pooled across groups.

    The ranks are computed once from all observations; only the regression
    rows are restricted to each group, so the group fits share the pooled
    rank scale and are statistically dependent through it.
    """
    return FitResult(d, "rank-rank-group", omega)


def fit_spec(d, spec, omega=1.0):
    """Fit one of the four specifications."""
    return FitResult(d, spec, omega)


def check_rank_position(p):
    """``p`` as a float, refused outside [0, 1], where the ranks lie."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"rank position p must lie in [0, 1], got {p}")
    return p


def expected_rank_at(intercept, slope, p):
    """Expected outcome rank at regressor rank p: intercept + slope * p."""
    return float(intercept) + float(slope) * check_rank_position(p)
