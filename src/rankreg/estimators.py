"""OLS fits for the four rank regression specifications.

The four specifications differ in which side of the regression is
rank-transformed:

* ``rank-rank``        rank(y) on rank(x) and covariates W
* ``rank-rank-group``  the same, fit separately per subpopulation while the
                       ranks stay pooled across the whole sample
* ``level-rank``       raw y on rank(x) and W
* ``rank-level``       rank(y) on W only

All four take one path.  A prepared sample (``_Sample``) sorts each ranked
variable once and orders the rows group by group; its ``solve(m)`` fits
every block (the whole sample, or one group) of the resample with
multiplicities m.  The sample's own fit is the case where every multiplicity
is 1, and a bootstrap replicate is one draw of m.  Covariates are taken
exactly as given; no intercept column is added here (the CLI adds one by
default).  Each block makes one numpy QR factorisation of the design with
the response appended, which gives both the coefficients and
A^-1 = (Z'Z/n)^-1; a column-pivoted QR of its small R factor decides
whether the design is singular.  By the Frisch-Waugh-Lovell identity that
one matrix holds every projection the asymptotic variance needs later: the
first stage of rank(x) on W and, per covariate column, the projection of
that column on the remaining regressors.
"""

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolationError,
    DegenerateInputError,
    InvalidInputError,
    SingularDesignError,
)
from .kernels import comparison_counts
from .ranks import check_omega, ranks_from_counts

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
    "SPECS",
]

SPECS = ("rank-rank", "rank-rank-group", "level-rank", "rank-level")

# reciprocal-condition threshold on the R factor of the pivoted QR
_RCOND_MIN = 1e-12
# pivot norms this close, relative to the column's length, are a tie; the
# rounding between duplicate columns' norms is ~1e-16 of it up to n = 1e6
_TIE = 1e-13
# in-sample residual variance below this is treated as a degenerate projection
_DEGENERATE_VAR = 1e-12


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
    kept for reporting.
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


def _solve(system, column_names=None):
    """Least-squares coefficients of r on Z plus (Z'Z)^-1, from one QR.

    ``system`` is [Z, r], the design with the response as its last column;
    callers build it in one piece so that Z is not copied again here.  The
    R factor of [Z, r] holds Z's R factor and Q'r, so Q is never formed.
    The coefficients and (Z'Z)^-1 = R^-1 R^-T both come from that R, with
    accuracy that follows cond(Z) rather than the cond(Z)^2 of inverting
    Z'Z.  Singularity is judged on a column-pivoted QR of R: since
    Z P = Q (R P), its diagonal is that of Z's own pivoted QR.
    """
    q = system.shape[1] - 1
    if q == 0:
        return np.zeros(0), np.zeros((0, 0))
    R = np.linalg.qr(system, mode="r")
    # fewer rows than columns: R has fewer rows, the diagonal past them is zero
    diag, order = _pivoted_diagonal(R[:q, :q])
    if diag[0] == 0.0 or diag[-1] < _RCOND_MIN * diag[0]:
        cut = _RCOND_MIN * max(diag[0], 1e-300)
        bad = order[next((k for k, v in enumerate(diag) if v < cut), 0)]
        name = column_names[bad] if column_names else f"column {bad}"
        raise SingularDesignError(f"design is numerically singular at {name}", column=bad)
    # one solve against [Q'r, I] gives the coefficients and R^-1; the LU
    # factors of an upper-triangular R are I and R, so this is back substitution
    rhs = np.eye(q, q + 1, 1)
    rhs[:, 0] = R[:q, q]
    sol = np.linalg.solve(R[:q, :q], rhs)
    r_inv = sol[:, 1:]
    return sol[:, 0], r_inv @ r_inv.T


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


def _projection_coefficients(a_inv):
    """Column l: minus the coefficients of regressor l projected on the others.

    Frisch-Waugh-Lovell: column l of A^-1 is proportional to the unit vector
    e_l minus those coefficients, with 1/A^-1[l, l] the projection residual's
    second moment.  Works on one block (q, q) or a stack (G, q, q).
    """
    return -a_inv / np.diagonal(a_inv, axis1=-2, axis2=-1)[..., None, :]


@dataclass
class FitResult:
    """Fitted coefficients, residuals, ranks, and the inverse design moment.

    ``slope`` is the coefficient on the ranked regressor (a per-group vector
    for grouped fits, None for rank-level).  ``a_inv`` is A^-1 with
    A = Z'Z/n for the regressors Z = [rank(x), W] (Z = W for rank-level),
    read off the R factor of the fit's own QR.  Grouped fits keep one block
    per group, shape (n_groups, 1+p, 1+p), with Z restricted to the group's
    rows and n the pooled count.  Column l of Z A^-1 is the projection
    residual of Z_l on the other regressors over its second moment, which is
    everything the inference step needs.

    ``gamma``, ``tau`` and ``delta`` are read-only views of ``a_inv`` (per
    group for grouped fits): ``gamma`` is the first-stage projection of
    rank(x) on W, and per covariate column l, ``tau[l]``/``delta[l]`` project
    W_l on (rank(x), W_-l).  For rank-level fits ``gamma`` and ``tau`` are
    None and ``delta[l]`` projects W_l on the remaining columns alone.
    """

    spec: str
    omega: float
    data: Dataset
    slope: float | np.ndarray | None
    beta: np.ndarray
    a_inv: np.ndarray
    ranks_x: np.ndarray | None
    ranks_y: np.ndarray | None
    residuals: np.ndarray

    @property
    def n(self):
        return self.data.n

    @property
    def regressors(self):
        """The design Z: [rank(x), W], or W alone for rank-level fits."""
        if self.spec == "rank-level":
            return self.data.w
        return np.column_stack([self.ranks_x, self.data.w])

    @property
    def gamma(self):
        if self.spec == "rank-level":
            return None
        return _projection_coefficients(self.a_inv)[..., 1:, 0]

    @property
    def tau(self):
        if self.spec == "rank-level":
            return None
        return _projection_coefficients(self.a_inv)[..., 0, 1:]

    @property
    def delta(self):
        coef = _projection_coefficients(self.a_inv)
        k = 0 if self.spec == "rank-level" else 1

        def block(c):
            return [np.delete(c[k:, k + l], l) for l in range(c.shape[0] - k)]

        if self.spec == "rank-rank-group":
            return [block(c) for c in coef]
        return block(coef)

    @property
    def coef_names(self):
        names = []
        base = ["rank(x)"] if self.spec in ("rank-rank", "level-rank") else []
        if self.spec == "rank-rank-group":
            for label in self.data.group_names:
                names.append(f"rank(x)@{label}")
            for w in self.data.w_names:
                for label in self.data.group_names:
                    names.append(f"{w}@{label}")
            return names
        return base + list(self.data.w_names)

    @property
    def estimates(self):
        """Coefficients aligned with :attr:`coef_names`."""
        if self.spec == "rank-rank-group":
            return np.concatenate([np.asarray(self.slope), np.asarray(self.beta).T.ravel()])
        if self.spec == "rank-level":
            return np.asarray(self.beta)
        return np.concatenate([[self.slope], np.asarray(self.beta)])


class _Sample:
    """A sample prepared for one specification, to fit as it is or resampled.

    Each ranked variable is sorted once, by ``comparison_counts``, into the
    sample's ranks; a resample reads its tie runs off those ranks.
    ``order`` lists the observations group by group (None when the fit is
    one block), so every group's rows are contiguous without a further sort.
    """

    def __init__(self, d, spec, omega):
        if spec not in SPECS:
            raise InvalidInputError(f"unknown specification {spec!r}; expected one of {SPECS}")
        omega = check_omega(omega)
        if spec == "rank-level" and d.p == 0:
            raise InvalidInputError("rank-level fit needs at least one regressor column")
        if spec == "rank-rank-group" and d.group_index is None:
            raise InvalidInputError("grouped fit needs group labels")
        if spec != "rank-level" and d.x is None:
            raise InvalidInputError(f"{spec} fit needs the ranked regressor x")
        self.data, self.spec, self.omega = d, spec, omega
        self.ranks_x = None if spec == "rank-level" else self._ranks(d.x)
        self.ranks_y = None if spec == "level-rank" else self._ranks(d.y)
        self.order = np.argsort(d.group_index, kind="stable") if spec == "rank-rank-group" else None
        self.names = list(d.w_names) if self.ranks_x is None else ["rank(x)"] + list(d.w_names)

    def _ranks(self, values):
        return ranks_from_counts(*comparison_counts(values), values.size, self.omega)

    @functools.cached_property
    def _runs(self):
        """Per ranked variable, an integer id of each observation's tie run.

        n * rank = below + 1 + omega * (run length - 1) lies in [below + 1,
        at_or_below], so it rounds to an id that is equal within a tie run and
        increases from run to run.  Derived on the first resample, not kept
        from the counts: two more n-arrays held through every fit doubled its
        page faults at n >= 30k.
        """
        n = self.data.n
        return [None if r is None else np.rint(n * r).astype(np.intp)
                for r in (self.ranks_x, self.ranks_y)]

    def _resample_ranks(self, run, rows, mult):
        """Ranks of ``rows`` within the resample, from run totals of ``mult``."""
        if run is None:
            return None
        run = run[rows]
        per_run = np.bincount(run, weights=mult, minlength=self.data.n + 1)
        at_or_below = np.cumsum(per_run)[run]
        return ranks_from_counts(at_or_below - per_run[run], at_or_below, self.data.n, self.omega)

    def solve(self, m=None):
        """Solve every fit block of the sample, or of its resample with multiplicities m.

        Returns [Z, r] over the fitted rows, the input index of those rows
        (None: all, in input order) and per block (lo, hi, coefficients,
        (Z'Z)^-1) with [lo, hi) its rows of [Z, r].  A resample ranks by run
        totals of m and fits the rows with m > 0 scaled by sqrt(m), whose R
        factor is that of the design with repeated rows, so the singular-design
        rule is unchanged.  A group with fewer than 2 resampled rows raises
        DegenerateInputError.
        """
        d = self.data
        rows = self.order
        if m is None:
            columns = [self.ranks_x, d.w, d.y if self.ranks_y is None else self.ranks_y]
        else:
            rows = np.flatnonzero(m) if rows is None else rows[m[rows] > 0]
            mult = m[rows]
            run_x, run_y = self._runs
            ry = self._resample_ranks(run_y, rows, mult)
            columns = [self._resample_ranks(run_x, rows, mult), d.w[rows],
                       d.y[rows] if ry is None else ry]
        system = np.column_stack([c for c in columns if c is not None])
        if m is not None:
            system *= np.sqrt(mult)[:, None]
        elif rows is not None:
            system = system[rows]
        if self.order is None:
            counts, sizes = [system.shape[0]], [d.n]
        elif m is None:
            counts = sizes = np.bincount(d.group_index)
        else:
            groups = d.group_index[rows]
            counts = np.bincount(groups, minlength=d.n_groups)
            sizes = np.bincount(groups, weights=mult, minlength=d.n_groups)
            if np.any(sizes < 2):
                raise DegenerateInputError("a group has fewer than 2 rows in the resample")
        blocks = []
        hi = 0
        for g, (count, size) in enumerate(zip(counts, sizes)):
            lo, hi = hi, hi + count
            try:
                coef, gram_inv = _solve(system[lo:hi], self.names)
                # 1 / (Z'Z)^-1[0, 0] is the sum of squares of rank(x) - W'gamma
                if self.ranks_x is not None and 1.0 / (gram_inv[0, 0] * size) <= _DEGENERATE_VAR:
                    raise AssumptionViolationError(
                        "rank variation is fully explained by the covariates")
            except (SingularDesignError, AssumptionViolationError) as err:
                if self.order is not None:
                    err.args = (f"group {d.group_names[g]!r}: {err}",)
                raise
            blocks.append((lo, hi, coef, gram_inv))
        return system, rows, blocks

    def fit(self):
        """The sample's own fit: :meth:`solve` with every multiplicity 1."""
        d = self.data
        system, rows, blocks = self.solve()
        residuals = system[:, -1].copy()
        for lo, hi, coef, _ in blocks:
            residuals[lo:hi] -= system[lo:hi, :-1] @ coef
        if rows is not None:
            residuals[rows] = residuals.copy()
        coef = np.array([block[2] for block in blocks])
        a_inv = d.n * np.array([block[3] for block in blocks])
        if self.order is None:
            coef, a_inv = coef[0], a_inv[0]
        if self.spec == "rank-level":
            slope, beta = None, coef
        elif self.order is None:
            slope, beta = float(coef[0]), coef[1:]
        else:
            slope, beta = coef[:, 0], coef[:, 1:]
        return FitResult(
            spec=self.spec,
            omega=self.omega,
            data=d,
            slope=slope,
            beta=beta,
            a_inv=a_inv,
            ranks_x=self.ranks_x,
            ranks_y=self.ranks_y,
            residuals=residuals,
        )


def fit_rank_rank(d, omega=1.0):
    """Joint OLS of rank(y) on (rank(x), W)."""
    return _Sample(d, "rank-rank", omega).fit()


def fit_level_rank(d, omega=1.0):
    """OLS of raw y on (rank(x), W)."""
    return _Sample(d, "level-rank", omega).fit()


def fit_rank_level(d, omega=1.0):
    """OLS of rank(y) on W alone."""
    return _Sample(d, "rank-level", omega).fit()


def fit_rank_rank_by_group(d, omega=1.0):
    """Per-group OLS of rank(y) on (rank(x), W) with ranks pooled across groups.

    The ranks are computed once from all observations; only the regression
    rows are restricted to each group, so the group fits share the pooled
    rank scale and are statistically dependent through it.
    """
    return _Sample(d, "rank-rank-group", omega).fit()


def fit_spec(d, spec, omega=1.0):
    """Fit one of the four specifications."""
    return _Sample(d, spec, omega).fit()


def expected_rank_at(intercept, slope, p):
    """Expected outcome rank at regressor rank p: intercept + slope * p."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise InvalidInputError(f"rank position p must lie in [0, 1], got {p}")
    return float(intercept) + float(slope) * p
