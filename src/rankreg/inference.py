"""Asymptotic variance estimation for the rank regression fits.

The OLS coefficients of a regression involving estimated ranks behave like
third-order U-statistics: the estimation error in the empirical CDFs is of
the same order as the sampling error of the coefficients and never washes
out.  Each coefficient therefore has a three-part per-observation influence
value: the familiar residual-times-projection-residual term the usual OLS
theory would give, plus kernel averages over the sample that account for
the noise in the outcome ranks and in the regressor ranks.

With the regressors Z = [rank(x), W], A = Z'Z/n and C = Z A^-1 (column l of
C is the projection residual of Z_l on the other regressors over its second
moment, by Frisch-Waugh-Lovell), all influence columns of a rank-rank fit
are one matrix expression,

    psi = eps*C + (T_y(C) - rho T_x(C) + T_x(eps) A^-1[0, :]) / n - beta~,

where T_v(M)_i = sum_j K(v_i, v_j) M_j applies the comparison kernel of
:mod:`rankreg.ranks` down each column and beta~ is the coefficients with the
slope's entry set to 0: the normal equations Z'eps = 0 and Z'C = n I make
the constant -(W beta)'C/n equal -beta~ and the term eps'rank(x) vanish.
Level-rank replaces T_y(C)/n - beta~ by (y - W beta)'C/n = rho e_0;
rank-level has Z = W, drops every x term and keeps all of beta in beta~.
Each fit block (one per group for a grouped fit, else the whole sample) is a
row range [lo, hi) of the fit's row order, where C and eps are read; it has
its own C, eps and coefficients and the pooled n: the kernel sums run over
the block's members, and every observation receives their terms.  Those
terms depend on an observation only through its y-run and its x-run, so
every kernel sum of every block is one per-run table, (R_y, G q) for y and
(R_x, G q) for x, with the coefficient arithmetic and each block's constant
applied to the tables.  An influence row is then the y-table's row at its
y-run plus the x-table's row at its x-run plus eps*C in its own block's
columns.  The rows are formed in chunks of about 64k entries, cut over the
fit's whole row order and across block bounds, and the plugin covariance,
the empirical second moment of the influence rows, is summed over the
chunks: memory is O((R_x + R_y) G q + chunk), and no n x G q matrix is
formed.  The classical estimators drop the kernel terms and are provided for
comparison: per fit block, Eicker-White is the second moment of the eps*C
term alone and homoskedastic is A^-1 mean(eps^2).  They are inconsistent for
ranked data and can come out too large or too small.  Each formula is one
function, batched over blocks of one size, and so are the slope's plugin
variance and the normal interval: the coverage lab's stack of reps
(:class:`rankreg.copulas._RepStack`) reads every rep's slope interval from
the functions a lone fit's report uses.

All reported variances are for the sqrt(n)-scaled estimator, so standard
errors are sqrt(diag(variance)/n).  Grouped fits keep the pooled n as the
scaling count throughout (naive per-group variances are rescaled to match).
"""

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .errors import InvalidInputError
from .estimators import _CHUNK_ENTRIES, fit_spec
from .kernels import comparison_run_sums
from .ranks import check_omega

__all__ = [
    "InfluenceRows",
    "InferenceReport",
    "influence_rows",
    "plugin_covariance",
    "plugin_slope_variance",
    "hom_covariance",
    "ew_covariance",
    "confidence_interval",
    "linear_combo_inference",
    "normal_quantile",
    "omega_sweep",
]


def normal_quantile(p):
    """Upper-tail standard normal quantile: the z with P(N(0,1) > z) = p.

    Computed as the negated lower-tail quantile -Phi^-1(p) of the standard
    library's NormalDist, which keeps full relative accuracy for small p
    (Phi^-1(1 - p) would lose digits to the rounding of 1 - p); for
    reference, normal_quantile(0.025) = 1.959963984540054.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"tail probability must lie in (0, 1), got {p}")
    return -NormalDist().inv_cdf(p)


def check_alpha(alpha):
    """Refuse a level outside (0, 1): alpha in [1, 2) would invert every interval."""
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in the open interval (0, 1), got {alpha}")


def check_integer(value, what, nonnegative=False):
    """``value`` if it is a Python or numpy integer, >= 0 if ``nonnegative``; else refuse.

    Callers check each count before any draw: a count such as 10.5 would
    otherwise fail deep in ``range`` or numpy, naming neither argument.
    """
    if not isinstance(value, (int, np.integer)) or (nonnegative and value < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise InvalidInputError(f"{what} must be {kind}, got {value}")
    return value


def check_seed(seed):
    """``seed`` if it is an integer >= 0, the seeds numpy's SeedSequence takes; else refuse."""
    return check_integer(seed, "seed", nonnegative=True)


def confidence_interval(estimate, sigma, n, alpha=0.05):
    """Two-sided normal interval: estimate +- z_{alpha/2} * sigma / sqrt(n).

    ``sigma`` is the asymptotic standard deviation of the sqrt(n)-scaled
    estimator; sigma = 0 collapses the interval to the point estimate.
    """
    check_alpha(alpha)
    if not sigma >= 0.0:  # NaN fails every comparison
        raise InvalidInputError("sigma must be nonnegative")
    if not n >= 1:
        raise InvalidInputError("n must be at least 1")
    half = normal_quantile(alpha / 2.0) * sigma / np.sqrt(n)
    return float(estimate - half), float(estimate + half)


@dataclass
class InfluenceRows:
    """Per-observation influence values, one column per coefficient.

    ``psi`` already carries the 1/scale_l factor, so the plugin covariance
    is psi'psi/n.  ``scales`` keeps the projection residual second moments
    1/A^-1[l, l] (first entry: the first-stage residual variance) for
    diagnostics.
    """

    psi: np.ndarray
    names: list
    scales: np.ndarray


@dataclass
class InferenceReport:
    method: str
    names: list
    estimates: np.ndarray
    variance: np.ndarray
    se: np.ndarray
    ci: np.ndarray
    alpha: float
    n: int


def _check_data(fit, data):
    """Refuse any dataset but the one the fit was prepared from."""
    if data is not None and data is not fit.data:
        raise InvalidInputError("fit was produced from a different dataset")


def _kernel_tables(fit, a_cols):
    """C and [(table, run ids)] whose gathers table[run ids] sum to the kernel terms over n.

    ``C`` (rows, k) holds each row's Z A^-1 columns ``a_cols`` (G, q, k) of
    its own block, in the fit's row order like ``fit.eps``.  A table is
    (R, k G), columns coefficient-major then block, and the run ids are
    those of the fit's rows; each block's constant, -beta~ (level-rank:
    rho e_0), rides in the first table.
    """
    G, _, k = a_cols.shape
    C = np.empty((len(fit.eps), k))
    for g, (lo, hi) in enumerate(fit.bounds):
        np.matmul(fit.system[lo:hi, :-1], a_cols[g], out=C[lo:hi])
    blocks = None if G == 1 else np.repeat(np.arange(G), [hi - lo for lo, hi in fit.bounds])
    tables = []
    if fit.runs_y is not None:
        tables.append((comparison_run_sums(fit.runs_y, C, fit.omega, fit.order, blocks, G),
                       fit.runs_y))
    if fit.runs_x is not None:
        t_x = comparison_run_sums(fit.runs_x, C, fit.omega, fit.order, blocks, G)
        t_x *= -fit.coef[:, 0]
        t_x_eps = comparison_run_sums(fit.runs_x, fit.eps, fit.omega, fit.order, blocks, G)[:, 0]
        for l in range(k):
            t_x[:, l] += t_x_eps * a_cols[:, 0, l]
        tables.append((t_x, fit.runs_x))
    for table, _ in tables:
        table /= fit.n
    first = tables[0][0]
    if fit.runs_y is None:  # level-rank: (y - W beta)'C/n is the slope in its own entry
        first[:, 0] += fit.coef[:, 0]
    else:  # -(W beta)'C/n is minus the coefficients, the slope's entry set to 0
        kx = 0 if fit.runs_x is None else 1
        first[:, kx:] -= fit.coef.T[kx:k]
    return C, [(table.reshape(len(table), -1), runs.run[fit.order]) for table, runs in tables]


def _influence_chunks(fit):
    """Influence rows of every coefficient of every block, in row chunks.

    Yields (start, stop, psi): psi (stop - start, q G) holds the influence
    values of rows start..stop-1 of the fit's row order, columns
    coefficient-major then block, and the next chunk overwrites it.  A chunk
    holds about ``_CHUNK_ENTRIES`` values, so no n-row influence matrix is
    formed.  Chunks are cut over the whole row order and may straddle block
    bounds: each block a chunk overlaps adds eps*C to its own columns of the
    overlapping rows, and the block index only moves forward, so the loop
    costs O(chunks + G).  Every influence value is the same sum of the same
    terms whatever the chunk size.
    """
    G, _, k = fit.a_inv.shape
    C, ((first, first_runs), *rest) = _kernel_tables(fit, fit.a_inv)
    step = min(max(1, _CHUNK_ENTRIES // (k * G)), fit.n)
    psi, gathered = np.empty((2, step, k * G))
    g = 0
    for start in range(0, fit.n, step):
        stop = min(start + step, fit.n)
        chunk = psi[:stop - start]
        np.take(first, first_runs[start:stop], axis=0, out=chunk, mode="clip")
        for table, runs in rest:
            chunk += np.take(table, runs[start:stop], axis=0,
                             out=gathered[:stop - start], mode="clip")
        lo = start
        while lo < stop:  # each block's slice of the chunk; block g holds row lo
            while fit.bounds[g][1] <= lo:
                g += 1
            hi = min(fit.bounds[g][1], stop)
            chunk[lo - start:hi - start, g::G] += fit.eps[lo:hi, None] * C[lo:hi]
            lo = hi
        yield start, stop, chunk


def influence_rows(fit, data=None):
    """Per-observation influence values for every coefficient of a fit, in input order."""
    _check_data(fit, data)
    psi = np.empty((fit.n, len(fit.coef_names)))
    for start, stop, chunk in _influence_chunks(fit):
        psi[start:stop] = chunk
    psi = fit.to_input_order(psi)
    scales = 1.0 / np.diagonal(fit.a_inv, axis1=1, axis2=2).T.ravel()
    return InfluenceRows(psi=psi, names=fit.coef_names, scales=scales)


def _normal_intervals(variances, estimates, n, z):
    """Standard errors sqrt(v / n), each variance v clipped at 0, and the intervals est -+ z se."""
    se = np.sqrt(np.clip(variances, 0.0, None) / n)
    return se, np.column_stack([estimates - z * se, estimates + z * se])


def _report_from_variance(variance, names, estimates, alpha, n, method):
    check_alpha(alpha)
    variance = np.atleast_2d(np.asarray(variance, dtype=np.float64))
    variance = 0.5 * (variance + variance.T)  # absorb round-off asymmetry
    est = np.asarray(estimates, dtype=np.float64).reshape(-1)
    se, ci = _normal_intervals(np.diag(variance), est, n, normal_quantile(alpha / 2.0))
    return InferenceReport(
        method=method,
        names=list(names),
        estimates=est,
        variance=variance,
        se=se,
        ci=ci,
        alpha=alpha,
        n=n,
    )


def plugin_covariance(fit, data=None, alpha=0.05):
    """Plugin estimate of the joint asymptotic covariance of all coefficients.

    The second moment psi'psi/n of the influence rows, summed over their
    row chunks.
    """
    _check_data(fit, data)
    width = len(fit.coef_names)
    sigma = np.zeros((width, width))
    for _, _, psi in _influence_chunks(fit):
        sigma += psi.T @ psi
    return _report_from_variance(sigma / fit.n, fit.coef_names, fit.estimates, alpha, fit.n,
                                 "plugin")


def _slope_plugin(fit):
    """(G,) plugin slope variances of a fit whose G blocks are independent samples of one size.

    Such a fit is a one-block fit or a stack of coverage reps.  Each block's
    influence values are its own column of the kernel tables of A^-1's slope
    column, gathered at its rows, plus its eps*C, and their second moment is
    summed over chunks of ``_CHUNK_ENTRIES`` rows.
    """
    G = len(fit.bounds)
    C, tables = _kernel_tables(fit, fit.a_inv[:, :, :1])
    psi = sum(table[runs.reshape(G, -1), np.arange(G)[:, None]] for table, runs in tables)
    psi += fit.eps.reshape(G, -1) * C.reshape(G, -1)
    step = _CHUNK_ENTRIES
    return np.array([sum(float(row[s:s + step] @ row[s:s + step])
                         for s in range(0, len(row), step)) for row in psi]) / fit.n


def plugin_slope_variance(fit, data=None, alpha=0.05):
    """Plugin variance for the coefficient on the ranked regressor alone.

    Agrees to rounding with the (rank(x), rank(x)) entry of
    :func:`plugin_covariance`, from the kernel tables of A^-1's slope column
    alone: 3 kernel-sum columns to the full covariance's 2q + 1.  The two
    sum the same influence values in different chunks, one by a dot product
    and the other by a matrix product.
    """
    _check_data(fit, data)
    if fit.runs_x is None or fit.grouped:
        raise InvalidInputError(
            "slope-only variance applies to rank-rank and level-rank fits; "
            "use plugin_covariance for grouped or rank-level fits"
        )
    return _report_from_variance([_slope_plugin(fit)], fit.coef_names[:1], [fit.slope], alpha,
                                 fit.n, "plugin")


# ---------------------------------------------------------------------------
# classical (inconsistent-for-ranks) variance estimators, kept for comparison
# ---------------------------------------------------------------------------

def _naive_variances(method, z, a_inv, eps, n):
    """hom or EW variances (B, q, q) of B blocks of one row count, on the pooled n.

    ``z`` (B, rows, q) holds each block's regressors, ``a_inv`` (B, q, q)
    its A^-1 and ``eps`` (B, rows) its residuals.  hom is A^-1 mean(eps^2);
    EW is D'D/n with D = Z A^-1 * eps, the eps*C term of the influence rows.
    """
    if method == "hom":
        return a_inv * np.mean(eps ** 2, axis=-1)[:, None, None]
    d = np.matmul(z, a_inv)
    d *= eps[:, :, None]
    return d.transpose(0, 2, 1) @ d / n


def _naive_covariance(fit, data, alpha, method):
    """The report of :func:`_naive_variances` by ``method``, block by block."""
    _check_data(fit, data)
    G = len(fit.bounds)
    variance = np.zeros((len(fit.coef_names),) * 2)
    for g, (lo, hi) in enumerate(fit.bounds):
        variance[g::G, g::G] = _naive_variances(method, fit.system[None, lo:hi, :-1],
                                                fit.a_inv[g:g + 1], fit.eps[None, lo:hi],
                                                fit.n)[0]
    return _report_from_variance(variance, fit.coef_names, fit.estimates, alpha, fit.n, method)


def hom_covariance(fit, data=None, alpha=0.05):
    """Homoskedastic OLS variance, ignoring rank-estimation noise.

    Each fit block's variance is A^-1 mean(eps^2).  A grouped fit gets
    separate per-group regression blocks.  Its A^-1 is taken over the pooled
    n, which already puts each block on the pooled sqrt(n) convention, so one
    report covers all coefficients.
    """
    return _naive_covariance(fit, data, alpha, "hom")


def ew_covariance(fit, data=None, alpha=0.05):
    """Eicker-White robust variance, ignoring rank-estimation noise.

    Each fit block's variance is the second moment of the eps*C term that
    every influence row carries, so it is A^-1 meat A^-1 on the pooled n.
    """
    return _naive_covariance(fit, data, alpha, "ew")


def linear_combo_inference(variance, weights, estimates, n, alpha=0.05,
                           name="combination"):
    """Delta-method report for a linear combination w'theta of coefficients."""
    variance = np.atleast_2d(np.asarray(variance, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    estimates = np.asarray(estimates, dtype=np.float64).reshape(-1)
    if variance.shape != (weights.size, weights.size) or estimates.size != weights.size:
        raise InvalidInputError("variance, weights, and estimates shapes disagree")
    if not n >= 1:  # NaN fails every comparison
        raise InvalidInputError("n must be at least 1")
    point = float(weights @ estimates)
    avar = float(weights @ variance @ weights)
    if avar < 0.0:
        avar = 0.0
    return _report_from_variance([[avar]], [name], [point], alpha, n, "plugin")


# ---------------------------------------------------------------------------
# omega sensitivity sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    omega: float
    names: list
    estimates: np.ndarray
    se: np.ndarray
    ci: np.ndarray


@dataclass
class SweepResult:
    rows: list
    average: np.ndarray
    names: list


def omega_sweep(d, spec, grid, alpha=0.05):
    """One full fit plus plugin inference per tie-weight omega on the grid.

    With ties in the data the estimand itself moves with omega, so the sweep
    is the honest way to present results; on tie-free data every row is
    identical.  Also reports the grid-average of each coefficient.  Every
    omega re-ranks from the tie runs the dataset keeps, so x and y are
    sorted once for the whole grid.
    """
    grid = [check_omega(om) for om in grid]
    if not grid:
        raise InvalidInputError("omega grid is empty")
    rows = []
    for om in grid:
        report = plugin_covariance(fit_spec(d, spec, om), alpha=alpha)
        rows.append(SweepRow(omega=om, names=report.names, estimates=report.estimates,
                             se=report.se, ci=report.ci))
    average = np.mean([row.estimates for row in rows], axis=0)
    return SweepResult(rows=rows, average=average, names=rows[0].names)
