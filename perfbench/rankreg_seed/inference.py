"""Asymptotic variance estimation for the rank regression fits.

The OLS coefficients of a regression involving estimated ranks behave like
third-order U-statistics: the estimation error in the empirical CDFs is of
the same order as the sampling error of the coefficients and never washes
out.  Each coefficient therefore has a three-part per-observation influence
value

    phi_l(i) = (H1_li + H2_li + H3_li) / scale_l,

where H1 is the familiar residual-times-projection-residual term the usual
OLS theory would give, and H2/H3 are kernel averages over the sample that
account for the noise in the outcome ranks and regressor ranks respectively.
The plugin covariance is the empirical second moment of the stacked
influence rows.  The classical homoskedastic and Eicker-White estimators
(which drop H2 and H3) are provided for comparison; they are inconsistent
for ranked data and can come out too large or too small.

All reported variances are for the sqrt(n)-scaled estimator, so standard
errors are sqrt(diag(variance)/n).  Grouped fits keep the pooled n as the
scaling count throughout (naive per-group variances are rescaled to match).
"""

from dataclasses import dataclass

import numpy as np
import scipy.stats

from .errors import AssumptionViolationError, InvalidInputError
from .estimators import Dataset, FitResult, fit_spec
from .kernels import comparison_weighted_sums
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
    "SweepResult",
]

_DEGENERATE_VAR = 1e-12


def normal_quantile(p):
    """Upper-tail standard normal quantile: the z with P(N(0,1) > z) = p.

    Backed by scipy's rational-approximation inverse CDF; for reference,
    normal_quantile(0.025) = 1.959963984540054.
    """
    p = float(p)
    if not (0.0 < p < 1.0):
        raise InvalidInputError(f"tail probability must lie in (0, 1), got {p}")
    return float(scipy.stats.norm.isf(p))


def confidence_interval(estimate, sigma, n, alpha=0.05):
    """Two-sided normal interval: estimate +- z_{alpha/2} * sigma / sqrt(n).

    ``sigma`` is the asymptotic standard deviation of the sqrt(n)-scaled
    estimator; sigma = 0 collapses the interval to the point estimate.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidInputError(f"alpha must lie in the open interval (0, 1), got {alpha}")
    if sigma < 0.0:
        raise InvalidInputError("sigma must be nonnegative")
    if n < 1:
        raise InvalidInputError("n must be at least 1")
    half = normal_quantile(alpha / 2.0) * sigma / np.sqrt(n)
    return float(estimate - half), float(estimate + half)


@dataclass
class InfluenceRows:
    """Per-observation influence values, one column per coefficient.

    ``psi`` already carries the 1/scale_l factor, so the plugin covariance
    is psi'psi/n.  ``scales`` keeps the projection residual second moments
    (first entry: the first-stage residual variance) for diagnostics.
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
    influence: InfluenceRows | None = None

    def coefficient(self, name):
        """(estimate, se, ci) triple for one named coefficient."""
        k = self.names.index(name)
        return float(self.estimates[k]), float(self.se[k]), tuple(self.ci[k])


def _resolve_data(fit, data):
    if data is None:
        return fit.data
    d = data
    same = (
        d.n == fit.data.n
        and np.array_equal(d.y, fit.data.y)
        and (d.x is None) == (fit.data.x is None)
        and (d.x is None or np.array_equal(d.x, fit.data.x))
        and np.array_equal(d.w, fit.data.w)
    )
    if not same:
        raise InvalidInputError("fit was produced from a different dataset")
    return d


def _xi1_columns(fit, d, rows=None, gamma=None, tau=None, delta=None):
    """First-stage and per-covariate projection residuals xi_{l,1}.

    Column 0 is rank(x) - W'gamma; column l >= 1 is
    W_l - tau_l * rank(x) - W_-l' delta_l.  For grouped fits the caller
    passes the group's coefficients; the residuals are still evaluated at
    every observation (the kernel averages run over group members only, but
    the projections are functions defined everywhere).
    """
    gamma = fit.gamma if gamma is None else gamma
    tau = fit.tau if tau is None else tau
    delta = fit.delta if delta is None else delta
    rx, W = fit.ranks_x, d.w
    p = W.shape[1]
    cols = [rx - W @ gamma]
    for l in range(p):
        others = np.delete(np.arange(p), l)
        cols.append(W[:, l] - tau[l] * rx - W[:, others] @ delta[l])
    return cols


def _check_scale(scale, label):
    if scale <= _DEGENERATE_VAR:
        raise AssumptionViolationError(
            f"projection residual for {label} is degenerate; its variance is ~0"
        )


def _influence_ranked_regressor(fit, d, only_slope=False):
    """Influence columns for rank-rank and level-rank fits (shared core)."""
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    rho = fit.slope
    eps = fit.residuals
    w_beta = W @ fit.beta
    xi1 = _xi1_columns(fit, d)
    ranked_outcome = fit.spec == "rank-rank"

    # kernel sums shared across coefficients
    t_x_eps = comparison_weighted_sums(d.x, d.x, eps, omega)
    eps_w_gamma = float(eps @ (W @ fit.gamma))

    names = ["rank(x)"] + list(d.w_names)
    q = 1 if only_slope else 1 + p
    psi = np.empty((n, q))
    scales = np.empty(q)
    for l in range(q):
        c = xi1[l]
        scale = float(np.mean(c * c))
        _check_scale(scale, names[l])
        h1 = eps * c
        if ranked_outcome:
            t_y = comparison_weighted_sums(d.y, d.y, c, omega)
            t_x = comparison_weighted_sums(d.x, d.x, c, omega)
            h2 = (t_y - rho * t_x - float(w_beta @ c)) / n
        else:
            t_x = comparison_weighted_sums(d.x, d.x, c, omega)
            h2 = (float((d.y - w_beta) @ c) - rho * t_x) / n
        if l == 0:
            h3 = (t_x_eps - eps_w_gamma) / n
        else:
            j = l - 1
            others = np.delete(np.arange(p), j)
            const = float(eps @ W[:, j]) - float(eps @ (W[:, others] @ fit.delta[j]))
            h3 = (const - fit.tau[j] * t_x_eps) / n
        psi[:, l] = (h1 + h2 + h3) / scale
        scales[l] = scale
    return InfluenceRows(psi=psi, names=names[:q], scales=scales)


def _influence_grouped(fit, d):
    """Influence columns for the grouped fit, coefficient-major then group.

    Every observation receives the kernel-average parts of every group's
    influence (the pooled ranks tie the groups together), while the residual
    part is nonzero only for the group's own rows.
    """
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    n_g = d.n_groups
    names = fit.coef_names
    q = (1 + p) * n_g
    psi = np.empty((n, q))
    scales = np.empty(q)
    for g in range(n_g):
        rows = d.group_index == g
        mask = rows.astype(np.float64)
        label = d.group_names[g]
        rho_g = fit.slope[g]
        beta_g = fit.beta[g]
        eps_g = (fit.ranks_y - rho_g * fit.ranks_x - W @ beta_g) * mask
        w_beta_masked = (W @ beta_g) * mask
        xi1 = _xi1_columns(fit, d, gamma=fit.gamma[g], tau=fit.tau[g], delta=fit.delta[g])
        t_x_eps = comparison_weighted_sums(d.x, d.x, eps_g, omega)
        eps_w_gamma = float(eps_g @ (W @ fit.gamma[g]))
        for l in range(1 + p):
            c = xi1[l] * mask
            scale = float(np.mean(c * c))
            _check_scale(scale, f"{names[l * n_g + g]}")
            h1 = eps_g * xi1[l]
            t_y = comparison_weighted_sums(d.y, d.y, c, omega)
            t_x = comparison_weighted_sums(d.x, d.x, c, omega)
            h2 = (t_y - rho_g * t_x - float(w_beta_masked @ xi1[l])) / n
            if l == 0:
                h3 = (t_x_eps - eps_w_gamma) / n
            else:
                j = l - 1
                others = np.delete(np.arange(p), j)
                const = float(eps_g @ W[:, j]) - float(eps_g @ (W[:, others] @ fit.delta[g][j]))
                h3 = (const - fit.tau[g][j] * t_x_eps) / n
            psi[:, l * n_g + g] = (h1 + h2 + h3) / scale
            scales[l * n_g + g] = scale
    return InfluenceRows(psi=psi, names=names, scales=scales)


def _influence_rank_level(fit, d):
    """Influence columns for rank(y) on W: two terms per coefficient, no h3."""
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    eps = fit.residuals
    w_beta = W @ fit.beta
    psi = np.empty((n, p))
    scales = np.empty(p)
    for l in range(p):
        others = np.delete(np.arange(p), l)
        nu_l = W[:, l] - W[:, others] @ fit.delta[l]
        scale = float(np.mean(nu_l * nu_l))
        _check_scale(scale, d.w_names[l])
        h1 = eps * nu_l
        t_y = comparison_weighted_sums(d.y, d.y, nu_l, omega)
        h2 = (t_y - float(w_beta @ nu_l)) / n
        psi[:, l] = (h1 + h2) / scale
        scales[l] = scale
    return InfluenceRows(psi=psi, names=list(d.w_names), scales=scales)


def influence_rows(fit, data=None):
    """Per-observation influence values for every coefficient of a fit."""
    d = _resolve_data(fit, data)
    if fit.spec in ("rank-rank", "level-rank"):
        return _influence_ranked_regressor(fit, d)
    if fit.spec == "rank-rank-group":
        return _influence_grouped(fit, d)
    if fit.spec == "rank-level":
        return _influence_rank_level(fit, d)
    raise InvalidInputError(f"unknown specification {fit.spec!r}")


def _report_from_variance(fit, variance, names, estimates, alpha, n, method,
                          influence=None):
    variance = np.atleast_2d(np.asarray(variance, dtype=np.float64))
    variance = 0.5 * (variance + variance.T)  # absorb round-off asymmetry
    diag = np.clip(np.diag(variance), 0.0, None)
    se = np.sqrt(diag / n)
    z = normal_quantile(alpha / 2.0)
    est = np.asarray(estimates, dtype=np.float64).reshape(-1)
    ci = np.column_stack([est - z * se, est + z * se])
    return InferenceReport(
        method=method,
        names=list(names),
        estimates=est,
        variance=variance,
        se=se,
        ci=ci,
        alpha=alpha,
        n=n,
        influence=influence,
    )


def plugin_covariance(fit, data=None, alpha=0.05):
    """Plugin estimate of the joint asymptotic covariance of all coefficients."""
    d = _resolve_data(fit, data)
    rows = influence_rows(fit, d)
    sigma = rows.psi.T @ rows.psi / d.n
    return _report_from_variance(
        fit, sigma, rows.names, fit.estimates, alpha, d.n, "plugin", influence=rows
    )


def plugin_slope_variance(fit, data=None, alpha=0.05):
    """Plugin variance for the coefficient on the ranked regressor alone.

    Cheaper than :func:`plugin_covariance` when only the slope matters;
    numerically identical to its (rank(x), rank(x)) entry.
    """
    d = _resolve_data(fit, data)
    if fit.spec not in ("rank-rank", "level-rank"):
        raise InvalidInputError(
            "slope-only variance applies to rank-rank and level-rank fits; "
            "use plugin_covariance for grouped or rank-level fits"
        )
    rows = _influence_ranked_regressor(fit, d, only_slope=True)
    sigma2 = float(np.mean(rows.psi[:, 0] ** 2))
    return _report_from_variance(
        fit, [[sigma2]], rows.names, [fit.slope], alpha, d.n, "plugin", influence=rows
    )


# ---------------------------------------------------------------------------
# classical (inconsistent-for-ranks) variance estimators, kept for comparison
# ---------------------------------------------------------------------------

def _sandwich(Z, resid, kind):
    n = Z.shape[0]
    a = Z.T @ Z / n
    a_inv = np.linalg.inv(a)
    if kind == "hom":
        return a_inv * float(np.mean(resid**2))
    meat = (Z * (resid**2)[:, None]).T @ Z / n
    return a_inv @ meat @ a_inv


def _naive_covariance(fit, d, alpha, kind):
    if fit.spec in ("rank-rank", "level-rank"):
        Z = np.column_stack([fit.ranks_x, d.w])
        variance = _sandwich(Z, fit.residuals, kind)
        return _report_from_variance(
            fit, variance, fit.coef_names, fit.estimates, alpha, d.n, kind
        )
    if fit.spec == "rank-level":
        variance = _sandwich(d.w, fit.residuals, kind)
        return _report_from_variance(
            fit, variance, fit.coef_names, fit.estimates, alpha, d.n, kind
        )
    # grouped: separate per-group regressions; rescale each block to the
    # pooled sqrt(n) convention so one report covers all coefficients
    n_g = d.n_groups
    p = d.p
    q = (1 + p) * n_g
    variance = np.zeros((q, q))
    for g in range(n_g):
        rows = d.group_index == g
        n_rows = int(np.count_nonzero(rows))
        Z = np.column_stack([fit.ranks_x[rows], d.w[rows]])
        block = _sandwich(Z, fit.residuals[rows], kind) * (d.n / n_rows)
        idx = [l * n_g + g for l in range(1 + p)]
        variance[np.ix_(idx, idx)] = block
    return _report_from_variance(
        fit, variance, fit.coef_names, fit.estimates, alpha, d.n, kind
    )


def hom_covariance(fit, data=None, alpha=0.05):
    """Homoskedastic OLS variance, ignoring rank-estimation noise."""
    d = _resolve_data(fit, data)
    return _naive_covariance(fit, d, alpha, "hom")


def ew_covariance(fit, data=None, alpha=0.05):
    """Eicker-White robust variance, ignoring rank-estimation noise."""
    d = _resolve_data(fit, data)
    return _naive_covariance(fit, d, alpha, "ew")


def linear_combo_inference(variance, weights, estimates, n, alpha=0.05,
                           name="combination"):
    """Delta-method report for a linear combination w'theta of coefficients."""
    variance = np.atleast_2d(np.asarray(variance, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    estimates = np.asarray(estimates, dtype=np.float64).reshape(-1)
    if variance.shape != (weights.size, weights.size) or estimates.size != weights.size:
        raise InvalidInputError("variance, weights, and estimates shapes disagree")
    point = float(weights @ estimates)
    avar = float(weights @ variance @ weights)
    if avar < 0.0:
        avar = 0.0
    return _report_from_variance(None, [[avar]], [name], [point], alpha, n, "plugin")


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
    identical.  Also reports the grid-average of each coefficient.
    """
    grid = [check_omega(om) for om in grid]
    if not grid:
        raise InvalidInputError("omega grid is empty")
    rows = []
    for om in grid:
        fit = fit_spec(d, spec, om)
        report = plugin_covariance(fit, d, alpha=alpha)
        rows.append(
            SweepRow(
                omega=om,
                names=report.names,
                estimates=report.estimates,
                se=report.se,
                ci=report.ci,
            )
        )
    average = np.mean([row.estimates for row in rows], axis=0)
    return SweepResult(rows=rows, average=average, names=rows[0].names)
