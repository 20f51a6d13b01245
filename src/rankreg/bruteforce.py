"""Literal O(n^2) reference implementations.

These evaluate the defining double sums of the rank transform and of every
influence column term by term, with no sorting or prefix-sum tricks.  They
exist as correctness oracles for the accelerated paths in
:mod:`rankreg.ranks` and :mod:`rankreg.inference` (the two must agree to
1e-10) and as the slow side of the kernel benchmark.  Do not use them on
large samples.
"""

import numpy as np

from .inference import InfluenceRows
from .ranks import check_omega, comparison_kernel

__all__ = [
    "rank_transform_pairwise",
    "influence_rows_pairwise",
]


def _kernel_row(t, data, omega):
    """Vector of K(t, data_j) over j for one evaluation point t."""
    return omega * (t <= data) + (1.0 - omega) * (t < data)


def rank_transform_pairwise(sample, omega=1.0):
    """Ranks by the defining kernel average: (1/n) sum_j K(s_j, s_i) + (1-omega)/n."""
    omega = check_omega(omega)
    arr = np.asarray(sample, dtype=np.float64).reshape(-1)
    n = arr.size
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += comparison_kernel(arr[j], arr[i], omega)
        out[i] = acc / n + (1.0 - omega) / n
    return out


def _projections(Z, rows=slice(None)):
    """Per column l of Z, the least-squares coefficients of Z_l on the other columns.

    Solved by ``np.linalg.lstsq`` over the block's rows, independently of
    the fit's own A^-1.
    """
    return [np.linalg.lstsq(np.delete(Z[rows], l, axis=1), Z[rows, l], rcond=None)[0]
            for l in range(Z.shape[1])]


def _residual(Z, l, coef):
    """Column l of Z minus its projection ``coef`` on the other columns, on every row."""
    return Z[:, l] - np.delete(Z, l, axis=1) @ coef


def _ranked_regressor_pairwise(fit, d):
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    rho = fit.slope
    eps = fit.residuals
    w_beta = W @ fit.beta
    Z = np.column_stack([fit.ranks_x, W])
    coefs = _projections(Z)
    xi1 = [_residual(Z, l, c) for l, c in enumerate(coefs)]
    ranked_outcome = fit.spec == "rank-rank"
    names = ["rank(x)"] + list(d.w_names)
    psi = np.empty((n, 1 + p))
    scales = np.array([float(np.mean(c * c)) for c in xi1])
    for i in range(n):
        kx = _kernel_row(d.x[i], d.x, omega)
        ky = _kernel_row(d.y[i], d.y, omega) if ranked_outcome else None
        # the design with rank(x) replaced by the kernel row of observation i
        Zk = np.column_stack([kx, W])
        for l in range(1 + p):
            c = xi1[l]
            h1 = eps[i] * c[i]
            if ranked_outcome:
                h2 = float(np.sum((ky - rho * kx - w_beta) * c)) / n
            else:
                h2 = float(np.sum((d.y - rho * kx - w_beta) * c)) / n
            h3 = float(np.sum(eps * _residual(Zk, l, coefs[l]))) / n
            psi[i, l] = (h1 + h2 + h3) / scales[l]
    return InfluenceRows(psi=psi, names=names, scales=scales)


def _grouped_pairwise(fit, d):
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    n_g = d.n_groups
    names = fit.coef_names
    q = (1 + p) * n_g
    psi = np.empty((n, q))
    scales = np.empty(q)
    Z = np.column_stack([fit.ranks_x, W])
    for g in range(n_g):
        rows = d.group_index == g
        mask = rows.astype(np.float64)
        rho_g = fit.slope[g]
        beta_g = fit.beta[g]
        eps_g = (fit.ranks_y - rho_g * fit.ranks_x - W @ beta_g) * mask
        w_beta = W @ beta_g
        coefs = _projections(Z, rows)
        xi1 = [_residual(Z, l, c) for l, c in enumerate(coefs)]
        for l in range(1 + p):
            scales[l * n_g + g] = float(np.mean(mask * xi1[l] ** 2))
        for i in range(n):
            kx = _kernel_row(d.x[i], d.x, omega)
            ky = _kernel_row(d.y[i], d.y, omega)
            Zk = np.column_stack([kx, W])
            for l in range(1 + p):
                c = xi1[l]
                h1 = eps_g[i] * c[i]
                h2 = float(np.sum(mask * (ky - rho_g * kx - w_beta) * c)) / n
                h3 = float(np.sum(eps_g * _residual(Zk, l, coefs[l]))) / n
                psi[i, l * n_g + g] = (h1 + h2 + h3) / scales[l * n_g + g]
    return InfluenceRows(psi=psi, names=names, scales=scales)


def _rank_level_pairwise(fit, d):
    n = d.n
    omega = fit.omega
    W = d.w
    p = W.shape[1]
    eps = fit.residuals
    w_beta = W @ fit.beta
    psi = np.empty((n, p))
    scales = np.empty(p)
    for l, coef in enumerate(_projections(W)):
        nu_l = _residual(W, l, coef)
        scales[l] = float(np.mean(nu_l * nu_l))
        for i in range(n):
            ky = _kernel_row(d.y[i], d.y, omega)
            h1 = eps[i] * nu_l[i]
            h2 = float(np.sum((ky - w_beta) * nu_l)) / n
            psi[i, l] = (h1 + h2) / scales[l]
    return InfluenceRows(psi=psi, names=list(d.w_names), scales=scales)


def influence_rows_pairwise(fit, data=None):
    """Influence rows by the literal pairwise definition (test oracle)."""
    d = fit.data if data is None else data
    if fit.spec in ("rank-rank", "level-rank"):
        return _ranked_regressor_pairwise(fit, d)
    if fit.spec == "rank-rank-group":
        return _grouped_pairwise(fit, d)
    if fit.spec == "rank-level":
        return _rank_level_pairwise(fit, d)
    raise ValueError(f"unknown specification {fit.spec!r}")
