"""Copula samplers, analytic variance oracles, and simulation experiments.

Every quantity the rank machinery estimates depends on the joint
distribution only through its copula, so a handful of parametric copula
families is enough to map out when the classical OLS variance formulas go
wrong.  The families:

* ``gaussian(theta)``      bivariate normal with correlation theta
* ``student_t1(theta)``    bivariate t with one degree of freedom (sampled
                           through its normal scale-mixture representation;
                           only the ranks of the draws matter downstream)
* ``quadratic(theta)``     X ~ U[-1/2, 1/2], Y = 1/2 + theta*X +
                           (1-theta)*X^2 + eps with eps ~ N(0, 1e-6)
* ``reflection(a)``        X ~ U[0, 1], Y = (a - X) on X <= a and Y = X
                           above; its rank correlation and all three
                           asymptotic variances have closed forms, making it
                           the exact oracle of the suite
* ``independence()``       independent uniforms; all three variances equal 1

For the reflection construction with parameter a in (0, 1):

    rho        = 1 - 2 a^3
    sigma^2    = 36 (a^5 - a^6)            (correct asymptotic variance)
    sigma_hom^2 = 4 (a^3 - a^6)            (homoskedastic-formula limit)
    sigma_ew^2 = 144 (a^3/12 - a^4/6 + 2a^5/15 - 9a^6/20 + a^7 - 3a^8/5)

As a -> 0 both naive limits exceed the correct variance by unbounded
factors, so confidence intervals built from them become arbitrarily
conservative; other copulas (e.g. the quadratic family) push the ratio the
opposite way and produce under-coverage.
"""

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapPlan, _replicates, bootstrap_ci
from .errors import CalibrationError, InvalidInputError
from .estimators import Dataset, _Sample
from .inference import ew_covariance, hom_covariance, plugin_slope_variance
from .kernels import comparison_weighted_sums
from .ranks import rank_transform, spearman

__all__ = [
    "CopulaModel",
    "VarianceTriple",
    "gaussian",
    "student_t1",
    "quadratic",
    "reflection",
    "independence",
    "sample_copula",
    "reflection_closed_forms",
    "variance_triple_mc",
    "variance_curve",
    "calibrate_parameter",
    "true_rank_correlation",
    "coverage_experiment",
    "CoverageRow",
    "FAMILIES",
]

FAMILIES = ("gaussian", "student_t1", "quadratic", "reflection", "independence")

# fixed seed and draw count for cached high-precision rank-correlation truths
ORACLE_SEED = 20260810
ORACLE_DRAWS = 1_000_000
_TRUE_RHO_CACHE = {}

_PARAM_RANGES = {
    "gaussian": (-1.0, 1.0, True),
    "student_t1": (-1.0, 1.0, True),
    "quadratic": (0.0, 1.0, True),
    "reflection": (0.0, 1.0, False),  # open interval
}


@dataclass(frozen=True)
class CopulaModel:
    family: str
    param: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInputError(
                f"unknown copula family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.family == "independence":
            if self.param is not None:
                raise InvalidInputError("independence copula takes no parameter")
            return
        if self.param is None:
            raise InvalidInputError(f"{self.family} copula needs a parameter")
        lo, hi, closed = _PARAM_RANGES[self.family]
        ok = lo <= self.param <= hi if closed else lo < self.param < hi
        if not ok:
            bracket = "[]" if closed else "()"
            raise InvalidInputError(
                f"{self.family} parameter must lie in "
                f"{bracket[0]}{lo}, {hi}{bracket[1]}, got {self.param}"
            )

    def sample(self, n, seed):
        """n i.i.d. draws (x, y); ``seed`` is an int or a numpy Generator."""
        if n < 1:
            raise InvalidInputError("need n >= 1 draws")
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        th = self.param
        if self.family == "gaussian":
            z1 = rng.standard_normal(n)
            z2 = th * z1 + np.sqrt(max(1.0 - th * th, 0.0)) * rng.standard_normal(n)
            return z1, z2
        if self.family == "student_t1":
            z1 = rng.standard_normal(n)
            z2 = th * z1 + np.sqrt(max(1.0 - th * th, 0.0)) * rng.standard_normal(n)
            mix = np.sqrt(rng.chisquare(1, n))
            return z1 / mix, z2 / mix
        if self.family == "quadratic":
            x = rng.uniform(-0.5, 0.5, n)
            y = 0.5 + th * x + (1.0 - th) * x * x + rng.normal(0.0, 1e-3, n)
            return x, y
        if self.family == "reflection":
            x = rng.uniform(0.0, 1.0, n)
            y = np.where(x <= th, th - x, x)
            return x, y
        x = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(0.0, 1.0, n)
        return x, y


def gaussian(theta):
    return CopulaModel("gaussian", float(theta))


def student_t1(theta):
    return CopulaModel("student_t1", float(theta))


def quadratic(theta):
    return CopulaModel("quadratic", float(theta))


def reflection(a):
    return CopulaModel("reflection", float(a))


def independence():
    return CopulaModel("independence", None)


def sample_copula(model, n, seed):
    return model.sample(n, seed)


@dataclass(frozen=True)
class VarianceTriple:
    """Correct vs naive asymptotic variances of the rank-rank slope, plus rho."""

    sigma2: float
    sigma2_hom: float
    sigma2_ew: float
    rho: float


def reflection_closed_forms(a):
    """Exact (sigma^2, sigma_hom^2, sigma_ew^2, rho) for the reflection family."""
    a = float(a)
    if not (0.0 < a < 1.0):
        raise InvalidInputError(f"reflection parameter must lie in (0, 1), got {a}")
    sigma2 = 36.0 * (a**5 - a**6)
    hom = 4.0 * (a**3 - a**6)
    ew = 144.0 * (
        a**3 / 12.0 - a**4 / 6.0 + 2.0 * a**5 / 15.0 - 9.0 * a**6 / 20.0
        + a**7 - 3.0 * a**8 / 5.0
    )
    rho = 1.0 - 2.0 * a**3
    return VarianceTriple(sigma2=sigma2, sigma2_hom=hom, sigma2_ew=ew, rho=rho)


def variance_triple_mc(model, n_mc, seed):
    """Monte Carlo (sigma^2, sigma_hom^2, sigma_ew^2, rho) for a copula.

    The draws are mapped to uniforms through their ranks, so only the copula
    matters.  The correct variance uses the projected-kernel representation
    sigma^2 = 144 Var(h(U, V)) with
    h(u, v) = u v - E[1{U <= u} V] - E[1{V <= v} U], the inner conditional
    expectations estimated by one comparison-kernel sum each; the naive
    limits use the centered rank moments M_kl:

        sigma_hom^2 = 1 - rho^2
        sigma_ew^2  = 144 (M_22 - 2 rho M_31 + rho^2 / 80)
    """
    if n_mc < 10_000:
        raise InvalidInputError("variance_triple_mc needs n_mc >= 10000")
    x, y = model.sample(n_mc, seed)
    u = rank_transform(x, 0.5)
    v = rank_transform(y, 0.5)
    # (1/n) sum_j 1{u_j <= u_i} v_j is the total of v minus the omega = 0
    # kernel sum sum_j 1{u_i < u_j} v_j
    n = u.size
    h = (u * v - (v.sum() - comparison_weighted_sums(u, v, 0.0)) / n
         - (u.sum() - comparison_weighted_sums(v, u, 0.0)) / n)
    sigma2 = 144.0 * float(np.var(h))
    du = u - u.mean()
    dv = v - v.mean()
    m20 = float(np.mean(du * du))
    m02 = float(np.mean(dv * dv))
    rho = float(np.mean(du * dv)) / np.sqrt(m20 * m02)
    m22 = float(np.mean(du**2 * dv**2))
    m31 = float(np.mean(du**3 * dv))
    hom = 1.0 - rho * rho
    ew = 144.0 * (m22 - 2.0 * rho * m31 + rho * rho / 80.0)
    return VarianceTriple(sigma2=sigma2, sigma2_hom=hom, sigma2_ew=ew, rho=rho)


def variance_curve(family, grid, n_mc=200_000, seed=0):
    """One variance triple per grid point, for plotting against the parameter."""
    rows = []
    for k, param in enumerate(grid):
        model = CopulaModel(family, float(param))
        child = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        rows.append((float(param), variance_triple_mc(model, n_mc, child)))
    return rows


def true_rank_correlation(model, n_mc=ORACLE_DRAWS):
    """Population rank correlation: closed form where available, cached MC otherwise."""
    if model.family == "independence":
        return 0.0
    if model.family == "reflection":
        return 1.0 - 2.0 * model.param**3
    key = (model.family, model.param, n_mc)
    if key not in _TRUE_RHO_CACHE:
        x, y = model.sample(n_mc, ORACLE_SEED)
        _TRUE_RHO_CACHE[key] = spearman(x, y, 0.5)
    return _TRUE_RHO_CACHE[key]


def calibrate_parameter(family, target_rank_corr, tolerance=0.005, seed=0,
                        n_mc=200_000, max_iter=200):
    """Bisect the copula parameter until the MC rank correlation hits the target.

    Every evaluation reuses the same seed (common random numbers), which makes
    the objective a deterministic monotone function of the parameter and the
    bisection well-behaved.
    """
    if family == "independence":
        raise InvalidInputError("independence copula has no parameter to calibrate")
    lo, hi, closed = _PARAM_RANGES[family]
    if not closed:
        lo, hi = lo + 1e-9, hi - 1e-9

    def rank_corr(param):
        x, y = CopulaModel(family, param).sample(n_mc, seed)
        return spearman(x, y, 0.5)

    f_lo = rank_corr(lo) - target_rank_corr
    f_hi = rank_corr(hi) - target_rank_corr
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise CalibrationError(
            f"target rank correlation {target_rank_corr} is not bracketed by the "
            f"{family} family over [{lo}, {hi}]"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = rank_corr(mid) - target_rank_corr
        if abs(f_mid) <= tolerance or (hi - lo) < 1e-7:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


@dataclass
class CoverageRow:
    method: str
    coverage: float
    mean_ci_width: float
    mc_se: float
    n: int
    reps: int
    alpha: float
    true_value: float


def coverage_experiment(model, n, reps, methods=("plugin", "hom", "ew"),
                        alpha=0.05, omega=1.0, seed=0, bootstrap_plan=None):
    """Empirical CI coverage of the true rank-rank slope, per method.

    Each rep draws a fresh sample from the copula, fits the intercept-only
    rank-rank regression, and records whether each method's interval covers
    the true slope (= the population rank correlation, since all families
    here have continuous marginals).  Reports coverage, its Monte Carlo
    standard error, and the mean interval width.
    """
    methods = tuple(methods)
    for m in methods:
        if m not in ("plugin", "hom", "ew", "bootstrap"):
            raise InvalidInputError(f"unknown se method {m!r}")
    if "bootstrap" in methods and bootstrap_plan is None:
        bootstrap_plan = BootstrapPlan(reps=299, seed=seed, alpha=alpha)
    truth = true_rank_correlation(model)

    def one_rep(rep):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        x, y = model.sample(n, rng)
        d = Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"])
        sample = _Sample(d, "rank-rank", omega)
        fit = sample.fit()
        covered = np.zeros(len(methods))
        widths = np.zeros(len(methods))
        for k, m in enumerate(methods):
            if m == "plugin":
                rep_ = plugin_slope_variance(fit, d, alpha=alpha)
                lo_, hi_ = rep_.ci[0]
            elif m == "hom":
                rep_ = hom_covariance(fit, d, alpha=alpha)
                lo_, hi_ = rep_.ci[0]
            elif m == "ew":
                rep_ = ew_covariance(fit, d, alpha=alpha)
                lo_, hi_ = rep_.ci[0]
            else:
                plan = BootstrapPlan(
                    reps=bootstrap_plan.reps,
                    seed=int(rng.integers(2**63)),
                    ci_kind=bootstrap_plan.ci_kind,
                    alpha=alpha,
                )
                boots = _replicates(sample, plan)[:, 0]
                lo_, hi_ = bootstrap_ci(boots, fit.slope, plan)
            covered[k] = 1.0 if lo_ <= truth <= hi_ else 0.0
            widths[k] = hi_ - lo_
        return covered, widths

    covered = np.zeros((reps, len(methods)))
    widths = np.zeros((reps, len(methods)))
    for rep in range(reps):
        covered[rep], widths[rep] = one_rep(rep)

    rows = []
    for k, m in enumerate(methods):
        cov = float(covered[:, k].mean())
        rows.append(
            CoverageRow(
                method=m,
                coverage=cov,
                mean_ci_width=float(widths[:, k].mean()),
                mc_se=float(np.sqrt(max(cov * (1.0 - cov), 1e-12) / reps)),
                n=n,
                reps=reps,
                alpha=alpha,
                true_value=float(truth),
            )
        )
    return rows
