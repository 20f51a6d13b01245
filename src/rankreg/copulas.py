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

from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapPlan, _check_count, _cpus, _spread, bootstrap_report
from .errors import CalibrationError, InvalidInputError, RankRegressionError
from .estimators import Dataset, _r_factors, _residuals, _solve_factors, fit_spec
from .inference import (_naive_variances, _normal_intervals, _slope_plugin, check_alpha,
                        check_integer, check_seed, normal_quantile)
from .kernels import TieRuns, comparison_counts, comparison_run_sums, tie_runs
from .ranks import check_omega, ranks_from_counts, spearman

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
]

FAMILIES = ("gaussian", "student_t1", "quadratic", "reflection", "independence")

# fixed seed and draw count for cached high-precision rank-correlation truths
ORACLE_SEED = 20260810
ORACLE_DRAWS = 1_000_000
_TRUE_RHO_CACHE = {}

# draws per stack of coverage reps, each stack solved as one fit: a stack's
# arrays peak at about 121 bytes per draw (tracemalloc at 10 reps of
# n = 1,000), in its plugin kernel tables and its ranks, with 65 live between
# stages.  For 250 reps of n = 1,000, larger stacks raised the max RSS of a
# coverage process on 2 CPUs (7,000 draws by 0.1 MB, 10,000 by 0.6 MB, 15,000
# by 1.2 MB) and were no faster: in process, 5,000 draws took 51 ms on one
# CPU and 35 ms on two, 7,000 took 54 and 35 ms, 10,000 took 54 and 38 ms
# (medians of 8 processes, 2-core x86_64 VM)
_STACK_DRAWS = 5_000
# most reps per stack: at small n a rep's stream and bounds outweigh its draws
# (tracemalloc, 8,330 reps of n = 3 on one CPU: stacks of 128 reps peaked at
# 0.78 MiB, of 512 at 0.97, of 1,666, as many as 5,000 draws allow, at 2.45;
# each took 1.4-1.7 s)
_STACK_REPS = 128
# least stacks per usable CPU: ``_spread`` runs the first stack alone and cuts
# the rest into one slice per CPU, so a few large stacks would leave CPUs idle
# (by draws alone, 30 reps at n = 200 are two stacks, and nothing to split)
_STACKS_PER_CPU = 8

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
        if check_integer(n, "n") < 1:
            raise InvalidInputError("need n >= 1 draws")
        rng = (seed if isinstance(seed, np.random.Generator)
               else np.random.default_rng(check_seed(seed)))
        th = self.param
        if self.family in ("gaussian", "student_t1"):
            z1 = rng.standard_normal(n)
            z2 = th * z1 + np.sqrt(max(1.0 - th * th, 0.0)) * rng.standard_normal(n)
            if self.family == "gaussian":
                return z1, z2
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
    if check_integer(n_mc, "n_mc") < 10_000:
        raise InvalidInputError(f"n_mc must be at least 10000, got {n_mc}")
    x, y = model.sample(n_mc, seed)
    # ranks keep the ties and the order of the draws, so u and v have their runs
    runs_x, runs_y = tie_runs(x), tie_runs(y)
    n = x.size
    u, v = (ranks_from_counts(*comparison_counts(r), n, 0.5) for r in (runs_x, runs_y))
    # (1/n) sum_j 1{u_j <= u_i} v_j is the total of v minus the omega = 0
    # kernel sum sum_j 1{u_i < u_j} v_j
    h = (u * v - (v.sum() - comparison_run_sums(runs_x, v, 0.0)[runs_x.run, 0, 0]) / n
         - (u.sum() - comparison_run_sums(runs_y, u, 0.0)[runs_y.run, 0, 0]) / n)
    sigma2 = 144.0 * float(np.var(h))
    du = u - u.mean()
    dv = v - v.mean()
    m20 = float(np.mean(du * du))
    m02 = float(np.mean(dv * dv))
    rho = float(np.mean(du * dv) / np.sqrt(m20 * m02))
    m22 = float(np.mean(du**2 * dv**2))
    m31 = float(np.mean(du**3 * dv))
    hom = 1.0 - rho * rho
    ew = 144.0 * (m22 - 2.0 * rho * m31 + rho * rho / 80.0)
    return VarianceTriple(sigma2=sigma2, sigma2_hom=hom, sigma2_ew=ew, rho=rho)


def variance_curve(family, grid, n_mc=200_000, seed=0):
    """One variance triple per grid point, for plotting against the parameter."""
    check_seed(seed)
    if len(grid) == 0:
        raise InvalidInputError("parameter grid is empty")
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
        return reflection_closed_forms(model.param).rho
    key = (model.family, model.param, n_mc)
    if key not in _TRUE_RHO_CACHE:
        x, y = model.sample(n_mc, ORACLE_SEED)
        _TRUE_RHO_CACHE[key] = spearman(x, y, 0.5)
    return _TRUE_RHO_CACHE[key]


def calibrate_parameter(family, target_rank_corr, tolerance=0.005, seed=0,
                        n_mc=200_000):
    """Bisect the copula parameter until the MC rank correlation hits the target.

    Every evaluation reuses the same seed (common random numbers), which makes
    the objective a deterministic monotone function of the parameter and the
    bisection well-behaved.
    """
    if family == "independence":
        raise InvalidInputError("independence copula has no parameter to calibrate")
    check_integer(n_mc, "n_mc")
    if not tolerance >= 0.0:  # a negative or NaN tolerance is never met
        raise InvalidInputError(f"tolerance must be nonnegative, got {tolerance}")
    if tolerance == np.inf:  # the first midpoint would always meet it
        raise InvalidInputError(f"tolerance must be finite, got {tolerance}")
    if tolerance >= 2.0:  # so would any: two rank correlations differ by at most 2
        raise InvalidInputError(f"tolerance must be below 2, got {tolerance}")
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
    if not np.sign(f_lo) * np.sign(f_hi) < 0:  # a NaN target brackets nothing
        raise CalibrationError(
            f"target rank correlation {target_rank_corr} is not bracketed by the "
            f"{family} family over [{lo}, {hi}]"
        )
    while True:  # the bracket halves each step, so its width rule ends the loop
        mid = 0.5 * (lo + hi)
        f_mid = rank_corr(mid) - target_rank_corr
        if abs(f_mid) <= tolerance or (hi - lo) < 1e-7:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid


class _RepStack:
    """Coverage reps drawn as the rows (c, n) of x and y and solved as one rank-rank fit.

    Rep i draws from the i-th of ``streams``.  Block i of the fit is rep i's
    n rows, with the tie runs of row i alone (one :func:`kernels.tie_runs`
    of the x and y rows together) and its own n.  The fit takes the lone
    fit's own functions: one stacked QR, whose items are each rep's R
    factor, the solve and refusal rule of :func:`estimators._solve_factors`,
    and the slope variances and intervals of :mod:`rankreg.inference`, which
    read the stack as they read a one-block fit.  So every rep's values are
    bitwise those of its lone ``fit_spec``.  The x and y runs share the
    padded width of the stack's run sizes; the extra runs are empty and add
    exact zeros.  ``refused`` is True when a draw raises the package's error
    or is not finite, or a rep's design is refused; the reps are then drawn
    and fit again one at a time, and the lowest refused one raises.
    """

    order = slice(None)

    def __init__(self, model, n, omega, streams):
        c = len(streams)
        self.n, self.omega = n, omega
        draws = np.empty((2, c, n))  # x, then y
        try:
            for i, rng in enumerate(streams):
                draws[0, i], draws[1, i] = model.sample(n, rng)
        except RankRegressionError:  # a lower rep of the stack may be refused first
            self.refused = True
            return
        self.refused = not np.isfinite(draws).all()
        if self.refused:
            return
        runs = tie_runs(draws)
        del draws
        self.runs_x, self.runs_y = (TieRuns(*both) for both in zip(*runs))
        system = np.ones((c, n, 3))  # [rank(x), 1, rank(y)] of each rep
        system[:, :, 0], system[:, :, 2] = ranks_from_counts(*comparison_counts(runs), n, omega)
        # a transposed view, which _r_factors copies: the variances read the system
        self.coef, gram_inv, errors = _solve_factors(_r_factors(system.transpose(0, 2, 1)),
                                                     sizes=n)
        self.refused = any(err is not None for err in errors)
        self.system = system.reshape(c * n, 3)
        self.bounds = [(lo, lo + n) for lo in range(0, c * n, n)]
        self.a_inv = n * gram_inv
        self.eps = _residuals(self.system, self.bounds, self.coef)

    def intervals(self, method, z):
        """(c, 2) slope intervals of the reps by ``method`` (plugin, hom or ew), z = z_{alpha/2}."""
        c, n = len(self.bounds), self.n
        if method == "plugin":
            sigma2 = _slope_plugin(self)
        else:
            sigma2 = _naive_variances(method, self.system.reshape(c, n, 3)[:, :, :-1], self.a_inv,
                                      self.eps.reshape(c, n), n)[:, 0, 0]
        return _normal_intervals(sigma2, self.coef[:, 0], n, z)[1]


def _stack_size(n, reps):
    """Reps per stack: ``_STACK_DRAWS`` draws, ``_STACK_REPS`` reps and
    ``_STACKS_PER_CPU`` stacks per usable CPU, whichever is least."""
    return max(1, min(_STACK_DRAWS // n, _STACK_REPS, reps // (_STACKS_PER_CPU * _cpus())))


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
    standard error, and the mean interval width, one row per distinct method;
    ``methods`` is a sequence of method names, or one name.
    ``bootstrap_plan`` supplies the bootstrap's ``reps`` and ``ci_kind``;
    each rep seeds its own replicates, and ``alpha`` comes from this call.
    Rep r draws from its own stream ``SeedSequence(seed, spawn_key=(r,))``,
    so the rows depend only on the arguments, and not on how many processes
    run them.

    The reps are solved in stacks of :func:`_stack_size` reps, each one
    :class:`_RepStack`, and every rep's intervals are bitwise those of its
    lone fit through ``Dataset`` and ``fit_spec``.  The bootstrap resamples
    that lone fit, seeded from the rep's stream after its sample.  A stack
    that holds a refused rep runs again rep by rep through ``Dataset`` and
    ``fit_spec``, so the lowest refused rep raises its own error.
    """
    if check_integer(reps, "reps") < 1:
        raise InvalidInputError(f"coverage needs at least one rep, got {reps}")
    if check_integer(n, "n") < 3:  # the intercept-only fit of every rep needs n >= p + 2
        raise InvalidInputError(f"need n >= p + 2 observations (n={n}, p=1)")
    if isinstance(methods, str):
        methods = (methods,)
    methods = tuple(dict.fromkeys(methods))  # a repeated method runs once
    if not methods:
        raise InvalidInputError("coverage needs at least one se method")
    for m in methods:
        if m not in ("plugin", "hom", "ew", "bootstrap"):
            raise InvalidInputError(f"unknown se method {m!r}")
    check_alpha(alpha)
    z = normal_quantile(alpha / 2.0)
    check_omega(omega)
    check_seed(seed)
    if "bootstrap" in methods:
        if bootstrap_plan is None:
            bootstrap_plan = BootstrapPlan(reps=299, alpha=alpha)
        _check_count(bootstrap_plan.reps, bootstrap_plan.ci_kind)
    truth = true_rank_correlation(model)
    size = _stack_size(n, reps)

    def stream(rep):
        return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))

    def lone_fit(rep):  # rep's sample fit alone, and its bootstrap interval if asked for
        rng = stream(rep)
        x, y = model.sample(n, rng)
        fit = fit_spec(Dataset(y=y, x=x, w=np.ones((n, 1)), w_names=["const"]), "rank-rank",
                       omega)
        if "bootstrap" in methods:
            plan = replace(bootstrap_plan, seed=int(rng.integers(2**63)), alpha=alpha)
            return bootstrap_report(fit, plan).ci[0]
        return None

    def intervals(block):  # (reps, methods, 2): each rep's interval by each method
        stack = _RepStack(model, n, omega, [stream(rep) for rep in block])
        if stack.refused or "bootstrap" in methods:
            # rep by rep, as a lone fit is taken: the lowest refused rep raises here
            boot = [lone_fit(rep) for rep in block]
        if stack.refused:
            raise AssertionError(f"reps {block[0]}..{block[-1]} were refused stacked, not alone")
        return np.stack([np.array(boot) if m == "bootstrap" else stack.intervals(m, z)
                         for m in methods], axis=1)

    def run(lo, hi):  # stacks lo..hi-1: whether each rep's interval covers, and its width
        ci = np.concatenate([intervals(range(start, min(start + size, reps)))
                             for start in range(lo * size, min(hi * size, reps), size)])
        lo_, hi_ = ci[:, :, 0], ci[:, :, 1]
        return ((lo_ <= truth) & (truth <= hi_)).astype(float), hi_ - lo_

    covered, widths = _spread(run, -(-reps // size))

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
