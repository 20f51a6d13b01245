"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime caps are pinned here; Monte Carlo pieces use
fixed seeds so the suite is deterministic.
"""

import json
import os
import time
from time import perf_counter

import numpy as np
import pytest
import scipy.stats

from rankreg import (
    BootstrapPlan,
    Dataset,
    bootstrap_distribution,
    calibrate_parameter,
    coverage_experiment,
    ew_covariance,
    fit_level_rank,
    fit_rank_level,
    fit_rank_rank,
    fit_rank_rank_by_group,
    gaussian,
    hom_covariance,
    plugin_covariance,
    plugin_slope_variance,
    quadratic,
    rank_transform,
    reflection,
    reflection_closed_forms,
    sample_copula,
    spearman,
    variance_triple_mc,
)
import rankreg.bootstrap as bootstrap
from rankreg.bruteforce import influence_rows_pairwise
from rankreg.cli import main
from rankreg.inference import influence_rows

TIED_X = [3, 4, 7, 7, 10, 11, 15, 15, 15, 15]


def _report(criterion, description, elapsed=None):
    timing = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {description}{timing}")


def test_criterion_01_rank_transform_exactness():
    rank_transform(TIED_X, 0.5)  # warm the jit before timing
    t0 = perf_counter()
    smallest = rank_transform(TIED_X, 0.0)
    mid = rank_transform(TIED_X, 0.5)
    largest = rank_transform(TIED_X, 1.0)
    elapsed = perf_counter() - t0
    assert smallest.tolist() == [0.1, 0.2, 0.3, 0.3, 0.5, 0.6, 0.7, 0.7, 0.7, 0.7]
    assert mid.tolist() == [0.1, 0.2, 0.35, 0.35, 0.5, 0.6, 0.85, 0.85, 0.85, 0.85]
    assert largest.tolist() == [0.1, 0.2, 0.4, 0.4, 0.5, 0.6, 1.0, 1.0, 1.0, 1.0]
    assert elapsed < 1e-3
    _report(1, "tie-weighted rank rows bit-for-bit at omega 0/0.5/1", elapsed)


def test_criterion_02_slope_equals_rank_correlation():
    t0 = perf_counter()
    for rep in range(1000):
        rng = np.random.default_rng(np.random.SeedSequence(1111, spawn_key=(rep,)))
        x = rng.normal(size=50)
        y = rng.normal(size=50)
        d = Dataset(y=y, x=x, w=np.ones((50, 1)))
        fit = fit_rank_rank(d, float(rng.random()))
        assert abs(fit.slope - spearman(x, y)) < 1e-12
    elapsed = perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "intercept-only slope equals rank correlation on 1000 tie-free sets",
            elapsed)


def test_criterion_03_closed_form_variance_oracle():
    t0 = perf_counter()
    triple = variance_triple_mc(reflection(0.5), 500_000, 314)
    elapsed = perf_counter() - t0
    forms = reflection_closed_forms(0.5)
    assert abs(triple.sigma2 - forms.sigma2) < 0.02
    assert abs(triple.sigma2_hom - forms.sigma2_hom) < 0.02
    assert abs(triple.sigma2_ew - forms.sigma2_ew) < 0.02
    assert abs(triple.rho - forms.rho) < 0.01
    assert elapsed < 30.0
    _report(3, "MC variance triple matches the analytic reflection values", elapsed)


def test_criterion_04_plugin_consistency_under_independence():
    t0 = perf_counter()
    rng = np.random.default_rng(2718)
    n = 5000
    d = Dataset(y=rng.random(n), x=rng.random(n), w=np.ones((n, 1)))
    fit = fit_rank_rank(d, 1.0)
    plug = plugin_slope_variance(fit, d).variance[0, 0]
    hom = hom_covariance(fit, d).variance[0, 0]
    ew = ew_covariance(fit, d).variance[0, 0]
    elapsed = perf_counter() - t0
    for value in (plug, hom, ew):
        assert abs(value - 1.0) < 0.1
    assert elapsed < 10.0
    _report(4, f"independence: plugin={plug:.3f} hom={hom:.3f} ew={ew:.3f} (all ~1)",
            elapsed)


def test_criterion_05_plugin_coverage_gaussian():
    t0 = perf_counter()
    theta = calibrate_parameter("gaussian", 0.384, seed=77, n_mc=200_000)
    rows = coverage_experiment(
        gaussian(theta), n=1000, reps=2000, methods=("plugin",), seed=505)
    elapsed = perf_counter() - t0
    coverage = rows[0].coverage
    assert 0.93 <= coverage <= 0.97
    assert elapsed < 600.0
    _report(5, f"plugin CI coverage {coverage:.3f} at calibrated gaussian copula",
            elapsed)


def test_criterion_06_naive_coverage_distorts_both_ways():
    t0 = perf_counter()
    theta = calibrate_parameter("quadratic", 0.384, seed=78, n_mc=200_000)
    rows_q = coverage_experiment(
        quadratic(theta), n=2000, reps=1000, methods=("plugin", "hom"), seed=606)
    cov_q = {row.method: row.coverage for row in rows_q}
    rows_r = coverage_experiment(
        reflection(0.2), n=2000, reps=1000, methods=("hom", "ew"), seed=707)
    cov_r = {row.method: row.coverage for row in rows_r}
    elapsed = perf_counter() - t0
    # (a) under-coverage where the naive limits fall below the true variance
    assert cov_q["hom"] < 0.93
    assert 0.93 <= cov_q["plugin"] <= 0.97
    # (b) conservative where they overshoot (variance ratios ~3.4 and ~6.6)
    assert cov_r["hom"] > 0.98
    assert cov_r["ew"] > 0.98
    assert elapsed < 900.0
    _report(6, "hom coverage {:.3f} (quadratic, short CIs) vs hom {:.3f} / ew {:.3f} "
               "(reflection, conservative)".format(
                   cov_q["hom"], cov_r["hom"], cov_r["ew"]), elapsed)


def _fuzz_dataset(rng):
    n = int(rng.integers(20, 121))
    # education-like 7-point marginal or continuous draws, mixed per variable
    def draw(tied):
        if tied:
            support = np.arange(7) * 2.0
            return rng.choice(support, size=n, p=rng.dirichlet(np.ones(7)))
        return rng.normal(size=n)

    x = draw(rng.random() < 0.5)
    y = 0.5 * x + draw(rng.random() < 0.5)
    p = int(rng.integers(0, 4))
    w = None
    w_names = None
    if p:
        cols = [np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)]
        w = np.column_stack(cols)
        w_names = [f"w{j}" for j in range(p)]
    g = None
    if rng.random() < 0.4 and n >= 30:
        n_g = int(rng.integers(2, 4))
        g = np.concatenate([np.repeat(k, n // n_g) for k in range(n_g)])
        g = np.concatenate([g, np.repeat(n_g - 1, n - g.size)])
        rng.shuffle(g)
        counts = np.bincount(g, minlength=n_g)
        if np.any(counts < p + 5):
            g = None
    omega = float(rng.choice([0.0, 0.3, 0.5, 0.7, 1.0]))
    return Dataset(y=y, x=x, w=w, g=g, w_names=w_names), omega


def test_criterion_07_accelerated_equals_double_sum_everywhere():
    t0 = perf_counter()
    rng = np.random.default_rng(4242)
    checked = 0
    datasets = 0
    while datasets < 200:
        d, omega = _fuzz_dataset(rng)
        if np.unique(d.x).size < 3 or np.unique(d.y).size < 3:
            continue
        datasets += 1
        fits = [fit_rank_rank(d, omega), fit_level_rank(d, omega)]
        if d.p >= 1:
            fits.append(fit_rank_level(d, omega))
        if d.group_index is not None:
            fits.append(fit_rank_rank_by_group(d, omega))
        for fit in fits:
            fast = influence_rows(fit, d)
            slow = influence_rows_pairwise(fit, d)
            assert np.max(np.abs(fast.psi - slow.psi)) < 1e-10
            sigma_fast = fast.psi.T @ fast.psi / d.n
            sigma_slow = slow.psi.T @ slow.psi / d.n
            assert np.max(np.abs(sigma_fast - sigma_slow)) < 1e-10
            checked += 1
    elapsed = perf_counter() - t0
    assert elapsed < 120.0
    _report(7, f"sorted path equals literal double sums for {checked} fits "
               f"on {datasets} fuzzed datasets", elapsed)


def test_criterion_08_bootstrap_agrees_with_plugin():
    t0 = perf_counter()
    theta = 0.4
    hits = 0
    reps = 100
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(888, spawn_key=(rep,)))
        x, y = sample_copula(gaussian(theta), 1000, rng)
        d = Dataset(y=y, x=x, w=np.ones((1000, 1)))
        fit = fit_rank_rank(d, 1.0)
        plugin_se = float(plugin_slope_variance(fit, d).se[0])
        boots = bootstrap_distribution(
            d, "rank-rank", 1.0, BootstrapPlan(reps=500, seed=rep))
        boot_se = float(np.std(boots, ddof=1))
        if abs(boot_se - plugin_se) <= 0.15 * plugin_se:
            hits += 1
    assert hits >= 90

    # rank recomputation guard: freezing the original ranks moves the
    # replicate distribution on tied data
    rng = np.random.default_rng(999)
    n = 60
    x = (rng.random(n) < 0.75).astype(float)
    y = 2.0 * x + (rng.random(n) < 0.5).astype(float)
    d = Dataset(y=y, x=x, w=np.ones((n, 1)))
    plan = BootstrapPlan(reps=300, seed=12)
    proper = bootstrap_distribution(d, "rank-rank", 1.0, plan)
    rx, ry = rank_transform(x, 1.0), rank_transform(y, 1.0)
    frozen = np.empty(plan.reps)
    for b in range(plan.reps):
        r = np.random.default_rng(np.random.SeedSequence(plan.seed, spawn_key=(b,)))
        idx = r.integers(0, n, size=n)
        gram = np.column_stack([rx[idx], np.ones(n)])
        frozen[b] = np.linalg.lstsq(gram, ry[idx], rcond=None)[0][0]
    assert abs(np.std(proper) - np.std(frozen)) > 0.25 * np.std(proper)
    elapsed = perf_counter() - t0
    assert elapsed < 600.0
    _report(8, f"bootstrap SE within 15% of plugin SE in {hits}/100 reps; "
               "frozen-rank shortcut detectably wrong", elapsed)


def test_criterion_09_mc_variance_match_level_and_rank_level():
    t0 = perf_counter()
    reps = 2000
    n = 2000

    # level-rank: y = 1 + 2*rank(x) + noise with x uniform, so the true slope
    # is exactly 2 and sqrt(n)-scaled errors have the plugin variance
    slope_true = 2.0
    errors = np.empty(reps)
    plugins = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(91, spawn_key=(rep,)))
        x = rng.random(n)
        y = 1.0 + slope_true * x + 0.5 * rng.standard_normal(n)
        d = Dataset(y=y, x=x, w=np.ones((n, 1)))
        fit = fit_level_rank(d, 1.0)
        errors[rep] = fit.slope - slope_true
        plugins[rep] = plugin_slope_variance(fit, d).variance[0, 0]
    mc_var = n * errors.var()
    assert abs(mc_var - plugins.mean()) <= 0.10 * plugins.mean()

    # rank-level: binary shift DGP with an analytic mean-rank difference
    beta_true = float(scipy.stats.norm.cdf(1.0 / np.sqrt(2.0)) - 0.5)
    errors_rl = np.empty(reps)
    plugins_rl = np.empty(reps)
    for rep in range(reps):
        rng = np.random.default_rng(np.random.SeedSequence(92, spawn_key=(rep,)))
        flag = (rng.random(n) < 0.5).astype(float)
        y = flag + rng.standard_normal(n)
        d = Dataset(y=y, w=np.column_stack([np.ones(n), flag]))
        fit = fit_rank_level(d, 1.0)
        errors_rl[rep] = fit.beta[1] - beta_true
        plugins_rl[rep] = plugin_covariance(fit, d).variance[1, 1]
    mc_var_rl = n * errors_rl.var()
    assert abs(mc_var_rl - plugins_rl.mean()) <= 0.10 * plugins_rl.mean()
    elapsed = perf_counter() - t0
    assert elapsed < 600.0
    _report(9, f"MC variances match mean plugin variances: level-rank "
               f"{mc_var:.4f} vs {plugins.mean():.4f}; rank-level "
               f"{mc_var_rl:.5f} vs {plugins_rl.mean():.5f}", elapsed)


def test_criterion_10_determinism_across_parallelism(tmp_path, monkeypatch, rng):
    n = 80
    x = rng.normal(size=n)
    y = x + rng.normal(size=n)
    path = tmp_path / "data.csv"
    path.write_text(
        "y,x\n" + "\n".join(f"{float(y[i])!r},{float(x[i])!r}" for i in range(n)) + "\n",
        encoding="utf-8",
    )
    out = tmp_path / "report.json"
    argv = ["fit", str(path), "--se", "plugin,bootstrap", "--bootstrap-reps", "99",
            "--seed", "4", "--out", str(out)]
    # one CPU, then every loop split over three forked workers; a few
    # replicates per chunk give the bootstrap chunks to split
    monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1 << 12)
    monkeypatch.setattr(bootstrap, "_SPLIT_MIN_S", 0.0)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(argv) == 0
    first = out.read_bytes()
    assert forks == []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert len(forks) == 2

    cov_out = tmp_path / "coverage.csv"
    cov_argv = ["coverage", "--family", "reflection", "--param", "0.5",
                "--n", "200", "--reps", "30", "--seed", "5", "--out", str(cov_out)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert main(cov_argv) == 0
    first_cov = cov_out.read_bytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert main(cov_argv) == 0
    assert cov_out.read_bytes() == first_cov
    assert len(forks) == 4
    _report(10, "byte-identical reports across reruns and worker counts")
