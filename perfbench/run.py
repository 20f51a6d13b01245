#!/usr/bin/env python3
"""rankreg benchmark: the real CLI on seeded inputs, end to end or traced by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit-national --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` measures one workload by cycling through these calls until the
time is up (at least three samples of each):

* setup_s      a fresh ``python -m rankreg.cli --version`` (interpreter start
               plus ``import rankreg.cli``), which every CLI call pays;
* wall_s and   the workload's argv as a fresh ``python -m rankreg.cli``
  peak_rss_mb  process; memory is that child's own peak, from ``os.wait4``
               in a small launcher process (see ``launcher.py``);
* compute_s    the same argv through ``rankreg.cli.main`` in this process,
               after one discarded warm-up call.

On a shared machine the host's speed drifts by up to a fifth over minutes, and
a whole run can fall into a slow stretch.  So each timed call is scaled to a
nominal speed: a fixed numpy sort plus Python loop is timed before and after
it, and the call's time is multiplied by ``CAL_NOMINAL_S`` over the mean of
those two times.  The
setup_s, wall_s and compute_s reported are medians of the scaled samples, and
the raw medians are printed next to them.  peak_rss_mb is the median as
measured.

``--trace 1`` instead alternates untraced and traced in-process calls and
reports per-layer self times and counts (raw, not scaled) from spans recorded
around each layer's public functions (see ``spans.py``).

Every call is checked: it must exit 0, write its report, match the report of
the frozen seed-commit package on the same input (``check.py``), and be
byte-identical to the first report of the run.  The fast influence rows are
also compared once with the O(n^2) oracle on a ~200-row slice of the input.
The last line of output is one JSON object: correct, attempted, failed and
metrics; failed / attempted is the error rate.
"""

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"  # under ROOT; inputs, reports, spans, reference cache
CHILD_TIMEOUT_S = 120
MIN_SAMPLES = 3
ORACLE_TOL = 1e-10
# The calibration loop's time at nominal speed, about its median on the 2-core
# x86_64 virtual machine the baseline was recorded on.
CAL_NOMINAL_S = 0.065

sys.path.insert(0, HERE)
import check  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, argv_for, oracle_data, prepare_input  # noqa: E402


def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def machine_facts(rankreg, inherited_jobs):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": rankreg.kernels.backend_name(),
        "RANKREG_JOBS": inherited_jobs,  # as inherited; unset for every measured call
        "machine": platform.machine(),
    }


class Launcher:
    """The small process that spawns every CLI child (see ``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def run(self, args, env, out_path, err_path):
        """Run ``python -m rankreg.cli *args``; return (exit code, wall s, peak RSS MB)."""
        request = {"argv": [sys.executable, "-m", "rankreg.cli", *args], "env": env,
                   "cwd": ROOT, "stdout": out_path, "stderr": err_path,
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["code"], reply["seconds"], reply["maxrss_kb"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()  # the launcher exits at end of input
        self.proc.wait()
        return False


def run_inprocess(main, argv, around=None):
    """Time ``main(argv)`` in this process; return (exit code, seconds)."""
    gc.collect()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            with around or contextlib.nullcontext():
                code = main(argv)
        except SystemExit as exc:  # argparse rejects an argv by exiting
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # noqa: BLE001 - a crash is a failed call, not a crashed run
            traceback.print_exc(file=sys.__stderr__)
            code = 1
        elapsed = time.perf_counter() - start
    return code, elapsed


class Tally:
    """Counts calls and checks each report against the reference and the first report."""

    def __init__(self, kind, out_path, reference):
        self.kind = kind
        self.out_path = out_path
        self.reference = reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def expect_report(self, label, code):
        self.attempted += 1
        if code != 0:
            return self.fail(f"{label}: exit code {code}")
        try:
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            return self.fail(f"{label}: no report ({err})")
        if self.first is None:
            self.first = text
        elif text != self.first:
            return self.fail(f"{label}: report differs from the first one of this run")
        problems = check.mismatches(self.kind, text, self.reference)
        if problems:
            self.fail(f"{label}: " + "; ".join(problems[:3]))

    def expect(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.fail(f"{label}: {detail}")

    def clear_report(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out_path)


def reference_report(seed_cli, workload, argv, out_path, key):
    """Report of the frozen seed-commit package on this input, cached by input hash."""
    cache = os.path.join(WORK, "reference", f"{workload.name}-{key}.{workload.report}")
    if not os.path.exists(cache):
        code, _ = run_inprocess(seed_cli.main, argv)
        if code != 0:
            raise RuntimeError(f"reference run failed with exit code {code}: {argv}")
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        os.replace(out_path, cache)
    with open(cache, encoding="utf-8") as fh:
        return fh.read()


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"[{min(values):.4f} q1 {q1:.4f} q3 {q3:.4f} max {max(values):.4f}]"


def _calibrate(data):
    """Seconds for a fixed numpy sort plus Python loop: the machine's current speed."""
    start = time.perf_counter()
    np.sort(data, kind="mergesort")
    np.argsort(data, kind="mergesort")
    total = 0
    for i in range(150_000):
        total += i * i
    return time.perf_counter() - start


def measure_end_to_end(main, argv, tally, wdir, seconds):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out, err = os.path.join(wdir, "child.stdout"), os.path.join(wdir, "child.stderr")
    timeline = []  # (metric, raw seconds) in call order
    cals = []  # calibration seconds before each call, and one after the last
    rss = []
    cal_data = np.random.default_rng(0).random(200_000)
    _calibrate(cal_data)  # the first call pays for page faults; discard it
    deadline = time.perf_counter() + seconds

    def due(name):  # checked before every call, so a run overshoots by one call at most
        done = sum(1 for metric, _ in timeline if metric == name)
        return done < MIN_SAMPLES or time.perf_counter() < deadline

    with Launcher() as launcher:
        while due("setup_s") or due("wall_s") or due("compute_s"):
            if due("setup_s"):
                cals.append(_calibrate(cal_data))
                code, elapsed, _ = launcher.run(["--version"], env, out, err)
                timeline.append(("setup_s", elapsed))
                with open(out, encoding="utf-8", errors="replace") as fh:
                    version = fh.read()
                tally.expect("--version", code == 0 and version.startswith("rankreg "),
                             f"exit {code}, printed {version[:60]!r}")
            if due("wall_s"):
                tally.clear_report()
                cals.append(_calibrate(cal_data))
                code, elapsed, peak = launcher.run(argv, env, out, err)
                timeline.append(("wall_s", elapsed))
                tally.expect_report("child", code)
                rss.append(peak)
            if due("compute_s"):
                tally.clear_report()
                cals.append(_calibrate(cal_data))
                code, elapsed = run_inprocess(main, argv)
                timeline.append(("compute_s", elapsed))
                tally.expect_report("in-process", code)
    cals.append(_calibrate(cal_data))
    raw = {"setup_s": [], "wall_s": [], "compute_s": []}
    scaled = {"setup_s": [], "wall_s": [], "compute_s": []}
    for k, (name, elapsed) in enumerate(timeline):
        raw[name].append(elapsed)
        # the machine's speed during the call: the calibrations on either side
        scaled[name].append(elapsed * 2.0 * CAL_NOMINAL_S / (cals[k] + cals[k + 1]))
    for name, values in scaled.items():
        print(f"# {name}: median {statistics.median(values):.4f} s at nominal speed over "
              f"{len(values)} samples {_spread(values)}; raw median "
              f"{statistics.median(raw[name]):.4f} s")
    print(f"# peak_rss_mb: median {statistics.median(rss):.4f} MB over {len(rss)} samples "
          f"{_spread(rss)}")
    metrics = {name: {"value": statistics.median(values), "unit": "s"}
               for name, values in scaled.items()}
    metrics["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    return metrics


LAYER_UNITS = {
    "cli.ingest_rows_per_s": "rows/s",
    "kernels.sums_bytes_computed": "bytes",
    "bootstrap.replicate_ms": "ms",
}


def _unit(name):
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def measure_layers(rankreg, argv, tally, wdir, seconds):
    tracer = spans.Tracer()
    spans_path = os.path.join(wdir, "spans.jsonl")
    with contextlib.suppress(FileNotFoundError):
        os.remove(spans_path)
    untraced, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_SAMPLES or time.perf_counter() < deadline:
        tally.clear_report()
        code, elapsed = run_inprocess(rankreg.cli.main, argv)
        tally.expect_report("in-process", code)
        untraced.append(elapsed)

        tally.clear_report()
        tracer.reset()
        tracer.install(rankreg)
        try:
            code, elapsed = run_inprocess(rankreg.cli.main, argv,
                                          around=tracer.span("invocation"))
        finally:
            tracer.uninstall()
        tally.expect_report("traced", code)
        traced.append(elapsed)
        layers.append(spans.layer_metrics(tracer.spans))
        tracer.dump(spans_path, len(traced) - 1)
    if tracer.missing:
        print(f"# trace: not found, not traced: {', '.join(tracer.missing)}")
    print(f"# compute_s untraced median {statistics.median(untraced):.4f} s, traced "
          f"{statistics.median(traced):.4f} s over {len(traced)} pairs; spans in {spans_path}")
    metrics = {name: statistics.median([m[name] for m in layers]) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    times = sorted(((v, k) for k, v in metrics.items()
                    if _unit(k) == "s" and not k.startswith("trace.")), reverse=True)
    print("# layer self times, largest first: "
          + ", ".join(f"{k} {v:.4f}" for v, k in times if v > 0))
    return {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}


def run_workload(workload, seed, seconds, traced, modules, facts):
    rankreg, bruteforce, seed_cli = modules
    wdir = os.path.join(WORK, f"{workload.name}-s{seed}")
    os.makedirs(wdir, exist_ok=True)
    csv_path, key = prepare_input(workload, seed, wdir)
    out_path = os.path.join(wdir, f"report.{workload.report}")
    argv = argv_for(workload, seed, csv_path, out_path)
    print(f"# workload {workload.name} seed {seed}: {workload.why}")
    print(f"# input sha256 {key}; argv: rankreg {' '.join(argv)}")
    print(f"# facts {json.dumps(facts, sort_keys=True)}")

    reference = reference_report(seed_cli, workload, argv, out_path, key)
    tally = Tally(workload.report, out_path, reference)
    data = oracle_data(workload, seed, csv_path)
    try:
        gap = check.oracle_mismatch(rankreg, bruteforce, data, workload.spec, workload.omega)
        tally.expect("oracle", gap <= ORACLE_TOL,
                     f"influence rows differ from the pairwise oracle by {gap:.3e} relative")
    except Exception as err:  # noqa: BLE001 - a crash in the program fails the check
        traceback.print_exc(file=sys.stderr)
        tally.expect("oracle", False, f"raised {err!r}")

    tally.clear_report()
    code, _ = run_inprocess(rankreg.cli.main, argv)  # warm-up, not timed
    tally.expect_report("warm-up", code)

    if traced:
        metrics = measure_layers(rankreg, argv, tally, wdir, seconds)
    else:
        metrics = measure_end_to_end(rankreg.cli.main, argv, tally, wdir, seconds)
    for problem in tally.problems:
        print(f"# FAILED {problem}")
    print(f"# error_rate {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(os.path.join(wdir, f"result-trace{int(traced)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": seed, "seconds": seconds,
                   "input_sha256": key, "facts": facts, "result": result}, fh, indent=1)
    return result


def load_modules():
    """Import the checkout's rankreg and the frozen reference; None without src/rankreg."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rankreg", "cli.py")):
        return None
    sys.path.insert(0, src)
    import rankreg
    import rankreg.bruteforce
    import rankreg.cli
    import rankreg_seed.cli

    return rankreg, rankreg.bruteforce, rankreg_seed.cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    inherited_jobs = os.environ.pop("RANKREG_JOBS", None)  # measured calls run on 1 thread
    modules = load_modules()
    if modules is None:
        print(f"error: no rankreg package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    facts = machine_facts(modules[0], inherited_jobs)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                     bool(args.trace), modules, facts)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(f"# {'workload':<16} {'metric':<28} {'value':>14}  unit")
    for name, result in results.items():
        rate = result["failed"] / result["attempted"]
        rows = [*result["metrics"].items(), ("error_rate", {"value": rate, "unit": "ratio"})]
        for metric, entry in rows:
            print(f"# {name:<16} {metric:<28} {entry['value']:>14.4f}  {entry['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
