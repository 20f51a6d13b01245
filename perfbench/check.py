"""Correctness checks: reports against the seed-commit reference, and the oracle.

The reference report for a (workload, seed) comes from ``rankreg_seed``, a
frozen copy of the package at the seed commit, run on the same input with
the same argv.  A report passes when it is byte-identical to the reference,
or when every estimate and standard error agrees to 1e-10 relative (coverage
to within one replicate in ``reps``, interval widths to 1e-10 relative).
Fields the reference lacks are ignored, so a report may gain fields.
"""

import csv
import io
import json

import numpy as np

RTOL = 1e-10


def _close(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * np.abs(want) + 1e-300)
    )


def _fit_fields(text):
    """Estimates and standard errors of a fit report, keyed by where they sit."""
    report = json.loads(text)
    fields = {
        "n": [report["n"]],
        "coefficients": report["coefficients"]["estimates"],
        "names": report["coefficients"]["names"],
    }
    for method, block in sorted(report["se_methods"].items()):
        fields[f"{method}.names"] = block["names"]
        fields[f"{method}.estimates"] = block["estimates"]
        fields[f"{method}.se"] = block["se"]
    for k, row in enumerate(report.get("theta_p") or []):
        fields[f"theta_p.{k}"] = [row["estimate"], row["se"]]
    return fields


def _coverage_fields(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    fields = {}
    for row in rows:
        fields[row["method"]] = {
            "reps": int(row["reps"]),
            "coverage": float(row["coverage"]),
            "mean_ci_width": float(row["mean_ci_width"]),
            "true_rho": float(row["true_rho"]),
        }
    return fields


def _compare(kind, got, want):
    problems = []
    for key, ref in want.items():
        if key not in got:
            problems.append(f"{key}: missing")
        elif kind == "csv":
            row = got[key]
            if row["reps"] != ref["reps"]:
                problems.append(f"{key}.reps: {row['reps']} != {ref['reps']}")
            elif abs(row["coverage"] - ref["coverage"]) > 1.0 / ref["reps"] + 1e-12:
                problems.append(f"{key}.coverage: {row['coverage']} != {ref['coverage']}")
            for name in ("mean_ci_width", "true_rho"):
                if not _close(row[name], ref[name]):
                    problems.append(f"{key}.{name}: {row[name]!r} != {ref[name]!r}")
        elif key.endswith("names"):
            if got[key] != ref:
                problems.append(f"{key}: {got[key]} != {ref}")
        elif not _close(got[key], ref):
            problems.append(f"{key}: differs beyond {RTOL} relative")
    return problems


def mismatches(kind, text, reference):
    """Differences between a report and the reference report; empty when it passes."""
    if text == reference:
        return []
    fields = _coverage_fields if kind == "csv" else _fit_fields
    try:
        return _compare(kind, fields(text), fields(reference))
    except (ValueError, KeyError, TypeError) as err:
        return [f"unreadable report: {err!r}"]


def oracle_mismatch(rankreg, bruteforce, data, spec, omega):
    """Largest |fast - pairwise| influence entry over the largest entry, on small data.

    ``data`` holds y, x, w (with the constant first), w_names and g (or None).
    """
    d = rankreg.Dataset(y=data["y"], x=data["x"], w=data["w"], g=data["g"],
                        w_names=data["w_names"])
    fit = rankreg.fit_spec(d, spec, omega)
    fast = rankreg.influence_rows(fit, d).psi
    slow = bruteforce.influence_rows_pairwise(fit, d).psi
    return float(np.max(np.abs(fast - slow)) / max(np.max(np.abs(slow)), 1e-300))
