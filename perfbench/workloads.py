"""Workload definitions: seeded input generators and the CLI argv they drive.

Generators use numpy only, never ``rankreg``, so the parent commit and a
change are measured on byte-identical inputs (the run prints a sha256 of each
input to prove it).  Each workload records why it was chosen next to its
definition; the sizes are tuned so one workload's ten-seed set fits the time
the benchmark is given on a 2-core machine.
"""

import hashlib
import itertools
import os
from dataclasses import dataclass

import numpy as np


def _parent_child(rng, n):
    """Parent and child incomes with a rank correlation of roughly 0.35."""
    z_parent = rng.standard_normal(n)
    z_child = 0.35 * z_parent + np.sqrt(1.0 - 0.35**2) * rng.standard_normal(n)
    parent = np.round(np.exp(np.log(50_000.0) + 0.7 * z_parent) / 100.0) * 100.0
    child = np.round(np.exp(np.log(45_000.0) + 0.8 * z_child) / 100.0) * 100.0
    child[rng.random(n) < 0.04] = 0.0
    return child, parent


def _write_csv(path, header, columns, formats):
    """Write equal-length columns with fixed per-column printf formats."""
    rows = zip(*columns)
    fmt = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in rows)


def make_national(rng, path, n):
    child, parent = _parent_child(rng, n)
    age = rng.integers(25, 61, n).astype(np.float64)
    female = (rng.random(n) < 0.5).astype(np.float64)
    hours = np.round(rng.normal(38.0, 9.0, n), 1)
    _write_csv(
        path, ["y", "x", "age", "female", "hours"],
        [child, parent, age, female, hours],
        ["%.0f", "%.0f", "%.0f", "%.0f", "%.1f"],
    )


def make_groups(rng, path, n, n_groups):
    child, parent = _parent_child(rng, n)
    # unequal state sizes; every state keeps at least 2% of its fair share
    weights = rng.dirichlet(np.full(n_groups, 4.0)) + 0.02 / n_groups
    state = rng.choice(n_groups, size=n, p=weights / weights.sum())
    labels = np.array([f"S{k:02d}" for k in range(n_groups)])[state]
    educ = np.round(rng.normal(13.0, 2.5, n), 2)
    _write_csv(
        path, ["y", "x", "state", "educ"],
        [child, parent, labels, educ],
        ["%.0f", "%.0f", "%s", "%.2f"],
    )


def make_bootstrap(rng, path, n):
    child, parent = _parent_child(rng, n)
    w1 = rng.normal(0.0, 1.0, n)
    _write_csv(path, ["y", "x", "w1"], [child, parent, w1], ["%.0f", "%.0f", "%.6f"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make: object  # make(rng, path) writes the input CSV, or None
    argv: tuple  # CLI arguments; "{csv}", "{out}" and "{seed}" are filled per run
    report: str  # "json" or "csv"
    spec: str  # specification of the fit, for the oracle cross-check
    omega: float
    w_cols: tuple = ()  # covariate columns, after the constant
    group_col: str | None = None


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="fit-national",
            why="headline user job: one large heavily tied CSV with three covariates; "
                "CSV ingest and the plugin kernel sums dominate",
            make=lambda rng, path: make_national(rng, path, 60_000),
            argv=("fit", "{csv}", "--spec", "rank-rank", "--omega", "0.5",
                  "--w-cols", "age,female,hours", "--se", "plugin,hom,ew",
                  "--theta-p", "0.25", "--out", "{out}"),
            report="json", spec="rank-rank", omega=0.5,
            w_cols=("age", "female", "hours"),
        ),
        Workload(
            name="fit-groups",
            why="pooled-rank per-state slopes: hundreds of kernel calls that each "
                "re-sort all n; the target of a batched kernel and its memory",
            make=lambda rng, path: make_groups(rng, path, 4_500, 50),
            argv=("fit", "{csv}", "--spec", "rank-rank-group", "--group-col", "state",
                  "--w-cols", "educ", "--omega", "1", "--out", "{out}"),
            report="json", spec="rank-rank-group", omega=1.0,
            w_cols=("educ",), group_col="state",
        ),
        Workload(
            name="boot-replicates",
            why="bootstrap loop of many small refits; rank counts and QR dominate "
                "and the plugin kernel sums are bypassed",
            make=lambda rng, path: make_bootstrap(rng, path, 2_000),
            argv=("fit", "{csv}", "--w-cols", "w1", "--omega", "1",
                  "--se", "plugin,bootstrap", "--bootstrap-reps", "299",
                  "--seed", "{seed}", "--out", "{out}"),
            report="json", spec="rank-rank", omega=1.0, w_cols=("w1",),
        ),
        Workload(
            name="coverage-lab",
            why="hundreds of small copula fits and no CSV: per-call overhead; shows "
                "a change that helps large n but costs small n",
            make=None,
            argv=("coverage", "--family", "reflection", "--param", "0.2",
                  "--n", "1000", "--reps", "250", "--seed", "{seed}", "--out", "{out}"),
            report="csv", spec="rank-rank", omega=1.0,
        ),
    )
}


def prepare_input(workload, seed, work_dir):
    """Write the workload's input for ``seed``; return (path or None, sha256)."""
    digest = hashlib.sha256(" ".join(workload.argv).encode())
    digest.update(str(seed).encode())
    if workload.make is None:
        return None, digest.hexdigest()
    path = os.path.join(work_dir, "input.csv")
    index = list(WORKLOADS).index(workload.name)
    workload.make(np.random.default_rng([seed, index]), path)
    with open(path, "rb") as fh:
        digest.update(fh.read())
    return path, digest.hexdigest()


def argv_for(workload, seed, csv_path, out_path):
    fill = {"csv": csv_path or "", "out": out_path, "seed": str(seed)}
    return [arg.format(**fill) for arg in workload.argv]


ORACLE_ROWS = 200
ORACLE_GROUPS = 4


def oracle_data(workload, seed, csv_path):
    """A ~200-row slice of the workload's input for the O(n^2) oracle.

    CSV workloads use the first rows of the file (for the grouped fit, the
    first rows of its first four states, so every group regression is
    identified); the copula workload draws one reflection sample of that
    size, as its first replicate would.
    """
    if csv_path is None:
        rng = np.random.default_rng([seed, len(WORKLOADS)])
        x = rng.uniform(0.0, 1.0, ORACLE_ROWS)
        y = np.where(x <= 0.2, 0.2 - x, x)
        return {"y": y, "x": x, "w": np.ones((ORACLE_ROWS, 1)), "w_names": ["const"],
                "g": None}
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh if workload.group_col else itertools.islice(fh, ORACLE_ROWS)
        rows = [line.rstrip("\n").split(",") for line in lines]
    col = {name: k for k, name in enumerate(header)}
    if workload.group_col:
        keep = sorted({row[col[workload.group_col]] for row in rows})[:ORACLE_GROUPS]
        rows = [row for row in rows if row[col[workload.group_col]] in keep][:ORACLE_ROWS]

    def numbers(name):
        return np.array([float(row[col[name]]) for row in rows])

    w = np.column_stack([np.ones(len(rows))] + [numbers(c) for c in workload.w_cols])
    g = None
    if workload.group_col:
        g = np.array([row[col[workload.group_col]] for row in rows])
    return {"y": numbers("y"), "x": numbers("x"), "w": w,
            "w_names": ["const", *workload.w_cols], "g": g}
