"""Command-line surface: CSV ingestion, fits, sweeps, and simulation commands.

Subcommands
-----------
fit        fit one specification to a CSV and report estimates with standard
           errors from any of: plugin (correct), hom, ew, bootstrap
sweep      refit over a grid of tie weights omega and report every row
coverage   Monte Carlo CI coverage experiment for a copula family (CSV out)
curve      correct/hom/ew variance curves over a copula parameter grid (CSV out)
calibrate  find the copula parameter matching a target rank correlation

fit/sweep/calibrate emit JSON (schema_version 1) that echoes every parsed
argument, so a run can be reproduced byte-for-byte; coverage and curve emit
CSV tables.  Exit codes: 0 success, 1 I/O or data errors, 2 assumption
violation (singular or degenerate design) or a usage error that argparse
refuses (an unknown flag, an invalid choice, a missing argument).
"""

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .bootstrap import BootstrapPlan, _check_count, bootstrap_report
from .copulas import (
    FAMILIES,
    CopulaModel,
    calibrate_parameter,
    coverage_experiment,
    variance_curve,
)
from .errors import (
    AssumptionViolationError,
    CalibrationError,
    DegenerateInputError,
    InvalidInputError,
    RankRegressionError,
    SingularDesignError,
)
from .estimators import GROUPED, RANKS_X, RANKS_Y, SPECS, Dataset, check_rank_position, fit_spec
from .inference import (
    check_alpha,
    ew_covariance,
    hom_covariance,
    linear_combo_inference,
    omega_sweep,
    plugin_covariance,
)
from .ranks import check_omega, spearman

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_IO = 1
EXIT_ASSUMPTION = 2

_MISSING_TOKENS = {"", "na", "nan", "n/a", "null", "none", "."}
# the name of the constant column that --no-intercept leaves out
_INTERCEPT = "const"
# the families a curve or a calibration sweeps: every one with a parameter
_PARAM_FAMILIES = [f for f in FAMILIES if f != "independence"]


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def _parse_number(token):
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def ingest_csv(path, y_col, x_col=None, w_cols=(), group_col=None,
               drop_missing=False):
    """Read a header CSV into columns, rejecting or dropping bad rows.

    Returns (columns dict, info dict).  The accepted grammar: UTF-8 text, with
    or without a byte-order mark, whose lines end in LF, CRLF or CR, split
    into fields by csv's default dialect (comma separated, '"' quotes).  The
    first record is the header; its names are stripped of surrounding
    whitespace, and a name that repeats means its last column.  Records that
    are empty or hold only whitespace and commas are skipped; every other
    record has exactly as many fields as the header.  Each required field,
    stripped, must be a number that ``float()`` reads as finite, and a group
    label, stripped, must not be a missing token (empty, na, nan, n/a, null,
    none or ".", in any case).  In strict mode (default) the first record
    that breaks these rules aborts with its 1-based line number; with
    ``drop_missing`` a record with a missing or non-numeric required field
    is dropped and counted instead.

    The file is read once, so a pipe or FIFO works.  A file of two or more
    columns with no quote character is parsed by numpy in one call when
    every record is clean; on any doubt the row-by-row reader reads the same
    bytes.  That reader is the only source of error messages and line
    numbers and the only one that drops records.  It refuses a file that is
    not UTF-8 before it reads any record, naming the line of the first byte
    that does not decode.
    """
    needed = [y_col] + ([x_col] if x_col else []) + list(w_cols)
    needed = list(dict.fromkeys(needed))  # duplicated names read once; the
    # design keeps every requested column, so duplicates still surface as a
    # singular design downstream
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        parsed = _read_arrays(raw, needed, group_col)
    except Exception:  # doubt of any kind: the row reader decides and explains
        parsed = None
    return parsed or _read_rows(path, raw, needed, group_col, drop_missing)


def _header_index(header):
    """Column of each stripped header name; a repeated name keeps its last column."""
    return {name.strip(): k for k, name in enumerate(header)}


def _read_arrays(raw, needed, group_col):
    """The accept path: the columns of a file the row reader takes whole, else None.

    With no quote character in the file a csv record is a line split on
    commas, so the row reader's rules apply to whole arrays: every line has
    the header's comma count, and one ``np.loadtxt`` call reads the numeric
    columns as float() does, stripping the same whitespace, and the group
    label as its field's text, stripped here.  Missing tokens, underscores
    and non-ASCII digits fail that parse; nan, inf and overflow parse to
    non-finite values, which are refused here.  Like csv, loadtxt also ends a
    line at a lone CR, so it must find one row per LF-ended line.
    """
    if b'"' in raw:
        return None
    data = np.frombuffer(raw, np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    if not raw.endswith(b"\n"):
        ends = np.append(ends, len(raw))
    header = next(csv.reader([raw[:ends[0] + 1].decode("utf-8-sig")]))
    index = _header_index(header)
    used = needed + ([group_col] if group_col else [])
    if any(name not in index for name in used):
        return None
    rows, width = ends.size - 1, len(header)
    commas = np.flatnonzero(data == ord(","))
    bounds = np.concatenate(([-1], ends))
    # with two or more fields a blank line has too few commas; one-field
    # files, where it has not, are left to the row reader
    if (rows < 1 or width < 2
            or np.any(np.diff(np.searchsorted(commas, bounds)) != width - 1)
            or np.diff(bounds).max() > csv.field_size_limit()):
        return None
    del commas, bounds  # not held while loadtxt runs
    # a handle, not a path: numpy would fetch a URL or decompress a .gz name;
    # the wrapper decodes the shared bytes in chunks
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig")
    # a float field per needed column, then the label's text (its column may be numeric too)
    dtype = np.dtype([("", np.float64)] * len(needed) + [("", object)] * bool(group_col))
    table = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, skiprows=1,
                       usecols=[index[name] for name in used], ndmin=1)
    fields = [table[name] for name in dtype.names]
    if table.size != rows or not all(np.isfinite(field).all() for field in fields[:len(needed)]):
        return None
    columns = {name: field.copy() for name, field in zip(needed, fields)}  # each contiguous
    if group_col:
        labels = [label.strip() for label in fields[-1].tolist()]
        if any(label.lower() in _MISSING_TOKENS for label in labels):
            return None
        columns[group_col] = np.array(labels)
    return columns, {"rows_used": rows, "rows_dropped": 0}


def _read_rows(path, raw, needed, group_col, drop_missing):
    """The row reader: one csv record of ``raw`` at a time, with the line of the first fault."""
    try:  # one decode of the whole file places its first byte that is not UTF-8
        raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise InvalidInputError(
            f"{path}: line {line}: byte 0x{raw[err.start]:02x} is not UTF-8 text; "
            "save the file as UTF-8") from None
    # utf-8-sig drops the byte-order mark that Excel and other tools write
    with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidInputError(f"{path}: empty file") from None
        index = _header_index(header)
        for name in needed + ([group_col] if group_col else []):
            if name not in index:
                raise InvalidInputError(
                    f"{path}: column {name!r} not found in header {sorted(index)}"
                )
        used = [index[name] for name in needed]
        records, groups, dropped = [], [], 0
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise InvalidInputError(
                    f"{path}: line {line_no}: expected {len(header)} fields, got {len(row)}"
                )
            # a missing token fails float() or parses to NaN
            numbers = [_parse_number(row[k].strip()) for k in used]
            label = row[index[group_col]].strip() if group_col else None
            if None in numbers:
                bad_field = needed[numbers.index(None)]
            elif group_col and label.lower() in _MISSING_TOKENS:
                bad_field = group_col
            else:
                records += numbers
                groups.append(label)
                continue
            if not drop_missing:
                raise InvalidInputError(
                    f"{path}: line {line_no}: missing or non-numeric value "
                    f"in column {bad_field!r}"
                )
            dropped += 1
    if not records:
        raise InvalidInputError(f"{path}: no usable data rows")
    # flat floats: numpy reads them fastest, and the GC tracks no list per record
    table = np.array(records).reshape(-1, len(needed))
    columns = dict(zip(needed, table.T.copy()))  # each column contiguous
    if group_col:
        columns[group_col] = np.array(groups)
    return columns, {"rows_used": len(table), "rows_dropped": dropped}


def load_dataset(args):
    """The ``Dataset`` that a fit or sweep names, and the ingest info of its CSV."""
    if (args.group_col is None) == (args.spec == GROUPED):
        raise InvalidInputError(f"--group-col goes with --spec {GROUPED}, which needs it")
    x_col = args.x_col if args.spec in RANKS_X else None
    columns, info = ingest_csv(args.csv, args.y_col, x_col, args.w_cols,
                               args.group_col, args.drop_missing)
    const = [np.ones(len(columns[args.y_col]))] if args.intercept else []
    w_parts = const + [columns[name] for name in args.w_cols]
    d = Dataset(
        y=columns[args.y_col],
        x=columns[x_col] if x_col else None,
        w=np.column_stack(w_parts) if w_parts else None,
        g=columns[args.group_col] if args.group_col else None,
        w_names=[_INTERCEPT] * len(const) + list(args.w_cols),
    )
    return d, info


# ---------------------------------------------------------------------------
# JSON helpers
# ---------------------------------------------------------------------------

_FLOAT_SPECIALS = {math.inf: "Infinity", -math.inf: "-Infinity"}


def _json_text(value, indent=""):
    """``json.dumps(value, indent=2, sort_keys=True)``, numpy arrays and scalars included.

    ``indent`` makes json use its pure-Python encoder, which spends most of
    a report on the float arrays (the 150 x 150 variance of a 50-group fit).
    Here a finite float64 array is written as ``repr`` joins spliced into
    the document, with json's bytes: floats as ``float.__repr__`` or NaN,
    Infinity and -Infinity, numpy arrays and scalars as their ``tolist()``.
    A square one whose bits equal its transpose's (every reported variance)
    is written from its upper triangle, one ``repr`` per pair of entries:
    see :func:`_symmetric_text`.  Dict keys must be strings.
    """
    inner = indent + "  "
    if (isinstance(value, np.ndarray) and value.ndim in (1, 2) and value.size
            and value.dtype == np.float64 and np.isfinite(value).all()):
        if value.ndim == 1:
            return _float_list(map(repr, value.tolist()), indent)
        bits = value.view(np.uint64)  # -0.0 == 0.0, but their reprs differ
        if value.shape[0] == value.shape[1] and (bits == bits.T).all():
            return _symmetric_text(value, indent)
    if isinstance(value, np.ndarray) and value.ndim > 1:
        value = list(value)
    elif isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("report keys must be strings")
        items = [f"{inner}{json.dumps(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [inner + _json_text(item, inner) for item in value]
        brackets = "[]"
    elif isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else _FLOAT_SPECIALS.get(value, "NaN")
    else:
        return json.dumps(value)
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


def _float_list(texts, indent):
    """json's indented list of the float ``texts``, its closing bracket at ``indent``."""
    inner = indent + "  "
    return f"[\n{inner}" + f",\n{inner}".join(texts) + f"\n{indent}]"


def _symmetric_text(value, indent):
    """``_json_text`` of a bitwise symmetric square float64 array, one ``repr`` per pair.

    Row k's texts left of the diagonal are those of column k in the rows
    above; each row keeps its texts right of the diagonal in a list, last
    column first, and every later row pops one text off each of those
    lists, so a text is dropped once both of its rows are written.
    """
    inner = indent + "  "
    above, rows = [], []
    for k in range(len(value)):
        own = list(map(repr, value[k, k:].tolist()))
        rows.append(inner + _float_list([*map(list.pop, above), *own], inner))
        above.append(own[:0:-1])
    return "[\n" + ",\n".join(rows) + f"\n{indent}]"


def _report_block(report):
    return {
        "method": report.method,
        "names": list(report.names),
        "estimates": report.estimates,
        "asymptotic_variance": report.variance,
        "se": report.se,
        "ci": report.ci,
        "alpha": report.alpha,
        "n": report.n,
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload):
    """Write a JSON report in its envelope: schema version, command and every parsed argument."""
    config = {key: value for key, value in vars(args).items() if key != "func"}
    envelope = {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config}
    _emit(_json_text({**payload, **envelope}) + "\n", args.out)


def _emit_csv(rows, out_path):
    """Write table rows as CSV, schema_version first; the header is the first row's keys."""
    rows = [{"schema_version": SCHEMA_VERSION, **row} for row in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    _emit(buf.getvalue(), out_path)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _tie_warnings(fit, args, omega_given):
    """Warnings about ties among the variables that the fit ranks."""
    warnings = []
    has_ties = any(runs is not None and runs.tied > 0 for runs in (fit.runs_x, fit.runs_y))
    if has_ties and ({"hom", "ew"} & set(args.se)):
        warnings.append(
            "data contain ties and hom/ew standard errors were requested; these "
            "formulas ignore rank-estimation noise and are inconsistent here"
        )
    if has_ties and not omega_given:
        warnings.append(
            "data contain ties and omega was not specified: the estimand depends "
            "on how ties are ranked; consider --omega or the sweep command"
        )
    return warnings


def _diagnostics(d, fit, info):
    diag = {
        "n": d.n,
        "rows_dropped": info.get("rows_dropped", 0),
        "tie_count_x": d.runs_x.tied if d.x is not None else 0,
        "tie_count_y": d.runs_y.tied,
        "design_condition_number": fit.condition_number,
    }
    if fit.grouped:
        diag["group_sizes"] = {str(name): hi - lo
                               for name, (lo, hi) in zip(d.group_names, fit.bounds)}
    return diag


def _theta_p_block(fit, plugin_report, p_value, alpha):
    """Delta-method expected outcome rank at regressor rank p: intercept + slope*p."""
    labels = [str(label) for label in fit.data.group_names] if fit.grouped else [""]
    blocks = []
    for g, label in enumerate(labels):
        weights = np.zeros(len(plugin_report.names))
        # estimates run coefficient-major, then block: k of block g of G is at k * G + g
        weights[g] = p_value
        weights[fit.names.index(_INTERCEPT) * len(labels) + g] = 1.0
        rep = linear_combo_inference(
            plugin_report.variance, weights, plugin_report.estimates,
            plugin_report.n, alpha=alpha,
        )
        blocks.append({
            "group": label,
            "p": p_value,
            "estimate": float(rep.estimates[0]),
            "se": float(rep.se[0]),
            "ci": rep.ci[0],
        })
    return blocks


def cmd_fit(args):
    # built per call: a traced run swaps these module attributes in place
    variances = {"plugin": plugin_covariance, "hom": hom_covariance, "ew": ew_covariance,
                 "bootstrap": lambda fit, alpha: bootstrap_report(fit, plan)}
    methods = list(dict.fromkeys(args.se))  # a repeated method runs once
    if not methods:
        raise InvalidInputError("fit needs at least one se method")
    for method in methods:
        if method not in variances:
            raise InvalidInputError(f"unknown se method {method!r}")
    if args.theta_p is not None:
        if args.spec not in RANKS_X & RANKS_Y:
            raise InvalidInputError("--theta-p applies to rank-rank specifications")
        check_rank_position(args.theta_p)
        if not args.intercept:  # a covariate named const need not be constant
            raise InvalidInputError("--theta-p needs an intercept column (drop --no-intercept)")
    omega_given = args.omega is not None
    if not omega_given:  # the default; the config echoes 1.0
        args.omega = 1.0
    check_omega(args.omega)
    check_alpha(args.alpha)
    if "bootstrap" in methods:  # the plan that the bootstrap method runs
        plan = BootstrapPlan(reps=args.bootstrap_reps, seed=args.seed, ci_kind=args.ci_kind,
                             alpha=args.alpha)
        _check_count(plan.reps, plan.ci_kind)
    d, info = load_dataset(args)
    fit = fit_spec(d, args.spec, args.omega)
    warnings = _tie_warnings(fit, args, omega_given)
    for message in warnings:
        print(f"warning: {message}", file=sys.stderr)
    reports = {m: variances[m](fit, alpha=args.alpha) for m in methods}
    payload = {
        "spec": args.spec,
        "omega": args.omega,
        "alpha": args.alpha,
        "n": d.n,
        "coefficients": {
            "names": fit.coef_names,
            "estimates": fit.estimates,
        },
        "first_stage": fit.gamma,
        "se_methods": {method: _report_block(report) for method, report in reports.items()},
        "diagnostics": _diagnostics(d, fit, info),
        "warnings": warnings,
    }
    if fit.grouped:
        payload["groups"] = [str(name) for name in d.group_names]
    if args.theta_p is not None:
        plugin_report = reports.get("plugin") or plugin_covariance(fit, alpha=args.alpha)
        payload["theta_p"] = _theta_p_block(fit, plugin_report, args.theta_p, args.alpha)
    _emit_json(args, payload)
    return EXIT_OK


def cmd_sweep(args):
    for omega in args.grid:  # an empty grid is the sweep's to refuse
        check_omega(omega)
    check_alpha(args.alpha)
    d, _ = load_dataset(args)
    result = omega_sweep(d, args.spec, args.grid, alpha=args.alpha)
    _emit_json(args, {
        "spec": args.spec,
        "alpha": args.alpha,
        "n": d.n,
        "names": result.names,
        "rows": [
            {
                "omega": row.omega,
                "estimates": row.estimates,
                "se": row.se,
                "ci": row.ci,
            }
            for row in result.rows
        ],
        "grid_average": result.average,
    })
    return EXIT_OK


def cmd_coverage(args):
    model = CopulaModel(args.family, args.param)
    plan = None
    if "bootstrap" in args.methods:
        plan = BootstrapPlan(reps=args.bootstrap_reps, alpha=args.alpha)
    rows = coverage_experiment(
        model, args.n, args.reps, methods=args.methods, alpha=args.alpha,
        omega=args.omega, seed=args.seed, bootstrap_plan=plan,
    )
    _emit_csv([
        {
            "family": args.family,
            "param": "" if model.param is None else repr(model.param),
            "true_rho": repr(row.true_value),
            "n": row.n,
            "reps": row.reps,
            "alpha": row.alpha,
            "omega": args.omega,
            "seed": args.seed,
            "method": row.method,
            "coverage": repr(row.coverage),
            "mean_ci_width": repr(row.mean_ci_width),
            "coverage_mc_se": repr(row.mc_se),
        }
        for row in rows
    ], args.out)
    return EXIT_OK


def _curve_grid(args):
    """--grid, else --grid-points even steps from --grid-start to --grid-stop (0 to 1).

    Reflection's parameter lies in the open (0, 1), so a default end of its
    range is left out of the grid.
    """
    if args.grid is not None:  # an empty grid is the curve's to refuse
        return args.grid
    if args.grid_points < 1:
        raise InvalidInputError(f"--grid-points must be at least 1, got {args.grid_points}")
    cut = [args.family == "reflection" and end is None for end in (args.grid_start, args.grid_stop)]
    start = 0.0 if args.grid_start is None else args.grid_start
    stop = 1.0 if args.grid_stop is None else args.grid_stop
    grid = np.linspace(start, stop, args.grid_points + sum(cut))
    return grid[cut[0]:grid.size - cut[1]].tolist()


def cmd_curve(args):
    rows = variance_curve(args.family, _curve_grid(args), n_mc=args.n_mc, seed=args.seed)
    _emit_csv([
        {
            "family": args.family,
            "param": repr(param),
            "rho": repr(triple.rho),
            "sigma2": repr(triple.sigma2),
            "sigma2_hom": repr(triple.sigma2_hom),
            "sigma2_ew": repr(triple.sigma2_ew),
            "n_mc": args.n_mc,
            "seed": args.seed,
        }
        for param, triple in rows
    ], args.out)
    return EXIT_OK


def cmd_calibrate(args):
    param = calibrate_parameter(
        args.family, args.target, tolerance=args.tol, seed=args.seed, n_mc=args.n_mc,
    )
    check = CopulaModel(args.family, param)
    x, y = check.sample(args.n_mc, args.seed)
    _emit_json(args, {
        "family": args.family,
        "target_rank_corr": args.target,
        "parameter": param,
        "achieved_rank_corr": spearman(x, y, 0.5),
        "tolerance": args.tol,
        "n_mc": args.n_mc,
        "seed": args.seed,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _comma_list(text):
    return [tok for tok in (t.strip() for t in text.split(",")) if tok]


def _comma_floats(text):
    return [float(tok) for tok in _comma_list(text)]


def _add_data_flags(sub):
    sub.add_argument("csv", help="input CSV file with a header row")
    sub.add_argument("--spec", default="rank-rank", choices=SPECS)
    sub.add_argument("--alpha", type=float, default=0.05)
    sub.add_argument("--y-col", dest="y_col", default="y")
    sub.add_argument("--x-col", dest="x_col", default="x")
    sub.add_argument("--w-cols", dest="w_cols", type=_comma_list, default=[],
                     help="comma-separated covariate column names")
    sub.add_argument("--group-col", dest="group_col", default=None)
    sub.add_argument("--drop-missing", dest="drop_missing", action="store_true",
                     help="drop rows with missing/non-numeric fields instead of erroring")
    sub.add_argument("--no-intercept", dest="intercept", action="store_false",
                     help="do not prepend a constant column to the covariates")
    sub.add_argument("--out", default=None, help="output path (default: stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rankreg",
        description="Rank regressions with asymptotically valid standard errors.",
    )
    parser.add_argument("--version", action="version", version=f"rankreg {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="fit one specification to a CSV")
    _add_data_flags(fit)
    fit.add_argument("--omega", type=float, default=None,
                     help="tie weight in [0,1]; 1=largest rank (default), "
                          "0=smallest, 0.5=mid-rank")
    fit.add_argument("--se", type=_comma_list, default=["plugin"],
                     help="comma list from plugin,hom,ew,bootstrap")
    fit.add_argument("--bootstrap-reps", dest="bootstrap_reps", type=int, default=999)
    fit.add_argument("--ci-kind", dest="ci_kind", default="percentile",
                     choices=["percentile", "normal"])
    fit.add_argument("--theta-p", dest="theta_p", type=float, default=None,
                     help="also report the expected outcome rank at this regressor rank")
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(func=cmd_fit)

    sweep = subs.add_parser("sweep", help="refit over a grid of tie weights")
    _add_data_flags(sweep)
    sweep.add_argument("--grid", type=_comma_floats, default=[0.0, 0.25, 0.5, 0.75, 1.0],
                       help="comma-separated omega values")
    sweep.set_defaults(func=cmd_sweep)

    coverage = subs.add_parser("coverage", help="CI coverage experiment for a copula")
    coverage.add_argument("--family", required=True, choices=FAMILIES)
    coverage.add_argument("--param", type=float, default=None)
    coverage.add_argument("--n", type=int, required=True)
    coverage.add_argument("--reps", type=int, required=True)
    coverage.add_argument("--methods", type=_comma_list, default=["plugin", "hom", "ew"])
    coverage.add_argument("--alpha", type=float, default=0.05)
    coverage.add_argument("--omega", type=float, default=1.0)
    coverage.add_argument("--bootstrap-reps", dest="bootstrap_reps", type=int, default=299)
    coverage.add_argument("--seed", type=int, default=0)
    coverage.add_argument("--out", default=None)
    coverage.set_defaults(func=cmd_coverage)

    curve = subs.add_parser("curve", help="variance curves over a parameter grid")
    curve.add_argument("--family", required=True, choices=_PARAM_FAMILIES)
    curve.add_argument("--grid", type=_comma_floats, default=None,
                       help="explicit comma-separated parameter grid")
    curve.add_argument("--grid-start", dest="grid_start", type=float, default=None)
    curve.add_argument("--grid-stop", dest="grid_stop", type=float, default=None)
    curve.add_argument("--grid-points", dest="grid_points", type=int, default=41)
    curve.add_argument("--n-mc", dest="n_mc", type=int, default=200_000)
    curve.add_argument("--seed", type=int, default=0)
    curve.add_argument("--out", default=None)
    curve.set_defaults(func=cmd_curve)

    calibrate = subs.add_parser("calibrate", help="match a target rank correlation")
    calibrate.add_argument("--family", required=True, choices=_PARAM_FAMILIES)
    calibrate.add_argument("--target", type=float, required=True)
    calibrate.add_argument("--tol", type=float, default=0.005)
    calibrate.add_argument("--n-mc", dest="n_mc", type=int, default=200_000)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--out", default=None)
    calibrate.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SingularDesignError, AssumptionViolationError, DegenerateInputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except (RankRegressionError, OSError, csv.Error) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
