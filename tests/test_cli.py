"""Command-line interface: ingestion, reports, exit codes, determinism."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import rankreg
from rankreg import bootstrap, cli, copulas, estimators, kernels
from rankreg.cli import EXIT_ASSUMPTION, EXIT_IO, EXIT_OK, ingest_csv, main
from rankreg.errors import InvalidInputError


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    return _write_csv(tmp_path / "small.csv", ["y", "x"], [[1, 3], [2, 1], [3, 2]])


@pytest.fixture
def sample_csv(tmp_path, rng):
    n = 120
    x = rng.normal(size=n)
    z = rng.normal(size=n)
    y = 0.5 * x + 0.3 * z + rng.normal(size=n)
    g = np.where(rng.random(n) < 0.5, "BY", "SN")
    rows = [[y[i], x[i], z[i], g[i]] for i in range(n)]
    return _write_csv(tmp_path / "sample.csv", ["y", "x", "z", "region"], rows)


@pytest.fixture
def tied_csv(tmp_path, rng):
    n = 60
    x = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
    y = x + rng.choice([0.0, 1.0, 2.0], size=n)
    rows = [[y[i], x[i]] for i in range(n)]
    return _write_csv(tmp_path / "tied.csv", ["y", "x"], rows)


def test_cli_import_loads_no_scipy():
    # scipy.linalg alone cost about 0.3 s of every CLI start
    src = os.path.dirname(os.path.dirname(os.path.abspath(rankreg.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys, rankreg.cli; "
             "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestIngest:
    def test_small_file(self, small_csv):
        columns, info = ingest_csv(small_csv, "y", "x")
        assert info["rows_used"] == 3
        assert columns["y"].tolist() == [1.0, 2.0, 3.0]

    def test_strict_mode_cites_line(self, tmp_path):
        path = _write_csv(tmp_path / "bad.csv", ["y", "x"],
                          [[1, 2], ["NA", 3], [4, 5]])
        with pytest.raises(InvalidInputError, match="line 3"):
            ingest_csv(path, "y", "x")

    def test_drop_missing_counts(self, tmp_path):
        path = _write_csv(tmp_path / "bad.csv", ["y", "x"],
                          [[1, 2], ["NA", 3], [4, 5]])
        columns, info = ingest_csv(path, "y", "x", drop_missing=True)
        assert info == {"rows_used": 2, "rows_dropped": 1}

    def test_missing_column(self, small_csv):
        with pytest.raises(InvalidInputError, match="'w1'"):
            ingest_csv(small_csv, "y", "x", w_cols=["w1"])

    def test_inconsistent_field_count(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("y,x\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(InvalidInputError, match="expected 2 fields"):
            ingest_csv(str(path), "y", "x")

    def test_utf8_bom_gives_same_report(self, sample_csv, tmp_path):
        # spreadsheet exports start with a byte-order mark; the report must
        # not change, so both runs read the same path
        path = tmp_path / "input.csv"
        out = tmp_path / "report.json"
        text = open(sample_csv, encoding="utf-8").read()
        argv = ["fit", str(path), "--w-cols", "z", "--out", str(out)]
        path.write_text(text, encoding="utf-8")
        assert main(argv) == EXIT_OK
        plain = out.read_bytes()
        path.write_text(text, encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbf")
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == plain

    def test_non_numeric_tokens(self, tmp_path, capsys):
        # not missing tokens, yet not numbers: float() refuses them
        rows = [[i + 0.5, (7 * i) % 11] for i in range(20)]
        rows[4][1], rows[9][0] = "12a", "$5"
        path = _write_csv(tmp_path / "dirty.csv", ["y", "x"], rows)
        out = tmp_path / "report.json"
        assert main(["fit", path, "--out", str(out)]) == EXIT_IO
        assert "line 6: missing or non-numeric value in column 'x'" in capsys.readouterr().err
        assert not out.exists()
        assert main(["fit", path, "--drop-missing", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["diagnostics"]["rows_dropped"] == 2
        assert payload["n"] == 18

    def test_group_labels_pass_through(self, sample_csv):
        columns, _ = ingest_csv(sample_csv, "y", "x", group_col="region")
        assert set(columns["region"]) == {"BY", "SN"}


def _national_text(rng, n, newline="\n"):
    """A perfbench-shaped file: incomes rounded to $100, small integer and
    one-decimal covariates, and a state label."""
    child = np.round(rng.lognormal(10.5, 0.8, n), -2) * (rng.random(n) > 0.04)
    parent = np.round(rng.lognormal(10.8, 0.7, n), -2)
    age = rng.integers(25, 60, n)
    female = rng.integers(0, 2, n)
    hours = np.round(rng.normal(40, 8, n), 1)
    state = rng.integers(1, 9, n)
    lines = ["y,x,age,female,hours,state"] + [
        f"{child[i]:.0f},{parent[i]:.0f},{age[i]},{female[i]},{hours[i]:.1f},S{state[i]:02d}"
        for i in range(n)
    ]
    return newline.join(lines) + newline


class TestAcceptPath:
    """Clean files never reach the row reader, and give its exact columns."""

    @pytest.fixture
    def row_reader_calls(self, monkeypatch):
        calls = []
        original = cli._read_rows

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "_read_rows", spy)
        return calls

    @pytest.mark.parametrize("drop_missing", [False, True])
    @pytest.mark.parametrize("kind", [
        "numeric", "grouped", "bom", "crlf", "grouped-bom", "grouped-crlf", "label-middle",
        "label-padded", "label-numeric"])
    def test_clean_file_skips_row_reader(self, tmp_path, rng, row_reader_calls,
                                         kind, drop_missing):
        n = 300
        path = tmp_path / "clean.csv"
        text = _national_text(rng, n, "\r\n" if kind.endswith("crlf") else "\n")
        group = None if kind in ("numeric", "bom", "crlf") else "state"
        w_cols = ["age", "female", "hours"]
        if kind == "label-middle":  # state moves between x and age
            text = re.sub(r"^([^,\n]*,[^,\n]*),(.*),([^,\n]*)$", r"\1,\3,\2", text, flags=re.M)
            assert text.startswith("y,x,state,age,")
        elif kind == "label-padded":  # ASCII and non-ASCII padding around non-ASCII names
            text = re.sub(r",S(\d+)$", ", \u00cele-\\1\xa0", text, flags=re.M)
            assert ", \u00cele-0" in text
        elif kind == "label-numeric":  # the labels are a covariate's numbers
            group = "female"
        path.write_bytes(text.encode("utf-8-sig" if kind.endswith("bom") else "utf-8"))
        columns, info = ingest_csv(str(path), "y", "x", w_cols, group, drop_missing)
        assert row_reader_calls == []
        assert info == {"rows_used": n, "rows_dropped": 0}
        want, _ = cli._read_rows(str(path), path.read_bytes(), ["y", "x", *w_cols], group,
                                 drop_missing)
        assert list(columns) == list(want)
        for name, column in want.items():
            assert columns[name].dtype == column.dtype
            assert columns[name].tobytes() == column.tobytes()

    @pytest.mark.parametrize("pattern, quoted", [
        (r",(S\d+)$", r',"\1"'),  # the labels: csv unquotes "S01" to S01
        (r"([^,\n]+)", r'"\1"'),  # every field, the header too
    ], ids=["labels", "all"])
    def test_quoted_fields_go_through_row_reader(self, tmp_path, rng, row_reader_calls,
                                                 pattern, quoted):
        text = _national_text(rng, 50)
        plain = tmp_path / "plain.csv"
        plain.write_text(text, encoding="utf-8")
        path = tmp_path / "quoted.csv"
        path.write_text(re.sub(pattern, quoted, text, flags=re.M), encoding="utf-8")
        args = ("y", "x", ["age", "hours"], "state")
        want, _ = ingest_csv(str(plain), *args)
        assert row_reader_calls == []
        got, _ = ingest_csv(str(path), *args)
        assert len(row_reader_calls) == 1
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("quoted", [False, True], ids=["accept", "row-reader"])
    def test_pipe_is_read_once(self, tmp_path, rng, quoted):
        # `rankreg fit <(zcat f.gz)`: a pipe yields its bytes to one read only
        text = _national_text(rng, 200)
        if quoted:
            text = re.sub(r",(S\d+)$", r',"\1"', text, flags=re.M)
        path = tmp_path / "plain.csv"
        path.write_text(text, encoding="utf-8")
        args = ("y", "x", ["age", "hours"], "state")
        want, want_info = ingest_csv(str(path), *args)
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, text.encode())  # 200 lines fit the pipe's buffer
            os.close(write_end)
            got, info = ingest_csv(f"/dev/fd/{read_end}", *args)
        finally:
            os.close(read_end)
        assert info == want_info
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)

    def test_only_empty_lines_warn_nothing(self, tmp_path):
        # loadtxt warns when empty lines leave it no data; the row reader's
        # error is the only report
        path = tmp_path / "empty.csv"
        path.write_text("y\n\n\n", encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvalidInputError, match="no usable data rows"):
                ingest_csv(str(path), "y")
        assert caught == []

    def test_lone_cr_ends_a_record(self, tmp_path):
        # csv ends a record at a lone CR; so does loadtxt, which then finds
        # more rows than there are LF-ended lines
        path = tmp_path / "cr.csv"
        path.write_bytes(b"y,x,z\n1,2,3\n4\r5,6,7\n")
        with pytest.raises(InvalidInputError, match="line 3: expected 3 fields, got 1"):
            ingest_csv(str(path), "y")

    def test_field_size_limit_is_the_row_readers(self, tmp_path):
        # csv refuses a field longer than its limit, even in an unused column
        path = tmp_path / "long.csv"
        path.write_text("y,x,note\n1,2,abcdefghijkl\n3,4,ok\n", encoding="utf-8")
        limit = csv.field_size_limit(8)
        try:
            with pytest.raises(csv.Error, match="field larger than field limit"):
                ingest_csv(str(path), "y", "x")
        finally:
            csv.field_size_limit(limit)


# tokens the accept path must parse exactly as float() after strip(), and
# tokens that must send the file to the row reader (or be refused by both)
_CLEAN_TOKENS = ["0", "1", "-2", "3.5", "1e3", "-0", ".5", "7.", "+8", "2.5e-3",
                 " 4 ", "\xa05\xa0", "\t6", "\x0c7", "\x1c9\x1f", "0.1000000000000000055511"]
_NONFINITE_TOKENS = ["nan", "NaN", "-inf", "Infinity", "1e500", "-1e500"]
_DIRTY_TOKENS = _NONFINITE_TOKENS + [
    "", " ", "NA", "na", "N/A", ".", "null", "None", "1_000", "\u0663", "\uff11", "abc",
    "1,5", '"1"', '"1,5"', '" 2 "', '""']
_CLEAN_LABELS = ["A", "b", " c ", "A ", "\xa0b", "S01", "\u0661"]
_DIRTY_LABELS = ["NA", "", " ", "none", ".", "Null", '"A"', '"x,y"']
_SHAPES = ["row", "short", "long", "blank", "commas", "spaces"]


def _draw_line(draw, names, shape, dirty_rate=0):
    """One data line of ``shape``; each cell is flawed with chance 1/dirty_rate."""
    if shape == "blank":
        return ""
    if shape == "commas":
        return "," * draw(st.integers(1, len(names)))
    if shape == "spaces":
        return draw(st.sampled_from([" ", "\t", " , ,"]))
    width = len(names) + {"row": 0, "short": -1, "long": 1}[shape]
    cells = []
    for name in (names + ["z"])[:width]:
        dirty = dirty_rate and draw(st.integers(1, dirty_rate)) == 1
        if name.strip() == "g":
            cells.append(draw(st.sampled_from(_DIRTY_LABELS if dirty else _CLEAN_LABELS)))
        else:
            cells.append(draw(st.sampled_from(_DIRTY_TOKENS if dirty else _CLEAN_TOKENS)))
    return ",".join(cells)


@st.composite
def _csv_files(draw):
    """CSV bytes over columns y, x, w, g and z, and the ingest arguments.

    The group labels are read from g or from one of the numeric columns used.

    A third of the files are clean, a third have exactly one flaw in a line,
    a used cell or any cell written in Latin-1 (the cases the accept path
    must detect) and a third have flaws anywhere.
    """
    if draw(st.integers(0, 5)) == 0:  # one field per line: a blank line has no commas
        names, x_col, w_cols, group_col = ["y"], None, [], None
    else:
        names = list(draw(st.permutations(["y", "x", "w", "g", "z"])))
        x_col = draw(st.sampled_from(["x", None]))
        w_cols = draw(st.sampled_from([[], ["w"], ["w", "z"], ["x"]]))
        # a label may be read from a column that is also parsed as a number
        group_col = draw(st.sampled_from([None, "g", "y", *([x_col] if x_col else []), *w_cols]))
    if draw(st.booleans()):  # a repeated or padded name; the last one wins
        names.insert(draw(st.integers(0, len(names))), draw(st.sampled_from(["x", " y", "w "])))
    mode = draw(st.sampled_from(["clean", "one flaw", "any"]))
    if mode == "any" and len(names) > 1 and draw(st.integers(0, 4)) == 0:
        names.remove(draw(st.sampled_from(names)))
    if mode == "any":
        lines = [_draw_line(draw, names, draw(st.sampled_from(_SHAPES)), dirty_rate=4)
                 for _ in range(draw(st.integers(0, 6)))]
    else:
        lines = [_draw_line(draw, names, "row") for _ in range(draw(st.integers(1, 6)))]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    if mode == "one flaw":
        flaw = draw(st.sampled_from(_SHAPES[1:] + ["token", "nonfinite", "label", "quote", "cr",
                                                   "latin1"]))
        row = draw(st.integers(0, len(lines) - 1))
        used = [k for k, name in enumerate(names)
                if name.strip() in {"y", x_col, group_col, *w_cols}]
        at = draw(st.sampled_from(used))
        if flaw == "label" and group_col:
            at = names.index(group_col)
        cells = lines[row].split(",")
        if flaw == "cr":  # a lone CR anywhere in one line
            cut = draw(st.integers(0, len(lines[row])))
            cells = (lines[row][:cut] + "\r" + lines[row][cut:]).split(",")
        elif flaw in _SHAPES:
            lines[row] = _draw_line(draw, names, flaw)
        elif flaw == "quote":  # a clean value, quoted
            cells[at] = f'"{cells[at]}"'
        elif flaw == "latin1":  # a used or unused cell ends in Latin-1's e-acute, byte 0xe9
            cells[draw(st.integers(0, len(cells) - 1))] += "\udce9"
        elif names[at].strip() == "g":
            cells[at] = draw(st.sampled_from(_DIRTY_LABELS))
        else:
            cells[at] = draw(st.sampled_from(
                _NONFINITE_TOKENS if flaw == "nonfinite" else _DIRTY_TOKENS))
        if flaw not in _SHAPES:
            lines[row] = ",".join(cells)
    elif mode == "any":
        newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join([",".join(names)] + lines) + (newline if draw(st.booleans()) else "")
    # surrogateescape writes the lone surrogate U+DCE9 as the byte 0xe9
    raw = text.encode("utf-8-sig" if draw(st.booleans()) else "utf-8", "surrogateescape")
    return raw, x_col, w_cols, group_col


def _outcome(read):
    try:
        columns, info = read()
    except Exception as err:  # the exception itself is the outcome compared
        return type(err), str(err)
    return [(name, col.dtype.str, col.tobytes()) for name, col in columns.items()], info


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_files(), st.booleans())
def test_ingest_matches_row_reader(tmp_path, problem, drop_missing):
    # differential oracle: whichever reader ingest_csv uses, the result is the
    # row reader's, down to the bytes of every column or the error message
    raw, x_col, w_cols, group_col = problem
    path = tmp_path / "case.csv"
    path.write_bytes(raw)
    needed = list(dict.fromkeys(["y"] + ([x_col] if x_col else []) + w_cols))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(lambda: ingest_csv(str(path), "y", x_col, w_cols, group_col,
                                          drop_missing))
    assert [str(w.message) for w in caught] == []  # a user sees no warning either
    want = _outcome(lambda: cli._read_rows(str(path), raw, needed, group_col, drop_missing))
    assert got == want


def _numpy_tolist(value):
    """json's ``default`` for numpy arrays and scalars: the oracle's conversion."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# a few values whose reprs are easy to confuse (-0.0 and 0.0, the smallest
# subnormal, exponent forms), drawn often enough to repeat within an array
_pooled_floats = st.sampled_from([0.0, -0.0, 5e-324, 1e-5, 1e16, 0.1, -2.5])


@st.composite
def _symmetric_arrays(draw, signed_zero_pair=False):
    """Square float64 arrays whose bits equal their transpose's, optionally but
    for one -0.0 facing a 0.0 across the diagonal; some as reversed views."""
    m = draw(st.integers(2 if signed_zero_pair else 1, 6))
    a = draw(hnp.arrays(np.float64, (m, m),
                        elements=_pooled_floats | st.floats(allow_nan=False, allow_infinity=False)))
    sym = np.where(np.triu(np.ones((m, m), dtype=bool)), a, a.T)
    if signed_zero_pair:
        i, j = draw(st.lists(st.integers(0, m - 1), min_size=2, max_size=2, unique=True))
        sym[i, j], sym[j, i] = -0.0, 0.0
    return sym[::-1, ::-1] if draw(st.booleans()) else sym


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_),
    hnp.arrays(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=5),
               elements=_pooled_floats),
    _symmetric_arrays(), _symmetric_arrays(signed_zero_pair=True),
)
_json_documents = st.recursive(
    _json_leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.tuples(inner, inner),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_json_documents)
def test_json_text_matches_json_dumps(document):
    # the report writer against json itself: nested containers, empty ones,
    # non-ASCII text, NaN and infinities, numpy scalars and 0-2-d arrays,
    # symmetric matrices and ones that are symmetric but for a signed zero
    want = json.dumps(document, indent=2, sort_keys=True, default=_numpy_tolist)
    assert cli._json_text(document) == want


class TestFitCommand:
    def test_three_se_blocks_and_theta_p(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "fit", sample_csv, "--spec", "rank-rank", "--omega", "1",
            "--se", "plugin,hom,ew", "--theta-p", "0.25", "--w-cols", "z",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert set(payload["se_methods"]) == {"plugin", "hom", "ew"}
        assert payload["coefficients"]["names"] == ["rank(x)", "const", "z"]
        assert payload["theta_p"][0]["p"] == 0.25
        theta = payload["theta_p"][0]
        est = payload["coefficients"]["estimates"]
        assert theta["estimate"] == pytest.approx(est[1] + 0.25 * est[0], abs=1e-12)
        diag = payload["diagnostics"]
        assert diag["n"] == 120
        assert "tie_count_x" in diag and "tie_count_y" in diag

    def test_grouped_fit_reports_groups(self, sample_csv, tmp_path):
        out = tmp_path / "grouped.json"
        code = main([
            "fit", sample_csv, "--spec", "rank-rank-group", "--group-col", "region",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["groups"] == ["BY", "SN"]
        assert payload["diagnostics"]["group_sizes"].keys() == {"BY", "SN"}
        assert "rank(x)@BY" in payload["coefficients"]["names"]

    @pytest.mark.parametrize("spec", ["rank-rank", "rank-rank-group"])
    def test_condition_number_is_the_designs(self, sample_csv, tmp_path, spec):
        out = tmp_path / "report.json"
        grouping = ["--group-col", "region"] if spec == "rank-rank-group" else []
        code = main(["fit", sample_csv, "--spec", spec, "--omega", "0.5", "--w-cols", "z",
                     *grouping, "--out", str(out)])
        assert code == EXIT_OK
        reported = json.loads(out.read_text())["diagnostics"]["design_condition_number"]
        x, z = np.loadtxt(sample_csv, delimiter=",", skiprows=1, usecols=(1, 2)).T
        # the grouped fit's pooled design is the same rows in group order
        want = np.linalg.cond(np.column_stack([rankreg.rank_transform(x, 0.5), np.ones(x.size), z]))
        assert reported == pytest.approx(want, rel=1e-12)

    def test_warns_on_ties_with_naive_se(self, tied_csv, tmp_path, capsys):
        out = tmp_path / "tied.json"
        code = main(["fit", tied_csv, "--se", "plugin,hom", "--out", str(out)])
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "ties" in err
        payload = json.loads(out.read_text())
        assert any("hom/ew" in w for w in payload["warnings"])
        assert any("omega was not specified" in w for w in payload["warnings"])

    def test_no_tie_warning_when_omega_given(self, tied_csv, tmp_path):
        out = tmp_path / "tied2.json"
        main(["fit", tied_csv, "--omega", "0.5", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert not any("omega was not specified" in w for w in payload["warnings"])

    def _warnings(self, tmp_path, x, y, *flags):
        path = _write_csv(tmp_path / "data.csv", ["y", "x"], np.column_stack([y, x]).tolist())
        out = tmp_path / "report.json"
        assert main(["fit", path, "--out", str(out), *flags]) == EXIT_OK
        return json.loads(out.read_text())["warnings"]

    def test_level_rank_warns_on_ties_in_x(self, tmp_path, rng):
        # the level-rank slope depends on omega when x is tied
        x = rng.choice([1.0, 2.0, 3.0, 4.0, 5.0], size=300)
        found = self._warnings(tmp_path, x, x + rng.normal(size=300), "--spec", "level-rank")
        assert any("omega was not specified" in w for w in found)

    def test_level_rank_ignores_ties_in_raw_y(self, tmp_path, rng):
        # level-rank does not rank y, so its ties concern neither warning
        x = rng.normal(size=300)
        y = np.round(x)
        assert self._warnings(tmp_path, x, y, "--spec", "level-rank", "--se", "plugin,hom") == []

    def test_rank_level_warns_on_ties_in_y(self, tmp_path, rng):
        x = rng.normal(size=300)
        found = self._warnings(tmp_path, x, np.round(x), "--spec", "rank-level", "--w-cols", "x")
        assert any("omega was not specified" in w for w in found)

    def test_missing_column_is_io_error(self, small_csv, capsys):
        assert main(["fit", small_csv, "--x-col", "nope"]) == EXIT_IO

    def test_missing_file_is_io_error(self, capsys):
        assert main(["fit", "/does/not/exist.csv"]) == EXIT_IO

    def test_se_methods_are_checked_before_the_csv_is_read(self, tmp_path, capsys):
        # the missing file used to be reported, after the input had been read
        assert main(["fit", str(tmp_path / "missing.csv"), "--se", "bogus"]) == EXIT_IO
        assert "unknown se method 'bogus'" in capsys.readouterr().err

    def test_empty_se_list_is_refused_before_the_csv_is_read(self, tmp_path, capsys):
        # an empty list used to exit 0 with an empty se_methods block
        assert main(["fit", str(tmp_path / "missing.csv"), "--se", ""]) == EXIT_IO
        assert "fit needs at least one se method" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_group_col_needs_the_grouped_spec(self, tmp_path, capsys, command):
        # state C has one row: its labels used to be loaded for a plain fit,
        # which then refused the file for the size of a group it does not have
        path = _write_csv(tmp_path / "states.csv", ["y", "x", "state"],
                          [[1, 3, "A"], [2, 1, "A"], [3, 2, "B"], [4, 4, "B"], [5, 6, "B"],
                           [6, 5, "C"]])
        out = tmp_path / "out.json"
        assert main([command, path, "--group-col", "state", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: --group-col goes with --spec rank-rank-group, which needs it\n")
        assert not out.exists()
        assert main([command, path, "--out", str(out)]) == EXIT_OK
        assert "groups" not in json.loads(out.read_text())

    def test_grouped_spec_without_group_col_is_refused_before_the_csv_is_read(
            self, tmp_path, capsys):
        path = str(tmp_path / "missing.csv")
        assert main(["fit", path, "--spec", "rank-rank-group"]) == EXIT_IO
        assert capsys.readouterr().err == (
            "error: --group-col goes with --spec rank-rank-group, which needs it\n")

    @pytest.mark.parametrize("flags, message", [
        (["--spec", "level-rank"], "--theta-p applies to rank-rank specifications"),
        (["--theta-p", "2"], "rank position p must lie in [0, 1], got 2.0"),
        (["--no-intercept"], "--theta-p needs an intercept column (drop --no-intercept)"),
        # a covariate named const need not be constant: one of N(0, 25) noise
        # used to give theta(p) = beta_const + p * slope, with exit 0
        (["--no-intercept", "--w-cols", "const"],
         "--theta-p needs an intercept column (drop --no-intercept)"),
    ], ids=["spec", "p", "intercept", "intercept-named-const"])
    def test_theta_p_is_checked_before_the_csv_is_read(self, tmp_path, capsys, flags,
                                                       message):
        argv = ["fit", str(tmp_path / "missing.csv"), "--theta-p", "0.5", *flags]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--alpha", "1.5"], "alpha must lie in the open interval (0, 1), got 1.5"),
        (["fit", "--omega", "2"], "omega must lie in [0, 1], got 2.0"),
        (["fit", "--se", "plugin,bootstrap", "--bootstrap-reps", "10"],
         "percentile interval needs at least 50 replicates"),
        (["fit", "--se", "bootstrap", "--bootstrap-reps", "0"],
         "bootstrap needs at least one replicate"),
        (["sweep", "--grid", "0,2"], "omega must lie in [0, 1], got 2.0"),
        (["sweep", "--alpha", "1.5"], "alpha must lie in the open interval (0, 1), got 1.5"),
    ], ids=["fit-alpha", "fit-omega", "fit-percentile-reps", "fit-no-reps", "sweep-grid",
            "sweep-alpha"])
    def test_argument_refusals_come_before_the_csv_is_read(self, tmp_path, capsys, argv,
                                                          message):
        # each used to wait for the whole file to be read and fitted
        command, *flags = argv
        assert main([command, str(tmp_path / "missing.csv"), *flags]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["fit", "{missing}", "--se", "plugin,bootstrap"],
        ["coverage", "--family", "reflection", "--param", "0.5", "--n", "50", "--reps", "2"],
        ["curve", "--family", "gaussian", "--grid", "0.5", "--n-mc", "10000"],
        ["calibrate", "--family", "gaussian", "--target", "0.3", "--n-mc", "2000"],
    ], ids=["fit", "coverage", "curve", "calibrate"])
    def test_negative_seed_is_refused(self, tmp_path, capsys, argv):
        # each used to end in a numpy ValueError traceback, fit's only after the
        # CSV had been read and fitted; fit now refuses before the read
        out = tmp_path / "out"
        argv = [arg.format(missing=tmp_path / "missing.csv") for arg in argv]
        assert main([*argv, "--seed", "-1", "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == "error: seed must be a nonnegative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["coverage", "--family", "gaussian", "--param", "0.5", "--n", "1", "--reps", "2"],
         "need n >= p + 2 observations (n=1, p=1)"),
        (["calibrate", "--family", "gaussian", "--target", "0.3", "--tol", "-1",
          "--n-mc", "2000"], "tolerance must be nonnegative, got -1.0"),
        (["calibrate", "--family", "gaussian", "--target", "0.3", "--tol", "inf",
          "--n-mc", "10000"], "tolerance must be finite, got inf"),
        (["calibrate", "--family", "gaussian", "--target", "0.3", "--tol", "2",
          "--n-mc", "10000"], "tolerance must be below 2, got 2.0"),
        (["calibrate", "--family", "gaussian", "--target", "0.3", "--tol", "5",
          "--n-mc", "10000"], "tolerance must be below 2, got 5.0"),
        (["curve", "--family", "gaussian", "--grid", "", "--n-mc", "10000"],
         "parameter grid is empty"),
        (["curve", "--family", "gaussian", "--grid", " , ", "--n-mc", "10000"],
         "parameter grid is empty"),
        (["curve", "--family", "reflection", "--grid", "0.1,0.5", "--n-mc", "10"],
         "n_mc must be at least 10000, got 10"),
    ], ids=["coverage-n", "calibrate-tol", "calibrate-tol-inf", "calibrate-tol-2",
            "calibrate-tol-5", "curve-empty-grid", "curve-blank-grid", "curve-n-mc"])
    def test_simulation_refusals_come_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                      argv, message):
        # coverage used to draw the 1M-value population truth first, a
        # negative, infinite or 2-or-more tolerance was accepted and echoed in
        # the report, and an empty curve grid ran the default grid
        def no_draw(model, n, seed):
            raise AssertionError("a copula sample was drawn")

        monkeypatch.setattr(copulas.CopulaModel, "sample", no_draw)
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fit", "{empty}"], "{empty}: empty file"),
        (["sweep", "{small}", "--grid", ""], "omega grid is empty"),
    ], ids=["empty-file", "sweep-empty-grid"])
    def test_refusals_after_the_read(self, tmp_path, small_csv, capsys, argv, message):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        paths = {"empty": str(empty), "small": small_csv}
        out = tmp_path / "report.json"
        argv = [arg.format(**paths) for arg in argv] + ["--out", str(out)]
        assert main(argv) == EXIT_IO
        assert capsys.readouterr().err == f"error: {message.format(**paths)}\n"
        assert not out.exists()

    def test_repeated_se_method_runs_once(self, sample_csv, tmp_path, monkeypatch):
        # a repeated method used to be computed once per mention
        calls = []
        original = cli.plugin_covariance

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "plugin_covariance", counting)
        out = tmp_path / "report.json"
        assert main(["fit", sample_csv, "--se", "plugin,hom,plugin",
                     "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        assert list(json.loads(out.read_text())["se_methods"]) == ["hom", "plugin"]

    def test_singular_design_is_assumption_error(self, sample_csv, capsys):
        code = main(["fit", sample_csv, "--w-cols", "z,z"])
        assert code == EXIT_ASSUMPTION

    def test_singular_group_named_by_plain_label(self, tmp_path, rng, capsys):
        # numpy string labels used to print as np.str_('bad')
        n = 40
        region = np.repeat(["ok", "bad"], n // 2)
        z = np.where(region == "bad", 1.0, rng.normal(size=n))
        rows = [[rng.normal(), rng.normal(), z[i], region[i]] for i in range(n)]
        path = _write_csv(tmp_path / "groups.csv", ["y", "x", "z", "region"], rows)
        code = main(["fit", path, "--spec", "rank-rank-group", "--group-col", "region",
                     "--w-cols", "z", "--out", str(tmp_path / "out.json")])
        assert code == EXIT_ASSUMPTION
        err = capsys.readouterr().err
        assert "group 'bad'" in err
        assert "np.str_" not in err

    @pytest.mark.parametrize("grouped", [False, True], ids=["unused-column", "group-label"])
    def test_latin1_file_is_io_error(self, tmp_path, capsys, grouped):
        # a spreadsheet export in Latin-1, where an accented letter is one
        # byte that UTF-8 cannot decode: in a column the fit never reads, or
        # in a group label
        name, place = ("Jose", "Córdoba") if grouped else ("José", "Cordoba")
        path = tmp_path / "latin1.csv"
        path.write_bytes(f"y,x,name,region\n1,3,Ana,Lima\n2,1,{name},{place}\n"
                         f"3,2,Eva,Lima\n4,4,Luis,{place}\n".encode("latin-1"))
        grouping = ["--spec", "rank-rank-group", "--group-col", "region"] if grouped else []
        assert main(["fit", str(path), *grouping, "--out", str(tmp_path / "out.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path}: line 3: byte 0x" in err and "is not UTF-8" in err

    @pytest.mark.parametrize("bad_line", [10, 2500])
    def test_encoding_error_comes_before_any_record(self, tmp_path, capsys, bad_line):
        # an NA on line 2 and a Latin-1 byte further down: the encoding is
        # checked before any record is read, however far into the file the
        # byte lies (line 2,500 is past the first 8 KB of decoded text)
        lines = [b"y,x,name"] + [b"%d,%d,Ana" % (k, k % 7) for k in range(2, 3001)]
        lines[1] = b"NA,1,Ana"
        lines[bad_line - 1] = b"5,3,Jos\xe9"
        path = tmp_path / "two-faults.csv"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert main(["fit", str(path), "--out", str(tmp_path / "out.json")]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == (f"error: {path}: line {bad_line}: byte 0xe9 is not UTF-8 text; "
                       "save the file as UTF-8\n")

    def test_strict_missing_value_is_io_error(self, tmp_path, capsys):
        path = _write_csv(tmp_path / "bad.csv", ["y", "x"], [[1, 2], ["NA", 3], [2, 2]])
        assert main(["fit", str(path)]) == EXIT_IO

    def test_bootstrap_block(self, small_csv, tmp_path, rng):
        n = 40
        x = rng.normal(size=n)
        y = x + rng.normal(size=n)
        path = _write_csv(tmp_path / "boot.csv", ["y", "x"],
                          [[y[i], x[i]] for i in range(n)])
        out = tmp_path / "boot.json"
        code = main([
            "fit", path, "--se", "bootstrap", "--bootstrap-reps", "60",
            "--seed", "3", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        block = payload["se_methods"]["bootstrap"]
        assert block["method"] == "bootstrap"
        assert len(block["ci"]) == 1

    def test_theta_p_without_plugin_se(self, sample_csv, tmp_path):
        # --theta-p needs the plugin covariance, which --se hom alone does not report
        blocks = []
        for se in ("hom", "plugin,hom"):
            out = tmp_path / f"{se}.json"
            assert main(["fit", sample_csv, "--se", se, "--theta-p", "0.5", "--w-cols", "z",
                         "--out", str(out)]) == EXIT_OK
            blocks.append(json.loads(out.read_text())["theta_p"])
        assert blocks[0] == blocks[1]


class TestEdgeExitCodes:
    """Boundary designs, through ``main``, with the exit codes the CLI documents."""

    def _fit(self, tmp_path, header, rows, *flags):
        path = _write_csv(tmp_path / "edge.csv", header, rows)
        return main(["fit", path, *flags, "--out", str(tmp_path / "out.json")])

    @pytest.mark.parametrize("omega", ["0", "0.5", "1"])
    def test_all_tied_x_is_singular(self, tmp_path, rng, capsys, omega):
        # rank(x) is a constant column; at omega = 1 it equals the intercept
        rows = [[rng.normal(), 3.0] for _ in range(30)]
        assert self._fit(tmp_path, ["y", "x"], rows, "--omega", omega) == EXIT_ASSUMPTION
        assert "design is numerically singular at rank(x)" in capsys.readouterr().err

    def test_all_tied_x_in_one_group_is_named(self, tmp_path, rng, capsys):
        rows = [[rng.normal(), 3.0 if g == "b" else rng.normal(), g]
                for g in ["a", "b"] * 15]
        assert self._fit(tmp_path, ["y", "x", "g"], rows, "--spec", "rank-rank-group",
                         "--group-col", "g", "--omega", "1") == EXIT_ASSUMPTION
        assert "group 'b': design is numerically singular at rank(x)" in capsys.readouterr().err

    def test_all_tied_y_fits(self, tmp_path, rng):
        rows = [[2.0, rng.normal()] for _ in range(30)]
        assert self._fit(tmp_path, ["y", "x"], rows) == EXIT_OK
        payload = json.loads((tmp_path / "out.json").read_text())
        assert abs(payload["coefficients"]["estimates"][0]) < 1e-12  # rank(y) is constant

    def test_n_equal_to_p_plus_2_fits(self, tmp_path, rng):
        # p = 2 covariates (const, z) and the ranked regressor, 4 rows
        rows = rng.normal(size=(4, 3)).tolist()
        assert self._fit(tmp_path, ["y", "x", "z"], rows, "--w-cols", "z") == EXIT_OK

    def test_n_equal_to_p_plus_1_is_refused(self, tmp_path, rng, capsys):
        rows = rng.normal(size=(3, 3)).tolist()
        assert self._fit(tmp_path, ["y", "x", "z"], rows, "--w-cols", "z") == EXIT_IO
        assert "need n >= p + 2 observations (n=3, p=2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "sweep", "coverage"])
    def test_alpha_outside_unit_interval_is_refused(self, sample_csv, tmp_path, capsys,
                                                    command):
        # alpha = 1.5 used to exit 0 with every interval inverted
        argv = {"fit": ["fit", sample_csv, "--se", "plugin,hom,ew"],
                "sweep": ["sweep", sample_csv, "--grid", "0.5,1"],
                "coverage": ["coverage", "--family", "reflection", "--param", "0.5",
                             "--n", "50", "--reps", "2"]}[command]
        out = tmp_path / "out"
        assert main([*argv, "--alpha", "1.5", "--out", str(out)]) == EXIT_IO
        assert "alpha must lie in the open interval (0, 1), got 1.5" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("p", ["2", "-0.1", "nan"])
    def test_theta_p_outside_unit_interval_is_refused(self, sample_csv, tmp_path, capsys, p):
        # ranks lie in (0, 1]; --theta-p 2 used to report theta(2) with a CI
        out = tmp_path / "out.json"
        assert main(["fit", sample_csv, "--theta-p", p, "--out", str(out)]) == EXIT_IO
        assert "rank position p must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_coverage_without_reps_is_refused(self, tmp_path, capsys, reps):
        # 0 reps ended in a ZeroDivisionError traceback, -1 in a ValueError one
        out = tmp_path / "coverage.csv"
        assert main(["coverage", "--family", "independence", "--n", "50", "--reps", reps,
                     "--out", str(out)]) == EXIT_IO
        assert f"coverage needs at least one rep, got {reps}" in capsys.readouterr().err

    def test_one_bootstrap_replicate_is_one_error_line(self, sample_csv, tmp_path):
        # the SE of a single replicate used to print two numpy RuntimeWarnings
        # before the error line
        src = os.path.dirname(os.path.dirname(os.path.abspath(rankreg.__file__)))
        run = subprocess.run(
            [sys.executable, "-m", "rankreg.cli", "fit", sample_csv, "--se", "bootstrap",
             "--bootstrap-reps", "1", "--out", str(tmp_path / "out.json")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert run.returncode == EXIT_IO
        assert run.stderr == "error: need at least two replicates for a bootstrap SE\n"

    @pytest.mark.parametrize("command", ["fit", "coverage"])
    def test_small_bootstrap_plan_is_refused_before_any_draw(
            self, sample_csv, tmp_path, capsys, monkeypatch, command):
        # a percentile interval needs 50 replicates; 10 used to be solved first
        solved = []
        monkeypatch.setattr(bootstrap, "_replicates", lambda *a: solved.append(a))
        if command == "fit":
            argv = ["fit", sample_csv, "--se", "plugin,bootstrap"]
        else:
            argv = ["coverage", "--family", "reflection", "--param", "0.5", "--n", "100",
                    "--reps", "3", "--methods", "plugin,bootstrap"]
        assert main([*argv, "--bootstrap-reps", "10",
                     "--out", str(tmp_path / "out")]) == EXIT_IO
        assert "percentile interval needs at least 50 replicates" in capsys.readouterr().err
        assert solved == []

    def test_covariate_collinear_with_rank_x_up_to_noise(self, tmp_path, rng, capsys):
        # cond(Z) near 1e8 passes the 1e-12 singularity rule; the first stage
        # leaves rank(x) a residual variance near 1e-16 and fails there
        n = 40
        x = rng.permutation(n) + 1.0
        z = x / n + 1e-8 * rng.normal(size=n)
        rows = np.column_stack([rng.normal(size=n), x, z]).tolist()
        assert self._fit(tmp_path, ["y", "x", "z"], rows, "--w-cols", "z") == EXIT_ASSUMPTION
        assert "rank variation is fully explained by the covariates" in capsys.readouterr().err


class TestSweepCommand:
    def test_tie_free_rows_have_identical_estimates(self, sample_csv, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", sample_csv, "--grid", "0,0.25,0.5,0.75,1", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 5
        ref = payload["rows"][0]["estimates"]
        for row in payload["rows"][1:]:
            assert row["estimates"] == pytest.approx(ref, abs=1e-12)
        assert payload["grid_average"] == pytest.approx(ref, abs=1e-12)

    def test_tied_rows_differ(self, tied_csv, tmp_path):
        out = tmp_path / "sweep_tied.json"
        main(["sweep", tied_csv, "--grid", "0,1", "--out", str(out)])
        payload = json.loads(out.read_text())
        a, b = payload["rows"]
        assert abs(a["estimates"][0] - b["estimates"][0]) > 1e-6


class TestSimulationCommands:
    def test_coverage_csv(self, tmp_path):
        out = tmp_path / "coverage.csv"
        code = main([
            "coverage", "--family", "reflection", "--param", "0.5",
            "--n", "300", "--reps", "40", "--seed", "1", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["method"] for row in rows] == ["plugin", "hom", "ew"]
        for row in rows:
            assert row["schema_version"] == "1"
            assert 0.0 <= float(row["coverage"]) <= 1.0
            assert float(row["true_rho"]) == pytest.approx(0.75)

    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--family", "reflection", "--grid", "0.3,0.5",
            "--n-mc", "20000", "--seed", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert float(rows[1]["sigma2"]) == pytest.approx(0.5625, abs=0.05)
        # every numeric cell is a plain number, not a numpy repr
        for row in rows:
            for key, cell in row.items():
                if key != "family":
                    float(cell)

    @pytest.mark.parametrize("family, params", [
        ("reflection", ["0.25", "0.5", "0.75"]),  # its open interval's ends are left out
        ("gaussian", ["0.0", "0.5", "1.0"]),
    ])
    def test_curve_default_grid(self, tmp_path, family, params):
        # reflection's default grid used to run from 0 to 1 and exit 1 at 0
        out = tmp_path / "curve.csv"
        assert main(["curve", "--family", family, "--grid-points", "3",
                     "--n-mc", "10000", "--out", str(out)]) == EXIT_OK
        with open(out, newline="") as fh:
            assert [row["param"] for row in csv.DictReader(fh)] == params

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_curve_without_grid_points_is_refused(self, tmp_path, capsys, points):
        # 0 wrote a header-only CSV, -1 ended in a numpy ValueError traceback
        out = tmp_path / "curve.csv"
        assert main(["curve", "--family", "gaussian", "--grid-points", points,
                     "--n-mc", "10000", "--out", str(out)]) == EXIT_IO
        assert f"--grid-points must be at least 1, got {points}" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_refuses_a_family_without_a_parameter(self, tmp_path, capsys):
        # independence has no parameter to sweep; it used to exit 1 at every grid
        with pytest.raises(SystemExit) as exit_:
            main(["curve", "--family", "independence", "--grid-points", "2",
                  "--n-mc", "10000", "--out", str(tmp_path / "curve.csv")])
        assert exit_.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("family, param, message", [
        ("independence", ["--param", "0.3"], "independence copula takes no parameter"),
        ("gaussian", [], "gaussian copula needs a parameter"),
    ], ids=["independence", "gaussian"])
    def test_coverage_param_must_fit_the_family(self, tmp_path, capsys, family, param,
                                                message):
        # independence used to drop --param and write an empty param cell
        out = tmp_path / "coverage.csv"
        assert main(["coverage", "--family", family, *param, "--n", "50", "--reps", "2",
                     "--out", str(out)]) == EXIT_IO
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_coverage_without_methods_is_refused(self, tmp_path, capsys):
        # an empty --methods list used to exit 0 with a header-only CSV
        out = tmp_path / "coverage.csv"
        assert main(["coverage", "--family", "gaussian", "--param", "0.5", "--n", "50",
                     "--reps", "2", "--methods", "", "--out", str(out)]) == EXIT_IO
        assert "coverage needs at least one se method" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_coverage_method_writes_one_row(self, tmp_path):
        # plugin,plugin used to run the plugin SE twice per rep and write two rows
        reports = []
        for methods in ("plugin,plugin", "plugin"):
            out = tmp_path / f"{methods}.csv"
            assert main(["coverage", "--family", "gaussian", "--param", "0.5", "--n", "50",
                         "--reps", "5", "--methods", methods, "--out", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]
        assert len(reports[0].splitlines()) == 2

    def test_calibrate_json(self, tmp_path):
        out = tmp_path / "cal.json"
        code = main([
            "calibrate", "--family", "reflection", "--target", "0.75",
            "--n-mc", "50000", "--seed", "4", "--out", str(out),
        ])
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["parameter"] == pytest.approx(0.5, abs=0.02)
        assert payload["achieved_rank_corr"] == pytest.approx(0.75, abs=0.01)

    def test_calibrate_refuses_a_nan_target(self, tmp_path, capsys):
        # every sign comparison with NaN is false: the bisection used to walk
        # to the low end of the range and report it
        out = tmp_path / "cal.json"
        assert main(["calibrate", "--family", "gaussian", "--target", "nan",
                     "--n-mc", "2000", "--out", str(out)]) == EXIT_IO
        assert "target rank correlation nan is not bracketed" in capsys.readouterr().err
        assert not out.exists()


class TestOneSortPerVariable:
    """A command sorts each ranked variable once, in ``kernels.tie_runs``."""

    @pytest.fixture
    def sorted_values(self, monkeypatch):
        calls = []
        original = kernels.tie_runs

        def counting(values):
            calls.append(values.copy())
            return original(values)

        for name, module in list(sys.modules.items()):
            if name.startswith("rankreg") and getattr(module, "tie_runs", None) is original:
                monkeypatch.setattr(module, "tie_runs", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ["fit", "--se", "plugin,hom,ew", "--theta-p", "0.25", "--w-cols", "z"],
        ["fit", "--spec", "rank-rank-group", "--group-col", "region", "--omega", "0.5"],
        ["fit", "--se", "plugin,bootstrap", "--bootstrap-reps", "60", "--seed", "4"],
        ["sweep", "--grid", "0,0.25,0.5,0.75,1", "--w-cols", "z"],
    ], ids=["fit-plugin-hom-ew-theta", "fit-grouped", "fit-bootstrap", "sweep-5"])
    def test_one_tie_runs_call_per_ranked_variable(self, sample_csv, tmp_path,
                                                   sorted_values, argv):
        out = tmp_path / "report.json"
        assert main([argv[0], sample_csv, *argv[1:], "--out", str(out)]) == EXIT_OK
        columns, _ = ingest_csv(sample_csv, "y", "x")
        assert sorted(v.tobytes() for v in sorted_values) == sorted(
            [columns["x"].tobytes(), columns["y"].tobytes()])


class TestOneSamplePerCommand:
    """A fit command prepares one ``estimators._Sample``, which every SE method reads."""

    @pytest.mark.parametrize("grouping", [
        [], ["--spec", "rank-rank-group", "--group-col", "region"],
    ], ids=["plain", "grouped"])
    def test_every_se_method_reads_the_fit_sample(self, sample_csv, tmp_path, monkeypatch,
                                                  grouping):
        prepared = []
        init = estimators._Sample.__init__

        def counting(sample, *args):
            prepared.append(sample)
            init(sample, *args)

        monkeypatch.setattr(estimators._Sample, "__init__", counting)
        assert main(["fit", sample_csv, *grouping, "--se", "plugin,hom,ew,bootstrap",
                     "--bootstrap-reps", "60", "--theta-p", "0.5",
                     "--out", str(tmp_path / "report.json")]) == EXIT_OK
        assert len(prepared) == 1


class TestDeterminism:
    def test_rerun_is_byte_identical(self, sample_csv, tmp_path):
        out = tmp_path / "report.json"
        argv = ["fit", sample_csv, "--se", "plugin,hom,ew,bootstrap",
                "--bootstrap-reps", "60", "--seed", "7", "--theta-p", "0.25",
                "--out", str(out)]
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

    def test_worker_count_does_not_change_bytes(self, sample_csv, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        argv = ["fit", sample_csv, "--se", "bootstrap", "--bootstrap-reps", "60",
                "--seed", "7", "--out", str(out)]
        # one CPU, then the bootstrap's chunks split over three forked workers
        monkeypatch.setattr(bootstrap, "_CHUNK_BYTES", 1 << 12)
        monkeypatch.setattr(bootstrap, "_SPLIT_MIN_S", 0.0)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        assert forks == []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first
        assert len(forks) == 2

    def test_config_echo_round_trip(self, sample_csv, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        code = main(["fit", sample_csv, "--omega", "0.5", "--se", "plugin",
                     "--w-cols", "z", "--seed", "9", "--out", str(out1)])
        assert code == EXIT_OK
        config = json.loads(out1.read_text())["config"]
        argv = [
            "fit", config["csv"],
            "--spec", config["spec"],
            "--omega", repr(config["omega"]),
            "--alpha", repr(config["alpha"]),
            "--se", ",".join(config["se"]),
            "--y-col", config["y_col"],
            "--x-col", config["x_col"],
            "--w-cols", ",".join(config["w_cols"]),
            "--seed", str(config["seed"]),
            "--out", str(out2),
        ]
        assert main(argv) == EXIT_OK
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("out"); b["config"].pop("out")
        assert a == b

        # a sweep reruns from its echo too
        code = main(["sweep", sample_csv, "--spec", "rank-rank-group", "--group-col",
                     "region", "--w-cols", "z", "--grid", "0,0.5", "--out", str(out1)])
        assert code == EXIT_OK
        config = json.loads(out1.read_text())["config"]
        argv = [
            "sweep", config["csv"],
            "--spec", config["spec"],
            "--grid", ",".join(map(repr, config["grid"])),
            "--alpha", repr(config["alpha"]),
            "--y-col", config["y_col"],
            "--x-col", config["x_col"],
            "--w-cols", ",".join(config["w_cols"]),
            "--group-col", config["group_col"],
            "--out", str(out2),
        ]
        argv += ["--drop-missing"] * config["drop_missing"]
        argv += ["--no-intercept"] * (not config["intercept"])
        assert main(argv) == EXIT_OK
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        a["config"].pop("out"); b["config"].pop("out")
        assert a == b

    @pytest.mark.parametrize("command", ["fit", "sweep", "calibrate"])
    def test_config_echo_is_the_parser(self, sample_csv, tmp_path, command):
        # the echo holds every option of the subcommand, so a new flag is echoed too
        argv = {
            "fit": ["fit", sample_csv],
            "sweep": ["sweep", sample_csv, "--grid", "0.5"],
            "calibrate": ["calibrate", "--family", "gaussian", "--target", "0.3",
                          "--n-mc", "10000"],
        }[command]
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        subparsers = next(action for action in cli.build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for action in subparsers.choices[command]._actions}
        config = json.loads(out.read_text())["config"]
        assert set(config) == dests - {"help"} | {"command"}
        assert config["command"] == command
