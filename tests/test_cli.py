"""Command-line interface: ingestion, reports, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import rankreg
from rankreg import kernels
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

    def test_group_labels_pass_through(self, sample_csv):
        columns, _ = ingest_csv(sample_csv, "y", "x", group_col="region")
        assert set(columns["region"]) == {"BY", "SN"}


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

    def test_missing_column_is_io_error(self, small_csv, capsys):
        assert main(["fit", small_csv, "--x-col", "nope"]) == EXIT_IO

    def test_missing_file_is_io_error(self, capsys):
        assert main(["fit", "/does/not/exist.csv"]) == EXIT_IO

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
        monkeypatch.setenv("RANKREG_JOBS", "1")
        assert main(argv) == EXIT_OK
        first = out.read_bytes()
        monkeypatch.setenv("RANKREG_JOBS", "4")
        assert main(argv) == EXIT_OK
        assert out.read_bytes() == first

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
