import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bddist import cli
from bddist.bandwidth import KinkAdaptive, MsePilot, resolve_bandwidths
from bddist.cli import _read_rows, main, read_dataset
from bddist.data import Sample
from bddist.errors import DataParseError, DataSchemaError
from bddist.geometry import QuadrantRule, load_boundary, make_grid

BOUNDARY = {
    "vertices": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]],
    "assignment": {"quadrant": {"x1_sign": "+", "x2_sign": "+"}},
}


@pytest.fixture
def boundary_file(tmp_path):
    path = tmp_path / "boundary.json"
    path.write_text(json.dumps(BOUNDARY))
    return str(path)


def write_dataset(tmp_path, n=800, seed=0, name="data.csv", x=None):
    rng = np.random.default_rng(seed)
    if x is None:
        x = rng.uniform(-1, 1, (n, 2))
    n = len(x)
    treated = QuadrantRule().contains(x)
    y = np.where(treated, 1.0, 0.2) + 0.3 * rng.normal(size=n)
    path = tmp_path / name
    lines = ["y,x1,x2,extra"]
    for i in range(n):
        lines.append(f"{float(y[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r},junk")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


PILOT_RULES = {"mse": MsePilot(), "kink": KinkAdaptive(c0=8.0, exponent=0.25)}


class TestReadDataset:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.5,8.0,9.0\n")
        y, x = read_dataset(path)
        assert y.tolist() == [1.0, 4.0, 7.5]
        assert x.shape == (3, 2)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1\n1.0,2.0\n")
        with pytest.raises(DataSchemaError) as err:
            read_dataset(path)
        assert err.value.column == "x2"

    def test_extra_columns_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x2,y,x1,extra\n3.0,1.0,2.0,zzz\n")
        y, x = read_dataset(path)
        assert y.tolist() == [1.0]
        assert x.tolist() == [[2.0, 3.0]]

    def test_bad_cell_reports_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n1.0,oops,3.0\n")
        with pytest.raises(DataParseError) as err:
            read_dataset(path)
        assert err.value.row == 3

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n1.0,inf,3.0\n")
        with pytest.raises(DataParseError):
            read_dataset(path)

    def test_quoted_cell_with_delimiters_does_not_shift_columns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('extra,y,x1,x2\n"a,7,8,9,b",1,2,3\n')
        y, x = read_dataset(path)
        assert y.tolist() == [1.0]
        assert x.tolist() == [[2.0, 3.0]]

    def test_quoted_newline_in_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('y,x1,x2,"a\n1,2,3,b"\n4,5,6,c\n')
        y, x = read_dataset(path)
        assert y.tolist() == [4.0]
        assert x.tolist() == [[5.0, 6.0]]

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compression_suffix(self, tmp_path, suffix):
        path = tmp_path / f"d.csv{suffix}"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n")
        y, x = read_dataset(path)
        assert y.tolist() == [1.0]
        assert x.tolist() == [[2.0, 3.0]]

    def test_url_like_relative_path_is_read_locally(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost:1").mkdir(parents=True)
        (tmp_path / "http:" / "localhost:1" / "d.csv").write_text("y,x1,x2\n1,2,3\n")
        y, x = read_dataset("http://localhost:1/d.csv")
        assert y.tolist() == [1.0]
        assert x.tolist() == [[2.0, 3.0]]

    @pytest.mark.parametrize("body", [
        "y,x1,x2\n1.0,2.0,3.0\n4.0,5.0,6.5\n",
        'y,x1,x2,"a\n1,2,3,b"\n4,5,6,c\n7.5,8,9,d\n',
    ], ids=["loadtxt", "row-parser"])
    def test_byte_order_mark_is_skipped(self, tmp_path, body):
        # Spreadsheets save "CSV UTF-8" with a leading byte-order mark.  A
        # quoted newline in the header sends the file to the row parser.
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text("\ufeff" + body, encoding="utf-8")
        assert read_outcome(read_dataset, marked) == read_outcome(read_dataset, plain)
        assert read_outcome(_read_rows, marked) == read_outcome(_read_rows, plain)
        y, _ = read_dataset(marked)
        assert len(y) == 2

    def test_single_row_shapes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x1,x2\n1.0,2.0,3.0\n")
        y, x = read_dataset(path)
        assert y.shape == (1,)
        assert x.shape == (1, 2)


def read_outcome(reader, path):
    """What a reader makes of a file: the arrays as int64 bit patterns, or
    the error's class, row number and message."""
    try:
        y, x = reader(path)
    except Exception as err:  # any class: the class is what is compared
        return type(err), getattr(err, "row", None), str(err)
    return (y.shape, x.shape, y.view(np.int64).tolist(), x.view(np.int64).tolist())


MALFORMED = {
    "whitespace-line": "y,x1,x2\n1,2,3\n   \n4,5,6\n",
    "short-row": "y,x1,x2\n1,2,3\n4,5\n",
    "hash-suffix": "y,x1,x2\n1,2,3#c\n",
    "hash-line": "y,x1,x2\n1,2,3\n# note\n4,5,6\n",
    "nan": "y,x1,x2\n1,2,3\nnan,5,6\n",
    "overflow": "y,x1,x2\n1,2,3\n1e400,5,6\n",
    "infinity": "y,x1,x2\n1,-Infinity,3\n",
    "hex": "y,x1,x2\n1,2,3\n0x1p3,5,6\n",
    "fortran-exponent": "y,x1,x2\n1d3,2,3\n",
    "empty-cell": "y,x1,x2\n1,2,3\n4,,6\n",
    "no-data-rows": "y,x1,x2\n\n\n",
    "empty-file": "",
    "missing-column": "y,x1\n1,2\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_file_fails_as_the_row_parser_does(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    outcome = read_outcome(read_dataset, path)
    assert issubclass(outcome[0], Exception)
    assert outcome == read_outcome(_read_rows, path)


NUMBER_FORMATS = (repr, "{:.6e}".format, "{:g}".format)


@st.composite
def csv_texts(draw):
    """CSV text in the accepted dialect, with y, x1, x2 among extra columns."""
    names = draw(st.permutations(["y", "x1", "x2", "e1", "e2"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    n = draw(st.integers(1, 8))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    lines = [",".join(names)]
    for _ in range(n):
        if draw(st.booleans()):
            lines.append("")
        cells = []
        for name in names:
            if name.startswith("e"):
                cells.append(draw(st.sampled_from(["", "a", '"b,c"', '"q""d"', "7"])))
                continue
            fmt = draw(st.sampled_from(NUMBER_FORMATS))
            pad = draw(st.sampled_from(["", " ", "  "]))
            cell = pad + fmt(draw(finite)) + draw(st.sampled_from(["", " "]))
            cells.append(f'"{cell}"' if draw(st.booleans()) else cell)
        lines.append(",".join(cells))
    return newline.join(lines) + newline


@settings(max_examples=150, deadline=None)
@given(text=csv_texts())
def test_read_dataset_matches_row_parser(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_bytes(text.encode())
    assert read_outcome(read_dataset, path) == read_outcome(_read_rows, path)


class TestEstimate:
    def test_smoke_with_fixed_bandwidth(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.5",
                     "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header == ["point_id", "b1", "b2", "h", "n_eff_0", "n_eff_1",
                          "theta_hat", "se", "ci_lower", "ci_upper",
                          "band_lower", "band_upper", "error"]
        assert len(lines) == 4
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert row["h"] == "0.5"
            assert row["error"] == ""
            assert float(row["band_lower"]) <= float(row["ci_lower"])
            assert float(row["ci_upper"]) <= float(row["band_upper"])

    def test_failed_point_gets_error_code_and_exit_2(self, tmp_path, boundary_file):
        # Data only near the origin: the far grid points cannot be fit.
        rng = np.random.default_rng(5)
        x = rng.uniform(-0.15, 0.15, (300, 2))
        y = rng.normal(size=300)
        path = tmp_path / "near.csv"
        lines = ["y,x1,x2"] + [
            f"{float(y[i])!r},{float(x[i, 0])!r},{float(x[i, 1])!r}"
            for i in range(300)
        ]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.csv"
        code = main(["estimate", "--data", str(path), "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.2",
                     "--out", str(out)])
        assert code == 2
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert rows[0][-1] == "insufficient-data"
        assert rows[1][-1] == ""

    @pytest.mark.parametrize("name", sorted(PILOT_RULES))
    def test_pilot_rule_bandwidths_match_library(self, tmp_path, boundary_file, name):
        data = write_dataset(tmp_path)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", name, "--c0", "8",
                     "--precision", "full", "--out", str(out)])
        assert code == 0
        polyline, rule = load_boundary(boundary_file)
        y, x = read_dataset(data)
        expected = resolve_bandwidths(PILOT_RULES[name], Sample.from_data(y, x, rule),
                                      make_grid(polyline, 3), "triangular", 1)
        assert [float(row["h"]) for row in read_rows(out)] == [float(h) for h in expected]

    @pytest.mark.parametrize("name", sorted(PILOT_RULES))
    def test_pilot_rule_empty_point_fails_alone(self, tmp_path, boundary_file, name,
                                                capsys):
        # Control data only left of the vertical boundary segment: no
        # candidate bandwidth at (1, 0) reaches a control observation.
        rng = np.random.default_rng(0)
        x = np.vstack([rng.uniform(0.0, 1.0, (300, 2)),
                       np.column_stack([rng.uniform(-0.3, 0.0, 300),
                                        rng.uniform(0.0, 1.0, 300)])])
        data = write_dataset(tmp_path, x=x)
        out = tmp_path / "out.csv"
        code = main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", name, "--c0", "8",
                     "--out", str(out)])
        assert code == 2
        rows = read_rows(out)
        assert [row["error"] for row in rows] == ["", "", "bandwidth-selection-failed"]
        for row in rows[:2]:
            assert all(row[col] != "" for col in ("h", "theta_hat", "se", "band_lower"))
        assert capsys.readouterr().err == "warning: uniform band covers 2 of 3 grid points\n"

    def test_dump_cov(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path)
        out = tmp_path / "out.csv"
        cov = tmp_path / "cov.csv"
        main(["estimate", "--data", data, "--boundary", boundary_file,
              "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.6",
              "--out", str(out), "--dump-cov", str(cov)])
        mat = np.genfromtxt(cov, delimiter=",", skip_header=1)
        assert mat.shape == (3, 3)
        assert np.allclose(mat, mat.T, atol=1e-10)

    def test_dump_cov_is_written_when_every_point_fails(self, tmp_path, boundary_file):
        # No fitted point: the dump is a matrix of no rows and no columns, and
        # a stale file of an earlier run does not survive.
        out, cov = tmp_path / "out.csv", tmp_path / "cov.csv"
        cov.write_text("stale\n")
        assert main(["estimate", "--data", write_dataset(tmp_path), "--boundary",
                     boundary_file, "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.01",
                     "--out", str(out), "--dump-cov", str(cov)]) == 2
        assert [row["error"] for row in read_rows(out)] == ["insufficient-data"] * 3
        assert cov.read_text() == "\n"

    def test_estimate_reproducible(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path)
        args = ["estimate", "--data", data, "--boundary", boundary_file,
                "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.5",
                "--seed", "5", "--band-draws", "2000"]
        out1, out2 = tmp_path / "e1.csv", tmp_path / "e2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": data, "boundary": boundary_file, "grid_size": 3,
            "bw_rule": "fixed", "h": 0.5, "out": str(tmp_path / "a.csv"),
        }))
        code = main(["estimate", "--config", str(cfg)])
        assert code == 0
        assert (tmp_path / "a.csv").exists()
        # Flag beats the config value.
        code = main(["estimate", "--config", str(cfg), "--h", "0.7",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 0
        assert ",0.7," in (tmp_path / "b.csv").read_text().splitlines()[1]

    def test_json_files_with_byte_order_mark(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path)
        settings = {"data": data, "grid_size": 3, "bw_rule": "fixed", "h": 0.5}
        marked = tmp_path / "marked_boundary.json"
        marked.write_text("\ufeff" + json.dumps(BOUNDARY), encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("\ufeff" + json.dumps({**settings, "boundary": str(marked)}),
                       encoding="utf-8")
        assert main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", "fixed", "--h", "0.5",
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestSimulate:
    def test_byte_identical_reports(self, tmp_path):
        args = ["simulate", "--n", "400", "--reps", "5", "--grid-size", "3",
                "--c0", "6.0", "--band-draws", "1000", "--seed", "123"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().strip().splitlines()[-1].startswith("uniform,")

    def test_seed_changes_report(self, tmp_path):
        base = ["simulate", "--n", "400", "--reps", "4", "--grid-size", "3",
                "--c0", "6.0", "--band-draws", "1000"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(base + ["--seed", "1", "--out", str(out1)])
        main(base + ["--seed", "2", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_full_precision_roundtrip(self, tmp_path):
        out = tmp_path / "r.csv"
        main(["simulate", "--n", "400", "--reps", "4", "--grid-size", "3",
              "--c0", "6.0", "--band-draws", "1000", "--seed", "9",
              "--precision", "full", "--out", str(out)])
        lines = out.read_text().strip().splitlines()
        for line in lines[1:-1]:
            cells = line.split(",")[1:]
            for cell in cells:
                # repr round-trips exactly, hence to 12 significant digits
                assert repr(float(cell)) == cell

    def test_dgp_override(self, tmp_path):
        dgp = tmp_path / "dgp.json"
        dgp.write_text(json.dumps({
            "beta0": [0.0, 0.0, 0.0], "beta1": [0.0, 0.0, 0.0],
            "sigma0": 0.5, "sigma1": 0.5,
        }))
        out = tmp_path / "r.csv"
        code = main(["simulate", "--n", "500", "--reps", "4", "--grid-size", "3",
                     "--c0", "6.0", "--band-draws", "1000", "--seed", "3",
                     "--dgp", str(dgp), "--out", str(out)])
        assert code == 0
        # Zero effect: biases hover near zero.
        rows = out.read_text().strip().splitlines()[1:-1]
        biases = [abs(float(r.split(",")[4])) for r in rows]
        assert max(biases) < 0.5

    def test_partial_failure_is_one_warning_line(self, tmp_path, capsys):
        # n = 60 leaves most replications a side with one weighted row.
        out = tmp_path / "r.csv"
        assert main(["simulate", "--n", "60", "--reps", "30", "--grid-size", "3",
                     "--bw-rule", "fixed", "--h", "10", "--band-draws", "1000",
                     "--seed", "31", "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "warning: 28/30 replications failed; report flagged invalid: "
            "InsufficientDataError in 28 (first: side 0: 1 positively weighted "
            "observations, need at least 2)\n")
        lines = out.read_text().splitlines()
        assert lines[0] == "point_id,b1,b2,h,bias,sd,rmse,ec,il"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "uniform"]

    def test_run_monte_carlo_is_looked_up_in_the_cli_module(self, tmp_path, monkeypatch):
        # The benchmark's worker patches this name to count failed replications.
        reports = []
        run = cli.run_monte_carlo

        def capture(*args, **kwargs):
            reports.append(run(*args, **kwargs))
            return reports[-1]

        monkeypatch.setattr(cli, "run_monte_carlo", capture)
        assert main(["simulate", "--n", "2000", "--reps", "2", "--grid-size", "3",
                     "--c0", "8", "--band-draws", "1000",
                     "--out", str(tmp_path / "out.csv")]) == 0
        assert len(reports) == 1 and reports[0].reps_used == 2


class TestBiasOracle:
    def test_csv_output(self, tmp_path):
        out = tmp_path / "bias.csv"
        code = main(["bias-oracle", "--p", "1", "--kernel", "uniform",
                     "--h", "0.4", "--s-grid", "0.02:0.38:5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,bias"
        assert len(lines) == 6
        from bddist.oracle import fixed_h_bias

        s0, b0 = (float(v) for v in lines[1].split(","))
        assert abs(b0 - fixed_h_bias("uniform", 1, 0.4, s0)) < 1e-6

    def test_comma_list(self, tmp_path):
        out = tmp_path / "bias.csv"
        main(["bias-oracle", "--h", "1.0", "--s-grid", "0.1,0.2",
              "--out", str(out)])
        assert len(out.read_text().strip().splitlines()) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--boundary", "b.json"), ("--grid-size", "3"), ("--alpha", "2"), ("--bw-rule", "rot"),
        ("--c0", "8"), ("--bw-exponent", "0.25"), ("--band-draws", "1000"), ("--seed", "1"),
    ])
    def test_flags_it_does_not_read_are_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "bias.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["bias-oracle", "--s-grid", "0.1", flag, value, "--out", str(out)])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_help_lists_only_the_flags_it_reads(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bias-oracle", "--help"])
        assert exit_.value.code == 0
        assert set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) == {
            "--help", "--config", "--p", "--kernel", "--h", "--out", "--precision",
            "--s-grid"}

    @pytest.mark.parametrize("setting,message", [
        (["--s-grid", "0:1:0"], "--s-grid '0:1:0': no values"),
        (["--s-grid", "nan"], "--s-grid 'nan': NaN value"),
        (["--s-grid", "0.1,nan"], "--s-grid '0.1,nan': NaN value"),
        (["--h", "nan", "--s-grid", "0.1"], "h must be positive and finite, got nan"),
        (["--h", "inf", "--s-grid", "0.1"], "h must be positive and finite, got inf"),
        (["--h", "0", "--s-grid", "0.1"], "h must be positive and finite, got 0.0"),
        (["--h", "1e-170", "--s-grid", "0.1"],
         "bandwidth h = 1e-170 is out of range: h * h = 0.0"),
        (["--h", "1e200", "--s-grid", "0.1"],
         "bandwidth h = 1e+200 is out of range: h * h = inf"),
    ], ids=["s-grid-empty", "s-grid-nan", "s-grid-list-nan", "h-nan", "h-inf", "h-zero",
            "h-square-underflows", "h-square-overflows"])
    def test_meaningless_setting_is_one_error_line(self, tmp_path, capsys, setting, message):
        out = tmp_path / "bias.csv"
        assert main(["bias-oracle", *setting, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_pipeline_config_keys_are_not_checked(self, tmp_path):
        # Config keys are shared; bias-oracle checks only those it reads.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2, "grid_size": 0, "seed": -1}))
        out = tmp_path / "bias.csv"
        assert main(["bias-oracle", "--config", str(cfg), "--s-grid", "0.1",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert main(["estimate", "--config", str(cfg)]) == 1


class TestBadInputs:
    def test_unknown_config_key(self, tmp_path, boundary_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1, "config": "x", "p": 0}))
        assert main(["estimate", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: unknown config keys: ['bogus', 'config']\n"

    def test_missing_required_inputs(self):
        assert main(["estimate"]) == 1

    def test_missing_file_reports_error(self, boundary_file):
        assert main(["estimate", "--data", "/nonexistent/d.csv",
                     "--boundary", boundary_file]) == 1

    def test_fixed_rule_requires_h(self, tmp_path, boundary_file):
        data = write_dataset(tmp_path, n=50)
        assert main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--bw-rule", "fixed"]) == 1

    @pytest.mark.parametrize("h", ["0", "nan"])
    def test_fixed_h_outside_range_is_an_error(self, tmp_path, boundary_file, capsys, h):
        data = write_dataset(tmp_path, n=50)
        assert main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", "fixed", "--h", h,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: resolved bandwidths must lie in (0, data diameter = ")

    @pytest.mark.parametrize("setting,message", [
        pytest.param(["--p", "-1"], "p must be >= 0, got -1", id="--p"),
        pytest.param(["--seed", "-1"], "seed must be >= 0, got -1", id="--seed"),
        pytest.param(["--band-draws", "999"], "band-draws must be >= 1000, got 999",
                     id="--band-draws=999"),
        pytest.param(["--c0", "-1"], "c0 must be positive and finite, got -1.0",
                     id="--c0=-1"),
        pytest.param(["--c0", "0"], "c0 must be positive and finite, got 0.0", id="--c0=0"),
        pytest.param(["--c0", "nan"], "c0 must be positive and finite, got nan",
                     id="--c0=nan"),
        pytest.param(["--bw-rule", "kink", "--c0", "inf"],
                     "c0 must be positive and finite, got inf", id="kink--c0=inf"),
        pytest.param(["--bw-exponent", "nan"], "bw-exponent must be finite, got nan",
                     id="--bw-exponent=nan"),
        pytest.param(["--grid-size", "0"], "grid-size must be >= 1, got 0", id="--grid-size"),
    ])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_negative_order_or_seed_is_one_error_line(self, tmp_path, boundary_file, capsys,
                                                      command, setting, message):
        # Settings of the whole run: one error line, exit 1, no fit or draw.
        if command == "estimate":
            argv = ["estimate", "--data", write_dataset(tmp_path, n=200),
                    "--boundary", boundary_file]
        else:
            argv = ["simulate", "--n", "400", "--reps", "2", "--c0", "6.0"]
        argv += ["--grid-size", "3", "--band-draws", "1000", *setting,
                 "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("setting,message", [
        (["--n", "1"], "n must be >= 2 for any bandwidth rule, got 1"),
        (["--n", "0"], "n must be >= 2 for any bandwidth rule, got 0"),
        (["--reps", "0"], "reps must be >= 1, got 0"),
        (["--reps", "-2"], "reps must be >= 1, got -2"),
        (["--dgp", '{"boundary": 5}'],
         "{dgp}: 'boundary' and 'assignment' come from --boundary"),
        (["--dgp", '{"assignment": "x"}'],
         "{dgp}: 'boundary' and 'assignment' come from --boundary"),
        (["--dgp", '{"score_scale": "abc"}'],
         "{dgp}: invalid DGP override (could not convert string to float: 'abc')"),
        (["--dgp", '{"score_scale": 0}'],
         "{dgp}: invalid DGP override (score_scale must be nonzero, got 0.0)"),
        (["--dgp", '{"sigma1": "inf"}'],
         "{dgp}: invalid DGP override (sigma1 must be finite, got inf)"),
        (["--dgp", '{"beta_params": [3, NaN]}'],
         "{dgp}: invalid DGP override (Beta parameters must be positive and finite)"),
        (["--bw-exponent", "-400"], "rule-of-thumb n^(-bw-exponent) = inf is not positive "
                                    "and finite (n = 300, bw-exponent = -400.0)"),
        (["--bw-exponent", "400"], "rule-of-thumb n^(-bw-exponent) = 0.0 is not positive "
                                   "and finite (n = 300, bw-exponent = 400.0)"),
        (["--bw-rule", "kink", "--bw-exponent", "-400"],
         "rule-of-thumb n^(-bw-exponent) = inf is not positive and finite (n = 300, "
         "bw-exponent = -400.0)"),
        (["--bw-rule", "kink", "--bw-exponent", "400"],
         "rule-of-thumb n^(-bw-exponent) = 0.0 is not positive and finite (n = 300, "
         "bw-exponent = 400.0)"),
    ], ids=["n=1", "n=0", "reps=0", "reps=-2", "dgp-boundary", "dgp-assignment",
            "dgp-score-scale", "dgp-score-scale-zero", "dgp-sigma-inf", "dgp-beta-nan",
            "rot-exponent=-400", "rot-exponent=400", "kink-exponent=-400",
            "kink-exponent=400"])
    def test_simulate_setting_fails_before_any_replication(self, tmp_path, capsys,
                                                           monkeypatch, setting, message):
        def no_run(*args, **kwargs):
            raise AssertionError("run_monte_carlo was called")

        monkeypatch.setattr(cli, "run_monte_carlo", no_run)
        dgp = tmp_path / "dgp.json"
        if setting[0] == "--dgp":
            dgp.write_text(setting[1])
            setting = ["--dgp", str(dgp)]
        argv = ["simulate", "--n", "300", "--reps", "2", "--c0", "8", "--grid-size", "3",
                *setting, "--out", str(tmp_path / "out.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: " + message.format(dgp=dgp) + "\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("rule", [["fixed", "--h", "0.5"], ["mse"]])
    def test_c0_and_exponent_are_ignored_by_rules_without_them(self, tmp_path,
                                                                 boundary_file, rule):
        data = write_dataset(tmp_path, n=200)
        assert main(["estimate", "--data", data, "--boundary", boundary_file,
                     "--grid-size", "3", "--bw-rule", *rule, "--c0", "nan",
                     "--bw-exponent", "nan", "--out", str(tmp_path / "out.csv")]) != 1
        assert (tmp_path / "out.csv").exists()

    def test_every_failed_replication_is_named(self, tmp_path, capsys):
        # At the default c0 = 1, n = 5000 leaves some grid point too few rows.
        assert main(["simulate", "--n", "5000", "--reps", "3",
                     "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: every replication failed; nothing to report: "
                              "InsufficientDataError in 3 (first: side ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exponent", ["-400", "400"], ids=["overflow", "underflow"])
    @pytest.mark.parametrize("rule", ["rot", "kink"])
    def test_rot_bandwidth_out_of_float_range_is_one_error(self, tmp_path, boundary_file,
                                                           capsys, rule, exponent):
        # n^{-exponent} overflows, or underflows to a zero bandwidth: the whole
        # rule fails once, not with a traceback or one failure per point.
        assert main(["estimate", "--data", write_dataset(tmp_path, n=200),
                     "--boundary", boundary_file, "--grid-size", "3", "--bw-rule", rule,
                     "--c0", "8", "--bw-exponent", exponent,
                     "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rule-of-thumb bandwidth c0 * scale * n^(-exponent) = ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_simulate_rot_bandwidth_overflow_is_one_error(self, tmp_path, capsys):
        assert main(["simulate", "--n", "400", "--reps", "2", "--c0", "8", "--grid-size", "3",
                     "--bw-exponent", "-400", "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rule-of-thumb n^(-bw-exponent) = inf is not positive "
                              "and finite (n = 400, bw-exponent = -400.0)")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("change,message", [
        ({"assignment": "quadrant"}, "boundary spec 'assignment' must be an object, "
                                     "got 'quadrant'"),
        ({"assignment": ["quadrant"]}, "boundary spec 'assignment' must be an object, "
                                       "got ['quadrant']"),
        ({"assignment": {"quadrant": 5}}, "boundary spec 'quadrant' must be an object, got 5"),
        ({"kinks": 5}, "boundary spec 'kinks' must be an array, got 5"),
        ({"kinks": ["a"]}, "kink index 'a' is not an integer"),
        ({"kinks": [1.5]}, "kink index 1.5 is not an integer"),
        ({"kinks": [True]}, "kink index True is not an integer"),
        ({"vertices": [[0, 30], [0, "a"], [30, 0]]},
         "boundary spec 'vertices' is not an array of numbers "
         "(could not convert string to float: 'a')"),
        ({"assignment": {"polygon": "abc"}}, "boundary spec 'polygon' is not an array of "
                                             "numbers (could not convert string to float: 'abc')"),
        ({"assignment": {"polygon": [[0, 0], [1]]}},
         "boundary spec 'polygon' is not an array of numbers (setting an array element"),
        ({"vertices": [[0, 30], [0, True], [30, 0]]},
         "boundary spec 'vertices' is not an array of numbers (it holds True)"),
        ({"assignment": {"polygon": [[0, 0], [True, 0], [0, 1]]}},
         "boundary spec 'polygon' is not an array of numbers (it holds True)"),
        ({"assignment": {"quadrant": {"x2_sign": True}}}, "x2_sign must be '+' or '-', got True"),
        ({"assignment": {"polygon": [[0, 0], [80, 0], [80, 0], [80, 80], [0, 80]]}},
         "consecutive polyline vertices must be distinct (vertex 2 repeats (80.0, 0.0))"),
    ], ids=["assignment-string", "assignment-list", "quadrant-number", "kinks-number",
            "kinks-string", "kinks-fraction", "kinks-bool", "vertex-string", "polygon-string",
            "polygon-ragged", "vertex-bool", "polygon-bool", "sign-bool", "polygon-repeat"])
    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_malformed_boundary_file_is_one_error_line(self, tmp_path, capsys, command,
                                                       change, message):
        spec = {"vertices": [[0, 30], [0, 0], [30, 0]], "assignment": {"quadrant": {}},
                **change}
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(spec))
        if command == "estimate":
            argv = ["estimate", "--data", write_dataset(tmp_path, n=200)]
        else:
            argv = ["simulate", "--n", "300", "--reps", "1"]
        assert main([*argv, "--boundary", str(path), "--c0", "8", "--grid-size", "3",
                     "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert err.count("\n") == 1 and err.count("error: ") == 1
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("argv,content", [
        (["estimate", "--config", "{bad}"], '{"sigma0": 0.5,'),
        (["simulate", "--dgp", "{bad}"], '{"sigma0": 0.5,'),
        (["simulate", "--boundary", "{bad}"], '{"sigma0": 0.5,'),
        (["bias-oracle", "--s-grid", "0:1:x"], ""),
        (["bias-oracle", "--s-grid", "a,b"], ""),
        (["estimate", "--config", "{bad}"], '[{"a": 1}]'),
        (["simulate", "--dgp", "{bad}"], '[{"a": 1}]'),
        (["simulate", "--boundary", "{bad}"], '[{"a": 1}]'),
        (["simulate", "--dgp", "{bad}"], '{"sigma0": "a"}'),
        (["estimate", "--config", "{bad}"], b"\xff\xfe{}"),
        (["simulate", "--dgp", "{bad}"], b'{"sigma0": "\xff"}'),
        (["simulate", "--boundary", "{bad}"], b"\xff\xfe{}"),
        (["simulate", "--dgp", "{bad}", "--n", "300", "--reps", "2", "--c0", "8",
          "--grid-size", "3", "--band-draws", "1000"], '{"sigma0": true}'),
    ], ids=["config", "dgp", "boundary", "s-grid-count", "s-grid-list",
            "config-list", "dgp-list", "boundary-list", "dgp-field-type",
            "config-not-utf8", "dgp-not-utf8", "boundary-not-utf8", "dgp-bool"])
    def test_malformed_input_is_an_error_not_a_traceback(self, tmp_path, capsys, argv,
                                                          content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content.encode() if isinstance(content, str) else content)
        argv = [str(bad) if a == "{bad}" else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        if str(bad) in argv:
            assert str(bad) in err

    @pytest.mark.parametrize("header", [b"y,x1,x2", b'y,x1,x2,"a\nb"'],
                             ids=["loadtxt", "row-parser"])
    @pytest.mark.parametrize("good_rows", [1, 2000], ids=["first-block", "later-block"])
    def test_csv_not_utf8_is_one_error_line(self, tmp_path, capsys, boundary_file, header,
                                            good_rows):
        # A quoted newline in the header sends the file to the row parser.
        # Past the first 8 KiB, the header reads cleanly and the bad byte is
        # met by loadtxt, then by the row parser.
        path = tmp_path / "d.csv"
        path.write_bytes(header + b"\n" + b"1,2,3,4\n" * good_rows + b"4,5,\xff,6\n")
        assert main(["estimate", "--data", str(path), "--boundary", boundary_file,
                     "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 0xff)\n"


class TestConfigFile:
    """--config values go through the flags' own parser, ahead of the flags."""

    @staticmethod
    def config(tmp_path, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        return str(path)

    @staticmethod
    def settings(argv):
        return {k: v for k, v in vars(cli.build_config(argv)).items() if k != "config"}

    # A missing --data file: whatever fails first says whether the setting
    # is checked before the data is read.
    @pytest.mark.parametrize("command,values,message", [
        ("estimate", {"p": "abc"}, "argument --p: invalid int value: 'abc'"),
        ("estimate", {"p": 1.7}, "argument --p: invalid int value: '1.7'"),
        ("estimate", {"p": 1.0}, "argument --p: invalid int value: '1.0'"),
        ("estimate", {"grid_size": True}, "argument --grid-size: invalid int value: 'true'"),
        ("estimate", {"kernel": "gaussian"}, "argument --kernel: invalid choice: 'gaussian'"),
        ("simulate", {"kernel": "gaussian", "reps": 2},
         "argument --kernel: invalid choice: 'gaussian'"),
        ("estimate", {"precision": "x"}, "argument --precision: invalid choice: 'x'"),
        ("estimate", {"bw_rule": "foo"}, "argument --bw-rule: invalid choice: 'foo'"),
        ("bias-oracle", {"p": 1.5}, "argument --p: invalid int value: '1.5'"),
    ], ids=["p-text", "p-fraction", "p-float", "grid-size-bool", "kernel", "simulate-kernel",
            "precision", "bw-rule", "bias-oracle-p"])
    def test_rejected_value_ends_as_the_flag_would(self, tmp_path, boundary_file, capsys,
                                                   command, values, message):
        if command == "estimate":
            values = {**values, "data": str(tmp_path / "missing.csv"),
                      "boundary": boundary_file}
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_:
            main([command, "--config", self.config(tmp_path, values), "--out", str(out)])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: bddist {command} ")
        assert f"bddist {command}: error: {message}" in err
        assert not out.exists()

    @pytest.mark.parametrize("values", [{"bw_rule": "fixed"}, {}], ids=["config", "flag"])
    def test_fixed_rule_without_h_fails_before_the_data_is_read(self, tmp_path,
                                                                boundary_file, capsys, values):
        argv = ["estimate", "--config", self.config(tmp_path, values), "--data",
                str(tmp_path / "missing.csv"), "--boundary", boundary_file]
        if not values:
            argv += ["--bw-rule", "fixed"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --bw-rule fixed requires --h\n"

    def test_number_for_a_path_is_a_file_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["estimate", "--config", self.config(tmp_path, {"boundary": 0}),
                     "--data", "missing.csv"]) == 1
        assert capsys.readouterr().err == \
            "error: [Errno 2] No such file or directory: '0'\n"

    def test_range_message_shows_the_typed_value(self, tmp_path, capsys):
        assert main(["simulate", "--config", self.config(tmp_path, {"alpha": 2})]) == 1
        assert capsys.readouterr().err == "error: alpha must be in (0, 1), got 2.0\n"

    @pytest.mark.parametrize("command,key,value", [
        ("estimate", "p", 2), ("estimate", "kernel", "uniform"), ("estimate", "h", 0.3),
        ("estimate", "out", "o.csv"), ("estimate", "precision", "full"),
        ("estimate", "boundary", "b.json"), ("estimate", "grid_size", 5),
        ("estimate", "alpha", 0.1), ("estimate", "bw_rule", "mse"), ("estimate", "c0", 3),
        ("estimate", "bw_exponent", -0.5), ("estimate", "band_draws", 2000),
        ("estimate", "seed", 4), ("estimate", "data", "d.csv"),
        ("estimate", "dump_cov", "c.csv"), ("simulate", "n", 100), ("simulate", "reps", 3),
        ("simulate", "dgp", "g.json"), ("bias-oracle", "h", 0.5),
        ("bias-oracle", "s_grid", "0.1,0.2"),
    ])
    def test_config_value_equals_the_flag(self, tmp_path, command, key, value):
        from_file = self.settings([command, "--config", self.config(tmp_path, {key: value})])
        from_flag = self.settings([command, "--" + key.replace("_", "-"), str(value)])
        assert from_file == from_flag
        assert from_file != self.settings([command])

    def test_flag_wins_wherever_it_stands(self, tmp_path):
        cfg = self.config(tmp_path, {"p": 0, "kernel": "uniform"})
        assert self.settings(["estimate", "--config", cfg, "--p", "2"]) == \
            self.settings(["estimate", "--p", "2", "--config", cfg]) == \
            self.settings(["estimate", "--p", "2", "--kernel", "uniform"])

    def test_value_that_looks_like_an_option(self, tmp_path):
        cfg = self.config(tmp_path, {"out": "-x.csv", "seed": 2, "bw_exponent": -1})
        settings = self.settings(["estimate", "--config", cfg])
        assert (settings["out"], settings["seed"], settings["bw_exponent"]) == ("-x.csv", 2, -1.0)

    def test_key_of_another_subcommand_is_skipped(self, tmp_path):
        cfg = self.config(tmp_path, {"n": 10, "s_grid": "x", "dump_cov": "c.csv", "p": 0})
        assert self.settings(["simulate", "--config", cfg]) == \
            self.settings(["simulate", "--p", "0", "--n", "10"])
        assert self.settings(["estimate", "--config", cfg]) == \
            self.settings(["estimate", "--p", "0", "--dump-cov", "c.csv"])

    def test_null_is_not_given(self, tmp_path):
        cfg = self.config(tmp_path, {"h": None, "p": None})
        assert self.settings(["bias-oracle", "--config", cfg]) == self.settings(["bias-oracle"])


NO_SCIPY_PROBE = """
import json, sys
import bddist, bddist.cli
argv = json.loads(sys.argv[1])
code = bddist.cli.main(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("run", ["import", "simulate", "estimate-rot", "estimate-kink",
                                 "estimate-mse"])
def test_runs_load_no_scipy(tmp_path, boundary_file, run):
    # Only the bias oracle's quadrature needs scipy, and loads it on demand;
    # the pilot rules' data diameter takes its convex hull in numpy.
    out = str(tmp_path / "out.csv")
    estimate = ["estimate", "--data", write_dataset(tmp_path), "--boundary", boundary_file,
                "--grid-size", "3", "--c0", "8", "--out", out]
    argv = {
        "import": [],
        "simulate": ["simulate", "--n", "2000", "--reps", "2", "--grid-size", "3",
                     "--c0", "8", "--band-draws", "1000", "--out", out],
        "estimate-rot": [*estimate, "--bw-rule", "rot"],
        "estimate-kink": [*estimate, "--bw-rule", "kink"],
        "estimate-mse": [*estimate, "--bw-rule", "mse"],
    }[run]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]


def test_blas_thread_count_leaves_reports_unchanged(tmp_path, boundary_file):
    # The kink rule runs the pilot's stacked products and solves, then the
    # fits, the surface and the band: BLAS threads must not move a bit.
    data = write_dataset(tmp_path, n=4000)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        out, cov = tmp_path / f"out{threads}.csv", tmp_path / f"cov{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "bddist.cli", "estimate", "--data", data,
             "--boundary", boundary_file, "--bw-rule", "kink", "--c0", "8",
             "--precision", "full", "--out", str(out), "--dump-cov", str(cov)],
            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out.read_bytes(), cov.read_bytes()))
    assert outputs[0] == outputs[1]


def test_boundary_length_warning_names_the_cli(tmp_path):
    # A zigzag packs far more than 20 h of boundary arc into each kernel
    # support; the warning on stderr names the caller of estimate.
    h = 0.1
    xs = np.arange(0, 81) * (h / 40.0)
    zigzag = {"vertices": np.column_stack([xs, np.where(np.arange(81) % 2, 0.9 * h, 0.0)]
                                          ).tolist(),
              "assignment": BOUNDARY["assignment"]}
    boundary = tmp_path / "zigzag.json"
    boundary.write_text(json.dumps(zigzag))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "bddist.cli", "estimate", "--data",
         write_dataset(tmp_path, n=4000), "--boundary", str(boundary), "--grid-size", "3",
         "--bw-rule", "fixed", "--h", str(h), "--kernel", "uniform", "--p", "0",
         "--band-draws", "1000", "--out", str(tmp_path / "out.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines() if "BoundaryLengthWarning" in line]
    assert len(warned) == 3
    assert all(f"{os.sep}bddist{os.sep}cli.py:" in line for line in warned)
    assert "inference.py" not in proc.stderr
