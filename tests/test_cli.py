import csv
import io
import json
import os
import subprocess
import sys

import pytest

from hzeta import cli, identities
from hzeta.identities import VerifyPoint, verify_identity

CLI = [sys.executable, "-m", "hzeta"]


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("HZ_DEFAULT_TOL", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=env, timeout=300
    )
    return proc


def json_lines(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def run_main(monkeypatch, capsys, *args):
    """cli.main in this process: (exit code, stdout, stderr)."""
    monkeypatch.delenv("HZ_DEFAULT_TOL", raising=False)
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid_file(tmp_path, points):
    path = tmp_path / "grid.csv"
    lines = ["s_re,s_im,alpha_re,alpha_im,r", *points]
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


class TestEval:
    def test_identity_case(self):
        proc = run_cli("eval", "--s", "2", "--alpha", "1")
        assert proc.returncode == 0
        rec = json_lines(proc.stdout)[0]
        assert rec["status"] == "OK"
        assert "error" not in rec
        assert abs(rec["value"]["re"] - 1.6449340668) < 1e-9
        assert rec["value"]["im"] == 0.0
        assert rec["k_used"] == 3  # ceil(1.75 |alpha|) + 1 at Re s >= 0

    def test_bernoulli_case(self):
        proc = run_cli("eval", "--s", "0", "--alpha", "0.3")
        assert proc.returncode == 0
        rec = json_lines(proc.stdout)[0]
        assert rec["status"] == "OK"
        assert abs(rec["value"]["re"] - 0.2) < 1e-12

    def test_pole(self):
        proc = run_cli("eval", "--s", "1", "--alpha", "0.5")
        assert proc.returncode == 2
        rec = json_lines(proc.stdout)[0]
        assert rec["status"] == "ERROR"
        assert rec["error"]["code"] == "POLE_AT_ONE"
        assert "value" not in rec and "jet" not in rec

    def test_domain_error(self):
        proc = run_cli("eval", "--s", "2", "--alpha", "-1")
        assert proc.returncode == 2
        rec = json_lines(proc.stdout)[0]
        assert rec["error"]["code"] == "DOMAIN_ERROR"

    def test_overflowing_tail_is_a_domain_error(self):
        proc = run_cli("eval", "--s=-120", "--alpha", "0.5")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        rec = json_lines(proc.stdout)[0]
        assert rec["status"] == "ERROR"
        assert rec["error"]["code"] == "DOMAIN_ERROR"
        assert "overflows binary64" in rec["error"]["message"]

    def test_nonconvergence_exit(self):
        proc = run_cli(
            "eval", "--s", "2", "--alpha", "0.97", "--k", "1", "--nmax", "50"
        )
        assert proc.returncode == 3
        rec = json_lines(proc.stdout)[0]
        assert rec["error"]["code"] == "NONCONVERGENCE"

    def test_head_past_its_cap(self, monkeypatch, capsys):
        code, out, _ = run_main(monkeypatch, capsys, "eval", "--s", "2", "--alpha", "1e9")
        assert code == 3
        rec = json_lines(out)[0]
        assert rec["error"]["code"] == "NONCONVERGENCE"
        assert "k=1750000001 for alpha=(1000000000+0j)" in rec["error"]["message"]
        code, out, err = run_main(monkeypatch, capsys, "eval", "--s", "2", "--alpha", "1e9",
                                  "--k", "1000000000")
        assert (code, out) == (1, "")
        assert err == "error: k must be <= 200000, got 1000000000\n"

    def test_complex_flags_and_jet(self):
        proc = run_cli("eval", "--s", "2,1", "--alpha", "0.5,0.5", "--order", "2")
        assert proc.returncode == 0
        rec = json_lines(proc.stdout)[0]
        assert "value" not in rec
        assert len(rec["jet"]) == 3

    def test_negative_complex_flags(self):
        proc = run_cli("eval", "--s", "-3.5,9", "--alpha", "-4,0.25")
        assert proc.returncode == 0
        assert json_lines(proc.stdout)[0]["inputs"]["s"]["re"] == -3.5

    def test_malformed_flags(self):
        assert run_cli("eval", "--s", "nope", "--alpha", "1").returncode == 1
        assert run_cli("eval", "--s", "1,2,3", "--alpha", "1").returncode == 1
        assert run_cli("eval", "--alpha", "1").returncode == 1
        assert run_cli("eval", "--s", "2", "--alpha", "inf").returncode == 1
        assert run_cli("nonsense").returncode == 1

    @pytest.mark.parametrize("args,command,message", [
        (("eval", "--s", "2", "--alpha", "x"), "eval",
         "argument --alpha: could not convert string to float: 'x'"),
        (("laurent", "--alpha", "1", "--order", "13"), "laurent",
         "argument --order: invalid choice: 13"),
    ])
    def test_flag_errors_name_the_flag(self, monkeypatch, capsys, args, command, message):
        code, out, err = run_main(monkeypatch, capsys, *args)
        assert code == 1 and out == ""
        usage, error = err.splitlines()[0], err.splitlines()[-1]
        assert usage.startswith(f"usage: hzeta {command} ")
        assert error.startswith(f"hzeta {command}: error: {message}")

    def test_near_excluded_warning(self):
        proc = run_cli("eval", "--s", "2", "--alpha", "0.0005")
        assert proc.returncode == 0
        assert "ill-conditioned" in proc.stderr

    def test_near_excluded_warning_far_from_origin(self):
        # the head at k = 151 holds the base 100 + alpha = -0.0005
        proc = run_cli("eval", "--s", "2", "--alpha=-100.0005")
        assert proc.returncode == 0
        assert "excluded point -100;" in proc.stderr

    def test_deterministic_roundtrip(self):
        first = run_cli("eval", "--s", "1.7,0.3", "--alpha", "2.4,-1", "--order", "1")
        rec = json_lines(first.stdout)[0]
        inputs = rec["inputs"]
        second = run_cli(
            "eval",
            "--s", f"{inputs['s']['re']},{inputs['s']['im']}",
            "--alpha", f"{inputs['alpha']['re']},{inputs['alpha']['im']}",
            "--order", str(inputs["order"]),
            "--k", str(inputs["k"]),
            "--tol", repr(inputs["tol"]),
            "--nmax", str(inputs["nmax"]),
        )
        rec2 = json_lines(second.stdout)[0]
        assert rec2["jet"] == rec["jet"]
        assert rec2["err_estimate"] == rec["err_estimate"]

    def test_csv_json_agree(self):
        args = ("eval", "--s", "2.5,0.5", "--alpha", "1.3", "--order", "1")
        jrec = json_lines(run_cli(*args).stdout)[0]
        csv_out = run_cli(*args, "--format", "csv").stdout
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert len(rows) == 2
        for j, row in enumerate(rows):
            assert float(row["value_re"]) == jrec["jet"][j]["re"]
            assert float(row["value_im"]) == jrec["jet"][j]["im"]
            assert float(row["err"]) == jrec["err_estimate"]
            assert int(row["k"]) == jrec["k_used"]
        assert rows[0]["status"] == "OK"

    def test_env_tol_default(self):
        proc = run_cli(
            "eval", "--s", "2", "--alpha", "1", env_extra={"HZ_DEFAULT_TOL": "1e-6"}
        )
        rec = json_lines(proc.stdout)[0]
        assert rec["inputs"]["tol"] == 1e-6

    @pytest.mark.parametrize("command", [("eval", "--s", "2"), ("laurent",)])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_tol(self, monkeypatch, capsys, command, value):
        code, out, err = run_main(monkeypatch, capsys, *command, "--alpha", "0.5",
                                  f"--tol={value}")
        assert code == cli.EXIT_USAGE
        assert f"tol must be a positive finite number, got {value}" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["1e-6x", "-1e-6", "0", "nan", "inf"])
    def test_env_tol_malformed(self, value):
        proc = run_cli(
            "eval", "--s", "2", "--alpha", "1", env_extra={"HZ_DEFAULT_TOL": value}
        )
        assert proc.returncode == 1
        assert "HZ_DEFAULT_TOL" in proc.stderr
        assert proc.stdout == ""


class TestLaurent:
    def test_classical(self):
        proc = run_cli("laurent", "--alpha", "1", "--order", "1")
        assert proc.returncode == 0
        rec = json_lines(proc.stdout)[0]
        assert abs(rec["pole_coeff"]["re"] - 1.0) < 1e-12
        assert abs(rec["gammas"][0]["re"] - 0.5772156649) < 1e-9
        # plain Laurent coefficient; the tabulated classical constant is
        # its negative at r = 1
        assert abs(rec["gammas"][1]["re"] - 0.0728158454836767) < 1e-11

    def test_half(self):
        proc = run_cli("laurent", "--alpha", "0.5", "--order", "0")
        rec = json_lines(proc.stdout)[0]
        assert abs(rec["gammas"][0]["re"] - 1.9635100260) < 1e-9

    def test_excluded(self):
        proc = run_cli("laurent", "--alpha", "-1", "--order", "0")
        assert proc.returncode == 2
        rec = json_lines(proc.stdout)[0]
        assert rec["error"]["code"] == "DOMAIN_ERROR"

    def test_order_cap(self):
        assert run_cli("laurent", "--alpha", "1", "--order", "13").returncode == 1

    def test_csv(self):
        out = run_cli("laurent", "--alpha", "0.5", "--order", "1", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out.stdout)))
        assert [row["order"] for row in rows] == ["-1", "0", "1"]


class TestVerify:
    def test_recurrence_default_grid(self):
        proc = run_cli("verify", "--identity", "recurrence")
        assert proc.returncode == 0, proc.stdout[-2000:]
        records = json_lines(proc.stdout)
        summary = records[-1]
        assert summary["summary"] and summary["failures"] == 0
        assert summary["max_rel_residual"] < 1e-5
        assert all(r["status"] == "OK" for r in records[:-1])

    def test_at_zero_grid_file(self, tmp_path):
        grid = tmp_path / "g.csv"
        grid.write_text(
            "s_re,s_im,alpha_re,alpha_im,r\n"
            + "".join(f"0,0,1.3,0,{r}\n" for r in range(4))
        )
        proc = run_cli("verify", "--identity", "at_zero", "--grid", str(grid))
        assert proc.returncode == 0
        summary = json_lines(proc.stdout)[-1]
        assert summary["failures"] == 0 and summary["points"] == 4

    def test_unknown_identity(self):
        assert run_cli("verify", "--identity", "bogus").returncode == 1

    def test_missing_grid_file(self):
        proc = run_cli("verify", "--identity", "at_zero", "--grid", "no_such.csv")
        assert proc.returncode == 1
        assert "no_such.csv" in proc.stderr

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_bad_step_names_h(self, h):
        proc = run_cli("verify", "--identity", "at_zero", "--h", h)
        assert proc.returncode == 1
        assert "step h must be a positive finite number" in proc.stderr
        assert proc.stdout == ""

    def test_csv_error_rows(self, tmp_path):
        grid = grid_file(tmp_path, ["1.6,0,0.9,0,1", "2,0,-1,0,0"])
        proc = run_cli("verify", "--identity", "recurrence", "--grid", grid,
                       "--format", "csv")
        assert proc.returncode == 2
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert [row["status"] for row in rows] == ["OK", "ERROR:DOMAIN_ERROR"]
        assert rows[1]["alpha_re"] == "-1"
        for col in ("lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_residual",
                    "rel_residual"):
            assert rows[0][col] != "" and rows[1][col] == ""
        assert "errors=1" in proc.stderr

    def test_nonconvergence_exits_3(self, tmp_path, monkeypatch, capsys):
        # the boundary search gives up at |Im s| = 4e5, as eval does there
        grid = grid_file(tmp_path, ["0.5,400000,1,0,0"])
        code, out, _ = run_main(monkeypatch, capsys, "verify", "--identity",
                                "recurrence", "--grid", grid)
        assert code == cli.EXIT_NONCONVERGENCE
        record, summary = json_lines(out)
        assert record["error"]["code"] == "NONCONVERGENCE"
        assert summary["errors"] == 1

    def test_all_calls_verify_identity_once_per_pair(self, tmp_path, monkeypatch,
                                                      capsys):
        calls = []

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return verify_identity(*args, **kwargs)

        # the function perfbench times per pair, and its tracer spans
        assert cli.verify_identity is identities.verify_identity
        grid = grid_file(tmp_path, ["1.6,0,0.9,0,1", "-0.5,2,1.3,0.4,0"])
        monkeypatch.setattr(cli, "verify_identity", counting)
        code, out, _ = run_main(monkeypatch, capsys, "verify", "--identity", "all",
                                "--grid", grid)
        assert code == 0
        records = json_lines(out)
        # as (name, point): one VerifyPoint per row, shared by its six identities
        assert all(len(args) == 2 and isinstance(args[1], VerifyPoint) and not kwargs
                   for args, kwargs in calls)
        assert len(calls) == 6 * 2 == len({args for args, _ in calls})
        assert len({args[1] for args, _ in calls}) == 2
        assert len(records) - 1 == records[-1]["points"] == len(calls)

    def test_runs_point_by_point_reports_identity_by_identity(self, tmp_path,
                                                              monkeypatch, capsys):
        calls = []

        def recording(name, point):
            calls.append((name, point.s0))
            return verify_identity(name, point)

        grid = grid_file(tmp_path, ["1.6,0,0.9,0,1", "-0.5,2,1.3,0.4,0"])
        monkeypatch.setattr(cli, "verify_identity", recording)
        code, out, _ = run_main(monkeypatch, capsys, "verify", "--identity", "all",
                                "--grid", grid)
        assert code == 0
        names = list(cli.IDENTITY_NAMES)
        assert calls == [(name, s) for s in (1.6, -0.5 + 2j) for name in names]
        records = json_lines(out)[:-1]
        assert [(r["identity"], r["s"]["re"]) for r in records] == [
            (name, s) for name in names for s in (1.6, -0.5)
        ]

    def test_rows_that_differ_in_the_sign_of_a_zero_are_points_of_their_own(
            self, tmp_path, monkeypatch, capsys):
        # at alpha = 0.3, r = 3 the rows at s = +0 and s = 0-0i differ in lhs
        # and rhs; the CLI prints each row's reports from a fresh point
        grid = grid_file(tmp_path, ["0,0,0.3,0,3", "-0,0,0.3,0,3", "0,-0,0.3,0,3"])
        code, out, _ = run_main(monkeypatch, capsys, "verify", "--identity", "all",
                                "--grid", grid)
        assert code == 0
        got = [tuple(repr(rec[key][part]) for key in ("s", "lhs", "rhs")
                     for part in ("re", "im"))
               for rec in json_lines(out)[:-1]]
        want = []
        for name in cli.IDENTITY_NAMES:
            for s, alpha, r in cli._load_grid(grid):
                rep = verify_identity(name, VerifyPoint(s, alpha, r))
                want.append(tuple(repr(part) for z in (s, rep.lhs, rep.rhs)
                                  for part in (z.real, z.imag)))
        assert got == want
        assert want[0] != want[2]

    def test_usage_error_of_the_first_pair_in_report_order(self, tmp_path):
        # point-major, AT_ONE at r = 13 (past R = 12) would come first
        grid = grid_file(tmp_path, ["0.5,0,0.3,0,13", "0.5,0,nan,0,0"])
        proc = run_cli("verify", "--identity", "all", "--grid", grid)
        assert proc.returncode == 1 and proc.stdout == ""
        assert "alpha" in proc.stderr and "must be in" not in proc.stderr

    def test_range_error_names_identity_and_point(self, tmp_path, monkeypatch, capsys):
        grid = grid_file(tmp_path, ["0.5,0,1,0,13"])
        code, out, err = run_main(monkeypatch, capsys,
                                  "verify", "--identity", "at_one", "--grid", grid)
        assert code == 1 and out == ""
        assert err == "error: AT_ONE at s=(0.5+0j), alpha=(1+0j), r=13: r must be in 0..12\n"

    @pytest.mark.parametrize("row,problem", [
        ("0.5,0,1,0", "no value in column r"),  # short row
        ("0.5,,1,0,1", "no value in column s_im"),  # empty cell
        ("0.5,0,1,0,1.5", "invalid literal for int() with base 10: '1.5'"),
        ("0.5,0,one,0,1", "could not convert string to float: 'one'"),
        ("0.5,0,1,0,1,7", "6 cells, but the header has 5 columns"),  # extra cell
    ])
    def test_bad_grid_cell_names_file_and_line(self, tmp_path, monkeypatch, capsys,
                                               row, problem):
        grid = grid_file(tmp_path, ["0.5,0,1,0,1", row])
        code, out, err = run_main(monkeypatch, capsys,
                                  "verify", "--identity", "recurrence", "--grid", grid)
        assert code == 1 and out == ""
        assert err == f"error: grid file {grid}, line 3: {problem}\n"

    @pytest.mark.parametrize("row,problem", [
        ("0.5,0,1,0,-1", "column r: derivative order must be >= 0, got -1"),
        ("0.5,0,nan,0,1", "column alpha_re: non-finite value nan"),
        ("0.5,-inf,1,0,1", "column s_im: non-finite value -inf"),
    ])
    def test_bad_grid_value_names_file_line_and_column(self, tmp_path, monkeypatch,
                                                       capsys, row, problem):
        grid = grid_file(tmp_path, ["0.5,0,1,0,1", row])
        code, out, err = run_main(monkeypatch, capsys,
                                  "verify", "--identity", "recurrence", "--grid", grid)
        assert code == 1 and out == ""
        assert err == f"error: grid file {grid}, line 3, {problem}\n"

    def test_extra_header_columns_are_allowed(self, tmp_path, monkeypatch, capsys):
        grid = tmp_path / "g.csv"
        grid.write_text("s_re,s_im,alpha_re,alpha_im,r,note\n0.5,0,1,0,1,first\n")
        code, _, _ = run_main(monkeypatch, capsys,
                              "verify", "--identity", "recurrence", "--grid", str(grid))
        assert code == 0

    def test_bad_grid_columns(self, tmp_path):
        grid = tmp_path / "bad.csv"
        grid.write_text("x,y\n1,2\n")
        proc = run_cli("verify", "--identity", "at_zero", "--grid", str(grid))
        assert proc.returncode == 1

    def test_mixed_alias(self):
        grid_args = ("verify", "--identity", "mixed", "--h", "1e-3")
        # run on a one-point grid file to keep it quick
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".csv", delete=False) as fh:
            fh.write("s_re,s_im,alpha_re,alpha_im,r\n1.6,0,0.9,0,1\n")
            path = fh.name
        try:
            proc = run_cli(*grid_args, "--grid", path)
            assert proc.returncode == 0
            assert json_lines(proc.stdout)[0]["identity"] == "MIXED_PARTIALS"
        finally:
            os.unlink(path)

    def test_program_bug_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("bug in the evaluator")

        monkeypatch.delenv("HZ_DEFAULT_TOL", raising=False)
        monkeypatch.setattr(cli, "verify_identity", broken)
        with pytest.raises(RuntimeError, match="bug in the evaluator"):
            cli.main(["verify", "--identity", "at_zero"])


class TestRecordFormat:
    """Key order of the JSON records, the CSV headers, and CSV cells that
    carry the same numbers as the JSON fields."""

    COEFF_HEADER = ("command,s_re,s_im,alpha_re,alpha_im,order,value_re,value_im,"
                    "err,k,terms,status")
    VERIFY_HEADER = ("command,identity,s_re,s_im,alpha_re,alpha_im,r,lhs_re,lhs_im,"
                     "rhs_re,rhs_im,abs_residual,rel_residual,status")

    def test_eval_keys(self, monkeypatch, capsys):
        diagnostics = ["err_estimate", "k_used", "terms_used", "status"]
        _, out, _ = run_main(monkeypatch, capsys, "eval", "--s", "2", "--alpha", "1")
        rec = json_lines(out)[0]
        assert list(rec) == ["command", "inputs", "value"] + diagnostics
        assert list(rec["inputs"]) == ["s", "alpha", "order", "k", "tol", "nmax"]
        assert list(rec["value"]) == ["re", "im"]
        _, out, _ = run_main(monkeypatch, capsys, "eval", "--s", "2", "--alpha", "1",
                             "--order", "2")
        assert list(json_lines(out)[0]) == ["command", "inputs", "jet"] + diagnostics
        _, out, _ = run_main(monkeypatch, capsys, "eval", "--s", "1", "--alpha", "0.5")
        rec = json_lines(out)[0]
        assert list(rec) == ["command", "inputs", "status", "error"]
        assert list(rec["error"]) == ["code", "message"]

    def test_laurent_keys(self, monkeypatch, capsys):
        _, out, _ = run_main(monkeypatch, capsys, "laurent", "--alpha", "0.5")
        rec = json_lines(out)[0]
        assert list(rec) == ["command", "inputs", "pole_coeff", "gammas", "status"]
        assert list(rec["inputs"]) == ["alpha", "order"]
        _, out, _ = run_main(monkeypatch, capsys, "laurent", "--alpha", "-1")
        assert list(json_lines(out)[0]) == ["command", "inputs", "status", "error"]

    def test_verify_keys(self, tmp_path, monkeypatch, capsys):
        grid = grid_file(tmp_path, ["1.6,0,0.9,0,1", "2,0,-1,0,0"])
        _, out, _ = run_main(monkeypatch, capsys, "verify", "--identity", "recurrence",
                             "--grid", grid)
        pair, error, summary = json_lines(out)
        head = ["command", "identity", "s", "alpha", "r"]
        assert list(pair) == head + ["lhs", "rhs", "abs_residual", "rel_residual",
                                     "status"]
        assert list(error) == head + ["status", "error"]
        assert list(summary) == ["command", "summary", "points", "failures", "errors",
                                 "max_rel_residual"]

    @pytest.mark.parametrize("args, header", [
        (("eval", "--s", "2", "--alpha", "1"), COEFF_HEADER),
        (("eval", "--s", "1", "--alpha", "1"), COEFF_HEADER),
        (("laurent", "--alpha", "1"), COEFF_HEADER),
        (("verify", "--identity", "at_zero", "--h", "1e-3"), VERIFY_HEADER),
    ])
    def test_csv_headers(self, args, header, monkeypatch, capsys):
        _, out, _ = run_main(monkeypatch, capsys, *args, "--format", "csv")
        assert out.splitlines()[0] == header

    def test_laurent_csv_json_agree(self, monkeypatch, capsys):
        args = ("laurent", "--alpha", "0.5,0.25", "--order", "3")
        _, out, _ = run_main(monkeypatch, capsys, *args)
        rec = json_lines(out)[0]
        _, out, _ = run_main(monkeypatch, capsys, *args, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        values = [rec["pole_coeff"]] + rec["gammas"]
        assert [int(row["order"]) for row in rows] == list(range(-1, 4))
        for row, value in zip(rows, values):
            assert float(row["value_re"]) == value["re"]
            assert float(row["value_im"]) == value["im"]
            assert float(row["alpha_re"]) == rec["inputs"]["alpha"]["re"]
            assert float(row["alpha_im"]) == rec["inputs"]["alpha"]["im"]
            assert row["s_re"] == row["s_im"] == row["err"] == ""
            assert row["status"] == rec["status"]

    def test_verify_csv_json_agree(self, tmp_path, monkeypatch, capsys):
        grid = grid_file(tmp_path, ["1.6,0,0.9,0,1", "-0.5,2,1.3,0.4,2", "2,0,-1,0,0"])
        args = ("verify", "--identity", "recurrence", "--grid", grid)
        _, out, _ = run_main(monkeypatch, capsys, *args)
        records = json_lines(out)[:-1]
        _, out, err = run_main(monkeypatch, capsys, *args, "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(records) == 3
        for row, rec in zip(rows, records):
            assert row["identity"] == rec["identity"]
            assert int(row["r"]) == rec["r"]
            for key in ("s", "alpha", "lhs", "rhs"):
                if key in rec:
                    assert float(row[key + "_re"]) == rec[key]["re"]
                    assert float(row[key + "_im"]) == rec[key]["im"]
            for key in ("abs_residual", "rel_residual"):
                if key in rec:
                    assert float(row[key]) == rec[key]
            if "error" in rec:
                assert row["status"] == "ERROR:" + rec["error"]["code"]
            else:
                assert row["status"] == rec["status"]
        assert err.startswith("# max_rel_residual=")


def test_import_loads_neither_fractions_nor_numpy():
    # a fresh interpreter, so that no other test's imports count
    probe = ("import sys, hzeta.cli; print(sorted("
             "{'fractions', 'numpy', 'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
