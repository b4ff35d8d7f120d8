import csv
import io
import json
import os
import subprocess
import sys

import pytest

from hzeta import cli
from hzeta.errors import SingularJet

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


class TestEval:
    def test_identity_case(self):
        proc = run_cli("eval", "--s", "2", "--alpha", "1")
        assert proc.returncode == 0
        rec = json_lines(proc.stdout)[0]
        assert rec["status"] == "OK"
        assert "error" not in rec
        assert abs(rec["value"]["re"] - 1.6449340668) < 1e-9
        assert rec["value"]["im"] == 0.0
        assert rec["k_used"] == 2

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
        assert run_cli("nonsense").returncode == 1

    def test_near_excluded_warning(self):
        proc = run_cli("eval", "--s", "2", "--alpha", "0.0005")
        assert proc.returncode == 0
        assert "ill-conditioned" in proc.stderr

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

    def test_singular_jet_is_domain_error(self, monkeypatch, capsys):
        def singular(*args, **kwargs):
            raise SingularJet("reciprocal of a jet with zero leading coefficient")

        monkeypatch.delenv("HZ_DEFAULT_TOL", raising=False)
        monkeypatch.setattr(cli, "verify_identity", singular)
        assert cli.main(["verify", "--identity", "at_zero"]) == cli.EXIT_DOMAIN
        records = json_lines(capsys.readouterr().out)
        assert records[0]["error"]["code"] == "DOMAIN_ERROR"
        assert records[-1]["errors"] == len(records) - 1
