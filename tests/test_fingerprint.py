"""tools/fingerprint.py: the same outputs give the same hash, and a one-ulp
change to one coefficient gives another, in every group; --compare names
the change and, for library results, each side's digits against mpmath."""

import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import fingerprint  # noqa: E402
from hzeta import EvalResult, Jet  # noqa: E402


def few_ops(group):
    ops = fingerprint.workloads.POOLS[group](1)
    if group == "verify_all":
        return [ops[0][:2]]  # one grid of two points
    if group == "cli_oneshot":
        return ops[:2]  # an order-0 eval in JSON and in CSV
    return ops[:3]  # jets_deep: two jets and a Stieltjes table


def group_hash(group):
    return fingerprint.digest(fingerprint.group_lines(group, 1, few_ops(group)))


def one_ulp_up(x: float) -> float:
    return math.nextafter(x, math.inf)


@pytest.mark.parametrize("group", fingerprint.GROUPS)
def test_two_runs_hash_the_same(group):
    assert group_hash(group) == group_hash(group)


@pytest.mark.parametrize("group", ["sweep_values", "jets_deep"])
def test_one_ulp_in_a_library_result_changes_the_hash(group, monkeypatch):
    before = group_hash(group)
    hurwitz_jet = fingerprint.hzeta.hurwitz_jet

    def nudged(*args):
        res = hurwitz_jet(*args)
        c = res.value.coeffs
        value = Jet((complex(one_ulp_up(c[0].real), c[0].imag),) + c[1:])
        return EvalResult(value, res.err_estimate, res.k_used, res.terms_used)

    monkeypatch.setattr(fingerprint.hzeta, "hurwitz_jet", nudged)
    assert group_hash(group) != before


@pytest.mark.parametrize("group", ["cli_oneshot", "verify_all"])
def test_one_ulp_in_a_printed_coefficient_changes_the_hash(group, monkeypatch):
    before = group_hash(group)
    run_cli = fingerprint.run_cli

    def nudged(args):
        out, err, code = run_cli(args)
        if args[-1] != "json":
            return out, err, code
        lines = out.splitlines()
        rec = json.loads(lines[0])
        field = rec["value"] if "value" in rec else rec["lhs"]
        field["re"] = one_ulp_up(field["re"])
        return "\n".join([json.dumps(rec), *lines[1:]]) + "\n", err, code

    monkeypatch.setattr(fingerprint, "run_cli", nudged)
    assert group_hash(group) != before


def test_compare_names_a_one_ulp_change_in_one_rhs(tmp_path):
    lines = fingerprint.group_lines("verify_all", 1, few_ops("verify_all"))
    name, payload = lines[0].split("\t")
    rec = json.loads(json.loads(payload))
    rhs = complex(rec["rhs"]["re"], rec["rhs"]["im"])
    rec["rhs"]["re"] = one_ulp_up(rec["rhs"]["re"])
    nudged = [f"{name}\t{json.dumps(json.dumps(rec) + chr(10))}", *lines[1:]]
    for dump, group_lines in (("a", lines), ("b", nudged)):
        (tmp_path / dump).mkdir()
        for group in fingerprint.GROUPS:
            text = "".join(f"{x}\n" for x in group_lines) if group == "verify_all" else ""
            (tmp_path / dump / f"{group}.txt").write_text(text)
    report = fingerprint.compare(tmp_path / "a", tmp_path / "b")
    ulp = math.ulp(rhs.real)
    assert report == [
        "sweep_values\t0 of 0 lines differ",
        "jets_deep\t0 of 0 lines differ",
        "cli_oneshot\t0 of 0 lines differ",
        f"verify_all\t1 of {len(lines)} lines differ",
        f"  {rec['identity']}.rhs\t1 records\tmax abs change {ulp:.2g}"
        f"\tmax rel change {ulp / abs(rhs):.2g}",
    ]


def test_compare_counts_digits_against_mpmath(tmp_path):
    pytest.importorskip("mpmath")
    lines = fingerprint.group_lines("sweep_values", 1, few_ops("sweep_values"))
    name, payload = lines[0].split("\t")
    values, err = fingerprint._result(payload)
    # three correct digits in coefficient 0, far outside the estimate
    worse = EvalResult(Jet((values[0] + 1e-3 * max(1.0, abs(values[0])),)), err, 1, 1)
    nudged = [f"{name}\t{worse!r}", *lines[1:]]
    for dump, group_lines in (("a", lines), ("b", nudged)):
        (tmp_path / dump).mkdir()
        for group in fingerprint.GROUPS:
            text = "".join(f"{x}\n" for x in group_lines) if group == "sweep_values" else ""
            (tmp_path / dump / f"{group}.txt").write_text(text)
    report = fingerprint.compare(tmp_path / "a", tmp_path / "b")
    assert report[0] == f"sweep_values\t1 of {len(lines)} lines differ"
    head, side_a, side_b = report[1].split("\t")
    assert head == "  against mpmath (1 results)"
    assert side_b == "B: worst 3.00 digits, mean 3.000, 1 below 6, 1 missed"
    # one result, so its worst digits are its mean
    worst_a, mean_a = side_a.removeprefix("A: worst ").split(" digits, mean ")
    assert float(worst_a) > 6 and abs(float(mean_a.split(",")[0]) - float(worst_a)) <= 0.005
    assert side_a.endswith(", 0 below 6, 0 missed")
    assert report[2:] == ["jets_deep\t0 of 0 lines differ", "cli_oneshot\t0 of 0 lines differ",
                          "verify_all\t0 of 0 lines differ"]


def test_compare_names_a_field_of_a_cli_record_and_of_a_csv_row(tmp_path):
    # few_ops("cli_oneshot") is an order-0 eval printed as JSON, then as CSV
    lines = fingerprint.group_lines("cli_oneshot", 1, few_ops("cli_oneshot"))
    nudged = []
    for line in lines:
        name, payload = line.split("\t")
        out = json.loads(payload)
        header, *rows = out["stdout"].splitlines()
        if not rows:
            rec = json.loads(header)
            err = rec["err_estimate"]
            rec["err_estimate"] = one_ulp_up(err)
            out["stdout"] = json.dumps(rec) + "\n"
        else:
            cells = rows[0].split(",")
            at = header.split(",").index("value_re")
            value = float(cells[at])
            cells[at] = format(one_ulp_up(value), ".17g")
            out["stdout"] = f"{header}\n{','.join(cells)}\n"
        nudged.append(f"{name}\t{json.dumps(out)}")
    for dump, group_lines in (("a", lines), ("b", nudged)):
        (tmp_path / dump).mkdir()
        for group in fingerprint.GROUPS:
            text = "".join(f"{x}\n" for x in group_lines) if group == "cli_oneshot" else ""
            (tmp_path / dump / f"{group}.txt").write_text(text)
    report = fingerprint.compare(tmp_path / "a", tmp_path / "b")
    assert report[2:5] == [
        "cli_oneshot\t2 of 2 lines differ",
        f"  stdout.0.value_re\t1 records\tmax abs change {math.ulp(value):.2g}"
        f"\tmax rel change {math.ulp(value) / abs(value):.2g}",
        f"  stdout.err_estimate\t1 records\tmax abs change {math.ulp(err):.2g}"
        f"\tmax rel change {math.ulp(err) / err:.2g}",
    ]
