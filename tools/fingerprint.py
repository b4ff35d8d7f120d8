"""Fingerprint of every output the benchmark workloads produce: one sha256 per
group, so that "bitwise identical" can be checked between two checkouts.

    PYTHONPATH=src python3 tools/fingerprint.py --seeds 1 2 3 [--dump DIR]

The pools come from perfbench/workloads.py for each seed.  One line per
operation, in pool order, goes into its group's hash:

    sweep_values, jets_deep  the repr of each result (EvalResult or
                             LaurentExpansion), or the exception's type and
                             message;
    cli_oneshot              stdout, stderr and exit code of each
                             `python -m hzeta` command;
    verify_all               each record `hzeta verify --identity all` prints
                             for each grid, then the grid's stderr and exit
                             code.

The library calls run in this process, against whichever hzeta is
importable; the CLI processes get that same hzeta through PYTHONPATH.  So
to fingerprint another commit, point PYTHONPATH at the src/ of a second
checkout of it (`git worktree add` or `git archive`).  --dump DIR writes
each group's lines to DIR/<group>.txt, so that `diff -r` between two dumps
names the operations that differ.

    python3 tools/fingerprint.py --compare DIR_A DIR_B

compares two such dumps instead: for each group it prints how many lines
differ, and for the differing JSON records (verify records, CLI outputs)
each field that differs, with the largest absolute and relative change of
a numeric field (a field whose record names an identity is listed under
it).  A CLI output's stdout is read as its JSON record, or as its CSV rows
under their header, so a field reads stdout.err_estimate or
stdout.0.value_re (row 0).  For the differing lines of sweep_values and jets_deep that hold a
result on both sides, it prints each side's accuracy against the mpmath
references of perfbench/reference.py: the worst and the mean digits, the
number of results below 6 digits and the number that miss their
err_estimate.
"""

from __future__ import annotations

import argparse
import ast
import csv
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import hzeta  # noqa: E402
import workloads  # noqa: E402

GROUPS = ("sweep_values", "jets_deep", "cli_oneshot", "verify_all")


def _arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def lib_line(op: dict) -> str:
    """The repr of one library operation's result, or of its failure."""
    try:
        if op["kind"] == "jet":
            result = hzeta.hurwitz_jet(op["s"], op["alpha"], op["r"])
        else:
            result = hzeta.generalized_stieltjes(op["alpha"], op["r"])
    except Exception as exc:  # noqa: BLE001 - a failure is an output like any other
        return f"{type(exc).__name__}: {exc}"
    return repr(result)


def run_cli(args: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of `python -m hzeta ARGS`, run against
    the hzeta this process imported."""
    env = dict(os.environ)
    env.pop("HZ_DEFAULT_TOL", None)
    env["PYTHONPATH"] = str(Path(hzeta.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-m", "hzeta", *args], env=env,
                          capture_output=True, text=True)
    return proc.stdout, proc.stderr, proc.returncode


def cli_args(op: dict) -> list[str]:
    """The command perfbench/run.py runs for one cli_oneshot operation."""
    args = [op["kind"], "--alpha=" + _arg(op["alpha"]), "--order", str(op["r"]),
            "--format", op["format"]]
    if op["kind"] == "eval":
        args.insert(1, "--s=" + _arg(op["s"]))
    return args


def write_grid(path: Path, points: list[dict]) -> None:
    """A verify grid file as perfbench/run.py writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["s_re", "s_im", "alpha_re", "alpha_im", "r"])
        for p in points:
            writer.writerow([repr(p["s"].real), repr(p["s"].imag),
                             repr(p["alpha"].real), repr(p["alpha"].imag), p["r"]])


def group_lines(group: str, seed: int, ops: list | None = None) -> list[str]:
    """One line per operation of the group's pool for this seed (or of ops,
    when given), each naming the operation."""
    ops = workloads.POOLS[group](seed) if ops is None else ops
    lines = []
    if group == "verify_all":
        with tempfile.TemporaryDirectory() as tmp:
            for n, points in enumerate(ops):
                path = Path(tmp) / f"grid-{n}.csv"
                write_grid(path, points)
                out, err, code = run_cli(["verify", "--identity", "all", "--grid",
                                          str(path), "--format", "json"])
                # the grid's temporary path is not an output of the program
                out, err = (x.replace(str(path), "GRID") for x in (out, err))
                # one line per record, each an (identity, point) pair or the summary
                name = f"seed={seed} grid={n}"
                lines.extend(f"{name} record={k}\t{json.dumps(rec)}"
                             for k, rec in enumerate(out.splitlines(keepends=True)))
                lines.append(f"{name} end\t{json.dumps({'stderr': err, 'exit': code})}")
        return lines
    for i, op in enumerate(ops):
        name = f"seed={seed} op={i} {op!r}"
        if group == "cli_oneshot":
            out, err, code = run_cli(cli_args(op))
            lines.append(f"{name}\t{json.dumps({'stdout': out, 'stderr': err, 'exit': code})}")
        else:
            lines.append(f"{name}\t{lib_line(op)}")
    return lines


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _number(cell: str):
    """A CSV cell as an int or a float where it reads as one."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _stdout(text: str):
    """A CLI's stdout decoded: its JSON record (a list of them where it
    printed several), or its CSV rows as objects keyed by the header, with
    numbers read as numbers; the text itself where it is neither."""
    lines = text.splitlines()
    try:
        records = [json.loads(line) for line in lines]
    except ValueError:
        rows = list(csv.reader(lines))
        if len(rows) < 2 or len(rows[0]) < 2 or any(len(row) != len(rows[0]) for row in rows):
            return text
        return [{key: _number(cell) for key, cell in zip(rows[0], row)} for row in rows[1:]]
    return records[0] if len(records) == 1 else records or text


def _record(payload: str):
    """A line's payload as a JSON object, or None.  A verify line holds one
    printed line of JSON, encoded as a JSON string; the stdout of a CLI
    line is decoded by _stdout, so its fields read as stdout.<name>."""
    try:
        value = json.loads(payload)
        if isinstance(value, str):
            value = json.loads(value)
    except ValueError:
        return None
    if not isinstance(value, dict):
        return None
    if isinstance(value.get("stdout"), str):
        value = {**value, "stdout": _stdout(value["stdout"])}
    return value


def _fields(value, name: str = ""):
    """(name, leaf) pairs of a JSON value; a {"re", "im"} object is one
    complex leaf."""
    if isinstance(value, dict) and value.keys() == {"re", "im"}:
        yield name, complex(value["re"], value["im"])
    elif isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for key, sub in items:
            yield from _fields(sub, f"{name}.{key}" if name else str(key))
    else:
        yield name, value


def _change(a, b) -> tuple[float, float] | None:
    """|a - b|, and the same relative to the larger of |a| and |b|; None
    when either is not a number."""
    numbers = (int, float, complex)
    if isinstance(a, bool) or isinstance(b, bool) or not (
        isinstance(a, numbers) and isinstance(b, numbers)
    ):
        return None
    diff, scale = abs(a - b), max(abs(a), abs(b))
    return diff, diff / scale if scale else 0.0


def compare_lines(lines_a: list[str], lines_b: list[str]) -> tuple[int, dict]:
    """The number of differing lines, and for each differing field of the
    differing JSON records: its record count and its largest absolute and
    relative change (None when a value is not a number)."""
    differing, fields = 0, {}
    for a, b in zip_longest(lines_a, lines_b):
        if a == b:
            continue
        differing += 1
        if a is None or b is None or a.split("\t")[0] != b.split("\t")[0]:
            continue  # not the same operation
        rec_a, rec_b = (_record(x.split("\t", 1)[-1]) for x in (a, b))
        if rec_a is None or rec_b is None:
            continue
        leaves_a, leaves_b = dict(_fields(rec_a)), dict(_fields(rec_b))
        owner = f"{rec_a['identity']}." if "identity" in rec_a else ""
        for field in sorted(leaves_a.keys() | leaves_b.keys()):
            x, y = leaves_a.get(field), leaves_b.get(field)
            if x == y:
                continue
            count, worst = fields.get(owner + field, (0, (0.0, 0.0)))
            change = _change(x, y)
            if worst is not None and change is not None:
                worst = tuple(map(max, worst, change))
            else:
                worst = None
            fields[owner + field] = (count + 1, worst)
    return differing, fields


def _result(payload: str):
    """The coefficients and err_estimate (None for a Laurent table) of a
    library line's result repr, or None for a failure."""
    try:
        call = ast.parse(payload, mode="eval").body
    except SyntaxError:
        return None
    if not isinstance(call, ast.Call) or not isinstance(call.func, ast.Name):
        return None
    fields = {kw.arg: kw.value for kw in call.keywords}
    if call.func.id == "EvalResult":
        jet = fields["value"].keywords[0].value
        return list(ast.literal_eval(jet)), ast.literal_eval(fields["err_estimate"])
    if call.func.id == "LaurentExpansion":
        gammas = ast.literal_eval(fields["gammas"])
        return [ast.literal_eval(fields["pole_coeff"]), *gammas], None
    return None


def accuracy_lines(lines_a: list[str], lines_b: list[str]) -> list[str]:
    """Each side's accuracy against mpmath over the differing lines of a
    library group whose operation holds a result on both sides."""
    pairs = []
    for a, b in zip(lines_a, lines_b):
        name, _, payload_a = a.partition("\t")
        if a == b or b.partition("\t")[0] != name:
            continue
        results = _result(payload_a), _result(b.partition("\t")[2])
        if None not in results:
            pairs.append((ast.literal_eval(name.split(" ", 2)[2]), results))
    if not pairs:
        return []
    import reference  # mpmath, only where a comparison needs it

    refs = reference.References()
    sides = ([], [])
    for op, results in pairs:
        if op["kind"] == "jet":
            want = refs.jet(op["s"], op["alpha"], op["r"])
        else:
            pole, gammas = refs.laurent(op["alpha"], op["r"])
            want = [pole, *gammas]
        for side, (values, err) in zip(sides, results):
            side.append(reference.check(values, want, err))
    out = f"  against mpmath ({len(pairs)} results)"
    for label, checks in zip("AB", sides):
        digits = [c["digits"] for c in checks if c["digits"] is not None]
        worst = min(digits, default=float("nan"))
        mean = sum(digits) / len(digits) if digits else float("nan")
        below = sum(c["digits"] is None or c["digits"] < 6 for c in checks)
        out += (f"\t{label}: worst {worst:.2f} digits, mean {mean:.3f}, {below} below 6, "
                f"{sum(bool(c['missed']) for c in checks)} missed")
    return [out]


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    """The report of --compare, one line per group and per differing field."""
    out = []
    for group in GROUPS:
        lines_a, lines_b = (
            (d / f"{group}.txt").read_text().splitlines() for d in (dir_a, dir_b)
        )
        differing, fields = compare_lines(lines_a, lines_b)
        out.append(f"{group}\t{differing} of {max(len(lines_a), len(lines_b))} "
                   f"lines differ")
        for field, (count, worst) in sorted(fields.items()):
            change = ("not numeric" if worst is None else
                      "max abs change {:.2g}\tmax rel change {:.2g}".format(*worst))
            out.append(f"  {field}\t{count} records\t{change}")
        if group in ("sweep_values", "jets_deep"):
            out.extend(accuracy_lines(lines_a, lines_b))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--dump", type=Path, help="write each group's lines here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("DIR_A", "DIR_B"),
                        help="compare two --dump directories instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.dump:
        args.dump.mkdir(parents=True, exist_ok=True)
    for group in GROUPS:
        lines = [line for seed in args.seeds for line in group_lines(group, seed)]
        if args.dump:
            (args.dump / f"{group}.txt").write_text("".join(f"{x}\n" for x in lines))
        print(f"{group}\t{len(lines)}\t{digest(lines)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
