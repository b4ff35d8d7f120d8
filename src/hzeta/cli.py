"""Command-line front end: eval, laurent, and verify subcommands with
JSON Lines or CSV output.

Exit codes: 0 success, 1 usage errors, 2 domain errors (pole, excluded
alpha), 3 nonconvergence or verification residuals above tolerance.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys

from .errors import DomainError, HZetaError, NearPole, Nonconvergence, PoleAtOne
from .hurwitz import DEFAULT_PARAMS, SeriesParams, hurwitz_jet, nearest_excluded
from .identities import IDENTITY_NAMES, VerifyPoint, verify_identity
from .stieltjes import MAX_GENERALIZED_ORDER, generalized_stieltjes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3

# error class -> (record code, exit code)
_ERRORS = {
    PoleAtOne: ("POLE_AT_ONE", EXIT_DOMAIN),
    NearPole: ("NEAR_POLE", EXIT_DOMAIN),
    DomainError: ("DOMAIN_ERROR", EXIT_DOMAIN),
    Nonconvergence: ("NONCONVERGENCE", EXIT_NONCONVERGENCE),
}

# residual tolerance of every identity
_VERIFY_TOL = 1e-5

_DEFAULT_S_GRID = (-2.5, -1.0, -0.3, 0.5, 2.0, 3 + 2j)
_DEFAULT_ALPHA_GRID = (0.3, 1.0, 1.7, 2 + 2j)
_DEFAULT_R_GRID = (0, 1, 2, 3)

_COEFF_CSV_HEADER = [
    "command", "s_re", "s_im", "alpha_re", "alpha_im", "order",
    "value_re", "value_im", "err", "k", "terms", "status",
]
_VERIFY_CSV_HEADER = [
    "command", "identity", "s_re", "s_im", "alpha_re", "alpha_im", "r",
    "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_residual", "rel_residual",
    "status",
]


# let values like -3.5,9 pass as arguments rather than flags
_NEGATIVE_VALUE = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?(,-?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?)?$"
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    # argparse exits with 2 on bad flags; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def parse_complex(text: str) -> complex:
    """RE or RE,IM with no spaces."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValueError(f"expected RE or RE,IM, got {text!r}")


def _complex_arg(text: str) -> complex:
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _k_arg(text: str):
    if text == "auto":
        return None
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'auto'") from None
    if value < 1:
        raise argparse.ArgumentTypeError("k must be >= 1")
    return value


def _default_tol() -> float:
    """The --tol default: HZ_DEFAULT_TOL when set, else DEFAULT_PARAMS.tol."""
    env = os.environ.get("HZ_DEFAULT_TOL")
    if not env:
        return DEFAULT_PARAMS.tol
    try:
        tol = float(env)
        if 0 < tol < math.inf:
            return tol
    except ValueError:
        pass
    raise ValueError(f"HZ_DEFAULT_TOL must be a positive finite number, got {env!r}")


def _error_record(head: dict, exc: HZetaError) -> tuple[dict, int]:
    """The record of a failed evaluation, and the exit code its error maps to."""
    code, exit_code = _ERRORS[type(exc)]
    error = {"code": code, "message": str(exc)}
    return {**head, "status": "ERROR", "error": error}, exit_code


def cmd_eval(args) -> tuple[list[dict], int]:
    n = nearest_excluded(args.alpha)  # hurwitz_jet rejects a non-finite alpha
    if abs(n + args.alpha) < 1e-3:
        print(
            f"warning: alpha is within 1e-3 of the excluded point {-n}; "
            "the evaluation is ill-conditioned",
            file=sys.stderr,
        )
    head = {
        "command": "eval",
        "inputs": {
            "s": args.s,
            "alpha": args.alpha,
            "order": args.order,
            "k": "auto" if args.k is None else args.k,
            "tol": args.tol,
            "nmax": args.nmax,
        },
    }
    try:
        p = SeriesParams(k=args.k, n_max=args.nmax, tol=args.tol)
        res = hurwitz_jet(args.s, args.alpha, args.order, p)
    except HZetaError as exc:
        record, code = _error_record(head, exc)
        return [record], code
    if args.order == 0:
        value = {"value": res.value.value}
    else:
        value = {"jet": list(res.value.coeffs)}
    record = {**head, **value, "err_estimate": res.err_estimate, "k_used": res.k_used,
              "terms_used": res.terms_used, "status": "OK"}
    return [record], EXIT_OK


def cmd_laurent(args) -> tuple[list[dict], int]:
    head = {"command": "laurent", "inputs": {"alpha": args.alpha, "order": args.order}}
    try:
        p = SeriesParams(tol=args.tol)
        expansion = generalized_stieltjes(args.alpha, args.order, p)
    except HZetaError as exc:
        record, code = _error_record(head, exc)
        return [record], code
    record = {**head, "pole_coeff": expansion.pole_coeff,
              "gammas": list(expansion.gammas), "status": "OK"}
    return [record], EXIT_OK


_GRID_COLUMNS = ("s_re", "s_im", "alpha_re", "alpha_im", "r")


def _load_grid(path: str) -> list[tuple[complex, complex, int]]:
    """The (s, alpha, r) points of a grid file.  A missing, empty,
    unparsable, non-finite or negative cell, or a cell past the header's
    columns, raises ValueError naming the file and the line."""
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_GRID_COLUMNS) <= set(reader.fieldnames):
            raise ValueError(
                f"grid file needs columns {sorted(_GRID_COLUMNS)}, "
                f"got {reader.fieldnames}"
            )
        for row in reader:
            where = f"grid file {path}, line {reader.line_num}"
            if None in row:  # DictReader's key for the cells past the header
                raise ValueError(
                    f"{where}: {len(reader.fieldnames) + len(row[None])} cells, "
                    f"but the header has {len(reader.fieldnames)} columns"
                )
            cells = [row[name] for name in _GRID_COLUMNS]
            for name, cell in zip(_GRID_COLUMNS, cells):
                if not cell:  # None when the row is short
                    raise ValueError(f"{where}: no value in column {name}")
            try:
                s_re, s_im, alpha_re, alpha_im = floats = [float(c) for c in cells[:4]]
                r = int(cells[4])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            for name, cell, value in zip(_GRID_COLUMNS, cells, floats):
                if not math.isfinite(value):
                    raise ValueError(f"{where}, column {name}: non-finite value {cell}")
            if r < 0:
                raise ValueError(
                    f"{where}, column r: derivative order must be >= 0, got {r}"
                )
            points.append((complex(s_re, s_im), complex(alpha_re, alpha_im), r))
    return points


def _default_grid(at_zero: bool) -> list[tuple[complex, complex, int]]:
    return [
        (complex(s), complex(a), r)
        for s in ((0j,) if at_zero else _DEFAULT_S_GRID)
        for a in _DEFAULT_ALPHA_GRID
        for r in _DEFAULT_R_GRID
    ]


def cmd_verify(args) -> tuple[list[dict], int]:
    if args.identity == "all":
        names = list(IDENTITY_NAMES)
    else:
        name = args.identity.upper()
        names = ["MIXED_PARTIALS" if name == "MIXED" else name]
    points = None if args.grid == "default" else _load_grid(args.grid)
    # A grid row is a point: the names on its grid run on one VerifyPoint,
    # which shares their evaluations; report them identity by identity.  On
    # the default grid, the names that do not read s have rows at s = 0.
    groups: dict[bool, list[str]] = {}
    for name in names:
        at_zero = points is None and name in ("AT_ZERO", "AT_ONE", "GAMMA_DERIV")
        groups.setdefault(at_zero, []).append(name)
    outcomes: dict[str, list] = {name: [] for name in names}
    for at_zero, group in groups.items():
        for row in _default_grid(at_zero) if points is None else points:
            point = VerifyPoint(*row, h=args.h)
            for name in group:
                try:
                    outcomes[name].append((row, verify_identity(name, point)))
                except (HZetaError, ValueError) as exc:
                    outcomes[name].append((row, exc))

    records = []
    max_residual = 0.0
    error_exit = None  # the exit code of the first errored pair
    for name in names:
        for (s, alpha, r), rep in outcomes[name]:
            if isinstance(rep, ValueError):
                raise rep
            head = {"command": "verify", "identity": name, "s": s, "alpha": alpha, "r": r}
            if isinstance(rep, HZetaError):
                record, code = _error_record(head, rep)
                records.append(record)
                error_exit = error_exit or code
                continue
            max_residual = max(max_residual, rep.rel_residual)
            records.append({
                **head, "lhs": rep.lhs, "rhs": rep.rhs,
                "abs_residual": rep.abs_residual, "rel_residual": rep.rel_residual,
                "status": "OK" if rep.rel_residual <= _VERIFY_TOL else "FAIL",
            })
    statuses = [record["status"] for record in records]
    failures, errors = statuses.count("FAIL"), statuses.count("ERROR")
    records.append({
        "command": "verify", "summary": True, "points": len(statuses),
        "failures": failures, "errors": errors, "max_rel_residual": max_residual,
    })
    if error_exit:
        return records, error_exit
    return records, EXIT_OK if failures == 0 else EXIT_NONCONVERGENCE


def _fmt17(x: float | None) -> str:
    return "" if x is None else format(x, ".17g")


def _re_im(z: complex | None) -> list[str]:
    return ["", ""] if z is None else [_fmt17(z.real), _fmt17(z.imag)]


def _coeff_pairs(record: dict) -> list[tuple[int, complex | None]]:
    """The (order, value) pairs of an eval or laurent record, one per CSV
    row: the pole of a Laurent expansion has order -1, and an error has
    one row at the requested order with no value."""
    if "error" in record:
        return [(record["inputs"]["order"], None)]
    if record["command"] == "laurent":
        return [(-1, record["pole_coeff"]), *enumerate(record["gammas"])]
    if "jet" in record:
        return list(enumerate(record["jet"]))
    return [(0, record["value"])]


def _csv_rows(record: dict) -> list[list]:
    """The CSV rows of a record: one for a verify pair, one per (order,
    value) pair for eval and laurent."""
    if "error" in record:
        status = "ERROR:" + record["error"]["code"]
    else:
        status = record["status"]
    if record["command"] == "verify":
        return [[
            "verify", record["identity"], *_re_im(record["s"]),
            *_re_im(record["alpha"]), record["r"],
            *_re_im(record.get("lhs")), *_re_im(record.get("rhs")),
            _fmt17(record.get("abs_residual")), _fmt17(record.get("rel_residual")),
            status,
        ]]
    inputs = record["inputs"]
    head = [record["command"], *_re_im(inputs.get("s")), *_re_im(inputs["alpha"])]
    tail = [_fmt17(record.get("err_estimate")), record.get("k_used"),
            record.get("terms_used"), status]
    return [head + [order, *_re_im(value)] + tail
            for order, value in _coeff_pairs(record)]


def _render(fmt: str, command: str, records: list[dict]) -> None:
    """Print records as JSON Lines, or as CSV rows under the command's
    header; in CSV the verify summary goes to stderr as a comment."""
    if fmt == "json":
        for record in records:
            print(json.dumps(record, default=lambda z: {"re": z.real, "im": z.imag},
                             separators=(", ", ": ")))
        return
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_VERIFY_CSV_HEADER if command == "verify" else _COEFF_CSV_HEADER)
    for record in records:
        if record.get("summary"):
            print(f"# max_rel_residual={_fmt17(record['max_rel_residual'])} "
                  f"failures={record['failures']} errors={record['errors']}",
                  file=sys.stderr)
        else:
            writer.writerows(_csv_rows(record))


def build_parser() -> _Parser:
    parser = _Parser(prog="hzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate zeta(s, alpha) or its s-jet")
    p_eval.add_argument("--s", type=_complex_arg, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--alpha", type=_complex_arg, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--order", type=int, default=0, metavar="R")
    p_eval.add_argument("--k", type=_k_arg, default=None, metavar="K|auto")
    p_eval.add_argument("--tol", type=float, default=_default_tol())
    p_eval.add_argument("--nmax", type=int, default=DEFAULT_PARAMS.n_max)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_laurent = sub.add_parser(
        "laurent", help="Laurent coefficients gamma_r(alpha) at s = 1"
    )
    p_laurent.add_argument("--alpha", type=_complex_arg, required=True,
                           metavar="RE[,IM]")
    p_laurent.add_argument("--order", type=int, default=0, metavar="R",
                           choices=range(0, MAX_GENERALIZED_ORDER + 1))
    p_laurent.add_argument("--tol", type=float, default=_default_tol())
    p_laurent.add_argument("--format", choices=("json", "csv"), default="json")
    p_laurent.set_defaults(func=cmd_laurent)

    p_verify = sub.add_parser("verify", help="numerically verify the identities")
    p_verify.add_argument(
        "--identity", required=True,
        choices=[n.lower() for n in IDENTITY_NAMES] + ["mixed", "all"],
    )
    p_verify.add_argument("--grid", default="default", metavar="default|PATH")
    p_verify.add_argument("--h", type=float, default=1e-4)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        records, code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _render(args.format, args.command, records)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
