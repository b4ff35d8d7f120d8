"""Command-line front end: eval, laurent, and verify subcommands with
JSON Lines or CSV output.

Exit codes: 0 success, 1 usage errors, 2 domain errors (pole, excluded
alpha), 3 nonconvergence or verification residuals above tolerance.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys

from .errors import (
    DomainError,
    HZetaError,
    NearPole,
    Nonconvergence,
    PoleAtOne,
    SingularJet,
)
from .hurwitz import SeriesParams, hurwitz_jet
from .identities import IDENTITY_NAMES, verify_identity
from .stieltjes import MAX_GENERALIZED_ORDER, generalized_stieltjes

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3

_ERROR_CODES = {
    PoleAtOne: "POLE_AT_ONE",
    NearPole: "NEAR_POLE",
    DomainError: "DOMAIN_ERROR",
    SingularJet: "DOMAIN_ERROR",
    Nonconvergence: "NONCONVERGENCE",
}

_ERROR_EXITS = {
    "POLE_AT_ONE": EXIT_DOMAIN,
    "NEAR_POLE": EXIT_DOMAIN,
    "DOMAIN_ERROR": EXIT_DOMAIN,
    "NONCONVERGENCE": EXIT_NONCONVERGENCE,
}

# residual tolerances per identity on the default grid
_VERIFY_TOL = {name: 1e-5 for name in IDENTITY_NAMES}

_DEFAULT_S_GRID = (-2.5, -1.0, -0.3, 0.5, 2.0, 3 + 2j)
_DEFAULT_ALPHA_GRID = (0.3, 1.0, 1.7, 2 + 2j)
_DEFAULT_R_GRID = (0, 1, 2, 3)


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
    """The --tol default: HZ_DEFAULT_TOL when set, else 1e-12."""
    env = os.environ.get("HZ_DEFAULT_TOL")
    if not env:
        return 1e-12
    try:
        tol = float(env)
        if 0 < tol < math.inf:
            return tol
    except ValueError:
        pass
    raise ValueError(f"HZ_DEFAULT_TOL must be a positive finite number, got {env!r}")


def _fmt17(x: float) -> str:
    return format(x, ".17g")


def _complex_obj(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit_json(record: dict) -> None:
    print(json.dumps(record, separators=(", ", ": ")))


def _emit_csv_rows(rows: list[list], header: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    sys.stdout.write(buf.getvalue())


_EVAL_CSV_HEADER = [
    "command", "s_re", "s_im", "alpha_re", "alpha_im", "order",
    "value_re", "value_im", "err", "k", "terms", "status",
]


def _error_record(command: str, inputs: dict, exc: HZetaError) -> tuple[dict, int]:
    code = _ERROR_CODES[type(exc)]
    record = {
        "command": command,
        "inputs": inputs,
        "status": "ERROR",
        "error": {"code": code, "message": str(exc)},
    }
    return record, _ERROR_EXITS[code]


def cmd_eval(args) -> int:
    inputs = {
        "s": _complex_obj(args.s),
        "alpha": _complex_obj(args.alpha),
        "order": args.order,
        "k": "auto" if args.k is None else args.k,
        "tol": args.tol,
        "nmax": args.nmax,
    }
    for n in range(0, 64):
        if abs(n + args.alpha) < 1e-3:
            print(
                f"warning: alpha is within 1e-3 of the excluded point {-n}; "
                "the evaluation is ill-conditioned",
                file=sys.stderr,
            )
            break
    try:
        p = SeriesParams(k=args.k, n_max=args.nmax, tol=args.tol)
        res = hurwitz_jet(args.s, args.alpha, args.order, p)
    except HZetaError as exc:
        record, code = _error_record("eval", inputs, exc)
        if args.format == "json":
            _emit_json(record)
        else:
            row = ["eval", _fmt17(args.s.real), _fmt17(args.s.imag),
                   _fmt17(args.alpha.real), _fmt17(args.alpha.imag), args.order,
                   "", "", "", "", "", "ERROR:" + record["error"]["code"]]
            _emit_csv_rows([row], _EVAL_CSV_HEADER)
        return code

    record = {
        "command": "eval",
        "inputs": inputs,
        "err_estimate": res.err_estimate,
        "k_used": res.k_used,
        "terms_used": res.terms_used,
        "status": "OK",
    }
    if args.order == 0:
        record["value"] = _complex_obj(res.value.value)
    else:
        record["jet"] = [_complex_obj(c) for c in res.value.coeffs]
    if args.format == "json":
        # keep key order: value/jet ahead of diagnostics
        ordered = {"command": record["command"], "inputs": record["inputs"]}
        for key in ("value", "jet"):
            if key in record:
                ordered[key] = record[key]
        for key in ("err_estimate", "k_used", "terms_used", "status"):
            ordered[key] = record[key]
        _emit_json(ordered)
    else:
        rows = []
        for j, c in enumerate(res.value.coeffs):
            rows.append([
                "eval", _fmt17(args.s.real), _fmt17(args.s.imag),
                _fmt17(args.alpha.real), _fmt17(args.alpha.imag), j,
                _fmt17(c.real), _fmt17(c.imag), _fmt17(res.err_estimate),
                res.k_used, res.terms_used, "OK",
            ])
        _emit_csv_rows(rows, _EVAL_CSV_HEADER)
    return EXIT_OK


def cmd_laurent(args) -> int:
    inputs = {"alpha": _complex_obj(args.alpha), "order": args.order}
    try:
        p = SeriesParams(tol=args.tol)
        expansion = generalized_stieltjes(args.alpha, args.order, p)
    except HZetaError as exc:
        record, code = _error_record("laurent", inputs, exc)
        if args.format == "json":
            _emit_json(record)
        else:
            row = ["laurent", "", "", _fmt17(args.alpha.real),
                   _fmt17(args.alpha.imag), args.order, "", "", "", "", "",
                   "ERROR:" + record["error"]["code"]]
            _emit_csv_rows([row], _EVAL_CSV_HEADER)
        return code

    if args.format == "json":
        _emit_json({
            "command": "laurent",
            "inputs": inputs,
            "pole_coeff": _complex_obj(expansion.pole_coeff),
            "gammas": [_complex_obj(g) for g in expansion.gammas],
            "status": "OK",
        })
    else:
        rows = [["laurent", "", "", _fmt17(args.alpha.real),
                 _fmt17(args.alpha.imag), -1, _fmt17(expansion.pole_coeff.real),
                 _fmt17(expansion.pole_coeff.imag), "", "", "", "OK"]]
        for r, g in enumerate(expansion.gammas):
            rows.append(["laurent", "", "", _fmt17(args.alpha.real),
                         _fmt17(args.alpha.imag), r, _fmt17(g.real),
                         _fmt17(g.imag), "", "", "", "OK"])
        _emit_csv_rows(rows, _EVAL_CSV_HEADER)
    return EXIT_OK


def _load_grid(path: str) -> list[tuple[complex, complex, int]]:
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"s_re", "s_im", "alpha_re", "alpha_im", "r"}
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"grid file needs columns {sorted(required)}, got {reader.fieldnames}"
            )
        for row in reader:
            points.append((
                complex(float(row["s_re"]), float(row["s_im"])),
                complex(float(row["alpha_re"]), float(row["alpha_im"])),
                int(row["r"]),
            ))
    return points


def _default_grid(identity: str) -> list[tuple[complex, complex, int]]:
    if identity in ("AT_ZERO", "AT_ONE", "GAMMA_DERIV"):
        return [(0j, a, r) for a in _DEFAULT_ALPHA_GRID for r in _DEFAULT_R_GRID]
    return [
        (complex(s), a, r)
        for s in _DEFAULT_S_GRID
        for a in _DEFAULT_ALPHA_GRID
        for r in _DEFAULT_R_GRID
    ]


_VERIFY_CSV_HEADER = [
    "command", "identity", "s_re", "s_im", "alpha_re", "alpha_im", "r",
    "lhs_re", "lhs_im", "rhs_re", "rhs_im", "abs_residual", "rel_residual",
    "status",
]


def cmd_verify(args) -> int:
    if args.identity == "all":
        names = list(IDENTITY_NAMES)
    else:
        name = args.identity.upper()
        names = ["MIXED_PARTIALS" if name == "MIXED" else name]
    if args.grid == "default":
        grids = {name: _default_grid(name) for name in names}
    else:
        points = _load_grid(args.grid)
        grids = {name: points for name in names}

    rows = []
    records = []
    max_residual = 0.0
    failures = 0
    errors = 0
    for name in names:
        tol = _VERIFY_TOL[name]
        for s, alpha, r in grids[name]:
            try:
                rep = verify_identity(name, s, alpha, r, h=args.h)
            except HZetaError as exc:
                errors += 1
                records.append({
                    "command": "verify", "identity": name,
                    "s": _complex_obj(complex(s)), "alpha": _complex_obj(complex(alpha)),
                    "r": r, "status": "ERROR",
                    "error": {"code": _ERROR_CODES[type(exc)], "message": str(exc)},
                })
                continue
            ok = rep.rel_residual <= tol
            if not ok:
                failures += 1
            max_residual = max(max_residual, rep.rel_residual)
            records.append({
                "command": "verify", "identity": name,
                "s": _complex_obj(complex(s)), "alpha": _complex_obj(complex(alpha)),
                "r": r, "lhs": _complex_obj(rep.lhs), "rhs": _complex_obj(rep.rhs),
                "abs_residual": rep.abs_residual, "rel_residual": rep.rel_residual,
                "status": "OK" if ok else "FAIL",
            })
            rows.append([
                "verify", name, _fmt17(complex(s).real), _fmt17(complex(s).imag),
                _fmt17(complex(alpha).real), _fmt17(complex(alpha).imag), r,
                _fmt17(rep.lhs.real), _fmt17(rep.lhs.imag),
                _fmt17(rep.rhs.real), _fmt17(rep.rhs.imag),
                _fmt17(rep.abs_residual), _fmt17(rep.rel_residual),
                "OK" if ok else "FAIL",
            ])

    if args.format == "json":
        for record in records:
            _emit_json(record)
        _emit_json({
            "command": "verify", "summary": True,
            "points": len(records), "failures": failures, "errors": errors,
            "max_rel_residual": max_residual,
        })
    else:
        _emit_csv_rows(rows, _VERIFY_CSV_HEADER)
        print(f"# max_rel_residual={_fmt17(max_residual)} failures={failures} "
              f"errors={errors}", file=sys.stderr)
    if errors:
        return EXIT_DOMAIN
    return EXIT_OK if failures == 0 else EXIT_NONCONVERGENCE


def build_parser() -> _Parser:
    parser = _Parser(prog="hzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate zeta(s, alpha) or its s-jet")
    p_eval.add_argument("--s", type=_complex_arg, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--alpha", type=_complex_arg, required=True, metavar="RE[,IM]")
    p_eval.add_argument("--order", type=int, default=0, metavar="R")
    p_eval.add_argument("--k", type=_k_arg, default=None, metavar="K|auto")
    p_eval.add_argument("--tol", type=float, default=_default_tol())
    p_eval.add_argument("--nmax", type=int, default=400)
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
    if args.command == "verify" and args.grid != "default":
        if not os.path.exists(args.grid):
            print(f"error: grid file not found: {args.grid}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
