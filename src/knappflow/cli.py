"""Command-line interface: window arithmetic, point evaluation, sweeps, verify.

Exit codes: 0 on success, 1 when the acceptance suite fails, 2 for
invalid parameters or an unwritable output path (argparse errors also
exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .amplitudes import lambda_hat
from .construction import DEFAULT_GRID, DEFAULT_RHO, lambda_window, make_params
from .errors import FitDataError, InvalidParameterError
from .sweep import build_report, run_sweep, write_csv, write_report
from .symbols import SignTriple


def _parse_triple_of_ints(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected three comma-separated integers, got {text!r}")
    try:
        return tuple(int(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise InvalidParameterError(f"bad grid {text!r}: {exc}") from exc


def _parse_vec3(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected three comma-separated floats, got {text!r}")
    try:
        return np.array([float(p) for p in parts])
    except ValueError as exc:
        raise InvalidParameterError(f"bad vector {text!r}: {exc}") from exc


def _cplx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def cmd_window(args) -> int:
    win = lambda_window(args.eps, args.rho, args.k)
    if win is None:
        print("EMPTY")
    else:
        print(f"({win[0]:.17g}, {win[1]:.17g})")
    return 0


def cmd_eval(args) -> int:
    p = make_params(eps=args.eps, rho=args.rho, k=args.k, mode=args.mode)
    signs = None
    if args.signs != "all":
        signs = (SignTriple.from_string(args.signs),)
    bd = lambda_hat(p, _parse_vec3(args.xi), signs=signs)
    payload = {
        "schema": 1,
        "k": args.k,
        "lambda": p.lam,
        "t": bd.t,
        "mode": p.mode,
        "eval_point": list(bd.eval_point),
        "total": _cplx(bd.total),
        "per_sign": {str(s): _cplx(v) for s, v in bd.per_sign.items()},
        "resonant_sum": _cplx(bd.resonant_sum),
        "nonresonant_sum": _cplx(bd.nonresonant_sum),
        "nonresonant_envelope": bd.nonresonant_envelope,
        "flags": list(bd.flags),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    if args.kmax < args.kmin:
        raise InvalidParameterError(f"kmax ({args.kmax}) must be >= kmin ({args.kmin})")
    # the JSON would overwrite the CSV
    if args.json and Path(args.json).resolve() == Path(args.out).resolve():
        raise InvalidParameterError(f"--out and --json name one file: {args.out}")
    ks = list(range(args.kmin, args.kmax + 1))
    records = run_sweep(
        eps=args.eps,
        rho=args.rho,
        s_exp=args.s,
        r_exp=args.r,
        k_list=ks,
        mode=args.mode,
        grid=args.grid,
    )
    # the report is built first, so a fit that fails leaves no file behind
    report = None
    if args.json:
        report = build_report(
            records,
            args.s,
            args.r,
            params={
                "eps": args.eps,
                "rho": args.rho,
                "s": args.s,
                "r": args.r,
                "k_list": ks,
                "mode": args.mode,
                "grid": list(args.grid),
            },
        )
    try:
        write_csv(records, args.out)
        print(f"wrote {args.out} ({len(records)} records)")
        if report is not None:
            write_report(report, args.json)
            print(f"wrote {args.json}")
    except OSError as exc:
        raise InvalidParameterError(f"cannot write output: {exc}") from exc
    return 0


def cmd_verify(args) -> int:
    results = acceptance.run_all()
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knappflow",
        description="Frequency-box counterexample experiments for the quadratic "
        "wave flow map: resonance windows, amplitude evaluation, scaling sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    w = sub.add_parser("window", help="print the admissible sqrt(lambda) interval")
    w.add_argument("--eps", type=float, required=True)
    w.add_argument("--rho", type=float, required=True)
    w.add_argument("--k", type=int, required=True)
    w.set_defaults(func=cmd_window)

    e = sub.add_parser("eval", help="evaluate the amplitude breakdown at one xi")
    e.add_argument("--eps", type=float, default=0.01)
    e.add_argument("--rho", type=float, default=DEFAULT_RHO)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--mode", choices=("slab", "surface"), default="slab")
    e.add_argument("--xi", required=True, help="comma-separated x1,x2,x3")
    e.add_argument("--signs", default="all", help="'all' or a triple like '+--'")
    e.set_defaults(func=cmd_eval)

    s = sub.add_parser("sweep", help="run a window sweep and write CSV/JSON")
    s.add_argument("--eps", type=float, default=0.01)
    s.add_argument("--rho", type=float, default=DEFAULT_RHO)
    s.add_argument("--s", type=float, default=0.5, help="output Sobolev index")
    s.add_argument("--r", type=float, default=-0.25, help="datum Sobolev index")
    s.add_argument("--kmin", type=int, default=1)
    s.add_argument("--kmax", type=int, default=10)
    s.add_argument("--mode", choices=("slab", "surface"), default="slab")
    s.add_argument(
        "--grid",
        type=_parse_triple_of_ints,
        default=DEFAULT_GRID,
        help="nodes per axis of the norm quadrature (default 32,16,16); term "
        "integrals double from 2,1,1 up to 8 times this grid and are summed "
        "in fixed-size node blocks",
    )
    s.add_argument("--out", required=True, help="CSV output path")
    s.add_argument("--json", help="optional JSON report path")
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the acceptance suite (exit 0/1)")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InvalidParameterError, FitDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
