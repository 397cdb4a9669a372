"""Command-line interface: window arithmetic, point evaluation, sweeps, verify.

Exit codes: 0 on success, 1 when the acceptance suite fails, 2 for
invalid parameters or an unwritable output path (argparse errors also
exit 2).  A sweep that exits 2 has created or replaced no file and
printed nothing on stdout.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .amplitudes import lambda_hat
from .construction import DEFAULT_GRID, DEFAULT_RHO, lambda_window, make_params
from .errors import FitDataError, InvalidParameterError
from .sweep import build_report, csv_lines, report_json, run_sweep
from .symbols import SignTriple


def _split3(text: str, convert, kind: str, what: str) -> list:
    """The three comma-separated values of ``text``, each through ``convert``."""
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidParameterError(f"expected three comma-separated {kind}, got {text!r}")
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise InvalidParameterError(f"bad {what} {text!r}: {exc}") from exc


def _parse_triple_of_ints(text: str) -> tuple[int, int, int]:
    # argparse prints an ArgumentTypeError's own text; for any other
    # ValueError it prints the type function's name instead
    try:
        return tuple(_split3(text, int, "integers", "grid"))  # type: ignore[return-value]
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_vec3(text: str) -> np.ndarray:
    return np.array(_split3(text, float, "floats", "vector"))


def _write_all(texts: dict[str, str]) -> None:
    """Write each text to its path, or write none.

    Each text goes to a temporary file beside its target, and the targets
    are replaced only once every text is written, so a text that cannot
    be written leaves no new or replaced target; no temporary file is
    left either way.
    """
    temps: dict[Path, str] = {}
    try:
        for path, text in texts.items():
            try:
                if Path(path).is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
                with open(tmp, "x", newline="") as fh:
                    temps[tmp] = path
                    fh.write(text)
            except OSError as exc:  # named by its target, not its temporary file
                raise OSError(exc.errno, exc.strerror, path) from exc
        for tmp, path in temps.items():
            os.replace(tmp, path)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


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
    # the report is built before anything is written, so a fit that
    # fails leaves no file behind
    texts = {args.out: "\n".join(csv_lines(records)) + "\n"}
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
        texts[args.json] = report_json(report)
    try:
        _write_all(texts)
    except OSError as exc:
        raise InvalidParameterError(f"cannot write output: {exc}") from exc
    print(f"wrote {args.out} ({len(records)} records)")
    if args.json:
        print(f"wrote {args.json}")
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
