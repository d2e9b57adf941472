"""Command-line front end; every numerical path delegates to the library.

Exit codes: 0 on success (including a passing certificate), 2 when a
certificate fails its margin checks, 1 on usage or numerical errors.
Outputs are deterministic: identical flags produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .counterexample import (
    CounterexampleConfig,
    certificate_to_json,
    certify_degenerate,
    nondegenerate_evidence,
)
from .errors import SlitkitError
from .potential import (
    annulus_harmonic_measure_inner,
    annulus_period_matrix,
    radii_solve,
    squeezing_annulus,
)
from .prime import DEFAULT_TRUNC_TOL, AnnulusModulus, prime_omega
from .slitmap import SlitMapParams, f_eval
from .svgfig import plot_map

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED_CERT = 2

ENV_TRUNC_TOL = "SLITKIT_TRUNC_TOL"


class _Parser(argparse.ArgumentParser):
    """Parser that reports usage problems with exit code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _complex_arg(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im - got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected re,im - got {text!r}") from exc


def _n_list_arg(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(p) for p in text.split(",") if p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers - got {text!r}"
        ) from exc
    if not values:
        raise argparse.ArgumentTypeError("n-list must be nonempty")
    return values


def _resolve_trunc_tol(value: float | None) -> float:
    if value is not None:
        return value
    env = os.environ.get(ENV_TRUNC_TOL)
    if env is None:
        return DEFAULT_TRUNC_TOL
    try:
        return float(env)
    except ValueError as exc:
        raise SlitkitError(f"{ENV_TRUNC_TOL} is not a number: {env!r}") from exc


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _print_scalar(value: float, fmt: str, out: str | None) -> None:
    value = float(value)
    if fmt == "json":
        _emit(json.dumps({"value": value}) + "\n", out)
    else:
        _emit(f"{value!r}\n", out)


def _print_complex(value: complex, fmt: str, out: str | None) -> None:
    value = complex(value)
    if fmt == "json":
        _emit(json.dumps({"re": value.real, "im": value.imag}) + "\n", out)
    else:
        _emit(f"{value.real!r},{value.imag!r}\n", out)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--trunc-tol", type=float, default=None,
                        help="bound on the prime function's relative truncation "
                             f"error (default ${ENV_TRUNC_TOL} or {DEFAULT_TRUNC_TOL})")
    common.add_argument("--out", default=None, help="output file (default stdout)")
    common.add_argument("--format", default="text", choices=("text", "json"),
                        help="scalar output format")

    parser = _Parser(prog="slitkit",
                     description="slit maps and squeezing bounds for the annulus")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("prime", parents=[common],
                       help="evaluate the annulus prime function")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)
    p.add_argument("--a", type=_complex_arg, required=True)

    p = sub.add_parser("map", parents=[common],
                       help="evaluate the circular slit disk map f_x")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)

    p = sub.add_parser("squeeze", parents=[common],
                       help="squeezing function of the annulus")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)

    p = sub.add_parser("radii", parents=[common],
                       help="slit radius from the annulus period system")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--z", type=_complex_arg, required=True)

    p = sub.add_parser("certify", parents=[common],
                       help="search and certify a degenerate counterexample")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("evidence", parents=[common],
                       help="shrinking-arc evidence table for a certified witness")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--n-list", type=_n_list_arg, default=(10, 20, 40, 80, 160))
    p.add_argument("--m", type=int, default=3)

    p = sub.add_parser("plot", parents=[common],
                       help="two-panel SVG of the annulus grid and its image")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--x", type=float, required=True)

    return parser


def _run(args: argparse.Namespace) -> int:
    trunc_tol = _resolve_trunc_tol(args.trunc_tol)
    if args.subcommand == "prime":
        w = prime_omega(args.z, args.a, AnnulusModulus(args.r, trunc_tol))
        _print_complex(complex(w), args.format, args.out)
        return EXIT_OK
    if args.subcommand == "map":
        params = SlitMapParams(AnnulusModulus(args.r, trunc_tol), args.x)
        _print_complex(complex(f_eval(params, args.z)), args.format, args.out)
        return EXIT_OK
    if args.subcommand == "squeeze":
        _print_scalar(squeezing_annulus(args.z, args.r), args.format, args.out)
        return EXIT_OK
    if args.subcommand == "radii":
        omega = annulus_harmonic_measure_inner(args.z, args.r)
        radius = radii_solve(annulus_period_matrix(args.r), 0, [omega])
        _print_scalar(float(radius[0]), args.format, args.out)
        return EXIT_OK
    if args.subcommand == "certify":
        cfg = CounterexampleConfig(r=args.r, x0=args.x0, tol=args.tol,
                                   trunc_tol=trunc_tol)
        cert = certify_degenerate(cfg)
        _emit(certificate_to_json(cert), args.out)
        return EXIT_OK if cert.passed else EXIT_FAILED_CERT
    if args.subcommand == "evidence":
        cfg = CounterexampleConfig(r=args.r, x0=args.x0, tol=args.tol,
                                   n_list=args.n_list, m=args.m,
                                   trunc_tol=trunc_tol)
        cert = certify_degenerate(cfg)
        if not cert.passed:
            sys.stderr.write("certificate failed; no evidence table emitted\n")
            sys.stderr.write(certificate_to_json(cert))
            return EXIT_FAILED_CERT
        table = nondegenerate_evidence(cfg, cert)
        _emit(table.to_csv(), args.out)
        return EXIT_OK
    if args.subcommand == "plot":
        doc = plot_map(args.r, args.x, trunc_tol=trunc_tol)
        _emit(doc, args.out)
        return EXIT_OK
    raise SlitkitError(f"unknown subcommand {args.subcommand!r}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except SlitkitError as exc:
        sys.stderr.write(f"slitkit: {exc}\n")
        return EXIT_ERROR
    except OSError as exc:
        sys.stderr.write(f"slitkit: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
