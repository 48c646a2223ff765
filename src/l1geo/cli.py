"""Command-line interface.

Subcommands operate on set documents (JSON text, see `documents`) given as a
file path or `-` for stdin.  Exit codes: 0 success/pass, 1 check failure
(non-convex input or a failed identity), 2 usage or parse errors and inputs
the library refuses with a ValueError.  Reports
print as text by default or as JSON with --json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import __version__
from ._util import as_fraction, frac_str
from .convexity import convexify, is_l1_convex
from .documents import KIND, ParseError, parse_set, print_set
from .generators import MODES, gen_random_convex
from .integral_geometry import (
    _crofton_sides,
    _kubota_sides,
    _profiles,
    crofton_profile,
    kinematic_higher_mc,
    kinematic_principal,
    kubota_profile,
    steiner_profile,
)
from .lattice import BoxUnion, CellSet, RatBox
from .pixellation import BoxUnionShape, L1Ball, outer_pixellate
from .suites import (
    SUITES,
    Report,
    VerifyConfig,
    exact_record,
    mc_record,
    verify,
)
from .valuations import (
    ball_intrinsic_volumes,
    cellset_product,
    intrinsic_volumes,
    intrinsic_volumes_cellset,
    product_rhs,
)


class CliError(Exception):
    """Usage-level failure: bad input document, bad flags, bad file."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_document(path: str) -> tuple[CellSet | BoxUnion | L1Ball, str]:
    text = _read_text(path)
    try:
        return parse_set(text), text
    except ParseError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_cellset(path: str) -> tuple[CellSet, str]:
    obj, text = _load_document(path)
    if not isinstance(obj, CellSet):
        raise CliError(f"{path}: expected a cellset document, got kind={KIND[type(obj)]!r}")
    return obj, text


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _parse_rational_flag(value: str, flag: str) -> Fraction:
    try:
        return as_fraction(value)
    except (ValueError, TypeError) as exc:
        raise CliError(f"{flag}: {exc}") from None


def _parse_vector_flag(value: str, n: int, flag: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != n:
        raise CliError(f"{flag}: expected {n} comma-separated rationals")
    return tuple(_parse_rational_flag(p, flag) for p in parts)


def _report(command: str, text: str, seed: int, records, started: float) -> Report:
    return Report(
        command=command,
        digest=_digest(text),
        seed=seed,
        records=tuple(records),
        runtime_seconds=time.perf_counter() - started,
    )


def _emit_report(report: Report, as_json: bool) -> int:
    sys.stdout.write(report.to_json() if as_json else report.to_text())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_check_convex(args) -> int:
    x, _ = _load_cellset(args.file)
    verdict = is_l1_convex(x)
    if args.json:
        payload = {
            "convex": bool(verdict),
            "witness": [list(c) for c in verdict.witness] if verdict.witness else None,
        }
        print(json.dumps(payload, indent=2))
    elif verdict:
        print("convex")
    else:
        a, b = verdict.witness
        print(f"not convex: cells {list(a)} and {list(b)} have no third cell between them")
    return 0 if verdict else 1


def _cmd_volumes(args) -> int:
    obj, _ = _load_document(args.file)
    if isinstance(obj, L1Ball):
        iv = ball_intrinsic_volumes(obj.dimension, obj.radius)
    else:
        iv = intrinsic_volumes(obj)
    if args.json:
        print(json.dumps({"intrinsic_volumes": [frac_str(v) for v in iv]}, indent=2))
    else:
        for i, v in enumerate(iv):
            print(f"V'_{i} = {frac_str(v)}")
    return 0


def _cmd_pixellate(args) -> int:
    obj, _ = _load_document(args.file)
    resolution = _parse_rational_flag(args.resolution, "--resolution")
    if isinstance(obj, L1Ball):
        shape = obj
    elif isinstance(obj, BoxUnion):
        shape = BoxUnionShape(obj)
    else:
        raise CliError("pixellate expects a shape or boxunion document")
    sys.stdout.write(print_set(outer_pixellate(shape, resolution)))
    return 0


def _cmd_convexify(args) -> int:
    x, _ = _load_cellset(args.file)
    sys.stdout.write(print_set(convexify(x)))
    return 0


def _cmd_steiner(args) -> int:
    x, text = _load_cellset(args.file)
    started = time.perf_counter()
    # largest dilation first, so a request too large to build fails at once
    profiles = {m: steiner_profile(x, m) for m in range(args.max_dilation, 0, -1)}
    records = [
        exact_record(f"steiner[m={m}]", lhs.values, rhs.values)
        for m, (lhs, rhs) in sorted(profiles.items())
    ]
    return _emit_report(_report("steiner", text, args.seed, records, started), args.json)


def _cmd_profile(args) -> int:
    """``crofton`` and ``kubota``: one record per flat or subspace dimension k;
    without ``--k``, every k is read off one doubled grid of the set."""
    profile, sides = {
        "crofton": (crofton_profile, _crofton_sides),
        "kubota": (kubota_profile, _kubota_sides),
    }[args.command]
    x, text = _load_cellset(args.file)
    started = time.perf_counter()
    if args.k is not None:
        ks, profiles = [args.k], [profile(x, args.k)]
    else:
        ks = range(x.dimension + 1)
        profiles = _profiles(sides, x, ks)
    records = [exact_record(f"{args.command}[k={k}]", *p) for k, p in zip(ks, profiles)]
    return _emit_report(_report(args.command, text, args.seed, records, started), args.json)


def _cmd_kinematic(args) -> int:
    x, text = _load_cellset(args.file)
    n = x.dimension
    if args.box_min or args.box_max:
        if not (args.box_min and args.box_max):
            raise CliError("--box-min and --box-max must be given together")
        mins = _parse_vector_flag(args.box_min, n, "--box-min")
        maxs = _parse_vector_flag(args.box_max, n, "--box-max")
        box = RatBox(mins, maxs)
    else:
        box = RatBox((Fraction(0),) * n, (Fraction(1),) * n)
    started = time.perf_counter()
    if args.degree == 0:
        lhs, rhs = kinematic_principal(x, box)
        records = [exact_record("kinematic[k=0]", lhs, rhs)]
    else:
        est = kinematic_higher_mc(x, box, args.degree, args.samples, args.seed)
        records = [mc_record(f"kinematic-mc[k={args.degree}]", est)]
    return _emit_report(_report("kinematic", text, args.seed, records, started), args.json)


def _cmd_product(args) -> int:
    x, text_x = _load_cellset(args.file)
    y, text_y = _load_cellset(args.other)
    started = time.perf_counter()
    prod = cellset_product(x, y)
    lhs = intrinsic_volumes_cellset(prod)
    rhs = product_rhs(intrinsic_volumes_cellset(x), intrinsic_volumes_cellset(y))
    records = [exact_record("product", lhs.values, rhs.values)]
    return _emit_report(
        _report("product", text_x + text_y, args.seed, records, started), args.json
    )


def _cmd_gen(args) -> int:
    resolution = _parse_rational_flag(args.resolution, "--resolution")
    x = gen_random_convex(
        args.dimension, args.bound, args.density, args.seed, mode=args.mode, resolution=resolution
    )
    sys.stdout.write(print_set(x))
    return 0


def _cmd_verify(args) -> int:
    dims = tuple(args.dimension) if args.dimension else (2, 3)
    cfg = VerifyConfig(
        dimensions=dims,
        instances=args.instances,
        seed=args.seed,
        samples=args.samples,
        mc_cases=args.mc_cases,
        bound=args.bound,
        density=args.density,
    )
    return _emit_report(verify(args.suite, cfg), args.json)


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1geo",
        description="Exact convexity, intrinsic volumes and integral-geometry "
        "checks for pixellated sets under the taxicab metric.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *, seed=True, samples=False):
        """A subcommand with --json, and the shared flags its body reads."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        if samples:
            p.add_argument(
                "--samples", type=int, default=20000, help="Monte Carlo samples per group element"
            )
        p.set_defaults(func=func)
        return p

    p = command("check-convex", _cmd_check_convex, "decide convexity of a cellset", seed=False)
    p.add_argument("file", help="cellset document path or -")

    p = command("volumes", _cmd_volumes, "intrinsic volumes of a document", seed=False)
    p.add_argument("file")

    p = command("pixellate", _cmd_pixellate, "outer pixellation of a shape", seed=False)
    p.add_argument("file")
    p.add_argument("--resolution", default="1", help="grid resolution, e.g. 1/4")

    p = command("convexify", _cmd_convexify, "minimal-ish convex repair", seed=False)
    p.add_argument("file")

    p = command("steiner", _cmd_steiner, "cube-dilation identity check")
    p.add_argument("file")
    p.add_argument("--max-dilation", type=int, default=3)

    p = command("crofton", _cmd_profile, "flat-integral identity check")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="flat dimension (default: all)")

    p = command("kubota", _cmd_profile, "projection-sum identity check")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=None, help="subspace dimension (default: all)")

    p = command("kinematic", _cmd_kinematic, "collision-measure identity check", samples=True)
    p.add_argument("file")
    p.add_argument("--degree", type=int, default=0, help="0 = exact; >0 = Monte Carlo")
    p.add_argument("--box-min", default=None, help="interval corner, e.g. 0,0")
    p.add_argument("--box-max", default=None, help="interval corner, e.g. 3/2,2")

    p = command("product", _cmd_product, "product-of-sets valuation check")
    p.add_argument("file")
    p.add_argument("other")

    p = command("gen", _cmd_gen, "generate a random convex cellset")
    p.add_argument("--dimension", type=int, default=2, help="ambient dimension (default 2)")
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--mode", choices=MODES, default="blob")
    p.add_argument("--resolution", default="1")

    p = command("verify", _cmd_verify, "run a named verification suite", samples=True)
    p.add_argument("suite", choices=SUITES)
    p.add_argument(
        "--dimension",
        type=int,
        action="append",
        help="ambient dimension (repeatable; default 2 and 3)",
    )
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--mc-cases", type=int, default=3)
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:  # bad input, or a library refusing it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
