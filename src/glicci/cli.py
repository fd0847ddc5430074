"""Command-line front end.

Subcommands: ``plan`` chains n general points down to one, ``divisor``
evaluates a divisor class on a registered surface, ``hvector`` reports
the minimal genus for a degree, and ``verify`` runs the claim suites.
Each takes ``--json`` for a machine-readable envelope and ``--quiet``
to trim decoration; text and JSON always carry identical numbers.

Exit codes are a stable contract: 0 success, 1 usage or input error,
2 for a request whose answer is an open question (reducing 20 or more
general points of 3-space).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import surface
from .claims import records_as_dicts, render_text, run_suite, summarize
from .errors import (
    DegreeTooSmall,
    GlicciError,
    NonIntegralGenus,
    OutOfGuaranteedRange,
    RankMismatch,
    UnknownSurface,
)
from .hvector import min_genus
from .picard import DivisorClass
from .planner import SPACES, plan

_SMALL_CURVE_NAMES = {(1, 0): "a line", (2, 0): "a conic", (3, 0): "a twisted cubic"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Raise instead of exiting so usage failures map to exit code 1,
    # keeping 2 reserved for the open-case diagnostic.
    def error(self, message):
        raise _UsageError(message)


def _envelope(command: str, inputs: dict, result) -> str:
    return json.dumps(
        {"command": command, "inputs": inputs, "result": result, "version": __version__}
    )


def _cmd_plan(args) -> int:
    chain = plan(args.space, args.n)
    if args.json:
        print(_envelope("plan", {"space": args.space, "n": args.n}, chain.to_dict()))
        return 0
    for line in chain._lines():
        print(line)
    if not args.quiet:
        if chain.steps:
            print(f"terminal: {chain.terminal} after {len(chain.steps)} moves")
        else:
            print(f"terminal: {chain.terminal} (empty chain, nothing to reduce)")
    return 0


def _describe_descent(model, down) -> str:
    parts = [down.compact()]
    if model.is_blowup:
        core, excess = model.exceptional_split(down)
        if excess:
            pieces = " + ".join(
                f"E{i}" if mult == 1 else f"{mult}E{i}" for i, mult in excess
            )
            parts.append(f"= {core.compact()} + {pieces}")
    try:
        dg = (model.degree_of(down), model.genus_of(down))
        name = _SMALL_CURVE_NAMES.get(dg)
        parts.append(f"({dg[0]},{dg[1]})" + (f", {name}" if name else ""))
    except NonIntegralGenus:
        parts.append(f"degree {model.degree_of(down)}")
    return " ".join(parts)


def _cmd_divisor(args) -> int:
    model = surface(args.surface)
    cls = DivisorClass.parse(args.cls, model.basis_rank)
    d = model.degree_of(cls)
    g = model.genus_of(cls)
    c2 = model.self_intersection(cls)
    ck = model.pair(cls, model.K)
    down = model.subtract_hyperplanes(cls)
    if model.is_blowup:
        effective = "yes" if model.is_effective_general(cls) else "no"
        down_effective = "yes" if model.is_effective_general(down) else "no"
    else:
        effective = down_effective = "n/a (abstract model)"
    if args.json:
        result = {
            "surface": model.name,
            "class": cls.compact(),
            "degree": d,
            "genus": g,
            "C2": c2,
            "CK": ck,
            "C_minus_H": down.compact(),
            "effective_general": effective,
            "C_minus_H_effective_general": down_effective,
        }
        print(_envelope("divisor", {"surface": args.surface, "class": args.cls}, result))
        return 0
    print(f"surface: {model.name}")
    print(f"class:   {cls}")
    print(f"d={d} g={g} C^2={c2} C.K={ck}")
    print(f"C-H: {_describe_descent(model, down)}")
    if not args.quiet:
        print(f"effective (general position): {effective}")
        print(f"C-H effective (general position): {down_effective}")
    return 0


def _cmd_hvector(args) -> int:
    genus, witness = min_genus(args.d, args.codim, nondegenerate=True)
    if args.json:
        result = {"degree": args.d, "codim": args.codim, "min_genus": genus,
                  "witness": list(witness.entries)}
        print(_envelope("hvector", {"d": args.d, "codim": args.codim}, result))
        return 0
    if args.quiet:
        print(genus)
    else:
        print(f"G_min({args.d}, codim {args.codim}) = {genus}, witness h-vector {witness}")
    return 0


def _cmd_verify(args) -> int:
    records = run_suite(args.suite)
    npass, nfail, nflag = summarize(records)
    if args.json:
        print(_envelope("verify", {"suite": args.suite}, records_as_dicts(records)))
    elif args.quiet:
        print(f"{len(records)} claims: {npass} pass, {nfail} fail, {nflag} flagged")
    else:
        print(render_text(records))
    return 0 if nfail == 0 else 1


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="glicci",
        description="Exact arithmetic for divisor classes on rational surfaces "
        "and validated liaison/biliaison reduction chains.",
    )
    parser.add_argument("--version", action="version", version=f"glicci {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="reduce n general points to a single point")
    p.add_argument("space", choices=SPACES)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("divisor", help="evaluate a divisor class on a surface")
    p.add_argument("surface", help="registered surface name, e.g. bordiga")
    p.add_argument(
        "cls",
        metavar="class",
        help="class string 'a;b1,...,br'; runs may be abbreviated, e.g. '6;2^3,1^7'",
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_divisor)

    p = sub.add_parser("hvector", help="minimal genus for a degree, with witness")
    p.add_argument("d", type=int)
    p.add_argument("codim", type=int, choices=(2, 3))
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_hvector)

    p = sub.add_parser("verify", help="run the numeric claim suites")
    p.add_argument("suite", choices=("catalog", "bordiga", "deg20", "rao", "all"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OutOfGuaranteedRange as exc:
        print(f"open case: {exc}", file=sys.stderr)
        return 2
    except (UnknownSurface, RankMismatch, NonIntegralGenus, DegreeTooSmall) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except (GlicciError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
