"""Command-line front end.

Subcommands: ``plan`` chains n general points down to one, ``divisor``
evaluates a divisor class on a registered surface, ``hvector`` reports
the minimal genus for a degree, and ``verify`` runs the claim suites.
Each takes ``--json`` for a machine-readable envelope and ``--quiet``
to trim decoration; text and JSON always carry identical numbers.

Exit codes are a stable contract: 0 success, 1 usage or input error,
2 for a request whose answer is an open question (reducing 20 or more
general points of 3-space).

A process enters through :func:`run` (the ``glicci`` script and
``python -m glicci.cli``), which calls :func:`main` and then freezes
the heap, so that the interpreter's exit-time collections skip every
object start-up made.  :func:`main` called in-process never freezes.
"""

import gc
import sys
from types import SimpleNamespace

from . import __version__
from .errors import (
    DegreeTooSmall,
    GlicciError,
    NonIntegralGenus,
    OutOfGuaranteedRange,
    RankMismatch,
    UnknownSurface,
)

_SMALL_CURVE_NAMES = {(1, 0): "a line", (2, 0): "a conic", (3, 0): "a twisted cubic"}
_SUITES = ("catalog", "bordiga", "deg20", "rao", "all")


class _UsageError(Exception):
    pass


def _envelope(command: str, inputs: dict, result) -> str:
    import json
    return json.dumps(
        {"command": command, "inputs": inputs, "result": result, "version": __version__}
    )


def _cmd_plan(args) -> int:
    from .planner import plan
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
    from .catalog import surface
    from .picard import DivisorClass
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
    from .hvector import min_genus
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
    from .claims import records_as_dicts, render_text, run_suite, summarize
    records = run_suite(args.suite)
    npass, nfail, nflag = summarize(records)
    if args.json:
        print(_envelope("verify", {"suite": args.suite}, records_as_dicts(records)))
    elif args.quiet:
        print(f"{len(records)} claims: {npass} pass, {nfail} fail, {nflag} flagged")
    else:
        print(render_text(records))
    return 0 if nfail == 0 else 1


def _build_parser():
    import argparse
    import re
    from .planner import SPACES

    class _Parser(argparse.ArgumentParser):
        # Raise instead of exiting so usage failures map to exit code 1,
        # keeping 2 reserved for the open-case diagnostic.
        def error(self, message):
            raise _UsageError(message)

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
    p.set_defaults(handler=_cmd_plan)

    p = sub.add_parser("divisor", help="evaluate a divisor class on a surface")
    # argparse takes an argument led by "-" for an option unless this
    # matches; widened from negative numbers to classes such as "-1;0".
    p._negative_number_matcher = re.compile(r"(?s)-\.?\d.*")
    p.add_argument("surface", help="registered surface name, e.g. bordiga")
    p.add_argument(
        "cls",
        metavar="class",
        help="class string 'a;b1,...,br'; runs may be abbreviated, e.g. '6;2^3,1^7'",
    )
    p.set_defaults(handler=_cmd_divisor)

    p = sub.add_parser("hvector", help="minimal genus for a degree, with witness")
    p.add_argument("d", type=int)
    p.add_argument("codim", type=int, choices=(2, 3))
    p.set_defaults(handler=_cmd_hvector)

    p = sub.add_parser("verify", help="run the numeric claim suites")
    p.add_argument("suite", choices=_SUITES)
    p.set_defaults(handler=_cmd_verify)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
        p.add_argument("--quiet", action="store_true")
    return parser


# Each command's handler and positionals as (dest, type, choices), the way
# _build_parser declares them; plan's spaces come with the planner.
_PLAIN = {
    "plan": (_cmd_plan, (("space", str, None), ("n", int, None))),
    "divisor": (_cmd_divisor, (("surface", str, None), ("cls", str, None))),
    "hvector": (_cmd_hvector, (("d", int, None), ("codim", int, (2, 3)))),
    "verify": (_cmd_verify, (("suite", str, _SUITES),)),
}


def _plain_args(argv: list):
    """What ``_build_parser().parse_args(argv)`` gives a plain command line:
    a command, exactly its positionals, none led by "-", and ``--json``
    or ``--quiet`` anywhere after the command.  None for any other line,
    which argparse then parses and words the refusal of: help, another
    option, a wrong count, a bad int or a value outside the choices."""
    handler, positionals = _PLAIN.get(argv[0] if argv else "", (None, ()))
    values = [token for token in argv[1:] if token not in ("--json", "--quiet")]
    if handler is None or len(values) != len(positionals):
        return None
    args = SimpleNamespace(command=argv[0], handler=handler,
                           json="--json" in argv, quiet="--quiet" in argv)
    for (dest, kind, choices), token in zip(positionals, values):
        if dest == "space":
            from .planner import SPACES as choices
        try:
            value = kind(token)
        except ValueError:
            return None
        if token.startswith("-") or choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv) or _build_parser().parse_args(argv)
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


def run() -> int:
    """The process entry point: :func:`main` on ``sys.argv``, its exit
    code returned for ``sys.exit``."""
    try:
        return main()
    finally:
        # Frozen objects sit in the permanent generation, which the
        # collections at interpreter exit skip.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
