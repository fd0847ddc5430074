"""Arithmetic semantics and admissibility rules for the two move kinds.

For divisors of points on a curve of type (d, g):

  * liaison by the arithmetically Gorenstein divisor m*H - K cuts a
    total degree of m*d - (2g - 2), so n points link to
    m*d - (2g - 2) - n points;
  * an elementary biliaison of height h replaces n points by n - h*d.

For a curve C on a surface of degree s and sectional genus pi, a
height-h biliaison sends (d, g) to

    (d + h*s,  g + h*d + h(h-1)s/2 + h(pi - 1)).

Admissibility is arithmetic only: the containment and effectiveness
bounds the construction needs, never the scheme theory that realizes a
link.  Each space's rule for each move kind, in ``_RULES``, states them
once: it returns None for an admissible move n -> n_to and otherwise
the text of the first relation the move breaks.  Moves are stored
directed even though liaison is symmetric; "ascending" and "descending"
are derived from the endpoints.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from ._record import Record, draft, type_error
from .catalog import _PERRIN_M, CurveFamily
from .errors import InvalidMove

LIAISON = "liaison"
BILIAISON = "biliaison"


def _field(raw, key: str, where: str, kind: type | None = None):
    """``raw[key]``, checked to be a ``kind`` when one is given: the JSON
    shape (list, object) or the terminal count.  Anything else raises
    :class:`InvalidMove` naming ``where`` and the key."""
    if not isinstance(raw, dict):
        raise InvalidMove(f"{where}: expected an object, got {type(raw).__name__}")
    if key not in raw:
        raise InvalidMove(f"{where}: missing field {key!r}")
    value = raw[key]
    if kind is not None and type(value) is not kind:
        raise InvalidMove(f"{where}: {type_error(f'field {key!r}', kind, value)}")
    return value


def _optional(raw: dict, *keys: str) -> dict:
    """The ``keys`` present in ``raw``; a constructor's defaults fill in the rest."""
    return {key: raw[key] for key in keys if key in raw}


class LinkMove(Record):
    """One directed move on point counts, with its carrier curve.

    ``m`` is the liaison twist (the move links through |m*H - K| on the
    carrier); ``h`` is the biliaison height.  ``note`` carries narrative
    annotations such as the height-0 repositioning step.  A field of the
    wrong type raises ``TypeError`` naming it, the counts by their
    serialized keys ``from`` and ``to``.
    """

    __slots__ = _fields = ("kind", "n_from", "n_to", "carrier", "m", "h", "note")

    def __new__(cls, kind: str, n_from: int, n_to: int, carrier: CurveFamily,
                m: int | None = None, h: int | None = None, note: str = ""):
        if type(kind) is not str:
            raise type_error("field 'kind'", str, kind)
        if type(n_from) is not int:
            raise type_error("field 'from'", int, n_from)
        if type(n_to) is not int:
            raise type_error("field 'to'", int, n_to)
        if type(carrier) is not CurveFamily:
            raise type_error("field 'carrier'", CurveFamily, carrier)
        if m is not None and type(m) is not int:
            raise type_error("field 'm'", int, m)
        if h is not None and type(h) is not int:
            raise type_error("field 'h'", int, h)
        if type(note) is not str:
            raise type_error("field 'note'", str, note)
        if kind == LIAISON:
            if m is None:
                raise InvalidMove("liaison move needs its twist m")
        elif kind == BILIAISON:
            if h is None:
                raise InvalidMove("biliaison move needs its height h")
        else:
            raise InvalidMove(f"unknown move kind {kind!r}")
        return _move(kind, n_from, n_to, carrier, m, h, note)

    def descriptor(self) -> str:
        """Move tag in chain printouts, e.g. ``[6H-K on (10,12) type i]``
        for a liaison and ``[bil h=2 on (3,1)]`` for a biliaison."""
        d, g = self.carrier.d, self.carrier.g
        if self.kind == LIAISON:
            twist = "H-K" if self.m == 1 else f"{self.m}H-K"
            tag = f" {self.carrier.label}" if self.carrier.label else ""
            return f"[{twist} on ({d},{g}){tag}]"
        return f"[bil h={self.h} on ({d},{g})]"


_MoveDraft = draft(LinkMove)


def _move(kind: str, n_from: int, n_to: int, carrier: CurveFamily, m: int | None,
          h: int | None, note: str) -> LinkMove:
    """``LinkMove(...)`` without its checks, for the planner's moves from
    ints it computed: the counterpart of ``catalog._trusted``."""
    move = _MoveDraft()
    move.kind = kind
    move.n_from = n_from
    move.n_to = n_to
    move.carrier = carrier
    move.m = m
    move.h = h
    move.note = note
    move.__class__ = LinkMove
    return move


class Chain(Record):
    """A walk of point counts, one move per step; see :func:`validate_chain`."""

    __slots__ = _fields = ("space", "start", "steps")

    def __init__(self, space: str, start: int, steps: tuple[LinkMove, ...]):
        if type(space) is not str:
            raise type_error("field 'space'", str, space)
        if type(start) is not int:
            raise type_error("field 'start'", int, start)
        if type(steps) is not tuple:
            raise type_error("field 'steps'", tuple, steps)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    @property
    def terminal(self) -> int:
        return self.steps[-1].n_to if self.steps else self.start

    def point_sequence(self) -> list[int]:
        return [self.start] + [step.n_to for step in self.steps]

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "start": self.start,
            "terminal": self.terminal,
            "steps": [
                {
                    "kind": step.kind,
                    "from": step.n_from,
                    "to": step.n_to,
                    "m": step.m,
                    "h": step.h,
                    "carrier": {
                        "ambient": step.carrier.ambient,
                        "d": step.carrier.d,
                        "g": step.carrier.g,
                        "linsys_dim": step.carrier.linsys_dim,
                        "label": step.carrier.label,
                    },
                    "note": step.note,
                }
                for step in self.steps
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Chain":
        """Rebuild a chain from :meth:`to_dict` output.  A missing field, a
        wrong JSON shape or whatever the records' constructors refuse
        raises :class:`InvalidMove` naming the step index."""
        space = _field(data, "space", "chain")
        start = _field(data, "start", "chain")
        steps = []
        for index, raw in enumerate(_field(data, "steps", "chain", list)):
            where = f"step {index}"
            carrier = _field(raw, "carrier", where, dict)
            fields = dict(
                kind=_field(raw, "kind", where),
                n_from=_field(raw, "from", where),
                n_to=_field(raw, "to", where),
                **_optional(raw, "m", "h", "note"),
            )
            on = f"{where} carrier"
            try:
                family = CurveFamily(
                    ambient=_field(carrier, "ambient", on),
                    d=_field(carrier, "d", on),
                    g=_field(carrier, "g", on),
                    **_optional(carrier, "linsys_dim", "label"),
                )
            except TypeError as exc:
                raise InvalidMove(f"{on}: {exc}") from None
            try:
                steps.append(LinkMove(carrier=family, **fields))
            except (TypeError, InvalidMove) as exc:
                raise InvalidMove(f"{where}: {exc}") from None
        try:
            chain = cls(space, start, tuple(steps))
        except TypeError as exc:
            raise InvalidMove(f"chain: {exc}") from None
        if "terminal" in data and chain.terminal != _field(data, "terminal", "chain", int):
            raise InvalidMove("serialized terminal disagrees with steps")
        return chain

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        """:meth:`from_dict` of the parsed text, which must be JSON."""
        try:
            data = json.loads(text)
        # JSONDecodeError, bytes that are not UTF-8, or nesting deeper than
        # the decoder can recurse; only the decoder runs inside the try.
        except (ValueError, RecursionError) as exc:
            raise InvalidMove(f"chain: not JSON: {exc}") from None
        return cls.from_dict(data)

    def __str__(self) -> str:
        return " -> ".join(str(n) for n in self.point_sequence())


def liaison_target(n: int, m: int, carrier: CurveFamily) -> int:
    """Residual point count of liaison by m*H - K on the carrier:
    m*d - (2g - 2) - n.  An involution in n for fixed (m, carrier)."""
    return liaison_total(m, carrier) - n


def liaison_total(m: int, carrier: CurveFamily) -> int:
    """Degree of the divisor m*H - K on the carrier curve."""
    return m * carrier.d - (2 * carrier.g - 2)


def biliaison_curve(dg: tuple[int, int], h: int, s: int,
                    sectional_genus: int) -> tuple[int, int]:
    """Degree and genus after a height-h biliaison of a curve on a
    surface of degree s and sectional genus pi:

        d' = d + h*s,   g' = g + h*d + h(h-1)s/2 + h*(pi - 1).

    Composing heights adds: h1 then h2 equals h1 + h2."""
    if h < 0:
        raise InvalidMove(f"biliaison height must be nonnegative, got {h}")
    d, g = dg
    return d + h * s, g + h * d + h * (h - 1) * s // 2 + h * (sectional_genus - 1)


MinGenusFn = Callable[[int], int | None]


def decompose_biliaison(d: int, g: int, source_min_genus: MinGenusFn,
                        section_min_genus: MinGenusFn) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """All ways a (d, g) curve could arise by one ascending height-1
    biliaison, tested at the supplied genus minima.

    A height-1 biliaison on a surface of degree d2 with hyperplane
    section of genus g2 sends a (d1, g1) curve to
    (d1 + d2, g1 + g2 + d1 - 1).  A split d = d1 + d2 is feasible when
    the law can hold with g1, g2 at or above the supplied minima, i.e.
    min1 + min2 + d1 - 1 <= g; the returned pairs quote the minima as
    the feasibility witness.  The minimum functions may return None for
    degrees carrying no curve, which skips the split.
    """
    out: list[tuple[tuple[int, int], tuple[int, int]]] = []
    for d1 in range(1, d):
        d2 = d - d1
        g1 = source_min_genus(d1)
        g2 = section_min_genus(d2)
        if g1 is None or g2 is None:
            continue
        if g1 + g2 + d1 - 1 <= g:
            out.append(((d1, g1), (d2, g2)))
    return out


def _drop(n: int, n_to: int, carrier: CurveFamily, h: int) -> str | None:
    """A height-h biliaison on a degree-d carrier drops h*d points."""
    if n_to != n - h * carrier.d:
        return f"height-{h} biliaison on ({carrier.d},{carrier.g}) must drop {h * carrier.d} points"
    return None


def _total(n: int, n_to: int, carrier: CurveFamily, m: int) -> str | None:
    """The two ends of a liaison by m*H - K add up to its degree."""
    total = liaison_total(m, carrier)
    if n + n_to != total:
        return f"{n} + {n_to} != deg({m}H-K on ({carrier.d},{carrier.g})) = {total}"
    return None


def _plane_biliaison(space: str, n: int, n_to: int, carrier: CurveFamily, h: int, note: str):
    if h < 0:
        return f"{space} chains use biliaisons of height >= 0, got {h}"
    if (broken := _drop(n, n_to, carrier, h)) is not None:
        return broken
    if h == 0:
        if not note:
            return "height-0 move needs an annotation"
    elif n_to < carrier.g:
        return f"residual {n_to} below genus {carrier.g}: divisor may not be effective"
    if carrier.linsys_dim is None:
        return f"carrier {carrier} lacks its linear-system dimension"
    # A note marks points placed on the carrier by a prior height-0
    # repositioning, where the general-position containment count
    # does not apply.
    if n > carrier.linsys_dim and "repositioned" not in note:
        return (f"{n} general points do not lie on {carrier}"
                f" (system dimension {carrier.linsys_dim})")
    return None


def _cubic_liaison(space: str, n: int, n_to: int, carrier: CurveFamily, m: int, note: str):
    """Both ends add up to the liaison total, read once (``_total`` words
    a failure), and lie in the window g <= n <= d + g - 1, where alone a
    (d, g) curve on the cubic surface carries general divisors."""
    if n + n_to != liaison_total(m, carrier):
        return _total(n, n_to, carrier, m)
    d, g = carrier.d, carrier.g
    if not (g <= n < d + g and g <= n_to < d + g):
        return f"{n} <-> {n_to} breaks the window [{g}, {d + g - 1}] on ({d},{g})"
    return None


def _p3_bounds(n: int, n_to: int, carrier: CurveFamily) -> str | None:
    """Containment (n at most the carrier's row's bound in the
    general-points table) and effectiveness (n_to at least g)."""
    d, g = carrier.d, carrier.g
    bound = _PERRIN_M.get((d, g))
    if bound is None:
        return f"carrier ({d},{g}) missing from the table"
    if n > bound or n_to < g:
        return f"{n} -> {n_to} on ({d},{g}) fails the containment/effectiveness bounds"
    return None


def _p3_biliaison(space: str, n: int, n_to: int, carrier: CurveFamily, h: int, note: str):
    if h < 1:
        return "3-space chains use biliaisons of height >= 1"
    return _drop(n, n_to, carrier, h) or _p3_bounds(n, n_to, carrier)


def _p3_liaison(space: str, n: int, n_to: int, carrier: CurveFamily, m: int, note: str):
    return _total(n, n_to, carrier, m) or _p3_bounds(n, n_to, carrier)


# The step rules rule(space, n, n_to, carrier, param, note) of each space
# by move kind; param is the twist m of a liaison or the height h of a
# biliaison.  A kind with no rule in its space is never admitted.
_PLANE = {BILIAISON: _plane_biliaison}
_RULES = {"p2": _PLANE, "quadric": _PLANE, "cubic-surface": {LIAISON: _cubic_liaison},
          "p3": {BILIAISON: _p3_biliaison, LIAISON: _p3_liaison}}


def validate_chain(chain: Chain) -> None:
    """Replay a chain step by step; raises InvalidMove on the first
    inconsistency (a start below one, an unknown space, a step that is
    not a LinkMove, broken linkage or an inadmissible move).  An
    inadmissible move raises with the text its space's rule returns,
    which names the first relation the move breaks.  The rule and the
    field of its parameter (``m`` or ``h``) are chosen once per run of
    one move kind; a kind the space lacks raises where its run starts."""
    if chain.start < 1:
        raise InvalidMove(f"chains start at a positive count, got {chain.start}")
    space = chain.space
    rules = _RULES.get(space)
    if rules is None:
        raise InvalidMove(f"unknown space {space!r}")
    cur, kind = chain.start, None
    for index, step in enumerate(chain.steps):
        if type(step) is not LinkMove:
            raise InvalidMove(f"step {index}: expected a LinkMove, got {type(step).__name__}")
        if step.n_from != cur:
            raise InvalidMove(f"step starts at {step.n_from} but the chain sits at {cur}")
        if step.kind != kind:
            kind = step.kind
            rule = rules.get(kind)
            if rule is None:
                raise InvalidMove(f"{space} chains use no {kind} moves")
            liaison = kind == LIAISON
        n, cur = cur, step.n_to
        broken = rule(space, n, cur, step.carrier, step.m if liaison else step.h, step.note)
        if broken is not None:
            raise InvalidMove(broken)
