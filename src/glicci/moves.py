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
link.  Moves are stored directed even though liaison is symmetric;
"ascending" and "descending" are derived from the endpoints.
"""

from __future__ import annotations

import json
from collections.abc import Callable

from ._record import Record, draft, field_error
from .catalog import CurveFamily, perrin_m
from .errors import InvalidMove, NotInTable

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
        raise InvalidMove(
            f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
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
            raise field_error("kind", str, kind)
        if type(n_from) is not int:
            raise field_error("from", int, n_from)
        if type(n_to) is not int:
            raise field_error("to", int, n_to)
        if type(carrier) is not CurveFamily:
            raise field_error("carrier", CurveFamily, carrier)
        if m is not None and type(m) is not int:
            raise field_error("m", int, m)
        if h is not None and type(h) is not int:
            raise field_error("h", int, h)
        if type(note) is not str:
            raise field_error("note", str, note)
        if kind == LIAISON:
            if m is None:
                raise InvalidMove("liaison move needs its twist m")
        elif kind == BILIAISON:
            if h is None:
                raise InvalidMove("biliaison move needs its height h")
        else:
            raise InvalidMove(f"unknown move kind {kind!r}")
        return _move(kind, n_from, n_to, carrier, m, h, note)

    @property
    def ascending(self) -> bool:
        return self.n_to > self.n_from

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
            raise field_error("space", str, space)
        if type(start) is not int:
            raise field_error("start", int, start)
        if type(steps) is not tuple:
            raise field_error("steps", tuple, steps)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "steps", steps)

    @property
    def terminal(self) -> int:
        return self.steps[-1].n_to if self.steps else self.start

    def point_sequence(self) -> list[int]:
        return [self.start] + [step.n_to for step in self.steps]

    def validate(self) -> None:
        validate_chain(self)

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
        return cls.from_dict(json.loads(text))

    def __str__(self) -> str:
        return " -> ".join(str(n) for n in self.point_sequence())


def liaison_target(n: int, m: int, carrier: CurveFamily) -> int:
    """Residual point count of liaison by m*H - K on the carrier:
    m*d - (2g - 2) - n.  An involution in n for fixed (m, carrier)."""
    return m * carrier.d - (2 * carrier.g - 2) - n


def liaison_total(m: int, carrier: CurveFamily) -> int:
    """Degree of the divisor m*H - K on the carrier curve."""
    return m * carrier.d - (2 * carrier.g - 2)


def validate_liaison_cubic(n: int, n_to: int, carrier: CurveFamily) -> bool:
    """Admissibility window for liaison on an ACM curve of the cubic
    surface: a curve of type (d, g) there carries general divisors of
    degree n only for g <= n <= d + g - 1, and both ends must obey it."""
    d, g = carrier.d, carrier.g
    return g <= n <= d + g - 1 and g <= n_to <= d + g - 1


def validate_move_p3(n: int, n_to: int, carrier: CurveFamily) -> bool:
    """Directed admissibility for a move on an ACM curve in 3-space:
    the n general points must lie on the carrier (n at most the table
    bound) and the residual must be effective (n_to at least g)."""
    bound = perrin_m(carrier.d, carrier.g)
    return n <= bound and n_to >= carrier.g


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


def _drop(n: int, n_to: int, carrier: CurveFamily, h: int) -> None:
    """A height-h biliaison on a degree-d carrier drops h*d points."""
    if n_to != n - h * carrier.d:
        raise InvalidMove(f"height-{h} biliaison on ({carrier.d},{carrier.g})"
                          f" must drop {h * carrier.d} points")


def _total(n: int, n_to: int, carrier: CurveFamily, m: int) -> None:
    """The two ends of a liaison by m*H - K add up to its degree."""
    total = liaison_total(m, carrier)
    if n + n_to != total:
        raise InvalidMove(f"{n} + {n_to} != deg({m}H-K on ({carrier.d},{carrier.g})) = {total}")


def _plane_biliaison_holds(n: int, n_to: int, carrier: CurveFamily, h: int, note: str) -> bool:
    """Every relation :func:`_plane_biliaison` checks, in one expression:
    True exactly when the rule raises nothing."""
    dim = carrier.linsys_dim
    return (h >= 0 and n_to == n - h * carrier.d
            and (n_to >= carrier.g if h else note != "")
            and dim is not None and (n <= dim or "repositioned" in note))


def _plane_biliaison(space: str, n: int, n_to: int, carrier: CurveFamily, h: int, note: str):
    if h < 0:
        raise InvalidMove(f"{space} chains use biliaisons of height >= 0, got {h}")
    _drop(n, n_to, carrier, h)
    if h == 0:
        if not note:
            raise InvalidMove("height-0 move needs an annotation")
    elif n_to < carrier.g:
        raise InvalidMove(f"residual {n_to} below genus {carrier.g}: divisor may not be effective")
    if carrier.linsys_dim is None:
        raise InvalidMove(f"carrier {carrier} lacks its linear-system dimension")
    # A note marks points placed on the carrier by a prior height-0
    # repositioning, where the general-position containment count
    # does not apply.
    if n > carrier.linsys_dim and "repositioned" not in note:
        raise InvalidMove(f"{n} general points do not lie on {carrier}"
                          f" (system dimension {carrier.linsys_dim})")


def _cubic_liaison_holds(n: int, n_to: int, carrier: CurveFamily, m: int, note: str) -> bool:
    """Every relation :func:`_cubic_liaison` checks, in one expression:
    True exactly when the rule raises nothing."""
    d, g = carrier.d, carrier.g
    return n + n_to == m * d - 2 * g + 2 and g <= n < d + g and g <= n_to < d + g


def _cubic_liaison(space: str, n: int, n_to: int, carrier: CurveFamily, m: int, note: str):
    _total(n, n_to, carrier, m)
    if not validate_liaison_cubic(n, n_to, carrier):
        d, g = carrier.d, carrier.g
        raise InvalidMove(f"{n} <-> {n_to} breaks the window [{g}, {d + g - 1}] on ({d},{g})")


def _p3_bounds(n: int, n_to: int, carrier: CurveFamily) -> None:
    d, g = carrier.d, carrier.g
    try:
        ok = validate_move_p3(n, n_to, carrier)
    except NotInTable:
        raise InvalidMove(f"carrier ({d},{g}) missing from the table") from None
    if not ok:
        raise InvalidMove(f"{n} -> {n_to} on ({d},{g}) fails the containment"
                          f"/effectiveness bounds")


def _p3_biliaison(space: str, n: int, n_to: int, carrier: CurveFamily, h: int, note: str):
    if h < 1:
        raise InvalidMove("3-space chains use biliaisons of height >= 1")
    _drop(n, n_to, carrier, h)
    _p3_bounds(n, n_to, carrier)


def _p3_liaison(space: str, n: int, n_to: int, carrier: CurveFamily, m: int, note: str):
    _total(n, n_to, carrier, m)
    _p3_bounds(n, n_to, carrier)


# The step rules of each space by move kind.  rule(space, n, n_to,
# carrier, param, note) raises InvalidMove unless the move n -> n_to is
# admissible; param is the twist m of a liaison or the height h of a
# biliaison.  A kind with no rule in its space is never admitted.
_PLANE = {BILIAISON: _plane_biliaison}
_RULES = {"p2": _PLANE, "quadric": _PLANE, "cubic-surface": {LIAISON: _cubic_liaison},
          "p3": {BILIAISON: _p3_biliaison, LIAISON: _p3_liaison}}

# The one-expression verdict of the rules that deep chains use:
# holds(n, n_to, carrier, param, note) is True exactly when the rule
# raises nothing.  A move it admits needs no rule call; otherwise the
# rule runs, to raise the relation that fails.
_HOLDS = {_plane_biliaison: _plane_biliaison_holds, _cubic_liaison: _cubic_liaison_holds}


def validate_chain(chain: Chain) -> None:
    """Replay a chain step by step; raises InvalidMove on the first
    inconsistency (a start below one, an unknown space, a step that is
    not a LinkMove, broken linkage or an inadmissible move).  Each kind's
    rule and one-expression verdict (``_HOLDS``) are looked up once; a
    step the verdict admits costs one call, otherwise the rule runs."""
    if chain.start < 1:
        raise InvalidMove(f"chains start at a positive count, got {chain.start}")
    space = chain.space
    rules = _RULES.get(space)
    if rules is None:
        raise InvalidMove(f"unknown space {space!r}")
    checks = {kind: (rule, _HOLDS.get(rule)) for kind, rule in rules.items()}
    cur = chain.start
    for index, step in enumerate(chain.steps):
        if type(step) is not LinkMove:
            raise InvalidMove(f"step {index}: expected a LinkMove, got {type(step).__name__}")
        if step.n_from != cur:
            raise InvalidMove(f"step starts at {step.n_from} but the chain sits at {cur}")
        kind = step.kind
        check = checks.get(kind)
        if check is None:
            raise InvalidMove(f"{space} chains use no {kind} moves")
        rule, holds = check
        param = step.m if kind == LIAISON else step.h
        if holds is None or not holds(cur, step.n_to, step.carrier, param, step.note):
            rule(space, cur, step.n_to, step.carrier, param, step.note)
        cur = step.n_to
