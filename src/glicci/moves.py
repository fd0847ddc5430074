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

from ._record import Record
from .catalog import CurveFamily, perrin_m
from .errors import InvalidMove, NotInTable

LIAISON = "liaison"
BILIAISON = "biliaison"


_REQUIRED = object()


def _field(raw, key: str, kind: type, where: str, *, null: bool = False, default=_REQUIRED):
    """``raw[key]``, checked to be a ``kind`` (or None when ``null``).
    A key with a default may be absent.  JSON booleans are not integers
    here.  Anything else raises :class:`InvalidMove` naming ``where``
    and the key."""
    if not isinstance(raw, dict):
        raise InvalidMove(f"{where}: expected an object, got {type(raw).__name__}")
    if key not in raw:
        if default is _REQUIRED:
            raise InvalidMove(f"{where}: missing field {key!r}")
        return default
    value = raw[key]
    if value is None and null:
        return None
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InvalidMove(
            f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


class LinkMove(Record):
    """One directed move on point counts, with its carrier curve.

    ``m`` is the liaison twist (the move links through |m*H - K| on the
    carrier); ``h`` is the biliaison height.  ``note`` carries narrative
    annotations such as the height-0 repositioning step.
    """

    __slots__ = _fields = ("kind", "n_from", "n_to", "carrier", "m", "h", "note")

    def __init__(self, kind: str, n_from: int, n_to: int, carrier: CurveFamily,
                 m: int | None = None, h: int | None = None, note: str = ""):
        if kind not in (LIAISON, BILIAISON):
            raise InvalidMove(f"unknown move kind {kind!r}")
        if kind == LIAISON and m is None:
            raise InvalidMove("liaison move needs its twist m")
        if kind == BILIAISON and h is None:
            raise InvalidMove("biliaison move needs its height h")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n_from", n_from)
        object.__setattr__(self, "n_to", n_to)
        object.__setattr__(self, "carrier", carrier)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "note", note)

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


class Chain(Record):
    """A validated walk of point counts, one move per step."""

    __slots__ = _fields = ("space", "start", "steps")

    def __init__(self, space: str, start: int, steps: tuple[LinkMove, ...]):
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
        """Rebuild a chain from :meth:`to_dict` output.  A missing or
        ill-typed field raises :class:`InvalidMove` naming the step index
        and the field."""
        space = _field(data, "space", str, "chain")
        start = _field(data, "start", int, "chain")
        steps = []
        for index, raw in enumerate(_field(data, "steps", list, "chain")):
            where = f"step {index}"
            carrier = _field(raw, "carrier", dict, where)
            on = f"{where} carrier"
            steps.append(LinkMove(
                kind=_field(raw, "kind", str, where),
                n_from=_field(raw, "from", int, where),
                n_to=_field(raw, "to", int, where),
                carrier=CurveFamily(
                    ambient=_field(carrier, "ambient", str, on),
                    d=_field(carrier, "d", int, on),
                    g=_field(carrier, "g", int, on, null=True),
                    linsys_dim=_field(carrier, "linsys_dim", int, on, null=True, default=None),
                    label=_field(carrier, "label", str, on, default=""),
                ),
                m=_field(raw, "m", int, where, null=True, default=None),
                h=_field(raw, "h", int, where, null=True, default=None),
                note=_field(raw, "note", str, where, default=""),
            ))
        chain = cls(space=space, start=start, steps=tuple(steps))
        if chain.terminal != data.get("terminal", chain.terminal):
            raise InvalidMove("serialized terminal disagrees with steps")
        return chain

    def to_json(self, **kwargs) -> str:
        return json.dumps(self.to_dict(), **kwargs)

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


def validate_move_p3_undirected(n: int, n_to: int, carrier: CurveFamily) -> bool:
    """Both directions of :func:`validate_move_p3` at once, the right
    notion for an undirected link between general configurations."""
    return validate_move_p3(n, n_to, carrier) and validate_move_p3(n_to, n, carrier)


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


def _validate_step(space: str, step: LinkMove) -> None:
    carrier = step.carrier
    d, g = carrier.d, carrier.g
    if space in ("p2", "quadric"):
        if step.kind != BILIAISON:
            raise InvalidMove(f"{space} chains use biliaisons only, got {step.kind}")
        if step.n_to != step.n_from - step.h * d:
            raise InvalidMove(
                f"height-{step.h} biliaison on ({d},{g}) must drop {step.h * d} points"
            )
        if step.h == 0:
            if not step.note:
                raise InvalidMove("height-0 move needs an annotation")
        elif step.n_to < g:
            raise InvalidMove(
                f"residual {step.n_to} below genus {g}: divisor may not be effective"
            )
        if carrier.linsys_dim is None:
            raise InvalidMove(f"carrier {carrier} lacks its linear-system dimension")
        # A note marks points placed on the carrier by a prior height-0
        # repositioning, where the general-position containment count
        # does not apply.
        if step.n_from > carrier.linsys_dim and "repositioned" not in step.note:
            raise InvalidMove(
                f"{step.n_from} general points do not lie on {carrier} "
                f"(system dimension {carrier.linsys_dim})"
            )
    elif space == "cubic-surface":
        if step.kind != LIAISON:
            raise InvalidMove("cubic-surface chains use strict liaisons only")
        if step.n_from + step.n_to != liaison_total(step.m, carrier):
            raise InvalidMove(
                f"{step.n_from} + {step.n_to} != deg({step.m}H-K on ({d},{g}))"
                f" = {liaison_total(step.m, carrier)}"
            )
        if not validate_liaison_cubic(step.n_from, step.n_to, carrier):
            raise InvalidMove(
                f"{step.n_from} <-> {step.n_to} breaks the window [{g}, {d + g - 1}]"
                f" on ({d},{g})"
            )
    elif space == "p3":
        if step.kind == BILIAISON:
            if step.h < 1:
                raise InvalidMove("3-space chains use biliaisons of height >= 1")
            if step.n_to != step.n_from - step.h * d:
                raise InvalidMove(
                    f"height-{step.h} biliaison on ({d},{g}) must drop {step.h * d} points"
                )
        else:
            if step.n_from + step.n_to != liaison_total(step.m, carrier):
                raise InvalidMove(
                    f"{step.n_from} + {step.n_to} != deg({step.m}H-K on ({d},{g}))"
                )
        try:
            ok = validate_move_p3(step.n_from, step.n_to, carrier)
        except NotInTable:
            raise InvalidMove(f"carrier ({d},{g}) missing from the table") from None
        if not ok:
            raise InvalidMove(
                f"{step.n_from} -> {step.n_to} on ({d},{g}) fails the containment"
                f"/effectiveness bounds"
            )
    else:
        raise InvalidMove(f"unknown space {space!r}")


def validate_chain(chain: Chain) -> None:
    """Replay a chain step by step; raises InvalidMove on the first
    inconsistency (broken linkage or inadmissible move)."""
    if chain.start < 1:
        raise InvalidMove(f"chains start at a positive count, got {chain.start}")
    cur = chain.start
    for step in chain.steps:
        if step.n_from != cur:
            raise InvalidMove(
                f"step starts at {step.n_from} but the chain sits at {cur}"
            )
        _validate_step(chain.space, step)
        cur = step.n_to
