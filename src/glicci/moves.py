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
once, over ints: the counts, the carrier's degree, genus and
linear-system dimension, the parameter and the note.  It returns None
for an admissible move n -> n_to and otherwise the text of the first
relation the move breaks.  Moves are stored directed even though
liaison is symmetric; "ascending" and "descending" are derived from the
endpoints.

A chain built in code or read from JSON holds a tuple of ``LinkMove``s.
A planned chain holds its steps packed, as four ``array('q')`` columns
(see :class:`_Steps`): ``steps`` is an immutable sequence that builds
each move, and its carrier, when it is read.  Its counts, its text and
JSON and its validation read the columns and build no record; equality,
hashing, ``repr``, pickling and serialization are those of the tuple
chain with the same moves.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable, Sequence

from ._record import Record, draft, type_error
from .catalog import _KEYS, _PERRIN_M, CurveFamily, _carrier
from .errors import InvalidMove

LIAISON = "liaison"
BILIAISON = "biliaison"

# The (kind, note) of each code in a planned chain's note column.
_MOVE_CODES = (
    (BILIAISON, ""),
    (LIAISON, ""),
    (BILIAISON, "slide along the twisted cubic onto a ruling line"),
    (BILIAISON, "points repositioned onto the line"),
)
_BILIAISON_CODE, _LIAISON_CODE, _SLIDE_CODE, _REPOSITIONED_CODE = range(len(_MOVE_CODES))


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
        carrier = self.carrier
        if self.kind == LIAISON:
            return _descriptor(LIAISON, self.m, carrier.d, carrier.g, carrier.label)
        return _descriptor(self.kind, self.h, carrier.d, carrier.g, "")


def _descriptor(kind: str, param: int, d: int, g: int, label: str) -> str:
    if kind == LIAISON:
        twist = "H-K" if param == 1 else f"{param}H-K"
        tag = f" {label}" if label else ""
        return f"[{twist} on ({d},{g}){tag}]"
    return f"[bil h={param} on ({d},{g})]"


_MoveDraft = draft(LinkMove)


def _move(kind: str, n_from: int, n_to: int, carrier: CurveFamily, m: int | None,
          h: int | None, note: str) -> LinkMove:
    """``LinkMove(...)`` without its checks, for a planned chain's moves,
    built from its columns when a step is read: the counterpart of
    ``catalog._trusted``."""
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


class _Steps(Sequence):
    """The steps of a planned chain, held as four ``array('q')`` columns,
    one entry per step: the target count, the parameter (m or h), the
    carrier's key (see ``catalog._KEYS``) and a code into ``_MOVE_CODES``
    for the kind and note.  A step's count before the move is the
    previous target, or the start.

    Reading a step builds its ``LinkMove``, and the carrier through
    ``catalog._carrier``; a slice is a tuple.  Equality, hash, ``repr``
    and pickling are those of the tuple of moves, which ``tuple(steps)``
    builds.  The moves of one pass share a carrier within one level of
    keys, as the walk that planned them did."""

    __slots__ = ("_space", "_start", "_to", "_param", "_key", "_code")

    def __init__(self, space: str, start: int, to, param, key, code):
        for name, value in zip(self.__slots__, (space, start, to, param, key, code)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return len(self._to)

    def __getitem__(self, index):
        positions = range(len(self._to))[index]
        if isinstance(index, slice):
            return tuple(self._moves(positions))
        return next(self._moves((positions,)))

    def __iter__(self):
        return self._moves(range(len(self._to)))

    def _moves(self, positions):
        space = self._space
        shift = _KEYS[space].level_shift
        to, params, keys, codes = self._to, self._param, self._key, self._code
        level, shared = None, {}
        for i in positions:
            key = keys[i]
            if key >> shift != level:
                level, shared = key >> shift, {}
            carrier = shared.get(key)
            if carrier is None:
                carrier = shared[key] = _carrier(space, key)
            kind, note = _MOVE_CODES[codes[i]]
            param = params[i]
            liaison = kind == LIAISON
            yield _move(kind, to[i - 1] if i else self._start, to[i], carrier,
                        param if liaison else None, None if liaison else param, note)

    def _columns(self) -> tuple:
        return self._space, self._start, self._to, self._param, self._key, self._code

    def __eq__(self, other):
        if type(other) is _Steps:
            return self._columns() == other._columns()
        if type(other) is tuple:
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


class Chain(Record):
    """A walk of point counts, one move per step; see :func:`validate_chain`.

    ``steps`` is a tuple of ``LinkMove``s for a chain built in code or by
    :meth:`from_dict`, and an immutable :class:`_Steps` sequence for a
    planned chain, whose moves are built when read.  The two compare,
    hash, print, pickle and serialize alike."""

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

    @classmethod
    def _packed(cls, space: str, start: int, to, param, key, code) -> "Chain":
        """The chain of a walk from ``start``, its steps held in the four
        columns of :class:`_Steps`, for the planner's ints."""
        chain = object.__new__(cls)
        object.__setattr__(chain, "space", space)
        object.__setattr__(chain, "start", start)
        object.__setattr__(chain, "steps", _Steps(space, start, to, param, key, code))
        return chain

    @property
    def terminal(self) -> int:
        steps = self.steps
        if not steps:
            return self.start
        return steps._to[-1] if type(steps) is _Steps else steps[-1].n_to

    def point_sequence(self) -> list[int]:
        steps = self.steps
        if type(steps) is _Steps:
            return [self.start] + steps._to.tolist()
        return [self.start] + [step.n_to for step in steps]

    def _counts(self):
        """(n_from, n_to) of each step; a planned chain's come from its
        target column."""
        if type(self.steps) is _Steps:
            points = self.point_sequence()
            return zip(points, points[1:])
        return ((step.n_from, step.n_to) for step in self.steps)

    def _lines(self):
        """The text line of each step, ``n_from -> n_to [descriptor]``."""
        steps = self.steps
        if type(steps) is not _Steps:
            for step in steps:
                yield f"{step.n_from} -> {step.n_to} {step.descriptor()}"
            return
        layout = _KEYS[self.space]
        dims, label_of, n, code_now = layout.dims, layout.label, self.start, None
        for n_to, param, key, code in zip(steps._to, steps._param, steps._key, steps._code):
            if code != code_now:
                code_now = code
                kind = _MOVE_CODES[code][0]
                liaison = kind == LIAISON
            d, g, _ = dims(key)
            label = label_of(key) if liaison else ""
            yield f"{n} -> {n_to} {_descriptor(kind, param, d, g, label)}"
            n = n_to

    def to_dict(self) -> dict:
        steps = self.steps
        if type(steps) is _Steps:
            rendered = self._packed_dicts()
        else:
            rendered = [
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
                for step in steps
            ]
        return {"space": self.space, "start": self.start, "terminal": self.terminal,
                "steps": rendered}

    def _packed_dicts(self) -> list[dict]:
        """:meth:`to_dict`'s steps, straight from the columns: each step's
        dicts are copies of two templates with the step's values set.  The
        cyclic collector is paused meanwhile: the new dicts hold no cycle,
        and the passes they would set off took about a tenth of the time."""
        steps = self.steps
        layout = _KEYS[self.space]
        dims, label_of = layout.dims, layout.label
        carrier_template = {"ambient": layout.ambient, "d": 0, "g": 0, "linsys_dim": 0,
                            "label": ""}
        rendered, n, code_now = [], self.start, None
        append = rendered.append
        enabled = gc.isenabled()
        gc.disable()
        try:
            for n_to, param, key, code in zip(steps._to, steps._param, steps._key, steps._code):
                if code != code_now:
                    code_now = code
                    kind, note = _MOVE_CODES[code]
                    template = {"kind": kind, "from": 0, "to": 0, "m": None, "h": None,
                                "carrier": None, "note": note}
                    which = "m" if kind == LIAISON else "h"
                step = template.copy()
                step["from"] = n
                step["to"] = n_to
                step[which] = param
                step["carrier"] = carrier = carrier_template.copy()
                carrier["d"], carrier["g"], carrier["linsys_dim"] = dims(key)
                carrier["label"] = label_of(key)
                append(step)
                n = n_to
        finally:
            if enabled:
                gc.enable()
        return rendered

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

    def __reduce__(self):
        return Chain, (self.space, self.start, tuple(self.steps))


def liaison_target(n: int, m: int, carrier: CurveFamily) -> int:
    """Residual point count of liaison by m*H - K on the carrier:
    m*d - (2g - 2) - n.  An involution in n for fixed (m, carrier)."""
    return liaison_total(m, carrier) - n


def liaison_total(m: int, carrier: CurveFamily) -> int:
    """Degree of the divisor m*H - K on the carrier curve."""
    return _liaison_degree(m, carrier.d, carrier.g)


def _liaison_degree(m: int, d: int, g: int) -> int:
    return m * d - (2 * g - 2)


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


def _drop(n: int, n_to: int, d: int, g: int, h: int) -> str | None:
    """A height-h biliaison on a degree-d carrier drops h*d points."""
    if n_to != n - h * d:
        return f"height-{h} biliaison on ({d},{g}) must drop {h * d} points"
    return None


def _total(n: int, n_to: int, d: int, g: int, m: int) -> str | None:
    """The two ends of a liaison by m*H - K add up to its degree."""
    total = _liaison_degree(m, d, g)
    if n + n_to != total:
        return f"{n} + {n_to} != deg({m}H-K on ({d},{g})) = {total}"
    return None


def _plane_biliaison(space: str, n: int, n_to: int, d: int, g: int, held: int | None, h: int,
                     note: str, carrier):
    if h < 0:
        return f"{space} chains use biliaisons of height >= 0, got {h}"
    if (broken := _drop(n, n_to, d, g, h)) is not None:
        return broken
    if h == 0:
        if not note:
            return "height-0 move needs an annotation"
    elif n_to < g:
        return f"residual {n_to} below genus {g}: divisor may not be effective"
    if held is None:
        return f"carrier {carrier} lacks its linear-system dimension"
    # A note marks points placed on the carrier by a prior height-0
    # repositioning, where the general-position containment count
    # does not apply.
    if n > held and "repositioned" not in note:
        return f"{n} general points do not lie on {carrier} (system dimension {held})"
    return None


def _cubic_liaison(space: str, n: int, n_to: int, d: int, g: int, held: int | None, m: int,
                   note: str, carrier):
    """Both ends add up to the liaison total (``_total`` words a failure)
    and lie in the window g <= n <= d + g - 1, where alone a (d, g) curve
    on the cubic surface carries general divisors."""
    if n + n_to != _liaison_degree(m, d, g):
        return _total(n, n_to, d, g, m)
    if not (g <= n < d + g and g <= n_to < d + g):
        return f"{n} <-> {n_to} breaks the window [{g}, {d + g - 1}] on ({d},{g})"
    return None


def _p3_bounds(n: int, n_to: int, d: int, g: int) -> str | None:
    """Containment (n at most the carrier's row's bound in the
    general-points table) and effectiveness (n_to at least g)."""
    bound = _PERRIN_M.get((d, g))
    if bound is None:
        return f"carrier ({d},{g}) missing from the table"
    if n > bound or n_to < g:
        return f"{n} -> {n_to} on ({d},{g}) fails the containment/effectiveness bounds"
    return None


def _p3_biliaison(space: str, n: int, n_to: int, d: int, g: int, held: int | None, h: int,
                  note: str, carrier):
    if h < 1:
        return "3-space chains use biliaisons of height >= 1"
    return _drop(n, n_to, d, g, h) or _p3_bounds(n, n_to, d, g)


def _p3_liaison(space: str, n: int, n_to: int, d: int, g: int, held: int | None, m: int,
                note: str, carrier):
    return _total(n, n_to, d, g, m) or _p3_bounds(n, n_to, d, g)


# The step rules rule(space, n, n_to, d, g, held, param, note, carrier)
# of each space by move kind, over the carrier's degree, genus and
# linear-system dimension; param is the twist m of a liaison or the
# height h of a biliaison.  ``carrier`` is used only in the text of a
# failure, and may be None where that text is not read.  A kind with
# no rule in its space is never admitted.
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
    one move kind; a kind the space lacks raises where its run starts.

    A planned chain is checked on its columns by the same rules: each
    key's (d, g, linsys_dim) comes from the closed forms in
    ``catalog._KEYS``, no record is built, and the carrier is built only
    to word a failure.  Its steps are linked by construction."""
    if chain.start < 1:
        raise InvalidMove(f"chains start at a positive count, got {chain.start}")
    space = chain.space
    rules = _RULES.get(space)
    if rules is None:
        raise InvalidMove(f"unknown space {space!r}")
    steps = chain.steps
    if type(steps) is _Steps:
        _validate_columns(space, rules, chain.start, steps)
        return
    cur, kind = chain.start, None
    for index, step in enumerate(steps):
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
        n, cur, carrier = cur, step.n_to, step.carrier
        broken = rule(space, n, cur, carrier.d, carrier.g, carrier.linsys_dim,
                      step.m if liaison else step.h, step.note, carrier)
        if broken is not None:
            raise InvalidMove(broken)


def _validate_columns(space: str, rules: dict, n: int, steps: _Steps) -> None:
    dims, code_now = _KEYS[space].dims, None
    for n_to, param, key, code in zip(steps._to, steps._param, steps._key, steps._code):
        if code != code_now:
            code_now = code
            kind, note = _MOVE_CODES[code]
            rule = rules.get(kind)
            if rule is None:
                raise InvalidMove(f"{space} chains use no {kind} moves")
        d, g, held = dims(key)
        if rule(space, n, n_to, d, g, held, param, note, None) is not None:
            raise InvalidMove(rule(space, n, n_to, d, g, held, param, note, _carrier(space, key)))
        n = n_to
