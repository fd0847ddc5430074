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
relation the move breaks.  The plane biliaison's and the cubic
liaison's relations are also a table of slacks, ``_RELATIONS``, from
which :func:`validate_chain` proves a planned chain's closed-form pieces
by a few of their steps.  Moves are stored directed even though liaison
is symmetric; "ascending" and "descending" are derived from the
endpoints.

A chain holds its steps one way, as four ``array('q')`` columns (see
:class:`_Steps`).  The planner fills them; a chain built in code,
unpickled or read from JSON is packed on entry by :func:`_pack`, which
re-derives each carrier from its (d, g) and refuses one that is not the
catalog's.  ``steps`` builds each move, and its carrier, when it is
read; counts, text, JSON and validation read the columns and build no
record.  Equality, hashing, ``repr``, pickling and serialization are
those of the tuple of its moves.
"""

from __future__ import annotations

import gc
import json
from array import array
from collections.abc import Callable, Sequence
from itertools import repeat
from sys import intern

from ._record import Record, check_ints, check_types, draft, type_error
from .catalog import (
    _FIRST_KEYS,
    _KEY_CLASSES,
    _KEYS,
    _PERRIN_M,
    CurveFamily,
    _carrier,
    _unknown_key,
    key_of,
)
from .errors import DegreeTooLarge, InvalidMove

LIAISON = "liaison"
BILIAISON = "biliaison"

# The (kind, note) of each code in a chain's note column; a chain keeps
# the pairs its moves add after these (see :func:`_pack`).
_MOVE_CODES = (
    (BILIAISON, ""),
    (LIAISON, ""),
    (BILIAISON, "slide along the twisted cubic onto a ruling line"),
    (BILIAISON, "points repositioned onto the line"),
)
_BILIAISON_CODE, _LIAISON_CODE, _SLIDE_CODE, _REPOSITIONED_CODE = range(len(_MOVE_CODES))

# The parameter each move kind takes, and the other kind's, which it refuses.
_PARAMETERS = {LIAISON: ("twist m", "height h"), BILIAISON: ("height h", "twist m")}


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


def _too_large(where: str) -> DegreeTooLarge:
    """The error for a count or parameter that overflows an ``array('q')``."""
    return DegreeTooLarge(f"{where}: a chain's counts and parameters must fit in 64 bits")


class LinkMove(Record):
    """One directed move on point counts, with its carrier curve.

    ``m`` is the liaison twist (the move links through |m*H - K| on the
    carrier); ``h`` is the biliaison height.  A liaison takes ``m`` and
    no ``h``, a biliaison ``h`` and no ``m``: a missing or stray
    parameter raises :class:`InvalidMove` naming it.  ``note`` carries
    narrative annotations such as the height-0 repositioning step.  A
    field of the wrong type raises ``TypeError`` naming it, the counts by
    their serialized keys ``from`` and ``to``.
    """

    __slots__ = _fields = ("kind", "n_from", "n_to", "carrier", "m", "h", "note")

    def __new__(cls, kind: str, n_from: int, n_to: int, carrier: CurveFamily,
                m: int | None = None, h: int | None = None, note: str = ""):
        check_types(("kind", "from", "to", "carrier", "m", "h", "note"),
                    (str, int, int, CurveFamily, (int, None), (int, None), str),
                    (kind, n_from, n_to, carrier, m, h, note))
        if kind not in _PARAMETERS:
            raise InvalidMove(f"unknown move kind {kind!r}")
        takes, refuses = _PARAMETERS[kind]
        param, stray = (m, h) if kind == LIAISON else (h, m)
        if param is None:
            raise InvalidMove(f"{kind} move needs its {takes}")
        if stray is not None:
            raise InvalidMove(f"{kind} move takes no {refuses}")
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
    """``LinkMove(...)`` without its checks, for a chain's moves, built
    from its columns when a step is read: the counterpart of
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
    """The steps of a chain, held as four ``array('q')`` columns, one
    entry per step: the target count, the parameter (m or h), the
    carrier's key (see ``catalog._KEYS``) and a code into ``codes`` for
    the kind and note.  A step's count before the move is the previous
    target, or the start.

    Reading a step builds its ``LinkMove`` and takes its carrier from the
    cache of ``catalog._carrier``, which keeps a level's few keys while a
    pass reads them, so those moves share one carrier; a slice is a tuple.
    Equality, hash, ``repr`` and pickling are those of the tuple of
    moves, which ``tuple(steps)`` builds.

    ``_spans`` is None, or for a planned chain the (first index, length,
    period) of each piece the planner wrote in closed form, from which
    :func:`validate_chain` proves a piece without reading every step;
    nothing else reads it."""

    __slots__ = ("_space", "_start", "_to", "_param", "_key", "_code", "_codes", "_spans")

    def __init__(self, space: str, start: int, to, param, key, code, codes=_MOVE_CODES,
                 spans=None):
        for name, value in zip(self.__slots__,
                               (space, start, to, param, key, code, codes, spans)):
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
        space, pairs = self._space, self._codes
        to, params, keys, codes = self._to, self._param, self._key, self._code
        for i in positions:
            kind, note = pairs[codes[i]]
            param = params[i]
            liaison = kind == LIAISON
            yield _move(kind, to[i - 1] if i else self._start, to[i], _carrier(space, keys[i]),
                        param if liaison else None, None if liaison else param, note)

    def _columns(self) -> tuple:
        return self._space, self._start, self._to, self._param, self._key, self._code

    def __eq__(self, other):
        if type(other) is _Steps:
            return self._columns() == other._columns() and self._codes == other._codes
        if type(other) is tuple:
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return tuple, (tuple(self),)


def _pack(space: str, start: int, moves: tuple, carried) -> _Steps:
    """The columns of ``moves`` from ``start``, after the chain's field
    types: each must be a ``LinkMove`` starting where the chain sits, on
    the carrier ``key_of`` finds for its (d, g) in each field ``carried``
    names for it.  A (kind, note) outside ``_MOVE_CODES`` gets the next
    code of the chain's own table."""
    check_types(("space", "start", "steps"), (str, int, tuple), (space, start, moves))
    if space not in _KEYS:
        raise InvalidMove(f"unknown space {space!r}")
    # The interned name is the catalog's own string object, so a chain
    # read from JSON pickles to the same bytes as the planned one.
    space = intern(space)
    to, params, keys, codes = columns = array("q"), array("q"), array("q"), array("q")
    code_of = {pair: code for code, pair in enumerate(_MOVE_CODES)}
    cur = start
    for index, (move, names) in enumerate(zip(moves, carried)):
        if type(move) is not LinkMove:
            raise InvalidMove(f"step {index}: expected a LinkMove, got {type(move).__name__}")
        if move.n_from != cur:
            raise InvalidMove(f"step starts at {move.n_from} but the chain sits at {cur}")
        carrier = move.carrier
        key = key_of(space, carrier.d, carrier.g)
        known = _carrier(space, key)
        for name in () if carrier is known else names:
            got, want = getattr(carrier, name), getattr(known, name)
            if got != want:
                if name == "linsys_dim" and got is None:
                    raise InvalidMove(f"carrier {carrier} lacks its linear-system dimension")
                raise InvalidMove(f"step {index}: carrier field {name!r} is {got!r},"
                                  f" not the catalog's {want!r}")
        try:
            to.append(move.n_to)
            params.append(move.m if move.kind == LIAISON else move.h)
        except OverflowError:
            raise _too_large(f"step {index}") from None
        keys.append(key)
        codes.append(code_of.setdefault((move.kind, move.note), len(code_of)))
        cur = move.n_to
    return _Steps(space, start, *columns, tuple(code_of))


class Chain(Record):
    """A walk of point counts, one move per step; see :func:`validate_chain`.

    ``steps`` is an immutable :class:`_Steps` sequence whose moves are
    built when read.  ``Chain(space, start, moves)`` packs a tuple of
    ``LinkMove``s through :func:`_pack`, which refuses a carrier that is
    not the catalog's in every field."""

    __slots__ = _fields = ("space", "start", "steps")

    def __init__(self, space: str, start: int, steps: tuple[LinkMove, ...]):
        self._hold(_pack(space, start, steps, repeat(CurveFamily._fields)))

    def _hold(self, steps: _Steps) -> None:
        for name, value in zip(self._fields, (steps._space, steps._start, steps)):
            object.__setattr__(self, name, value)

    @classmethod
    def _packed(cls, space: str, start: int, to, param, key, code, spans=None) -> "Chain":
        """The chain of a walk from ``start``, its steps held in the four
        columns of :class:`_Steps`, for the planner's ints, with the spans
        of its closed-form pieces when the planner gives them."""
        chain = object.__new__(cls)
        chain._hold(_Steps(space, start, to, param, key, code, spans=spans))
        return chain

    @property
    def terminal(self) -> int:
        to = self.steps._to
        return to[-1] if to else self.start

    def point_sequence(self) -> list[int]:
        return [self.start] + self.steps._to.tolist()

    def _lines(self):
        """The text line of each step, ``n_from -> n_to [descriptor]``."""
        steps = self.steps
        layout = _KEYS[self.space]
        dims, label_of, n, code_now = layout.dims, layout.label, self.start, None
        for n_to, param, key, code in zip(steps._to, steps._param, steps._key, steps._code):
            if code != code_now:
                code_now = code
                kind = steps._codes[code][0]
                liaison = kind == LIAISON
            d, g, _ = dims(key)
            label = label_of(key) if liaison else ""
            yield f"{n} -> {n_to} {_descriptor(kind, param, d, g, label)}"
            n = n_to

    def to_dict(self) -> dict:
        """The chain as JSON-ready dicts, straight from the columns: each
        step's dicts are copies of two templates with the step's values
        set.  The cyclic collector is paused meanwhile: the new dicts hold
        no cycle, and the passes they would set off took about a tenth of
        the time."""
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
                    kind, note = steps._codes[code]
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
        return {"space": self.space, "start": self.start, "terminal": self.terminal,
                "steps": rendered}

    @classmethod
    def from_dict(cls, data: dict) -> "Chain":
        """Rebuild and pack a chain from :meth:`to_dict` output, comparing
        only the carrier fields given: JSON carries no class.  A missing
        field, a wrong JSON shape or whatever the records' constructors
        refuse raises :class:`InvalidMove` naming the step index."""
        space = _field(data, "space", "chain")
        start = _field(data, "start", "chain")
        steps, carried = [], []
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
            given = dict(ambient=_field(carrier, "ambient", on), d=_field(carrier, "d", on),
                         g=_field(carrier, "g", on), **_optional(carrier, "linsys_dim", "label"))
            try:
                family = CurveFamily(**given)
            except TypeError as exc:
                raise InvalidMove(f"{on}: {exc}") from None
            try:
                steps.append(LinkMove(carrier=family, **fields))
            except (TypeError, InvalidMove) as exc:
                raise InvalidMove(f"{where}: {exc}") from None
            carried.append(given)
        chain = object.__new__(cls)
        try:
            chain._hold(_pack(space, start, tuple(steps), carried))
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
    check_ints(n=n)
    return liaison_total(m, carrier) - n


def liaison_total(m: int, carrier: CurveFamily) -> int:
    """Degree of the divisor m*H - K on the carrier curve."""
    check_types(("m", "carrier"), (int, CurveFamily), (m, carrier), "{}")
    return _liaison_degree(m, carrier.d, carrier.g)


def _liaison_degree(m: int, d: int, g: int) -> int:
    return m * d - (2 * g - 2)


def _biliaison_residual(n: int, h: int, d: int) -> int:
    """The count n points leave after a height-h biliaison on a degree-d carrier."""
    return n - h * d


def biliaison_curve(dg: tuple[int, int], h: int, s: int,
                    sectional_genus: int) -> tuple[int, int]:
    """Degree and genus after a height-h biliaison of a curve on a
    surface of degree s and sectional genus pi:

        d' = d + h*s,   g' = g + h*d + h(h-1)s/2 + h*(pi - 1).

    Composing heights adds: h1 then h2 equals h1 + h2."""
    if type(dg) is not tuple or len(dg) != 2:
        raise TypeError(f"dg must be a (d, g) tuple, got {dg!r}")
    d, g = dg
    check_ints(d=d, g=g, h=h, s=s, sectional_genus=sectional_genus)
    if h < 0:
        raise InvalidMove(f"biliaison height must be nonnegative, got {h}")
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
    if n_to != _biliaison_residual(n, h, d):
        return f"height-{h} biliaison on ({d},{g}) must drop {h * d} points"
    return None


def _total(n: int, n_to: int, d: int, g: int, m: int) -> str | None:
    """The two ends of a liaison by m*H - K add up to its degree."""
    total = _liaison_degree(m, d, g)
    if n + n_to != total:
        return f"{n} + {n_to} != deg({m}H-K on ({d},{g})) = {total}"
    return None


def _plane_biliaison(space: str, n: int, n_to: int, d: int, g: int, held: int, h: int,
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
    if n > _PERRIN_M[(d, g)] or n_to < g:
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


def _plane_slacks(n: int, n_to: int, d: int, g: int, held: int, h: int, note: str):
    return ((_biliaison_residual(n, h, d) - n_to,),
            (h - 1, n_to - g, 0 if "repositioned" in note else held - n))


def _cubic_slacks(n: int, n_to: int, d: int, g: int, held: int, m: int, note: str):
    top = d + g - 1
    return (_liaison_degree(m, d, g) - n - n_to,), (n - g, top - n, n_to - g, top - n_to)


# The relations of a rule as a table of slacks: slacks(n, n_to, d, g,
# held, param, note) gives the equalities, each of which must be 0, and
# the inequalities, each of which must be at least 0.  A step whose
# relations all hold is one its rule admits: the plane biliaison's drop,
# h >= 1 (so no height-0 note is needed), a residual of at least the
# genus and, unless the note repositions, n at most the linear-system
# dimension; the cubic liaison's total and the window of both ends.
# 3-space's rules have no table.
_RELATIONS = {_plane_biliaison: _plane_slacks, _cubic_liaison: _cubic_slacks}


def _least(v0: int, v1: int, v2: int, last: int) -> int:
    """The least value at t = 0..last of the polynomial of degree at most
    2 that is v0, v1, v2 at t = 0, 1, 2: v0 + t*s1 + t(t-1)/2 * s2, with
    its differences s1 and s2.  From t to t + 1 it moves by s1 + t*s2, so
    where s2 > 0 its least value is at the first t where that is at least
    0, kept within the ends, and otherwise at an end."""
    s1, s2 = v1 - v0, v2 - 2 * v1 + v0
    if s2 > 0:
        t = -(s1 // s2)
        t = 0 if t < 0 else last if t > last else t
    else:
        t = last if last * s1 + last * (last - 1) // 2 * s2 < 0 else 0
    return v0 + t * s1 + t * (t - 1) // 2 * s2


# The fewest periods of a span that :func:`_proved_spans` proves: it
# needs four (the first, read, and three samples), and a shorter span
# than this reads faster than it is proved.
_PROVED_FROM = 24


def _proved_spans(chain: Chain):
    """The spans of ``_PROVED_FROM`` periods or more of a planned chain,
    when they prove that its space's rule admits every step of theirs but
    the first period, each with a key at least the space's first; none
    when the chain has no such span or one is not proved.

    Each place of a span's period holds the steps j = 0, 1, ... whose
    ints step by a constant from one period to the next, the target's
    step growing by the piece's curve, as ``planner._walk`` wrote them.
    Where the code is the same at j = 0 and 1, and the key steps by a
    multiple of its space's ``_KEY_CLASSES``, all the steps share the
    kind, note and key class of j = 0.  Then for j >= 1 (at j = 0 the
    count before the first place is the one before the span) d, the
    parameter and the key are linear in j, and g, linsys_dim, both counts
    and every slack of ``_RELATIONS`` are of degree at most 2.  So the
    slacks at j = 1, 2, 3 fix them: each equality holds at all three, and
    each inequality's least value over the span, found by
    :func:`_least`, is at least 0.  A place that fails a precondition or
    a relation, or whose rule has no table, proves no span."""
    space, steps = chain.space, chain.steps
    if not steps._spans:
        return ()
    spans = [span for span in steps._spans if span[1] >= _PROVED_FROM * span[2]]
    rules, dims, first = _RULES[space], _KEYS[space].dims, _FIRST_KEYS[space]
    to, params, keys, codes = steps._to, steps._param, steps._key, steps._code
    for begin, length, period in spans:
        for i in range(begin, begin + period):
            last = (begin + length - 1 - i) // period  # the place's last j
            code, key, step = codes[i], keys[i], keys[i + period] - keys[i]
            if not -len(steps._codes) <= code < len(steps._codes):
                return ()  # reading fails on this code
            kind, note = steps._codes[code]
            slacks = _RELATIONS.get(rules.get(kind))
            if (slacks is None or codes[i + period] != code or step % _KEY_CLASSES[space]
                    or min(key + step, key + last * step) < first):
                return ()
            k1, k2, k3 = i + period, i + 2 * period, i + 3 * period
            eq1, ge1 = slacks(to[k1 - 1], to[k1], *dims(keys[k1]), params[k1], note)
            eq2, ge2 = slacks(to[k2 - 1], to[k2], *dims(keys[k2]), params[k2], note)
            eq3, ge3 = slacks(to[k3 - 1], to[k3], *dims(keys[k3]), params[k3], note)
            if any(eq1) or any(eq2) or any(eq3):
                return ()
            for values in zip(ge1, ge2, ge3):
                if _least(*values, last - 1) < 0:
                    return ()
    return spans


def validate_chain(chain: Chain) -> None:
    """Check that a chain's space admits every step; raises InvalidMove
    for a start below one, for a key below the space's first (the least
    one, by one ``min`` over the keys read; the key of a 3-space row past
    the table is refused where its row is read) or for the first move its
    space's rule refuses, with the rule's text, which names the first
    relation the move breaks.  The rule is chosen once per run of one
    code, and a kind the space lacks raises where its run starts.  Each
    key's (d, g, linsys_dim) comes from the closed forms in
    ``catalog._KEYS``, and the carrier is built only to word a failure.
    The steps are linked, and their carriers the catalog's, by
    construction (see :func:`_pack`).

    Every step is read through its rule but those of the long
    closed-form pieces of a planned chain that :func:`_proved_spans`
    proves from a few of their steps, so a plan costs in its pieces, not
    its length.  A proved step is one its rule admits, so the first step
    refused is one that is read, and every verdict and text is the one
    reading every step gives.  A chain built in code, unpickled or read
    from JSON has no spans, and one whose spans are not proved is read
    whole."""
    n, space, steps = chain.start, chain.space, chain.steps
    if n < 1:
        raise InvalidMove(f"chains start at a positive count, got {n}")
    columns = steps._to, steps._param, steps._key, steps._code
    # Per key class d is linear, g and linsys_dim quadratic: tests/test_catalog.py::TestKeyClasses
    spans, first = _proved_spans(chain), _FIRST_KEYS[space]
    if spans:
        # The count before each part read, and its columns.
        cuts, at = [], 0
        for begin, length, period in spans:
            cuts.append((at, begin + period))
            at = begin + length
        cuts.append((at, len(steps)))
        parts = [(steps._to[lo - 1] if lo else n, *(column[lo:hi] for column in columns))
                 for lo, hi in cuts]
        # A proved span's keys are at least the first, so the least key
        # read is the chain's least wherever that is below the first.
        least = min(min(part[3], default=first) for part in parts)
    else:
        parts, least = ((n, *columns),), min(steps._key, default=first)
    if least < first:
        raise _unknown_key(space, least)
    rules, dims = _RULES[space], _KEYS[space].dims
    for n, to, params, keys, codes in parts:
        code_now = None
        for n_to, param, key, code in zip(to, params, keys, codes):
            if code != code_now:
                code_now = code
                kind, note = steps._codes[code]
                rule = rules.get(kind)
                if rule is None:
                    raise InvalidMove(f"{space} chains use no {kind} moves")
            d, g, held = dims(key)
            if rule(space, n, n_to, d, g, held, param, note, None) is not None:
                raise InvalidMove(rule(space, n, n_to, d, g, held, param, note,
                                       _carrier(space, key)))
            n = n_to
