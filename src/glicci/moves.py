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
:class:`_Steps`).  A planned chain builds them from the planner's
pieces when they are first read; a chain built in code,
unpickled or read from JSON is packed on entry by :func:`_pack`, which
re-derives each carrier from its (d, g) and refuses one that is not the
catalog's.  ``steps`` builds each move, and its carrier, when it is
read; counts, text, JSON and validation read the columns and build no
record.  Equality, hashing, ``repr``, pickling and serialization are
those of the tuple of its moves.
"""

from __future__ import annotations

import gc
from array import array
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from sys import intern

from ._record import Record, check_ints, check_types, draft, type_error
from .catalog import (
    _CARRIERS_KEPT,
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


def _spread(first: int, step: int, curve: int, count: int) -> array:
    """The ``count`` values first, first + step, ... whose steps grow by
    ``curve`` each time, built at C speed."""
    if curve:
        return array("q", accumulate(range(step, step + curve * (count - 1), curve),
                                     initial=first))
    if step:
        return array("q", range(first, first + step * count, step))
    return array("q", (first,)) * count


def _last(length: int, curve: int, first: tuple, after: tuple) -> int:
    """The count a closed-form piece (see :class:`_Steps`) ends on: its
    last target."""
    j, r = divmod(length - 1, len(first))
    to = first[r][0]
    return to + j * (after[r][0] - to) + curve * (j * (j - 1) // 2) if j else to


def _piece_last(piece: tuple) -> int:
    """The count a piece of a planned chain (see :class:`_Steps`) ends on."""
    _, length, curve, first, after = piece
    return after[0][-1] if first is None else _last(length, curve, first, after)


# A chain's columns by a move's place: target, parameter, key and code.
_COLUMNS = ("_to", "_param", "_key", "_code")

# The places of the columns that a planned chain builds together when
# one of them is first read (see ``_Steps.__getattr__``).
_BUILT_WITH = {"_to": (0,), "_param": (1, 2, 3), "_key": (1, 2, 3), "_code": (1, 2, 3)}


def _values(place: int, length: int, curve: int, first: tuple, after: tuple) -> array:
    """The ints at ``place`` of a closed-form piece's first ``length``
    moves, built at C speed: for a period p > 1, one place of the period
    at a time, each into a strided slice of a zeroed block."""
    period, bend = len(first), curve if place == 0 else 0
    if period == 1:
        value = first[0][place]
        return _spread(value, after[0][place] - value, bend, length)
    block = array("q", (0,)) * length
    for r, (now, nxt) in enumerate(zip(first, after)):
        value = now[place]
        block[r::period] = _spread(value, nxt[place] - value, bend, (length - 1 - r) // period + 1)
    return block


def _columns(pieces: tuple, places: tuple) -> list:
    """The columns at ``places`` of the moves of ``pieces`` (see
    :class:`_Steps`), in one pass: each run of moves copied from its
    columns, each closed-form piece built by :func:`_values`."""
    columns = [array("q") for _ in places]
    for _, length, curve, first, after in pieces:
        for column, place in zip(columns, places):
            column += after[place] if first is None else _values(place, length, curve, first, after)
    return columns


def _piece_columns(length: int, curve: int, first: tuple, after: tuple) -> tuple:
    """The four columns of the first ``length`` moves of one closed-form piece."""
    return tuple(_values(place, length, curve, first, after) for place in range(len(_COLUMNS)))


class _Steps(Sequence):
    """The steps of a chain, held as four ``array('q')`` columns, one
    entry per step: the target count, the parameter (m or h), the
    carrier's key (see ``catalog._KEYS``) and a code into ``codes`` for
    the kind and note.  A step's count before the move is the previous
    target, or the start.

    A planned chain holds instead the pieces the planner walked, in
    ``_pieces``, each (first index, length, curve, first, after).  A
    closed-form piece is ``length`` moves that repeat with period p =
    len(first), ``first`` the first p and ``after`` the p that follow:
    each int steps by a constant from one period to the next and a
    target's step grows by ``curve``.  A run of moves the planner kept
    as they are (pieces shorter than ``_PROVED_FROM`` periods, which
    validation reads move by move anyway) has ``first`` None and
    ``after`` its four columns.  Its length and terminal are stored, so
    ``len`` and ``Chain.terminal`` cost O(1), and :func:`validate_chain`
    proves a planned chain from its pieces.  Its columns are built by
    :func:`_columns`, the only writer of a planned chain's columns from
    its pieces, when they are first read (the columns not yet built are
    unset slots, which ``__getattr__`` fills).  A planned chain that is
    one run holds the run's columns as its own and ``_pieces`` empty;
    ``_pieces`` is None for a chain built in code, unpickled or read from
    JSON, whose columns are packed on entry.

    Reading a step builds its ``LinkMove`` and takes its carrier from the
    cache of ``catalog._carrier``, which keeps a level's few keys while a
    pass reads them, so those moves share one carrier; a slice is a tuple.
    A read of more steps than that cache keeps takes a cache of the same
    size of its own: the shared one could keep none of its keys for the
    next read, and would lose the small chains' keys it holds.
    Equality, hash, ``repr`` and pickling are those of the tuple of
    moves, which ``tuple(steps)`` builds."""

    __slots__ = ("_space", "_start", "_codes", "_pieces", "_length", "_terminal", *_COLUMNS)

    def __init__(self, space: str, start: int, columns=(), codes=_MOVE_CODES, pieces=None):
        if columns:
            to = columns[0]
            length, terminal = len(to), to[-1] if to else start
        elif pieces:
            length, terminal = pieces[-1][0] + pieces[-1][1], _piece_last(pieces[-1])
        else:
            length, terminal = 0, start
        for name, value in zip(self.__slots__,
                               (space, start, codes, pieces, length, terminal, *columns)):
            object.__setattr__(self, name, value)

    def __getattr__(self, name):
        # Only a column of a planned chain that is not yet built is unset.
        # The targets may be read alone, as ``point_sequence`` reads them;
        # a reader of any other column reads all three others too, so the
        # first such read builds the three.
        places = _BUILT_WITH.get(name)
        if places is None:
            raise AttributeError(name)
        for place, column in zip(places, _columns(self._pieces, places)):
            object.__setattr__(self, _COLUMNS[place], column)
        return object.__getattribute__(self, name)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        positions = range(self._length)[index]
        if isinstance(index, slice):
            return tuple(self._moves(positions))
        return next(self._moves((positions,)))

    def __iter__(self):
        return self._moves(range(self._length))

    def _moves(self, positions):
        space, pairs = self._space, self._codes
        to, params, keys, codes = self._to, self._param, self._key, self._code
        carrier = (_carrier if len(positions) <= _CARRIERS_KEPT
                   else lru_cache(_CARRIERS_KEPT)(_carrier.__wrapped__))
        for i in positions:
            kind, note = pairs[codes[i]]
            param = params[i]
            liaison = kind == LIAISON
            yield _move(kind, to[i - 1] if i else self._start, to[i], carrier(space, keys[i]),
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


# The fields of a carrier that :func:`_pack` compares with those its
# key's layout gives; d and g found the key.
_COMPARED = ("ambient", "linsys_dim", "divisor", "surface", "label")


def _pack(space: str, start: int, moves: tuple, carried) -> _Steps:
    """The columns of ``moves`` from ``start``, after the chain's field
    types: each must be a ``LinkMove`` starting where the chain sits, on
    the carrier ``key_of`` finds for its (d, g) in each field ``carried``
    names for it, compared with the field its key's layout gives: no
    carrier is built, so a chain naming more carriers than the cache of
    ``catalog._carrier`` keeps does not rebuild each one.  A (kind, note)
    outside ``_MOVE_CODES`` gets the next code of the chain's own table."""
    check_types(("space", "start", "steps"), (str, int, tuple), (space, start, moves))
    if space not in _KEYS:
        raise InvalidMove(f"unknown space {space!r}")
    # The interned name is the catalog's own string object, so a chain
    # read from JSON pickles to the same bytes as the planned one.
    space = intern(space)
    to, params, keys, codes = columns = array("q"), array("q"), array("q"), array("q")
    code_of = {pair: code for code, pair in enumerate(_MOVE_CODES)}
    layout, cur = _KEYS[space], start
    ambient, surface, dims, label, divisor = (layout.ambient, layout.surface, layout.dims,
                                              layout.label, layout.divisor)
    for index, (move, names) in enumerate(zip(moves, carried)):
        if type(move) is not LinkMove:
            raise InvalidMove(f"step {index}: expected a LinkMove, got {type(move).__name__}")
        if move.n_from != cur:
            raise InvalidMove(f"step starts at {move.n_from} but the chain sits at {cur}")
        carrier = move.carrier
        key = key_of(space, carrier.d, carrier.g)
        wanted = ambient, dims(key)[2], divisor(key), surface, label(key)
        for name, want in zip(_COMPARED, wanted):
            if name in names and (got := getattr(carrier, name)) != want:
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
    return _Steps(space, start, columns, tuple(code_of))


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
    def _packed(cls, space: str, start: int, *columns, pieces=None) -> "Chain":
        """The chain of a walk from ``start``, its steps held in the four
        columns of :class:`_Steps`, or in the planner's pieces, from which
        they are built when read."""
        chain = object.__new__(cls)
        chain._hold(_Steps(space, start, columns, pieces=pieces))
        return chain

    @property
    def terminal(self) -> int:
        return self.steps._terminal

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
        import json
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        """:meth:`from_dict` of the parsed text, which must be JSON."""
        import json
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


# The fewest periods of a piece that :func:`_proved_pieces` proves: it
# needs four (the first, read, and three samples), and a shorter piece
# than this reads faster than it is proved, so the planner keeps it as
# its moves.
_PROVED_FROM = 24


def _proved_pieces(chain: Chain):
    """The closed-form pieces of a planned chain, those of
    ``_PROVED_FROM`` periods or more, when they prove that its space's
    rule admits every step of theirs but the first period, each with a
    key at least the space's first; None when one is not proved, and the
    chain's ``_pieces`` (None, or empty) when it has none.

    Each place of a piece's period holds the steps j = 0, 1, ... whose
    ints step by a constant from one period to the next, the target's
    step growing by the piece's curve, as :func:`_values` builds them.
    Where the code is the same at j = 0 and 1, and the key steps by a
    multiple of its space's ``_KEY_CLASSES``, all the steps share the
    kind, note and key class of j = 0.  Then for j >= 1 (at j = 0 the
    count before the first place is the one before the piece) d, the
    parameter and the key are linear in j, and g, linsys_dim, both counts
    and every slack of ``_RELATIONS`` are of degree at most 2.  So the
    slacks at j = 1, 2, 3, read off the piece's first four periods as
    :func:`_values` builds them, fix them: each equality holds at all
    three, and each inequality's least value over the piece, found by
    :func:`_least`, is at least 0.  A place that fails a precondition or
    a relation, or whose rule has no table, proves no piece."""
    space, steps = chain.space, chain.steps
    if not steps._pieces:
        return steps._pieces
    pieces = [piece for piece in steps._pieces if piece[3] is not None]
    rules, dims, first_key, table = _RULES[space], _KEYS[space].dims, _FIRST_KEYS[space], steps._codes
    for _, length, curve, first, after in pieces:
        period = len(first)
        to, params, keys, codes = _piece_columns(4 * period, curve, first, after)
        for r in range(period):
            last = (length - 1 - r) // period  # the place's last j
            code, key, step = codes[r], keys[r], keys[r + period] - keys[r]
            if not -len(table) <= code < len(table):
                return None  # reading fails on this code
            kind, note = table[code]
            slacks = _RELATIONS.get(rules.get(kind))
            if (slacks is None or codes[r + period] != code or step % _KEY_CLASSES[space]
                    or min(key + step, key + last * step) < first_key):
                return None
            samples = [slacks(to[k - 1], to[k], *dims(keys[k]), params[k], note)
                       for k in range(r + period, r + 4 * period, period)]
            if any(any(equalities) for equalities, _ in samples):
                return None
            for values in zip(*(inequalities for _, inequalities in samples)):
                if _least(*values, last - 1) < 0:
                    return None
    return pieces


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

    A planned chain with closed-form pieces is read from its pieces and
    builds no column: each run of moves from its columns, and the first
    period of each closed-form piece, which :func:`_proved_pieces`
    proves from a few of its steps.  The count before a piece is where
    the one before it ends.  So a plan costs in its pieces, not its
    length.  A proved step is one its rule admits, so the first step
    refused is one that is read, and every verdict and text is the one
    reading every step gives.  A chain built in code, unpickled or read
    from JSON has no pieces, and it, a planned chain that is one run of
    moves and one whose pieces are not proved are read whole."""
    n, space, steps = chain.start, chain.space, chain.steps
    if n < 1:
        raise InvalidMove(f"chains start at a positive count, got {n}")
    # Per key class d is linear, g and linsys_dim quadratic: tests/test_catalog.py::TestKeyClasses
    first_key = _FIRST_KEYS[space]
    proved = _proved_pieces(chain)
    if not proved:
        parts = ((n, zip(steps._to, steps._param, steps._key, steps._code)),)
        least = min(steps._key, default=first_key)
    else:
        # A proved piece's keys are at least the first, so the least key
        # read is the chain's least wherever that is below the first.
        parts, least = [], first_key
        for piece in steps._pieces:
            _, _, _, first, after = piece
            if first is None:  # a run of moves, read from its columns
                parts.append((n, zip(*after)))
                least = min(least, min(after[2]))
            else:  # a proved piece's first period
                parts.append((n, first))
                least = min(least, *(move[2] for move in first))
            n = _piece_last(piece)
    if least < first_key:
        raise _unknown_key(space, least)
    rules, dims = _RULES[space], _KEYS[space].dims
    for n, moves in parts:
        code_now = None
        for n_to, param, key, code in moves:
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
