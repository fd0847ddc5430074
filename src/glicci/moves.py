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
once, as a table over ints: the slack of each relation, which must be
at least 0, from the counts, the carrier's degree, genus and
linear-system dimension, the parameter and the note, and beside it the
text of each.  :func:`validate_chain` reads it step by step, and by it
proves a planned chain's closed-form pieces from a few of their steps;
the planner's oracle admits its edges by it.  Moves are stored directed
even though liaison is symmetric; "ascending" and "descending" are
derived from the endpoints.

A chain holds its steps one way, as pieces (see :class:`_Steps`): a
plan as the planner's, and a chain built in code, unpickled or read
from JSON as one run of moves, packed on entry by :func:`_pack`, which
re-derives each carrier from its (d, g) and refuses one that is not the
catalog's.  Every reader builds the four ``array('q')`` columns of a
window of steps at a time.  ``steps`` builds each move, and its
carrier, when it is read; counts, text, JSON and validation read the
columns and build no record.  Equality, hashing, ``repr``, pickling and
serialization are those of the tuple of its moves.
"""

import gc
from array import array
from bisect import bisect_right
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import accumulate, chain, islice, pairwise, repeat, starmap
from operator import eq, itemgetter
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
    if curve and count:
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
    """The count a piece of a chain (see :class:`_Steps`) ends on."""
    _, length, curve, first, after = piece
    return after[0][-1] if first is None else _last(length, curve, first, after)


def _values(place: int, start: int, count: int, curve: int, first: tuple, after: tuple) -> array:
    """The ints at ``place`` of the ``count`` moves of a closed-form piece
    from its move ``start`` on, built at C speed: for a period p > 1, one
    place of the period at a time, each into a strided slice of a zeroed
    block.  The move j periods into the piece at place r of the period
    is the r-th of ``first`` stepped j times."""
    period, bend = len(first), curve if place == 0 else 0
    if period == 1:
        value = first[0][place]
        step = after[0][place] - value
        if start:
            value += start * step + bend * (start * (start - 1) // 2)
            step += bend * start
        return _spread(value, step, bend, count)
    block = array("q", (0,)) * count
    for k in range(min(period, count)):
        j, r = divmod(start + k, period)
        value = first[r][place]
        step = after[r][place] - value
        if j:
            value += j * step + bend * (j * (j - 1) // 2)
            step += bend * j
        block[k::period] = _spread(value, step, bend, (count - 1 - k) // period + 1)
    return block


# The most steps a reader builds the columns of at a time (see ``_Steps._windows``).
_WINDOW = 4096

# The places of a move's four ints: target, parameter, key and code.
_PLACES = range(4)


class _Steps(Sequence):
    """The steps of a chain, held as its pieces, each (first index,
    length, curve, first, after), in ``_pieces``, an empty tuple for an
    empty chain.  A move is four ints: the target count, the parameter
    (m or h), the carrier's key (see ``catalog._KEYS``) and a code into
    ``codes`` for the kind and note; a step's count before the move is
    the previous target, or the start.

    A run is moves held as they are: ``first`` None and ``after`` their
    four ``array('q')`` columns, one entry per move.  A chain built in
    code, unpickled or read from JSON is one run, packed on entry by
    :func:`_pack`, and so is a plan without long pieces.  A closed-form
    piece, which the planner keeps for a piece of ``_PROVED_FROM``
    periods or more, is ``length`` moves that repeat with period p =
    len(first), ``first`` the first p and ``after`` the p that follow:
    each int steps by a constant from one period to the next and a
    target's step grows by ``curve``.  So ``len`` and ``Chain.terminal``
    cost O(1), and :func:`validate_chain` proves a closed-form piece from
    a few of its moves.

    Every reader takes the columns from :meth:`_windows`, a window of at
    most ``_WINDOW`` moves at a time, so that reading costs in the steps
    read and holds a window, not the chain.  Reading a step builds its
    ``LinkMove`` and takes its carrier from the cache of
    ``catalog._carrier``, which keeps a level's few keys while a pass
    reads them, so those moves share one carrier; a slice is a tuple.  A
    read of more steps than that cache keeps takes a cache of the same
    size of its own: the shared one could keep none of its keys for the
    next read, and would lose the small chains' keys it holds.
    Equality, hash, ``repr`` and pickling are those of the tuple of
    moves, which ``tuple(steps)`` builds."""

    __slots__ = ("_space", "_start", "_codes", "_pieces", "_length")

    def __init__(self, space: str, start: int, pieces: tuple, codes=_MOVE_CODES):
        length = pieces[-1][0] + pieces[-1][1] if pieces else 0
        for name, value in zip(self.__slots__, (space, start, codes, pieces, length)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __len__(self) -> int:
        return self._length

    def _windows(self, start: int, stop: int, places=slice(4)):
        """The columns at ``places`` (a slice of ``_PLACES``) of the moves
        start..stop-1, in windows of at most ``_WINDOW`` moves, each
        within one piece: a run's moves sliced from its columns, or its
        columns themselves when the window is the whole run, and a
        closed-form piece's built by :func:`_values`."""
        pieces = self._pieces
        i = bisect_right(pieces, start, key=itemgetter(0)) - 1 if start else 0
        while start < stop:
            index, length, curve, first, after = pieces[i]
            lo = start - index
            hi = min(stop - index, length, lo + _WINDOW)
            if first is None:
                yield (after[places] if hi - lo == length
                       else [column[lo:hi] for column in after[places]])
            else:
                yield [_values(place, lo, hi - lo, curve, first, after)
                       for place in _PLACES[places]]
            start = index + hi
            i += hi == length

    def _rows(self, start: int, stop: int):
        """The (target, parameter, key, code) of the moves start..stop-1;
        those of a chain that is one run are its columns zipped."""
        pieces = self._pieces
        if len(pieces) == 1 and pieces[0][3] is None and stop - start == self._length:
            return zip(*pieces[0][4])
        return chain.from_iterable(starmap(zip, self._windows(start, stop)))

    def __getitem__(self, index):
        positions = range(self._length)[index]
        if isinstance(index, slice):
            if positions.step < 0:
                return tuple(self._moves(positions[::-1]))[::-1]
            return tuple(self._moves(positions))
        return next(self._moves(range(positions, positions + 1)))

    def __iter__(self):
        return self._moves(range(self._length))

    def _moves(self, positions: range):
        """The moves at ``positions``, a range that steps up.  Each row is
        paired with the one before it, whose target is the move's count
        before; the row before the first position is read for it."""
        if not positions:
            return
        space, pairs = self._space, self._codes
        carrier = (_carrier if len(positions) <= _CARRIERS_KEPT
                   else lru_cache(_CARRIERS_KEPT)(_carrier.__wrapped__))
        skip = 1 if positions.start else 0
        rows = self._rows(positions.start - skip, positions[-1] + 1)
        for before, (n_to, param, key, code) in islice(pairwise(chain(((self._start,),), rows)),
                                                        skip, None, positions.step):
            kind, note = pairs[code]
            liaison = kind == LIAISON
            yield _move(kind, before[0], n_to, carrier(space, key),
                        param if liaison else None, None if liaison else param, note)

    def __eq__(self, other):
        if type(other) is _Steps:
            return ((self._space, self._start, self._length, self._codes)
                    == (other._space, other._start, other._length, other._codes)
                    and all(map(eq, self._rows(0, self._length), other._rows(0, other._length))))
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
    return _Steps(space, start, ((0, len(to), 0, None, columns),) if to else (), tuple(code_of))


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
    def _packed(cls, space: str, start: int, pieces: tuple) -> "Chain":
        """The chain of a walk from ``start`` whose steps are ``pieces``
        (see :class:`_Steps`), unchecked."""
        chain = object.__new__(cls)
        chain._hold(_Steps(space, start, pieces))
        return chain

    @property
    def terminal(self) -> int:
        pieces = self.steps._pieces
        return _piece_last(pieces[-1]) if pieces else self.start

    def point_sequence(self) -> list[int]:
        sequence, steps = [self.start], self.steps
        for to, in steps._windows(0, len(steps), slice(1)):
            sequence += to.tolist()
        return sequence

    def _lines(self):
        """The text line of each step, ``n_from -> n_to [descriptor]``."""
        steps = self.steps
        layout = _KEYS[self.space]
        dims, label_of, n, code_now = layout.dims, layout.label, self.start, None
        for n_to, param, key, code in steps._rows(0, len(steps)):
            if code != code_now:
                code_now = code
                kind = steps._codes[code][0]
                liaison = kind == LIAISON
            d, g, _ = dims(key)
            label = label_of(key) if liaison else ""
            yield f"{n} -> {n_to} {_descriptor(kind, param, d, g, label)}"
            n = n_to

    def to_dict(self) -> dict:
        """The chain as JSON-ready dicts, straight from its rows: each
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
            for n_to, param, key, code in steps._rows(0, len(steps)):
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


# The texts of the relations that more than one rule states.
_DROP = "height-{param} biliaison on ({d},{g}) must drop {drop} points"
_TOTAL = "{n} + {n_to} != deg({param}H-K on ({d},{g})) = {total}"
_P3_BOUNDS = "{n} -> {n_to} on ({d},{g}) fails the containment/effectiveness bounds"


def _plane_biliaison(n: int, n_to: int, d: int, g: int, held: int, h: int, note: str):
    # A note marks points placed on the carrier by a prior height-0
    # repositioning, where the general-position containment count does
    # not apply.
    drop = _biliaison_residual(n, h, d) - n_to
    return (h, drop, -drop, 0 if note else h - 1, n_to - g if h else 0,
            0 if "repositioned" in note else held - n)


def _cubic_liaison(n: int, n_to: int, d: int, g: int, held: int, m: int, note: str):
    # Both ends lie in the window g <= n <= d + g - 1, where alone a
    # (d, g) curve on the cubic surface carries general divisors.
    total, top = _liaison_degree(m, d, g) - n - n_to, d + g - 1
    return total, -total, n - g, top - n, n_to - g, top - n_to


# In 3-space containment bounds n by the carrier's row of the
# general-points table, and effectiveness n_to by the genus.
def _p3_biliaison(n: int, n_to: int, d: int, g: int, held: None, h: int, note: str):
    drop = _biliaison_residual(n, h, d) - n_to
    return h - 1, drop, -drop, _PERRIN_M[d, g] - n, n_to - g


def _p3_liaison(n: int, n_to: int, d: int, g: int, held: None, m: int, note: str):
    total = _liaison_degree(m, d, g) - n - n_to
    return total, -total, _PERRIN_M[d, g] - n, n_to - g


# The step rule of each space by move kind, the one statement of its
# relations: a function slacks(n, n_to, d, g, held, param, note) of the
# counts, the carrier's degree, genus and linear-system dimension, the
# parameter (the twist m of a liaison or the height h of a biliaison)
# and the note, whose ints must all be at least 0 (an equality is the
# pair x, -x), and the text of each, which :func:`_broken` fills in for
# the first that fails.  A kind with no rule in its space is never
# admitted.
_PLANE = {BILIAISON: (_plane_biliaison, (
    "{space} chains use biliaisons of height >= 0, got {param}", _DROP, _DROP,
    "height-0 move needs an annotation",
    "residual {n_to} below genus {g}: divisor may not be effective",
    "{n} general points do not lie on {carrier} (system dimension {held})"))}
_RULES = {
    "p2": _PLANE,
    "quadric": _PLANE,
    "cubic-surface": {LIAISON: (_cubic_liaison, (
        _TOTAL, _TOTAL, *("{n} <-> {n_to} breaks the window [{g}, {top}] on ({d},{g})",) * 4))},
    "p3": {BILIAISON: (_p3_biliaison, ("3-space chains use biliaisons of height >= 1",
                                       _DROP, _DROP, _P3_BOUNDS, _P3_BOUNDS)),
           LIAISON: (_p3_liaison, (_TOTAL, _TOTAL, _P3_BOUNDS, _P3_BOUNDS))},
}


def _broken(space: str, kind: str, n: int, n_to: int, d: int, g: int, held: int | None,
            param: int, note: str, carrier) -> str | None:
    """The text of the first relation of its space's rule that the move
    n -> n_to of the kind breaks, naming ``carrier``; None when it
    breaks none."""
    slacks, texts = _RULES[space][kind]
    for slack, text in zip(slacks(n, n_to, d, g, held, param, note), texts):
        if slack < 0:
            return text.format(space=space, n=n, n_to=n_to, d=d, g=g, held=held, param=param,
                               carrier=carrier, drop=param * d, total=_liaison_degree(param, d, g),
                               top=d + g - 1)
    return None


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


# The fewest periods of a closed-form piece: :func:`_proves` needs four
# (the first, read, and three samples), and a shorter piece than this
# reads faster than it is proved, so the planner keeps it as its moves.
_PROVED_FROM = 24


def _proves(space: str, piece: tuple, table: tuple) -> bool:
    """Whether ``piece``, a closed-form piece of a chain in ``space``
    whose codes index ``table`` and whose keys are at least the space's
    first (as :func:`validate_chain` checks first), proves that its
    space's rule admits every step of it but the first period.

    Each place of the piece's period holds the steps j = 0, 1, ... whose
    ints step by a constant from one period to the next, the target's
    step growing by the piece's curve, as :func:`_values` builds them.
    Where the code is the same at j = 0 and 1, and the key steps by a
    multiple of its space's ``_KEY_CLASSES``, all the steps share the
    kind, note and key class of j = 0.  Then for j >= 1 (at j = 0 the
    count before the first place is the one before the piece) d, the
    parameter and the key are linear in j, and g, linsys_dim, both counts
    and, with no note, every slack of its rule in ``_RULES`` are of degree
    at most 2.  So the slacks at j = 1, 2, 3, read off the piece's first
    four periods as :func:`_values` builds them, fix them: each one's
    least value over the piece, found by :func:`_least`, is at least 0.
    A run, a place with a note (which switches plane relations off), or
    one that fails a precondition or a relation, proves nothing, nor does
    3-space, whose carriers have no key classes."""
    _, length, curve, first, after = piece
    classes = _KEY_CLASSES.get(space)
    if first is None or classes is None:
        return False
    rules, dims, period = _RULES[space], _KEYS[space].dims, len(first)
    to, params, keys, codes = (_values(place, 0, 4 * period, curve, first, after)
                               for place in _PLACES)
    for r in range(period):
        last = (length - 1 - r) // period  # the place's last j
        code = codes[r]
        if not -len(table) <= code < len(table):
            return False  # reading fails on this code
        kind, note = table[code]
        if (note or kind not in rules or codes[r + period] != code
                or (keys[r + period] - keys[r]) % classes):
            return False
        slacks = rules[kind][0]
        samples = [slacks(to[k - 1], to[k], *dims(keys[k]), params[k], note)
                   for k in range(r + period, r + 4 * period, period)]
        for values in zip(*samples):
            if _least(*values, last - 1) < 0:
                return False
    return True


def validate_chain(chain: Chain) -> None:
    """Check that a chain's space admits every step; raises InvalidMove
    for a start below one, for a key below the space's first (the least
    one, from the ends of each piece, where a key is least at each place
    of its period; the key of a 3-space row past the table is refused
    where its row is read) or for the first move with a negative slack
    in its space's rule in ``_RULES``, with the text of the first
    relation the move breaks (see :func:`_broken`).  The rule is chosen
    once per run of one code, and a kind the space lacks raises where its
    run starts.  Each key's (d, g, linsys_dim) comes from the closed
    forms in ``catalog._KEYS``, and the carrier is built only to word a
    failure.  The steps are linked, and their carriers the catalog's, by
    construction (see :func:`_pack`).

    The chain is read a piece at a time, each from the count where the
    one before it ends: a run from its columns, a closed-form piece that
    :func:`_proves` proves for its first period only, and every other
    one step by step through ``_Steps._windows``.  So a plan costs in
    its pieces, not its length.  A proved step is one its rule admits, so the first step
    refused is one that is read, and every verdict and text is the one
    reading every step gives."""
    n, space, steps = chain.start, chain.space, chain.steps
    if n < 1:
        raise InvalidMove(f"chains start at a positive count, got {n}")
    # Per key class d is linear, g and linsys_dim quadratic: tests/test_catalog.py::TestKeyClasses
    least = first_key = _FIRST_KEYS[space]
    for _, length, _, first, after in steps._pieces:
        if first is None:
            least = min(least, min(after[2]))
            continue
        period = len(first)
        for r, (now, nxt) in enumerate(zip(first, after)):
            key = now[2]
            least = min(least, key, key + (length - 1 - r) // period * (nxt[2] - key))
    if least < first_key:
        raise _unknown_key(space, least)
    rules, dims, table = _RULES[space], _KEYS[space].dims, steps._codes
    for piece in steps._pieces:
        index, length, _, first, after = piece
        code_now = None
        rows = (zip(*after) if first is None else first if _proves(space, piece, table)
                else steps._rows(index, index + length))
        for n_to, param, key, code in rows:
            if code != code_now:
                code_now = code
                kind, note = table[code]
                if kind not in rules:
                    raise InvalidMove(f"{space} chains use no {kind} moves")
                slacks = rules[kind][0]
            d, g, held = dims(key)
            if min(slacks(n, n_to, d, g, held, param, note)) < 0:
                raise InvalidMove(_broken(space, kind, n, n_to, d, g, held, param, note,
                                          _carrier(space, key)))
            n = n_to
        n = _piece_last(piece)
