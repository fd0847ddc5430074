"""Reduction planners: validated chains from n general points down to one.

``plan(space, n)`` walks every space the same way.  Each ambient supplies
only a generator of pieces, ``pieces(n)`` in ``_BY_SPACE``: runs of
moves, each in closed form from the count where it starts, from n
points down to one.  A move is four ints: the target, the parameter (m
or h), the carrier's key (see ``catalog._KEYS``) and a note code (see
``moves._MOVE_CODES``).  ``_walk`` writes the pieces into the chain's
columns with C-level builders, guards the walk against cycles and
against a chain longer than the step budget, and hands
``validate_chain`` the span of each piece it wrote in closed form, so
that the chain is proved a piece at a time; no move or carrier is built
until a caller reads a step:

  * p2: ascending biliaisons on plane curves of the least degree that
    holds the points, a run of height 2 and then one of height 1,
    except that 2 and 4 points drop by height 1 onto a line and a conic;
  * quadric: ascending biliaisons on the two ACM families of the
    quadric, one level down a move, except that n = 2 first slides the
    points along a twisted cubic (a height-0 biliaison) onto a ruling
    line;
  * cubic surface: strict liaisons by m*H - K on the four ACM families,
    read off the six ranges of each level, down to the recorded chain
    of two points, whose moves at n in {2, 3, 5, 6} leave the formula;
  * p3: a height-1 biliaison on the least-degree row of the
    general-points table that holds the points, except for the liaisons
    by 5H - K at n = 17 and 19, all in one piece; total for n <= 19 and
    a typed open-case error beyond.

A piece finds its level by one square root; its length and columns are
closed forms in the level and the offset of its first count.  The
reachability oracle lists the candidate moves on every carrier key of a
space, keeps exactly those the space's step rules admit and runs the one
breadth-first search, ``_bfs``; it builds no record and never calls the
planners, so it checks them independently.  ``p3_descending_moves`` is
the same listing from one n.

A plan is a pure function of (space, n); identical inputs give
identical chains.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import accumulate, count
from math import isqrt

from ._record import Plain
from .catalog import _CUBIC_NAMES, _KEYS, _check_positive, perrin_table
from .errors import DegreeTooLarge, InvalidMove, OutOfGuaranteedRange, SearchBudgetExceeded
from .moves import (
    _BILIAISON_CODE,
    _LIAISON_CODE,
    _REPOSITIONED_CODE,
    _RULES,
    _SLIDE_CODE,
    BILIAISON,
    LIAISON,
    Chain,
    _biliaison_residual,
    _liaison_degree,
    _too_large,
    validate_chain,
)

_SEARCH_CAP = 10_000

# The most steps a plan may have: 4 GiB of columns.  The cubic surface
# takes 73,542,700 steps from 10^15 points, and at 2^63 - 1 the plane
# takes 2,147,483,647.
_STEP_BUDGET = 1 << 27


def _check_n(n: int) -> None:
    _check_positive(n, "point count", "at least one point")


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
    """The count a piece (see :func:`_walk`) ends on: its last target."""
    j, r = divmod(length - 1, len(first))
    to = first[r][0]
    return to + j * (after[r][0] - to) + curve * (j * (j - 1) // 2) if j else to


def _walk(space: str, n: int, pieces) -> Chain:
    """Follow the pieces that ``pieces(n)`` yields from n points down to
    one and validate the chain.  A piece is (length, curve, first,
    after): ``length`` moves that repeat with period p, ``first`` the
    first p and ``after`` the p that follow (none where the piece gives
    all its moves in ``first``).  Each int steps by a constant from one
    period to the next and a target's step grows by ``curve``, so a
    longer piece than 2p moves is built column by column and, for p > 1,
    one place in the period at a time, into a strided slice.  The chain
    keeps the span (first index, length, p) of each such piece, from
    which :func:`validate_chain` proves it without reading every step.
    A walk that comes back to a count it has left, or yields an empty
    piece, raises :class:`InvalidMove` instead of looping; one whose ints
    the columns cannot hold raises :class:`DegreeTooLarge`, as does one
    whose pieces pass ``_STEP_BUDGET`` steps, before it writes the piece
    that passes it.

    The guard is Brent's cycle check over the counts the pieces end on
    and holds one remembered count, ``mark``, whatever the length of the
    walk.  Each new end is compared with the mark; whenever the pieces
    since the mark last moved reach a power of two, the mark moves to
    the current end and the power doubles.  A repeated end is caught
    within fewer than 3 * (tail + cycle length) pieces, and only a count
    that really comes back raises.  A piece may keep the count once, as
    the quadric's slide 2 -> 2 does before its 2 -> 1; a second such
    piece in a row raises.

    A step leaves behind no object that the cyclic garbage collector
    tracks, so the walk sets off none of its passes."""
    _check_n(n)
    columns = to, param, key, code = array("q"), array("q"), array("q"), array("q")
    add_to, add_param, add_key, add_code = to.append, param.append, key.append, code.append
    spans = []
    cur = mark = n
    power = hop = 1
    stayed = False
    try:
        for length, curve, first, after in pieces(n):
            if length < 1:
                raise InvalidMove(f"{space} walk from {n} yields an empty piece at {cur}")
            if len(to) + length > _STEP_BUDGET:
                array("q", sum(first + after, ()))  # an int past 64 bits raises that first
                raise DegreeTooLarge(f"{n} points: the chain passes {len(to) + length} steps,"
                                     f" more than the {_STEP_BUDGET} a plan may take")
            period = len(first)
            if length <= 2 * period:  # its moves are those given
                for nxt, p, k, c in (first + after)[:length]:
                    add_to(nxt)
                    add_param(p)
                    add_key(k)
                    add_code(c)
            else:
                spans.append((len(to), length, period))
                for column, bend, values, later in zip(columns, (curve, 0, 0, 0), zip(*first),
                                                       zip(*after)):
                    if period == 1:
                        column.extend(_spread(values[0], later[0] - values[0], bend, length))
                        continue
                    rows = (_spread(value, nxt - value, bend, (length - 1 - r) // period + 1)
                            for r, value, nxt in zip(range(period), values, later))
                    row, start = next(rows), len(column)  # the first row fits in 64 bits
                    column.frombytes(bytes(8 * length))
                    column[start::period] = row
                    for r, row in enumerate(rows, 1):
                        column[start + r::period] = row
            last, cur = cur, to[-1]
            if cur == mark and (stayed or cur != last):
                raise InvalidMove(f"{space} walk from {n} returns to {cur}")
            stayed = cur == last
            if hop == power:
                mark, power, hop = cur, 2 * power, 0
            hop += 1
    except OverflowError:
        raise _too_large(f"{n} points") from None
    chain = Chain._packed(space, n, *columns, tuple(spans))
    validate_chain(chain)
    return chain


def _bfs(adjacency: dict[int, set[int]]) -> set[int]:
    """Every vertex connected to 1, found breadth first."""
    queue, seen = [1], {1}
    for v in queue:
        for u in adjacency.get(v, ()):
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return seen


# ---------------------------------------------------------------------------
# Points in the plane.

def _plane_degree(n: int) -> int:
    # The d with (d-1)(d+2)/2 < n <= d(d+3)/2.
    return (isqrt(8 * n + 5) - 1) // 2


def _biliaisons(n: int, h: int, d: int, fall: int, length: int) -> tuple:
    """The piece of ``length`` height-h biliaisons from n on the degrees
    d, d - fall, ...; a target's step grows by h * fall."""
    nxt = _biliaison_residual(n, h, d)
    return (length, h * fall, ((nxt, h, d, _BILIAISON_CODE),),
            ((_biliaison_residual(nxt, h, d - fall), h, d - fall, _BILIAISON_CODE),))


def _p2_pieces(n: int):
    """With t = n - (d-1)(d+2)/2 in 1..d+1 on n's degree d, height-2
    moves lower d by 2 and t by 1 until t = 1, or until t = d + 1, from
    where one more lands on t = 1 a degree lower; at t = 1 height-1
    moves lower d by 1 down to one point."""
    while n > 1:
        if n in (2, 4):
            # The formula's height 2 would drop to 0 points: one line, one conic.
            piece = _biliaisons(n, 1, n // 2, 0, 1)
        else:
            d = _plane_degree(n)
            t = n - (d - 1) * (d + 2) // 2
            if t == 1:
                piece = _biliaisons(n, 1, d, 1, d - 1)
            elif d in (2 * t - 3, 2 * t - 2):  # stop on 2 or 4 points, at t = 2
                piece = _biliaisons(n, 2, d, 2, t - 2)
            else:
                piece = _biliaisons(n, 2, d, 2, min(t - 1, d + 2 - t))
        yield piece
        n = _last(*piece)


# ---------------------------------------------------------------------------
# Points on the nonsingular quadric.

def _quadric_level(n: int) -> int:
    # The a with a^2 + a <= n <= a^2 + 3a + 1.
    return (isqrt(4 * n + 1) - 1) // 2


def _quadric_pieces(n: int):
    """A carrier's key is its degree: bidegree (a, a) of case i, (a, a+1)
    of case ii, and 1 the ruling line.  With t = n - a^2 - a in 0..2a+1
    on n's level a, case i (t <= a, degree 2a) keeps t down to level t
    (or to 2 points at t = 0); case ii lowers t and a by 1 until
    t = 2a + 1, then lands on t = 0, or reaches one point.  2 points
    slide along a twisted cubic (a height-0 biliaison) onto a ruling
    line."""
    while n > 2:
        a = _quadric_level(n)
        t = n - a * (a + 1)
        if t <= a:
            piece = _biliaisons(n, 1, 2 * a, 2, a - t + 1 if t else a - 1)
        else:
            piece = _biliaisons(n, 1, 2 * a + 1, 2, min(2 * a + 2 - t, a))
        yield piece
        n = _last(*piece)
    if n == 2:
        moves = ((2, 0, 3, _SLIDE_CODE),  # on the twisted cubic, bidegree (1, 2)
                 (1, 1, 1, _REPOSITIONED_CODE))
        yield 2, 0, moves, ()


# ---------------------------------------------------------------------------
# Points on the nonsingular cubic surface.

# A cubic carrier's key is 4a plus its kind's code, the kind's place in
# ``catalog._CUBIC_NAMES``.
_I, _II, _III, _IV = map(_CUBIC_NAMES.index, ("i", "ii", "iii", "iv"))

# Every chain ends on the recorded chain of two points, 2 -> 6 -> 7 ->
# 5 -> 3 -> 1, given as the move (target, m, key) from each of its counts.
# Its moves at 2, 3, 5 and 6 leave the closed form: at 3 the formula's
# move would break the window (5 > 4 on (4,1)); at 5 and 6 it would cycle
# (5 -> 7 -> 5, 6 -> 2 -> 6); 2 keeps the recorded chain, where the
# formula would link 2 -> 1 on the plane cubic.  The move at 7 is the
# formula's, E on level 2.
_CUBIC_TAIL = {
    2: (6, 2, 4 * 2 + _II),  # 2H-K on (5,2)
    6: (7, 3, 4 * 3 + _I),  # 3H-K on (7,5)
    7: (5, 3, 4 * 2 + _IV),  # 3H-K on (6,4)
    5: (3, 2, 4 * 2 + _II),  # 2H-K on (5,2)
    3: (1, 1, 4 * 2 + _I),  # H-K on (4,1)
}


def _cubic_level(n: int) -> int:
    # The a with 3a(a-1)/2 <= n < 3a(a+1)/2.
    return (isqrt(24 * n + 9) + 3) // 6


def _cubic_cap(n_max: int) -> int:
    # The top of n_max's level, and at least of level 4 (n = 18..29).
    a = _cubic_level(max(n_max, 18))
    return 3 * a * (a + 1) // 2 - 1


def _base(a: int) -> int:
    # n0 = 3a(a-1)/2, the first count of level a.
    return 3 * a * (a - 1) // 2


# The moves of one period of each piece of ``_cubic_pieces``.

def _spiral(a: int, u: int) -> tuple:
    # On level a, from the offsets u (above T/2) and 3a - u (below).
    n0, m, i = _base(a), 2 * a - 1, 4 * a
    return ((n0 + 3 * a - u, m, i + _IV, _LIAISON_CODE), (n0 + u + 1, m, i + _II, _LIAISON_CODE))


def _a_descent(s: int, b: int) -> tuple:
    # A at offset s of level b, then F at offset 3b-1-s of level b-1.
    n1 = _base(b - 1)
    return ((n1 + 3 * b - 1 - s, 2 * b - 2, 4 * b + _I, _LIAISON_CODE),
            (n1 + s, 2 * b - 3, 4 * b - 4 + _III, _LIAISON_CODE))


def _c_descent(b: int) -> tuple:
    # C at offset b+1 of level b, E at 2(b-1) and C at b-1 of level b-1,
    # then F at 2b-3 of level b-2.
    n1, n2 = _base(b - 1), _base(b - 2)
    return ((n1 + 2 * b - 2, 2 * b - 2, 4 * b + _II, _LIAISON_CODE),
            (n1 + b - 1, 2 * b - 3, 4 * b - 4 + _IV, _LIAISON_CODE),
            (n2 + 2 * b - 3, 2 * b - 4, 4 * b - 4 + _II, _LIAISON_CODE),
            (n2 + b - 1, 2 * b - 5, 4 * b - 8 + _III, _LIAISON_CODE))


def _periodic(moves, x: int, step: int, phase: int, length: int, curve: int) -> tuple:
    """The piece of ``length`` moves that starts at move ``phase`` of
    ``moves(x)`` and goes on through ``moves(x + step)``, ...; its
    targets' steps grow by ``curve`` each period."""
    one, two = moves(x), moves(x + step)
    if length > 12 * len(one):
        three = moves(x + 2 * step)[:phase] if phase else ()
        return length, curve, one[phase:] + two[:phase], two[phase:] + three
    # Up to 12 periods, as in most plans below n = 1000, the moves cost
    # less to give one by one than the columns cost to build.
    given, later = one + two, x + step
    while len(given) < phase + length:
        later += step
        given += moves(later)
    given = given[phase:phase + length]
    return length, 0, given, ()


def _cubic_pieces(n: int):
    """The pieces from n down to one point, liaisons read off the six
    ranges of n's level a by the offset t = n - n0, n0 = 3a(a-1)/2.  With
    T = 2n0 + 3a: A (t = 0 or 3 <= t < a) and C (t = a, a+1) link to
    2n0+2 - n by twist 2a-2, on types i and ii; by twist 2a-1, B (t = 1,
    2) links to T - n on type iv, F (t > 2a) to T+2 - n on type iii, and
    D and E (a+2 <= t <= 2a) to T - n on type iv above T/2 and to
    T+1 - n on type ii below.  Three pieces repeat:

      * the spiral, period 2 on level a: from D and E out to C at a+1;
      * the A descent, period 2 and one level down a period: A at offset
        s links to F one level down, which links back to offset s, until
        s reaches the level and the walk lands on C;
      * the C descent, period 4 and two levels down a period: C, E, C, F,
        at offsets a+1, 2a, a, 2a+1 in turn, down to C on level 2, at 5
        or 6 points.

    t = 0 and B are one move each, and a count of ``_CUBIC_TAIL`` starts
    the piece of its literal moves down to one."""
    while n > 1:
        if n in _CUBIC_TAIL:
            moves = ()
            while n > 1:
                n, m, key = _CUBIC_TAIL[n]
                moves += ((n, m, key, _LIAISON_CODE),)
            piece = len(moves), 0, moves, ()
        else:
            a = _cubic_level(n)
            n0 = _base(a)
            t = n - n0
            if t <= 2:  # one move from t = 0, and from B
                move = ((n0 + 2, 2 * a - 2, 4 * a + _I, _LIAISON_CODE) if t == 0 else
                        (n0 + 3 * a - t, 2 * a - 1, 4 * a + _IV, _LIAISON_CODE))
                piece = 1, 0, (move,), ()
            elif t < a:
                piece = _periodic(partial(_a_descent, t), a, -1, 0, 2 * (a - t), 3)
            elif a + 1 < t < 2 * a:
                u, phase = (t, 0) if 2 * t > 3 * a else (3 * a - t, 1)
                piece = _periodic(partial(_spiral, a), u, 1, phase, 4 * a - 2 * u - 1 - phase, 0)
            elif t > 2 * a and 3 * a + 2 - t <= a:
                s = 3 * a + 2 - t
                piece = _periodic(partial(_a_descent, s), a + 1, -1, 1, 2 * (a + 1 - s) - 1, 3)
            else:
                # C at t = a + 1, E at 2a, C at a, F at 2a + 1.
                b, phase = {a + 1: (a, 0), 2 * a: (a + 1, 1), a: (a + 1, 2)}.get(t, (a + 2, 3))
                piece = _periodic(_c_descent, b, -2, phase, 2 * (b - 2) - phase, 12)
        yield piece
        n = _last(*piece)


# ---------------------------------------------------------------------------
# Points in 3-space.

P3_GUARANTEED_MAX = 19

# The two counts whose least-degree biliaison leaves a residual below
# the genus (8 < 9 on (9,9), 9 < 11 on (10,11)) link by 5H-K instead:
# n -> (target, m, d); a carrier's key is its row's degree.
_P3_EXCEPTIONS = {17: (12, 5, 9), 19: (11, 5, 10)}


def _p3_pieces(n: int):
    if n > P3_GUARANTEED_MAX:
        raise OutOfGuaranteedRange(
            f"{n} > {P3_GUARANTEED_MAX} general points in 3-space: no descending "
            "move over the general-points table is admissible (for 20 points the "
            "only carrier is the (10,11) curve, whose moves leave a residual of "
            "degree 10 < genus 11), and the reduction question is open"
        )
    moves = ()  # at most five, given one by one in one piece
    while n > 1:
        if n in _P3_EXCEPTIONS:
            nxt, m, d = _P3_EXCEPTIONS[n]
            moves += ((nxt, m, d, _LIAISON_CODE),)
        else:
            row = next(row for row in perrin_table() if n <= row.m)
            moves += ((n - row.d, 1, row.d, _BILIAISON_CODE),)
        n = moves[-1][0]
    if moves:
        yield len(moves), 0, moves, ()


# ---------------------------------------------------------------------------
# Brute-force reachability oracle.

class ReachabilityOracle(Plain):
    """Undirected admissible-move graph for one ambient, with the set of
    counts connected to 1.  Edges are the moves the step rules admit on
    the carriers of genus at most the cap, found without the planners'
    pieces, so agreement between the two is a real check."""

    __slots__ = _fields = ("space", "n_max", "cap", "edges", "reachable")

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def is_reachable(self, n: int) -> bool:
        return n in self.reachable

    def confirms(self, chain: Chain) -> bool:
        """True when every step of the chain is an edge of this graph.
        Height-0 repositioning steps change no count and are skipped."""
        points = chain.point_sequence()
        return all(self.has_edge(n, n_to) for n, n_to in zip(points, points[1:]) if n != n_to)


def _candidates(space: str, d: int, g: int, n: int, lo: int, hi: int):
    """(kind, parameter, residual) of every move from n on a (d, g)
    carrier, of the kinds the space has rules for: the biliaisons
    n -> n - h*d (h >= 1) whose residual is at least lo, by h, then the
    liaisons n -> m*d - (2g - 2) - n (m >= 1) whose residual lies in
    [lo, hi], by m."""
    rules = _RULES[space]
    shift = 2 * g - 2
    if BILIAISON in rules:
        for h in range(1, (n - lo) // d + 1):
            yield BILIAISON, h, _biliaison_residual(n, h, d)
    if LIAISON in rules:
        for m in range(max(1, -((n + lo + shift) // -d)), (n + hi + shift) // d + 1):
            yield LIAISON, m, _liaison_degree(m, d, g) - n


def _admits(space: str, kind: str, n: int, n_to: int, d: int, g: int, held: int | None,
            param: int) -> bool:
    """True when the rule validate_chain applies admits the move n -> n_to
    on a carrier of degree d, genus g and linear-system dimension held."""
    return _RULES[space][kind](space, n, n_to, d, g, held, param, "", None) is None


# The bound m of each row of the general-points table by its key, the
# row's degree: the rows are the carriers of 3-space, and have no
# linear-system dimension.
_P3_HOLDS = {row.d: row.m for row in perrin_table()}

# Per space: the generator of pieces, the oracle's cap for n_max, the key
# of the carrier of least genus, the carriers' bounds by key where they
# are not the linear-system dimension, and the edges no carrier gives:
# on the quadric, 2 -> 1 on a ruling line (key 1) onto which a height-0
# slide has repositioned the points.
_BY_SPACE = {
    "p2": (_p2_pieces, lambda n_max: n_max, 1, None, ()),
    "quadric": (_quadric_pieces, lambda n_max: n_max, 2, None, (frozenset((2, 1)),)),
    "cubic-surface": (_cubic_pieces, _cubic_cap, 4, None, ()),
    "p3": (_p3_pieces, lambda n_max: max(n_max, *_P3_HOLDS.values()), 1, _P3_HOLDS, ()),
}
SPACES = tuple(_BY_SPACE)


def _carriers(space: str):
    """(d, g, linsys_dim, the most general points it holds) of each
    carrier of the space by key, which is the order of genus: every key
    from the first, or the table's rows in 3-space."""
    _, _, first, holds, _ = _BY_SPACE[space]
    dims = _KEYS[space].dims
    for key in count(first) if holds is None else holds:
        d, g, held = dims(key)
        yield d, g, held, held if holds is None else holds[key]


def _lookup(space: str):
    try:
        return _BY_SPACE[space]
    except (KeyError, TypeError):
        raise ValueError(f"space must be one of {SPACES}, got {space!r}") from None


def plan(space: str, n: int) -> Chain:
    """Reduce n general points of the space (one of ``SPACES``) to one
    point by the moves the module docstring lists, and validate the chain.
    In 3-space n >= 20 raises OutOfGuaranteedRange: no descending move
    applies (on (10,11) the residual would have degree 10, below the
    genus), and whether such points reduce at all is open."""
    pieces, *_ = _lookup(space)
    return _walk(space, n, pieces)


def build_oracle(space: str, n_max: int) -> ReachabilityOracle:
    """Assemble the admissible-move graph for a space and run one
    breadth-first search from 1.  Every carrier of genus at most the cap
    gives its candidate moves between counts in [max(g, 1), min(held,
    cap)]; an edge is a biliaison the space's rule admits, or a liaison it
    admits both ways (taken from its lower end)."""
    _, cap_of, *_, extra = _lookup(space)
    _check_n(n_max)
    if n_max > _SEARCH_CAP:
        raise SearchBudgetExceeded(f"oracle capped at n_max <= {_SEARCH_CAP}")
    cap = cap_of(n_max)
    edges = set(extra)
    for d, g, held, holds in _carriers(space):
        if g > cap:
            break
        lo, hi = max(g, 1), min(holds, cap)
        for n in range(lo, hi + 1):
            for kind, param, n_to in _candidates(space, d, g, n, lo, hi):
                if kind == LIAISON and (
                        n_to <= n or not _admits(space, kind, n_to, n, d, g, held, param)):
                    continue
                if _admits(space, kind, n, n_to, d, g, held, param):
                    edges.add(frozenset((n, n_to)))
    adjacency: dict[int, set[int]] = {}
    for u, v in map(tuple, edges):
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return ReachabilityOracle(space, n_max, cap, frozenset(edges), frozenset(_bfs(adjacency)))


def p3_descending_moves(n: int) -> list[tuple[str, int, tuple[int, int], int]]:
    """Every admissible move from n general points of 3-space to a
    strictly smaller count, over the general-points table: entries
    (kind, parameter, (d, g), target).  Empty for n = 20, which is the
    arithmetic behind the open case."""
    _check_n(n)
    return [
        (kind, param, (d, g), n_to)
        for d, g, held, holds in _carriers("p3") if n <= holds
        for kind, param, n_to in _candidates("p3", d, g, n, max(g, 1), n - 1)
        if _admits("p3", kind, n, n_to, d, g, held, param)
    ]
