"""Reduction planners: validated chains from n general points down to one.

``plan(space, n)`` walks every space the same way.  Each ambient supplies
only a generator of next hops, ``hops(n)`` in ``_BY_SPACE``, which yields
one move at a time from n points until the count reaches one, as four
ints: the target, the parameter (m or h), the carrier's key (see
``catalog._KEYS``) and a note code (see ``moves._MOVE_CODES``).
``_walk`` runs the one loop over it, guards it against cycles, appends
the ints to the chain's columns and validates the whole chain once on
them; no move or carrier is built until a caller reads a step:

  * p2: one ascending biliaison on plane curves of the least degree
    that holds the points, of height 1 just above the previous degree's
    range and 2 elsewhere, except that 2 and 4 points drop by height 1
    onto a line and a conic;
  * quadric: one ascending biliaison on the two ACM families of the
    quadric, except that n = 2 first slides the points along a twisted
    cubic (a height-0 biliaison) onto a ruling line;
  * cubic surface: one strict liaison by m*H - K on the four ACM
    families, in closed form on the six ranges of each level, with
    literal moves at n in {2, 3, 5, 6} where the recorded chain leaves
    the formula; a level's ranges are set up once, on entering it, and
    kept until the walk leaves it;
  * p3: a height-1 biliaison on the least-degree row of the
    general-points table that holds the points, except for the liaisons
    by 5H - K at n = 17 and 19; total for n <= 19 and a typed open-case
    error beyond.

Every next hop is a formula in n; the levels and the cubic spiral are
closed forms.  The reachability oracle lists the candidate moves on
every carrier key of a space, keeps exactly those the space's step rules
admit and runs the one breadth-first search, ``_bfs``; it builds no
record and never calls the next-hop generators, so it checks the
planners independently.  ``p3_descending_moves`` is the same listing
from one n.

A plan is a pure function of (space, n); identical inputs give
identical chains.
"""

from __future__ import annotations

from array import array
from itertools import count
from math import isqrt

from ._record import Plain
from .catalog import _CUBIC_NAMES, _KEYS, _check_positive, perrin_table
from .errors import InvalidMove, OutOfGuaranteedRange, SearchBudgetExceeded
from .moves import (
    _BILIAISON_CODE,
    _LIAISON_CODE,
    _REPOSITIONED_CODE,
    _RULES,
    _SLIDE_CODE,
    BILIAISON,
    LIAISON,
    Chain,
    _liaison_degree,
    validate_chain,
)

_SEARCH_CAP = 10_000


def _check_n(n: int) -> None:
    _check_positive(n, "point count", "at least one point")


def _walk(space: str, n: int, hops) -> Chain:
    """Follow the moves that ``hops(n)`` yields from n points down to one
    and validate the chain.  A move is four ints, (target, parameter,
    carrier key, note code), appended to the chain's four ``array('q')``
    columns; no record is built.  A walk that comes back to a count it
    has left raises :class:`InvalidMove` instead of looping.

    The guard is Brent's cycle check and holds one remembered count,
    ``mark``, whatever the length of the walk.  Each new count is
    compared with the mark; whenever the moves since the mark last moved
    reach a power of two, the mark moves to the current count and the
    power doubles.  A repeated count is caught within fewer than
    3 * (tail + cycle length) moves, and only a count that really comes
    back raises.  A move may keep the count once, as the quadric's slide
    2 -> 2 does before its 2 -> 1; a second such move in a row raises.

    A step leaves behind no object that the cyclic garbage collector
    tracks, so the walk sets off none of its passes."""
    _check_n(n)
    columns = to, param, key, code = array("q"), array("q"), array("q"), array("q")
    add_to, add_param, add_key, add_code = to.append, param.append, key.append, code.append
    cur = mark = n
    power = hop = 1
    stayed = False
    for nxt, p, k, c in hops(n):
        add_to(nxt)
        add_param(p)
        add_key(k)
        add_code(c)
        last, cur = cur, nxt
        if cur == mark and (stayed or cur != last):
            raise InvalidMove(f"{space} walk from {n} returns to {cur}")
        stayed = cur == last
        if hop == power:
            mark, power, hop = cur, 2 * power, 0
        hop += 1
    chain = Chain._packed(space, n, *columns)
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


def _p2_hops(n: int):
    while n > 1:
        if n in (2, 4):
            # The formula's height 2 would drop to 0 points: one line, one conic.
            d, h = n // 2, 1
        else:
            d = _plane_degree(n)
            h = 1 if n == (d - 1) * (d + 2) // 2 + 1 else 2
        nxt = n - h * d
        yield nxt, h, d, _BILIAISON_CODE
        n = nxt


# ---------------------------------------------------------------------------
# Points on the nonsingular quadric.

def _quadric_level(n: int) -> int:
    # The a with a^2 + a <= n <= a^2 + 3a + 1.
    return (isqrt(4 * n + 1) - 1) // 2


def _quadric_hops(n: int):
    # A carrier's key is its degree: bidegree (a, a) of case i, (a, a+1)
    # of case ii, and 1 the ruling line.
    while n > 2:
        a = _quadric_level(n)
        d = 2 * a if n <= a * (a + 2) else 2 * a + 1
        nxt = n - d
        yield nxt, 1, d, _BILIAISON_CODE
        n = nxt
    if n == 2:
        yield 2, 0, 3, _SLIDE_CODE  # on the twisted cubic, bidegree (1, 2)
        yield 1, 1, 1, _REPOSITIONED_CODE


# ---------------------------------------------------------------------------
# Points on the nonsingular cubic surface.

# A cubic carrier's key is 4a plus its kind's code, the kind's place in
# ``catalog._CUBIC_NAMES``.
_I, _II, _III, _IV = map(_CUBIC_NAMES.index, ("i", "ii", "iii", "iv"))

# The counts where the recorded chain leaves the closed form, as
# (target, m, key).  At 3 the formula's move would break the window
# (5 > 4 on (4,1)); at 5 and 6 it would cycle (5 -> 7 -> 5, 6 -> 2 -> 6);
# 2 keeps the recorded chain 2 -> 6 -> 7 -> 5 -> 3 -> 1, where the formula
# would link 2 -> 1 on the plane cubic.
_CUBIC_EXCEPTIONS = {
    2: (6, 2, 4 * 2 + _II),  # 2H-K on (5,2)
    3: (1, 1, 4 * 2 + _I),  # H-K on (4,1)
    5: (3, 2, 4 * 2 + _II),  # 2H-K on (5,2)
    6: (7, 3, 4 * 3 + _I),  # 3H-K on (7,5)
}
_CUBIC_EXCEPTIONS_TOP = max(_CUBIC_EXCEPTIONS)


def _cubic_level(n: int) -> int:
    # The a with 3a(a-1)/2 <= n < 3a(a+1)/2.
    return (isqrt(24 * n + 9) + 3) // 6


def _cubic_cap(n_max: int) -> int:
    # The top of n_max's level, and at least of level 4 (n = 18..29).
    a = _cubic_level(max(n_max, 18))
    return 3 * a * (a + 1) // 2 - 1


def _cubic_hops(n: int):
    """The moves from n down to one point: literal ones at the counts in
    ``_CUBIC_EXCEPTIONS``, elsewhere one liaison read off the six ranges
    of n's level a by the offset t = n - n0, n0 = 3a(a-1)/2.  With
    T = 2n0 + 3a: A (t = 0 or 3 <= t < a) and C (t = a, a+1) link to
    2n0+2 - n by twist 2a-2, on types i and ii; by twist 2a-1, B (t = 1,
    2) links to T - n on type iv, F (t > 2a) to T+2 - n on type iii, and
    D and E (a+2 <= t <= 2a) spiral out through E: to T - n on type iv
    above T/2, to T+1 - n on type ii below.  A level's ends and totals
    are kept until the walk leaves the level.  Below the spiral the walk
    leaves a level every two moves, nearly always for the level just
    below, [3(a-1)(a-2)/2, n0), which it then enters without a square
    root."""
    a = n0 = top = 0
    while n > 1:
        if n <= _CUBIC_EXCEPTIONS_TOP and n in _CUBIC_EXCEPTIONS:
            nxt, m, key = _CUBIC_EXCEPTIONS[n]
        else:
            if not n0 <= n < top:
                below = n0 - 3 * a + 3
                if below <= n < n0:
                    a, n0 = a - 1, below
                else:
                    a = _cubic_level(n)
                    n0 = 3 * a * (a - 1) // 2
                c_lo = n0 + a
                c_hi, e_hi, low, twist = c_lo + 1, c_lo + a, n0 + n0 + 2, a + a - 1
                top = e_hi + a
                total = n0 + top  # T
                half = total // 2
                i = 4 * a  # the key of type i; ii, iii and iv follow
            if n > e_hi:  # F
                nxt, m, key = total + 2 - n, twist, i + _III
            elif n > half:  # D and E, above T/2
                nxt, m, key = total - n, twist, i + _IV
            elif n > c_hi:  # D, below
                nxt, m, key = total + 1 - n, twist, i + _II
            elif n >= c_lo:  # C; at a = 2 also t = 2, but n = 5 is literal
                nxt, m, key = low - n, twist - 1, i + _II
            elif n0 < n <= n0 + 2:  # B
                nxt, m, key = total - n, twist, i + _IV
            else:  # A
                nxt, m, key = low - n, twist - 1, i
        yield nxt, m, key, _LIAISON_CODE
        n = nxt


# ---------------------------------------------------------------------------
# Points in 3-space.

P3_GUARANTEED_MAX = 19

# The two counts whose least-degree biliaison leaves a residual below
# the genus (8 < 9 on (9,9), 9 < 11 on (10,11)) link by 5H-K instead:
# n -> (target, m, d); a carrier's key is its row's degree.
_P3_EXCEPTIONS = {17: (12, 5, 9), 19: (11, 5, 10)}


def _p3_hops(n: int):
    if n > P3_GUARANTEED_MAX:
        raise OutOfGuaranteedRange(
            f"{n} > {P3_GUARANTEED_MAX} general points in 3-space: no descending "
            "move over the general-points table is admissible (for 20 points the "
            "only carrier is the (10,11) curve, whose moves leave a residual of "
            "degree 10 < genus 11), and the reduction question is open"
        )
    while n > 1:
        if n in _P3_EXCEPTIONS:
            nxt, m, d = _P3_EXCEPTIONS[n]
            yield nxt, m, d, _LIAISON_CODE
        else:
            row = next(row for row in perrin_table() if n <= row.m)
            nxt = n - row.d
            yield nxt, 1, row.d, _BILIAISON_CODE
        n = nxt


# ---------------------------------------------------------------------------
# Brute-force reachability oracle.

class ReachabilityOracle(Plain):
    """Undirected admissible-move graph for one ambient, with the set of
    counts connected to 1.  Edges are the moves the step rules admit on
    the carriers of genus at most the cap, found without the planners'
    next-hop functions, so agreement between the two is a real check."""

    __slots__ = _fields = ("space", "n_max", "cap", "edges", "reachable")

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def is_reachable(self, n: int) -> bool:
        return n in self.reachable

    def confirms(self, chain: Chain) -> bool:
        """True when every step of the chain is an edge of this graph.
        Height-0 repositioning steps change no count and are skipped."""
        return all(self.has_edge(n, n_to) for n, n_to in chain._counts() if n != n_to)


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
            yield BILIAISON, h, n - h * d
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

# Per space: the next-hop generator, the oracle's cap for n_max, the key
# of the carrier of least genus, the carriers' bounds by key where they
# are not the linear-system dimension, and the edges no carrier gives:
# on the quadric, 2 -> 1 on a ruling line (key 1) onto which a height-0
# slide has repositioned the points.
_BY_SPACE = {
    "p2": (_p2_hops, lambda n_max: n_max, 1, None, ()),
    "quadric": (_quadric_hops, lambda n_max: n_max, 2, None, (frozenset((2, 1)),)),
    "cubic-surface": (_cubic_hops, _cubic_cap, 4, None, ()),
    "p3": (_p3_hops, lambda n_max: max(n_max, *_P3_HOLDS.values()), 1, _P3_HOLDS, ()),
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
    hops, *_ = _lookup(space)
    return _walk(space, n, hops)


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
