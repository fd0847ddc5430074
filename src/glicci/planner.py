"""Reduction planners: validated chains from n general points down to one.

Every planner is the same walk.  Each ambient supplies only a next-hop
function ``next_moves(n)``, the tuple of moves that leaves n points, and
``_walk`` follows it from n down to one point and validates the whole
chain move by move:

  * p2: one ascending biliaison on plane curves of the least degree
    that holds the points;
  * quadric: one ascending biliaison on the two ACM families of the
    quadric, except that n = 2 first slides the points along a twisted
    cubic (a height-0 biliaison) onto a ruling line;
  * cubic surface: one strict liaison by m*H - K on the four ACM
    families, from a tabulated route for n <= 17 and in closed form on
    the six ranges of each level above that;
  * p3: the tabulated route over the eleven moves, total for n <= 19
    and a typed open-case error beyond.

The levels and the cubic spiral are closed forms in n.  One breadth-first
search, ``_bfs``, serves both the tabulated routes (shortest paths to 1)
and the reachability oracle, which rebuilds the full admissible-move
graph from the carriers as an independent cross-check of the planners.

Planners are pure functions of n; identical inputs give identical
chains.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from math import isqrt

from ._record import Record
from .catalog import (
    _check_int,
    cubic_surface_type,
    p3_acm_family,
    perrin_table,
    plane_curve_family,
    quadric_family,
    quadric_ruling_line,
)
from .errors import DegreeTooSmall, InvalidMove, OutOfGuaranteedRange, SearchBudgetExceeded
from .moves import (
    BILIAISON,
    LIAISON,
    Chain,
    LinkMove,
    liaison_target,
    liaison_total,
    validate_chain,
    validate_move_p3,
    validate_move_p3_undirected,
)

_SEARCH_CAP = 10_000


def _check_n(n: int) -> None:
    _check_int(n, "point count")
    if n < 1:
        raise DegreeTooSmall(f"need at least one point, got {n}")


def _walk(space: str, n: int, next_moves) -> Chain:
    """Follow ``next_moves`` from n points down to one and validate the
    chain.  A walk that comes back to a count it has left raises
    :class:`InvalidMove` instead of looping."""
    _check_n(n)
    steps: list[LinkMove] = []
    left: set[int] = set()
    cur = n
    while cur > 1:
        left.add(cur)
        moves = next_moves(cur)
        steps.extend(moves)
        cur = moves[-1].n_to
        if cur in left:
            raise InvalidMove(f"{space} walk from {n} returns to {cur}")
    chain = Chain(space, n, tuple(steps))
    validate_chain(chain)
    return chain


def _bfs(adjacency: dict[int, list[int] | set[int]]) -> dict[int, int]:
    """Distance from 1 of every vertex connected to it."""
    dist = {1: 0}
    queue = deque([1])
    while queue:
        v = queue.popleft()
        for u in adjacency.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def _table_routes(rows) -> dict[int, tuple[LinkMove]]:
    """Next hop toward 1 for every count in a table of moves, each row
    ``(lo, hi, kind, param, carrier)`` usable both ways: a shortest
    path, preferring biliaisons over liaisons and then smaller targets.
    ``param`` is the twist m of a liaison or the height h of a
    biliaison."""
    adjacency: dict[int, list[tuple]] = {}
    for lo, hi, kind, param, carrier in rows:
        adjacency.setdefault(lo, []).append((hi, kind, param, carrier))
        adjacency.setdefault(hi, []).append((lo, kind, param, carrier))
    dist = _bfs({v: [u for u, *_ in nbrs] for v, nbrs in adjacency.items()})
    routes = {}
    for v, nbrs in adjacency.items():
        if v == 1:
            continue
        u, kind, param, carrier = min(
            nbrs, key=lambda e: (dist[e[0]], e[1] != BILIAISON, e[0])
        )
        if kind == LIAISON:
            routes[v] = (LinkMove(LIAISON, v, u, carrier, m=param),)
        else:
            routes[v] = (LinkMove(BILIAISON, v, u, carrier, h=param),)
    return routes


# ---------------------------------------------------------------------------
# Points in the plane.

def _plane_degree(n: int) -> int:
    # The d with (d-1)(d+2)/2 < n <= d(d+3)/2.
    return (isqrt(8 * n + 5) - 1) // 2


def _p2_next(n: int) -> tuple[LinkMove]:
    if n == 2:
        d, h = 1, 1
    elif n in (3, 4):
        d, h = 2, 1
    elif n == 5:
        d, h = 2, 2
    else:
        d = _plane_degree(n)
        h = 1 if n == (d - 1) * (d + 2) // 2 + 1 else 2
    return (LinkMove(BILIAISON, n, n - h * d, plane_curve_family(d), h=h),)


def plan_p2(n: int) -> Chain:
    """Reduce n general points of the plane to one point by ascending
    biliaisons on plane curves.  For n >= 6 the carrier has the least
    degree d whose curves can hold the points, and the height is 1
    exactly when n sits just above the previous range."""
    return _walk("p2", n, _p2_next)


# ---------------------------------------------------------------------------
# Points on the nonsingular quadric.

def _quadric_level(n: int) -> int:
    # The a with a^2 + a <= n <= a^2 + 3a + 1.
    return (isqrt(4 * n + 1) - 1) // 2


def _quadric_next(n: int) -> tuple[LinkMove, ...]:
    if n == 2:
        return (
            LinkMove(BILIAISON, 2, 2, quadric_family(1, "ii"), h=0,
                     note="slide along the twisted cubic onto a ruling line"),
            LinkMove(BILIAISON, 2, 1, quadric_ruling_line(), h=1,
                     note="points repositioned onto the line"),
        )
    if n == 3:
        carrier = quadric_family(1, "i")  # the conic (2, 0)
    elif n in (4, 5):
        carrier = quadric_family(1, "ii")  # the twisted cubic (3, 0)
    else:
        a = _quadric_level(n)
        carrier = quadric_family(a, "i" if n <= a * a + 2 * a else "ii")
    return (LinkMove(BILIAISON, n, n - carrier.d, carrier, h=1),)


def plan_quadric(n: int) -> Chain:
    """Reduce n general points on a fixed nonsingular quadric to one
    point by ascending biliaisons on its two ACM families.  The n = 2
    base case slides the points along a twisted cubic (a height-0
    biliaison) onto a ruling line first."""
    return _walk("quadric", n, _quadric_next)


# ---------------------------------------------------------------------------
# Points on the nonsingular cubic surface.

# Tabulated liaisons for n <= 8 and 9 <= n <= 17: (n, n', m, kind, a).
_CUBIC_TABLE = (
    (1, 3, 1, "i", 2),     # H-K on (4,1)
    (2, 6, 2, "ii", 2),    # 2H-K on (5,2)
    (3, 5, 2, "ii", 2),
    (6, 8, 3, "iii", 2),   # 3H-K on (6,3)
    (4, 8, 3, "iv", 2),    # 3H-K on (6,4)
    (5, 7, 3, "iv", 2),
    (6, 7, 3, "i", 3),     # 3H-K on (7,5)
    (9, 11, 4, "i", 3),    # 4H-K on (7,5)
    (7, 13, 4, "ii", 3),   # 4H-K on (8,7)
    (8, 12, 4, "ii", 3),
    (12, 17, 5, "iii", 3),  # 5H-K on (9,9)
    (13, 16, 5, "iii", 3),
    (10, 17, 5, "iv", 3),  # 5H-K on (9,10)
    (11, 16, 5, "iv", 3),
    (12, 15, 5, "iv", 3),
    (13, 14, 5, "iv", 3),
)


@lru_cache(maxsize=1)
def _cubic_routes() -> dict[int, tuple[LinkMove]]:
    return _table_routes(
        (lo, hi, LIAISON, m, cubic_surface_type(kind, a))
        for lo, hi, m, kind, a in _CUBIC_TABLE
    )


def _cubic_level(n: int) -> int:
    # The a with 3a(a-1)/2 <= n < 3a(a+1)/2.
    return (isqrt(24 * n + 9) + 3) // 6


def _cubic_range_move(n: int) -> tuple[int, int, str, int]:
    """The single outgoing move (target, m, kind, a) for n >= 18.

    With n = n0 + t at level a (n0 = 3a(a-1)/2), the offsets t fall in
    six ranges.  In ranges D and E (a+2 <= t <= 2a) the two liaisons of
    twist 2a-1 with totals T = 2n0+3a (type iv) and T+1 (type ii)
    spiral out from the middle of D: values above T/2 take type iv and
    the rest type ii, so the walk leaves D through E."""
    a = _cubic_level(n)
    n0 = 3 * a * (a - 1) // 2
    t = n - n0
    total = 2 * n0 + 3 * a
    if t in (1, 2):
        return total - n, 2 * a - 1, "iv", a
    if t < a:
        return 2 * n0 + 2 - n, 2 * a - 2, "i", a
    if t <= a + 1:
        return 2 * n0 + 2 - n, 2 * a - 2, "ii", a
    if t <= 2 * a:
        if 2 * n > total:
            return total - n, 2 * a - 1, "iv", a
        return total + 1 - n, 2 * a - 1, "ii", a
    return total + 2 - n, 2 * a - 1, "iii", a


def _cubic_next(n: int) -> tuple[LinkMove]:
    if n < 18:
        return _cubic_routes()[n]
    nxt, m, kind, a = _cubic_range_move(n)
    return (LinkMove(LIAISON, n, nxt, cubic_surface_type(kind, a), m=m),)


def plan_cubic(n: int) -> Chain:
    """Reduce n general points on a fixed nonsingular cubic surface to a
    single point by strict liaisons on its four ACM curve families.
    Tabulated links handle n <= 17; the six-range schedule handles the
    rest, recursing once a link drops below the current block."""
    return _walk("cubic-surface", n, _cubic_next)


# ---------------------------------------------------------------------------
# Points in 3-space.

P3_GUARANTEED_MAX = 19

# The eleven tabulated moves: height-1 biliaisons as (low, high, d, g)
# and the two liaisons as (low, high, m, d, g).
_P3_BILIAISONS = (
    (1, 2, 1, 0),
    (1, 3, 2, 0),
    (1, 4, 3, 0), (2, 5, 3, 0), (3, 6, 3, 0),
    (3, 7, 4, 1), (4, 8, 4, 1),
    (4, 9, 5, 2),
    (4, 10, 6, 3), (5, 11, 6, 3), (6, 12, 6, 3),
    (6, 13, 7, 5), (7, 14, 7, 5),
    (7, 15, 8, 7), (8, 16, 8, 7),
    (9, 18, 9, 9),
)
_P3_LIAISONS = (
    (12, 17, 5, 9, 9),
    (11, 19, 5, 10, 11),
)


@lru_cache(maxsize=1)
def _p3_routes() -> dict[int, tuple[LinkMove]]:
    rows = [(lo, hi, BILIAISON, 1, p3_acm_family(d, g)) for lo, hi, d, g in _P3_BILIAISONS]
    rows += [(lo, hi, LIAISON, m, p3_acm_family(d, g)) for lo, hi, m, d, g in _P3_LIAISONS]
    return _table_routes(rows)


def plan_p3(n: int) -> Chain:
    """Reduce n <= 19 general points of 3-space to one point with the
    eleven tabulated moves.  For n not 17 or 19 the chain descends by
    biliaisons alone; those two need one liaison each.  For n >= 20 no
    tabulated move applies (the (10,11) carrier would need a residual of
    degree 10, below its genus), and whether such a set reduces at all
    is open, so the planner raises OutOfGuaranteedRange."""
    _check_n(n)
    if n > P3_GUARANTEED_MAX:
        raise OutOfGuaranteedRange(
            f"{n} > {P3_GUARANTEED_MAX} general points in 3-space: no descending "
            "move over the general-points table is admissible (for 20 points the "
            "only carrier is the (10,11) curve, whose moves leave a residual of "
            "degree 10 < genus 11), and the reduction question is open"
        )
    return _walk("p3", n, _p3_routes().__getitem__)


# ---------------------------------------------------------------------------
# Brute-force reachability oracle.

class ReachabilityOracle(Record):
    """Undirected admissible-move graph for one ambient, with the set of
    counts connected to 1.  Edges come from every registered carrier
    whose parameters matter below the cap, not from the planners, so
    agreement between the two is a real check."""

    __slots__ = _fields = ("space", "n_max", "cap", "edges", "reachable")

    def __init__(self, space: str, n_max: int, cap: int, edges: frozenset[frozenset[int]],
                 reachable: frozenset[int]):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "reachable", reachable)

    def has_edge(self, u: int, v: int) -> bool:
        return frozenset((u, v)) in self.edges

    def is_reachable(self, n: int) -> bool:
        return n in self.reachable

    def confirms(self, chain: Chain) -> bool:
        """True when every step of the chain is an edge of this graph.
        Height-0 repositioning steps change no count and are skipped."""
        return all(
            self.has_edge(s.n_from, s.n_to)
            for s in chain.steps
            if s.n_from != s.n_to
        )


def _biliaison_edges(d: int, g: int, top: int):
    """Every biliaison n -> n - h*d (h >= 1) on a (d, g) carrier from
    1 <= n <= top whose residual keeps at least max(g, 1) points."""
    floor = max(g, 1)
    for n in range(floor + d, top + 1):
        for n_to in range(n - d, floor - 1, -d):
            yield frozenset((n, n_to))


def _p2_graph(n_max: int) -> tuple[int, set[frozenset[int]]]:
    edges = set()
    d = 1
    while (d - 1) * (d - 2) // 2 <= n_max:
        edges.update(_biliaison_edges(d, (d - 1) * (d - 2) // 2, min(d * (d + 3) // 2, n_max)))
        d += 1
    return n_max, edges


def _quadric_graph(n_max: int) -> tuple[int, set[frozenset[int]]]:
    edges = {frozenset((2, 1))}  # via the ruling line after repositioning
    a = 1
    while (a - 1) ** 2 <= n_max:
        for case in ("i", "ii"):
            fam = quadric_family(a, case)
            edges.update(_biliaison_edges(fam.d, fam.g, min(fam.linsys_dim, n_max)))
        a += 1
    return n_max, edges


def _cubic_graph(n_max: int) -> tuple[int, set[frozenset[int]]]:
    level = _cubic_level(max(n_max, 18))
    cap = 3 * level * (level + 1) // 2 - 1
    edges = set()
    a = 1
    while (3 * a * a - 7 * a + 4) // 2 <= cap:
        for kind in ("i", "ii", "iii", "iv"):
            fam = cubic_surface_type(kind, a)
            d, g = fam.d, fam.g
            lo, hi = g, d + g - 1
            if lo > cap:
                continue
            m = 1
            while liaison_total(m, fam) < 2 * lo:
                m += 1
            while liaison_total(m, fam) <= 2 * min(hi, cap):
                total = liaison_total(m, fam)
                for n in range(max(lo, total - min(hi, cap), 1), min(hi, cap, total - 1) + 1):
                    n_to = total - n
                    if n != n_to and lo <= n_to <= hi and n_to <= cap and n_to >= 1:
                        edges.add(frozenset((n, n_to)))
                m += 1
        a += 1
    return cap, edges


def _p3_graph(n_max: int) -> tuple[int, set[frozenset[int]]]:
    cap = max(n_max, max(row.m for row in perrin_table()))
    edges = set()
    for row in perrin_table():
        fam = p3_acm_family(row.d, row.g)
        top = min(row.m, cap)
        edges.update(_biliaison_edges(row.d, row.g, top))
        m = 1
        while liaison_total(m, fam) <= 2 * top:
            total = liaison_total(m, fam)
            for n in range(max(row.g, total - top, 1), top + 1):
                n_to = total - n
                if n != n_to and validate_move_p3_undirected(n, n_to, fam) and 1 <= n_to <= cap:
                    edges.add(frozenset((n, n_to)))
            m += 1
    return cap, edges


# Per space: the planner and the oracle's graph, n_max -> (cap, edges).
_BY_SPACE = {
    "p2": (plan_p2, _p2_graph),
    "quadric": (plan_quadric, _quadric_graph),
    "cubic-surface": (plan_cubic, _cubic_graph),
    "p3": (plan_p3, _p3_graph),
}
SPACES = tuple(_BY_SPACE)


def _lookup(space: str):
    try:
        return _BY_SPACE[space]
    except (KeyError, TypeError):
        raise ValueError(f"space must be one of {SPACES}, got {space!r}") from None


def plan(space: str, n: int) -> Chain:
    """Dispatch to the planner for the given ambient space."""
    planner, _ = _lookup(space)
    return planner(n)


def build_oracle(space: str, n_max: int) -> ReachabilityOracle:
    """Assemble the admissible-move graph for a space and run one
    breadth-first search from 1."""
    _, graph = _lookup(space)
    _check_n(n_max)
    if n_max > _SEARCH_CAP:
        raise SearchBudgetExceeded(f"oracle capped at n_max <= {_SEARCH_CAP}")
    cap, edges = graph(n_max)
    adjacency: dict[int, set[int]] = {}
    for edge in edges:
        u, v = tuple(edge)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    return ReachabilityOracle(
        space=space,
        n_max=n_max,
        cap=cap,
        edges=frozenset(edges),
        reachable=frozenset(_bfs(adjacency)),
    )


def oracle_reachability(space: str, n_max: int) -> dict[int, bool]:
    """Reachability-to-1 of every 1 <= n <= n_max in the admissible-move
    graph of the space."""
    oracle = build_oracle(space, n_max)
    return {n: oracle.is_reachable(n) for n in range(1, n_max + 1)}


def p3_descending_moves(n: int) -> list[tuple[str, int, tuple[int, int], int]]:
    """Every admissible move from n general points of 3-space to a
    strictly smaller count, over the general-points table: entries
    (kind, parameter, (d, g), target).  Empty for n = 20, which is the
    arithmetic behind the open case."""
    found = []
    for row in perrin_table():
        fam = p3_acm_family(row.d, row.g)
        h = 1
        while n - h * row.d >= 1:
            n_to = n - h * row.d
            if validate_move_p3(n, n_to, fam):
                found.append((BILIAISON, h, (row.d, row.g), n_to))
            h += 1
        m = 1
        while liaison_total(m, fam) < 2 * n:
            n_to = liaison_target(n, m, fam)
            if 1 <= n_to < n and validate_move_p3(n, n_to, fam):
                found.append((LIAISON, m, (row.d, row.g), n_to))
            m += 1
    return found
