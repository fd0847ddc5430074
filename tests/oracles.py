"""Independent brute-force oracles for the test suite.

Nothing here shares a code path with the package: the minimizer below
is a dynamic program over all valid h-vectors (no greedy assumption,
no closed formula), the counter recounts enumerations through a
different recursion, the lattice reference evaluates the full Gram
matrix densely on plain integer tuples, the cubic-surface spiral is
walked step by step instead of read off in closed form, and the
cubic-surface schedule is stated range by range on the offset in the
level, one count at a time, instead of once per level.  The one
exception is the move-graph reference, which shares nothing with
``glicci.planner`` but asks ``validate_chain``, the rule it checks the
oracle against, about every pair of counts.  ``_p2_hops``,
``_quadric_hops`` and ``_cubic_hops`` are the planners' earlier walk,
one move at a time from a count's level, which the closed-form pieces
of ``glicci.planner`` replaced; ``reference_columns`` packs their moves
as the planner does.  ``REFERENCE_RULES`` are the step rules as the
package stated them before its slack tables, one function per space and
move kind that checks one relation after another and words the first
that fails; they share only the drop and total formulas with it.  Tests
pit the package against these.
"""

from array import array
from functools import lru_cache
from math import comb, isqrt

from glicci.catalog import (
    _PERRIN_M,
    cubic_surface_type,
    p3_acm_family,
    perrin_table,
    plane_curve_family,
    quadric_family,
    quadric_ruling_line,
)
from glicci.errors import InvalidMove
from glicci.moves import (
    _BILIAISON_CODE,
    _LIAISON_CODE,
    _REPOSITIONED_CODE,
    _SLIDE_CODE,
    BILIAISON,
    LIAISON,
    Chain,
    LinkMove,
    _biliaison_residual,
    _liaison_degree,
    validate_chain,
)
from glicci.planner import (
    _I,
    _II,
    _III,
    _IV,
    _cubic_level,
    _plane_degree,
    _quadric_level,
)


def _bound(i: int, codim: int) -> int:
    return comb(i + codim - 1, codim - 1)


def min_genus_search(d: int, codim: int, nondegenerate: bool = True) -> int:
    """Exhaustive minimal genus over valid h-vectors of total d, by
    dynamic programming on (position, remaining degree)."""
    if d < 1:
        raise ValueError(d)

    @lru_cache(maxsize=None)
    def best(i: int, remaining: int) -> int:
        # Minimal sum of (j - 1) * c_j over completions c_i, c_{i+1}, ...
        if remaining == 0:
            return 0
        weight = i - 1 if i >= 2 else 0
        return min(
            weight * c + best(i + 1, remaining - c)
            for c in range(1, min(_bound(i, codim), remaining) + 1)
        )

    if nondegenerate:
        if d - 1 < codim:
            raise ValueError(f"no nondegenerate vector of degree {d}")
        return best(2, d - 1 - codim)
    if d == 1:
        return 0
    return min(
        best(2, d - 1 - c1) for c1 in range(1, min(_bound(1, codim), d - 1) + 1)
    )


def count_hvectors(d: int, codim: int) -> int:
    """Number of valid h-vectors of total degree d, counted without
    generating them."""
    if d < 1:
        raise ValueError(d)

    @lru_cache(maxsize=None)
    def ways(i: int, remaining: int) -> int:
        if remaining == 0:
            return 1
        return sum(
            ways(i + 1, remaining - c)
            for c in range(1, min(_bound(i, codim), remaining) + 1)
        )

    return ways(1, d - 1)


def dense_pair(gram, c, d) -> int:
    """c^T G d over every entry of the Gram matrix, zeros included."""
    return sum(c[i] * gram[i][j] * d[j] for i in range(len(gram)) for j in range(len(gram)))


def dense_genus(gram, c, K):
    """Adjunction genus (c.c + c.K)/2 + 1, or None when c.c + c.K is odd."""
    twice = dense_pair(gram, c, c) + dense_pair(gram, c, K)
    return None if twice % 2 else twice // 2 + 1


def cubic_level(n: int) -> int:
    """The a with 3a(a-1)/2 <= n < 3a(a+1)/2, found from an estimate by
    stepping until both inequalities hold."""
    a = isqrt(2 * n // 3) + 1
    while 3 * a * (a - 1) // 2 > n:
        a -= 1
    while 3 * a * (a + 1) // 2 <= n:
        a += 1
    return a


def cubic_range_move(n: int) -> tuple[int, int, str]:
    """The one cubic-surface move (target, m, kind) from n = 4 or n >= 7,
    read off the offset t = n - n0 above the first count n0 = 3a(a-1)/2
    of n's level a.  The offsets fall in six ranges: A (t = 0 or
    3 <= t < a), B (t = 1, 2), C (t = a, a+1), D and E (a+2 <= t <= 2a)
    and F (t > 2a).  In D and E the two liaisons of twist 2a-1 with
    totals T = 2n0+3a (type iv) and T+1 (type ii) spiral out from the
    middle of D: values above T/2 take type iv and the rest type ii."""
    a = cubic_level(n)
    n0 = 3 * a * (a - 1) // 2
    t = n - n0
    total = 2 * n0 + 3 * a
    if t in (1, 2):
        return total - n, 2 * a - 1, "iv"
    if t < a:
        return 2 * n0 + 2 - n, 2 * a - 2, "i"
    if t <= a + 1:
        return 2 * n0 + 2 - n, 2 * a - 2, "ii"
    if t <= 2 * a:
        if 2 * n > total:
            return total - n, 2 * a - 1, "iv"
        return total + 1 - n, 2 * a - 1, "ii"
    return total + 2 - n, 2 * a - 1, "iii"


def cubic_spiral_walk(a: int):
    """The level-a spiral of the cubic-surface schedule, walked from the
    middle of range D (offsets a+2 .. 2a-2 above n0 = 3a(a-1)/2) by
    alternating the liaison totals 2n0+3a (type iv) and 2n0+3a+1
    (type ii), both of twist 2a-1.  Returns the visited counts with
    their moves (target, m, kind), in walk order, and the count where
    the walk leaves D."""
    n0 = 3 * a * (a - 1) // 2
    d_lo, d_hi = n0 + a + 2, n0 + 2 * a - 2
    if a % 2:
        cur, kind = n0 + 3 * ((a - 1) // 2) + 2, "iv"
    else:
        cur, kind = n0 + 3 * (a // 2), "ii"
    totals = {"iv": 2 * n0 + 3 * a, "ii": 2 * n0 + 3 * a + 1}
    visited = []
    while d_lo <= cur <= d_hi:
        nxt = totals[kind] - cur
        visited.append((cur, (nxt, 2 * a - 1, kind)))
        cur = nxt
        kind = "ii" if kind == "iv" else "iv"
    return visited, cur


def _carriers(space: str, cap: int):
    """Every carrier of the space with parameter at most cap: a superset
    of the carriers of genus at most cap, since the genus grows faster."""
    if space == "p2":
        return [plane_curve_family(d) for d in range(1, cap + 1)]
    if space == "quadric":
        return [quadric_ruling_line()] + [
            quadric_family(a, case) for a in range(1, cap + 1) for case in ("i", "ii")
        ]
    if space == "cubic-surface":
        return [cubic_surface_type(kind, a) for a in range(1, cap + 1)
                for kind in ("i", "ii", "iii", "iv")]
    return [p3_acm_family(row.d, row.g) for row in perrin_table()]


def _accepts(space: str, n: int, move: LinkMove) -> bool:
    try:
        validate_chain(Chain(space, n, (move,)))
    except InvalidMove:
        return False
    return True


def move_graph_edges(space: str, cap: int) -> set:
    """Every pair 1 <= n < n2 <= cap joined on some carrier by a one-step
    chain that validate_chain accepts: a biliaison from n2 down to n, of
    height h = (n2 - n)/d, or a liaison accepted both ways, of twist
    m = (n + n2 + 2g - 2)/d.  h and m come from division, so no move is
    pruned before the rule sees it."""
    edges = set()
    for carrier in _carriers(space, cap):
        d, g = carrier.d, carrier.g
        for n in range(1, cap + 1):
            for n2 in range(n + 1, cap + 1):
                if (n2 - n) % d == 0 and _accepts(
                        space, n2, LinkMove("biliaison", n2, n, carrier, h=(n2 - n) // d)):
                    edges.add(frozenset((n, n2)))
                m, rest = divmod(n + n2 + 2 * g - 2, d)
                if rest == 0 and all(
                    _accepts(space, a, LinkMove("liaison", a, b, carrier, m=m))
                    for a, b in ((n, n2), (n2, n))
                ):
                    edges.add(frozenset((n, n2)))
    return edges


# ---------------------------------------------------------------------------
# The planners' reference walk, one move at a time.

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


REFERENCE_HOPS = {"p2": _p2_hops, "quadric": _quadric_hops, "cubic-surface": _cubic_hops}


def reference_columns(space: str, n: int) -> tuple:
    """The (target, parameter, key, code) columns of the reference walk
    from n, as four ``array('q')``."""
    moves = list(REFERENCE_HOPS[space](n))
    return tuple(array("q", [move[i] for move in moves]) for i in range(4))


# ---------------------------------------------------------------------------
# The step rules as the package stated them before its slack tables,
# one function per space and move kind, each relation checked in turn:
# rule(space, n, n_to, d, g, held, param, note, carrier) is None for an
# admissible move and otherwise the text of the first relation it breaks.

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


REFERENCE_RULES = {"p2": {BILIAISON: _plane_biliaison}, "quadric": {BILIAISON: _plane_biliaison},
                   "cubic-surface": {LIAISON: _cubic_liaison},
                   "p3": {BILIAISON: _p3_biliaison, LIAISON: _p3_liaison}}
