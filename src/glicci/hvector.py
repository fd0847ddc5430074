"""h-vector arithmetic for ACM curves and zero-schemes.

An h-vector is a finite sequence of positive integers c_0 = 1, c_1, ...,
c_r bounded entrywise by the Hilbert function of a polynomial ring in
``codim`` variables: c_i <= binom(i + codim - 1, codim - 1).  It packs
the degree and genus of the scheme it came from:

    d = sum c_i,        g = sum_{i >= 2} (i - 1) c_i.

The module is pure sequence arithmetic; whether a vector belongs to a
curve in 4-space (codim 3) or a curve in 3-space / points in the plane
(codim 2) is the caller's business.
"""

from math import comb

from ._record import Record, check_ints, int_entries
from .errors import DegreeTooLarge, DegreeTooSmall, InvalidHVector

_ENUMERATION_CAP = 200


def entry_bound(i: int, codim: int) -> int:
    """Largest admissible value of c_i: binom(i + codim - 1, codim - 1).
    An ``i`` or ``codim`` that is not an int, or is a bool, raises
    ``TypeError`` naming it."""
    check_ints(i=i, codim=codim)
    if codim not in (2, 3):
        raise InvalidHVector(f"codim must be 2 or 3, got {codim}")
    return comb(i + codim - 1, codim - 1)


class HVector(Record):
    """Validated h-vector with its codimension.  An entry that is not an
    integer, or is a bool, raises ``TypeError`` naming its position."""

    __slots__ = _fields = ("entries", "codim")

    def __init__(self, entries: tuple[int, ...], codim: int):
        entries = int_entries(entries, "entry")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "codim", codim)
        if codim not in (2, 3):
            raise InvalidHVector(f"codim must be 2 or 3, got {codim}")
        if not entries or entries[0] != 1:
            raise InvalidHVector(f"h-vector must start with c_0 = 1: {entries}")
        for i, c in enumerate(entries):
            if c <= 0:
                raise InvalidHVector(f"entries must stay positive, c_{i} = {c}")
            if c > entry_bound(i, self.codim):
                raise InvalidHVector(
                    f"c_{i} = {c} exceeds bound {entry_bound(i, self.codim)} in codim {self.codim}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.entries) + ")"


def dg_of(h: HVector) -> tuple[int, int]:
    """(degree, genus) encoded by the h-vector."""
    d = sum(h.entries)
    g = sum((i - 1) * c for i, c in enumerate(h.entries) if i >= 2)
    return d, g


def s_zero(h: HVector) -> int:
    """Least i with c_i strictly below its bound; entries past the end
    count as zero.  This is the least degree of a hypersurface containing
    the scheme."""
    for i, c in enumerate(h.entries + (0,)):
        if c < entry_bound(i, h.codim):
            return i


def min_genus(d: int, codim: int, nondegenerate: bool = True) -> tuple[int, HVector]:
    """Minimal genus over h-vectors of total degree d, with a witness.

    ``nondegenerate`` pins c_1 to ``codim`` exactly (a curve spanning the
    ambient space); without it c_1 may fall short, which covers plane
    curves and curves in a hyperplane.  The witness is greedy: every
    entry before the last sits at its bound, which is what minimizes
    ``sum (i-1) c_i`` at fixed total.  A ``d`` or ``codim`` that is not
    an int, or is a bool, raises ``TypeError`` naming it.
    """
    check_ints(d=d, codim=codim)
    if codim not in (2, 3):
        raise InvalidHVector(f"codim must be 2 or 3, got {codim}")
    if d < 1:
        raise DegreeTooSmall(f"degree must be positive, got {d}")
    if nondegenerate and d < codim + 1:
        raise DegreeTooSmall(
            f"no nondegenerate h-vector of degree {d} in codim {codim} (need d >= {codim + 1})"
        )
    entries = [1]
    remaining = d - 1
    i = 1
    while remaining > 0:
        bound = codim if (i == 1 and nondegenerate) else entry_bound(i, codim)
        c = min(bound, remaining)
        entries.append(c)
        remaining -= c
        i += 1
    witness = HVector(tuple(entries), codim)
    return dg_of(witness)[1], witness


def min_genus_formula(d: int) -> int:
    """Closed form for the codim-3 nondegenerate minimum:
    (s-1)d - binom(s+2,3) - binom(s+2,4) + 1 where s >= 2 is fixed by
    binom(s+2,3) <= d < binom(s+3,3)."""
    s = formula_s(d)
    return (s - 1) * d - comb(s + 2, 3) - comb(s + 2, 4) + 1


def formula_s(d: int) -> int:
    """The s of :func:`min_genus_formula`, the least degree of a
    hypersurface through a minimal-genus curve of int degree d."""
    check_ints(d=d)
    if d < 4:
        raise DegreeTooSmall(f"closed form needs d >= 4, got {d}")
    s = 2
    while comb(s + 3, 3) <= d:
        s += 1
    return s


def enumerate_hvectors(d: int, codim: int) -> list[HVector]:
    """Every valid h-vector of total degree d, in lexicographic order.

    Exhaustive and exponential in d; guarded at d <= 200 and only
    practical well below that.  Meant as a brute-force cross-check for
    the greedy construction on small degrees; a non-int d raises TypeError."""
    check_ints(d=d)
    if d < 1:
        raise DegreeTooSmall(f"degree must be positive, got {d}")
    if d > _ENUMERATION_CAP:
        raise DegreeTooLarge(f"enumeration capped at d <= {_ENUMERATION_CAP}")
    out: list[HVector] = []

    def extend(prefix: list[int], i: int, remaining: int) -> None:
        if remaining == 0:
            out.append(HVector(tuple(prefix), codim))
            return
        for c in range(1, min(entry_bound(i, codim), remaining) + 1):
            prefix.append(c)
            extend(prefix, i + 1, remaining - c)
            prefix.pop()

    extend([1], 1, d - 1)
    return out
