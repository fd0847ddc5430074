"""Exact arithmetic in divisor class lattices of rational surfaces.

A surface model declares a basis of (part of) its divisor class group,
the integer Gram matrix of the intersection pairing on that basis, and
two distinguished classes: the hyperplane section H and the canonical
class K.  Blow-ups of the projective plane at r points use the basis
(l; e_1, ..., e_r) with pairing diag(1, -1, ..., -1); the class
a*l - b_1*e_1 - ... - b_r*e_r is written coefficient-wise as
(a; b_1, ..., b_r).  Surfaces without such a description (the quadric
with its two rulings, the degree-10 determinantal surface with basis
{H, K}) declare their pairing directly and are called abstract here.

Every model evaluates the pairing on one sparse path: it keeps the
nonzero Gram entries (i, j, g_ij) once, on construction, so c.d is a
sum over r + 1 entries on a blow-up of r points, 2 on the quadric and 4
on the degree-10 surface.  The degree is the pairing c.H and the
adjunction genus comes from c.c + c.K, so every lattice number goes
through :meth:`SurfaceModel.pair`.

All values are immutable and all operations are pure integer
arithmetic, so everything in this module is safe for concurrent use.
"""

import re
from operator import add, sub

from ._record import Record, int_entries
from .errors import AbstractSurface, NonIntegralGenus, RankMismatch

# One ASCII grammar for every coefficient: int() alone would also take
# "+2", "1_0" and non-ASCII digits.
_COEFF = re.compile("-?[0-9]+")
_TERM = re.compile(rf"({_COEFF.pattern})(?:\^([0-9]+))?")


class DivisorClass(Record):
    """Integer coefficient vector of a divisor class in a declared basis.

    Addition, subtraction and integer scaling are componentwise and
    total; no normalization ever happens behind the caller's back, and
    a coefficient that is not an integer, or is a bool, raises
    ``TypeError`` naming its position.
    """

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = int_entries(coeffs, "coefficient")
        if not coeffs:
            raise ValueError("a divisor class needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def parse(cls, text: str, rank: int | None = None) -> "DivisorClass":
        """Parse ``"a;b1,...,br"``, with run sugar ``"5;2^2,1^3"`` for
        (5; 2,2,1,1,1).  A bare integer parses as a rank-one class.

        With ``rank`` given, a string whose runs add up to any other
        length raises :class:`RankMismatch` before a run is expanded."""
        head, sep, tail = text.replace(" ", "").partition(";")
        if not head:
            raise ValueError(f"empty divisor class string: {text!r}")
        if _COEFF.fullmatch(head) is None:
            raise ValueError(f"bad leading coefficient in {text!r}")
        runs = []
        if sep:
            if not tail:
                raise ValueError(f"trailing ';' in {text!r}")
            for term in tail.split(","):
                match = _TERM.fullmatch(term)
                if match is None:
                    raise ValueError(f"bad coefficient term {term!r} in {text!r}")
                repeat = int(match.group(2) or 1)
                if repeat < 1:
                    raise ValueError(f"bad multiplicity in term {term!r}")
                runs.append((int(match.group(1)), repeat))
        length = 1 + sum(repeat for _, repeat in runs)
        if rank is not None and length != rank:
            raise RankMismatch(f"class of length {length} does not fit rank {rank}")
        coeffs = [int(head)]
        for value, repeat in runs:
            coeffs.extend([value] * repeat)
        return cls(tuple(coeffs))

    def __len__(self) -> int:
        return len(self.coeffs)

    def _binop(self, other, op):
        if not isinstance(other, DivisorClass):
            return NotImplemented
        if len(other.coeffs) != len(self.coeffs):
            raise RankMismatch(
                f"cannot combine classes of lengths {len(self.coeffs)} and {len(other.coeffs)}"
            )
        return DivisorClass(tuple(map(op, self.coeffs, other.coeffs)))

    def __add__(self, other):
        return self._binop(other, add)

    def __sub__(self, other):
        return self._binop(other, sub)

    def __mul__(self, scalar):
        if not isinstance(scalar, int):
            return NotImplemented
        return DivisorClass(tuple([scalar * c for c in self.coeffs]))

    __rmul__ = __mul__

    def compact(self) -> str:
        """Run-length string, inverse of :meth:`parse`: ``"5;2^2,1^3"``."""
        head = str(self.coeffs[0])
        if len(self.coeffs) == 1:
            return head
        terms = []
        run_value, run_len = self.coeffs[1], 1
        for c in self.coeffs[2:]:
            if c == run_value:
                run_len += 1
            else:
                terms.append((run_value, run_len))
                run_value, run_len = c, 1
        terms.append((run_value, run_len))
        body = ",".join(f"{v}^{n}" if n > 1 else str(v) for v, n in terms)
        return f"{head};{body}"

    def __str__(self) -> str:
        if len(self.coeffs) == 1:
            return f"({self.coeffs[0]})"
        head, body = self.compact().split(";")
        return f"({head};{body})"


class SurfaceModel(Record):
    """A surface with its intersection lattice and distinguished classes.

    ``degree`` and ``sectional_genus`` are declared by the caller and
    cross-checked on construction: degree must equal H.H and the
    sectional genus must satisfy adjunction, 2*pi - 2 = H.H + H.K.  A
    Gram entry that is not an int raises ``TypeError`` naming it.
    """

    _fields = ("name", "gram", "H", "K", "ambient_dim", "degree", "sectional_genus",
               "euler_char")
    # Set on construction: the nonzero Gram entries (i, j, g_ij), row by
    # row, and whether the model is a plane blow-up in its standard basis,
    # pairing diag(1, -1, ..., -1) and K = (-3; -1, ..., -1).
    __slots__ = _fields + ("_entries", "is_blowup")

    def __init__(self, name: str, gram: tuple[tuple[int, ...], ...], H: DivisorClass,
                 K: DivisorClass, ambient_dim: int, degree: int, sectional_genus: int,
                 euler_char: int | None = None):
        gram = tuple(int_entries(row, f"gram row {i} entry") for i, row in enumerate(gram))
        for field, value in zip(self._fields, (name, gram, H, K, ambient_dim, degree,
                                               sectional_genus, euler_char)):
            object.__setattr__(self, field, value)
        rank = len(gram)
        if rank == 0 or any(len(row) != rank for row in gram):
            raise ValueError(f"{self.name}: Gram matrix must be square and nonempty")
        if any(row[j] != gram[j][i] for i, row in enumerate(gram) for j in range(rank)):
            raise ValueError(f"{self.name}: intersection pairing must be symmetric")
        entries = tuple((i, j, g) for i, row in enumerate(gram) for j, g in enumerate(row) if g)
        object.__setattr__(self, "_entries", entries)
        for cls in (self.H, self.K):
            if len(cls) != rank:
                raise RankMismatch(f"{self.name}: H and K must have length {rank}")
        diagonal = tuple((i, i, 1 if i == 0 else -1) for i in range(rank))
        object.__setattr__(self, "is_blowup", rank > 1 and entries == diagonal
                           and K.coeffs == (-3,) + (-1,) * (rank - 1))
        if self.pair(self.H, self.H) != self.degree:
            raise ValueError(
                f"{self.name}: declared degree {self.degree} != H.H = {self.pair(self.H, self.H)}"
            )
        adj = self.pair(self.H, self.H) + self.pair(self.H, self.K)
        if adj != 2 * self.sectional_genus - 2:
            raise ValueError(
                f"{self.name}: sectional genus {self.sectional_genus} fails adjunction"
            )

    @property
    def basis_rank(self) -> int:
        return len(self.gram)

    def _conform(self, c: DivisorClass) -> None:
        if len(c.coeffs) != len(self.gram):
            raise RankMismatch(
                f"class of length {len(c)} does not fit {self.name} (rank {self.basis_rank})"
            )

    def pair(self, c: DivisorClass, d: DivisorClass) -> int:
        """Intersection number c.d, the Gram-matrix bilinear form."""
        x, y = c.coeffs, d.coeffs
        if not len(x) == len(y) == len(self.gram):
            self._conform(c)
            self._conform(d)
        # A plain loop: cheaper than building a list for sum() over so few entries.
        total = 0
        for i, j, g in self._entries:
            total += g * x[i] * y[j]
        return total

    def degree_of(self, c: DivisorClass) -> int:
        """Degree of the class in the ambient embedding, c.H."""
        return self.pair(c, self.H)

    def self_intersection(self, c: DivisorClass) -> int:
        return self.pair(c, c)

    def genus_of(self, c: DivisorClass) -> int:
        """Arithmetic genus from adjunction, 2g - 2 = c.c + c.K."""
        twice = self.pair(c, c) + self.pair(c, self.K)
        if twice % 2:
            raise NonIntegralGenus(
                f"{c} on {self.name}: c.c + c.K = {twice} is odd, not a curve class"
            )
        return twice // 2 + 1

    def ag_class(self, m: int) -> DivisorClass:
        """The anticanonical twist m*H - K, the class whose effective
        members are the arithmetically Gorenstein divisors on the surface."""
        return m * self.H - self.K

    def subtract_hyperplanes(self, c: DivisorClass, h: int = 1) -> DivisorClass:
        """c - h*H, the class-level effect of a height-h biliaison descent."""
        self._conform(c)
        return c - h * self.H

    def exceptional_split(self, c: DivisorClass) -> tuple[DivisorClass, tuple[tuple[int, int], ...]]:
        """Split c = core + sum of exceptional multiples, where the core has
        no negative multiplicities.  Returns (core, ((index, mult), ...)),
        indices 1-based into the exceptional part of the basis."""
        if not self.is_blowup:
            raise AbstractSurface(f"{self.name} has no blow-up presentation")
        self._conform(c)
        core = [c.coeffs[0]]
        excess = []
        for i, b in enumerate(c.coeffs[1:], start=1):
            if b < 0:
                excess.append((i, -b))
                core.append(0)
            else:
                core.append(b)
        return DivisorClass(tuple(core)), tuple(excess)

    def expected_dimension(self, c: DivisorClass) -> int:
        """Virtual dimension of plane curves of degree a with multiplicity
        b_i at r general points: a(a+3)/2 - sum b_i(b_i+1)/2, computed on
        the nonnegative part of c."""
        core, _ = self.exceptional_split(c)
        a = core.coeffs[0]
        return a * (a + 3) // 2 - sum(b * (b + 1) // 2 for b in core.coeffs[1:])

    def is_effective_general(self, c: DivisorClass) -> bool:
        """General-position effectiveness heuristic.

        Exceptional components with negative multiplicity split off as
        honest effective curves; the remainder must be a plane class with
        a >= 0 whose expected dimension is nonnegative.  This is a numeric
        shadow of effectivity, contracted only to reproduce the catalog's
        recorded verdicts, not to decide effectivity in general.
        """
        core, _ = self.exceptional_split(c)
        if core.coeffs[0] < 0:
            return False
        return self.expected_dimension(core) >= 0

    def canonical(self, c: DivisorClass) -> DivisorClass:
        """Canonical representative of c up to basis permutations fixing H.

        For blow-up models, exceptional multiplicities are sorted in
        descending order within groups of equal H-coefficient (points the
        embedding treats alike are interchangeable).  Abstract models have
        no such symmetry and return c unchanged.
        """
        if not self.is_blowup:
            return c
        self._conform(c)
        groups: dict[int, list[int]] = {}
        for i, w in enumerate(self.H.coeffs[1:], start=1):
            groups.setdefault(w, []).append(i)
        out = list(c.coeffs)
        for positions in groups.values():
            values = sorted((c.coeffs[i] for i in positions), reverse=True)
            for i, v in zip(positions, values):
                out[i] = v
        return DivisorClass(tuple(out))

    def __str__(self) -> str:
        return (
            f"{self.name}: degree {self.degree}, sectional genus "
            f"{self.sectional_genus}, rank {self.basis_rank} lattice in P^{self.ambient_dim}"
        )
