"""Registry of the concrete geometric objects the toolkit reasons about.

Surfaces: the cubic scroll, Del Pezzo, Castelnuovo and Bordiga surfaces
in 4-space (as plane blow-ups), the quadric and cubic surfaces in
3-space, and the degree-10 determinantal surface in 4-space (abstract,
lattice generated by H and K).  Curves: the ACM families on the quadric
and on the cubic surface, the table (derived from h-vectors) of how
many general points of 3-space lie on small ACM curves, the descent
catalog for ACM curves of degree at most 9 (and the (10,6) case) in
4-space, and the eight divisor classes of (10,6) curves on a Bordiga
surface.  The (d, g) pairs of those ACM curves are not a table: each
degree takes every genus from the least one of its h-vectors up to
Castelnuovo's bound for curves in 4-space.

The cubic-surface families are one table, ``_CUBIC_KINDS``: each kind
i..iv maps to its base class B (the curve at a = 1), the drop 3a - d,
the two genus coefficients in g = (3a^2 - g1*a + g0)/2 and its label.
Only B is written down; the three numbers are read off the lattice at
import.  The carrier at parameter a has class B + k*H with k = a - 1.
Since H = (3; 1^6), that class is (b_0 + 3k; b_1 + k, ..., b_6 + k).
The tail coefficients b_i of each B lie within three consecutive
integers from low = min b_i, so one ``itemgetter`` per kind picks the
whole class out of (b_0 + 3k, low + k, low + k + 1, low + k + 2): a
carrier holds one integer object per distinct coefficient rather than
seven.

A carrier of a space is named by one int, its key, and ``_KEYS`` says
per space how a key reads: its (d, g, linsys_dim) by closed forms, its
label and its divisor class; ``key_of`` finds the key of a (d, g).
``_carrier(space, key)`` is the one builder: it skips the per-carrier
checks that every other ``CurveFamily(...)`` runs, and keeps the
carriers it built last in one bounded ``lru_cache``.
``cubic_surface_type``, ``quadric_family``, ``quadric_ruling_line``,
``plane_curve_family`` and ``p3_acm_family`` check their arguments,
compute the key and return its carrier; a chain stores the keys and
builds a carrier only when a step is read.  The cubic surface's (d, g)
formulas are read off the lattice at import by ``_cubic_kind``; the
quadric's are closed forms, which ``_certify`` then proves equal to it.
The lattice's degree and twice its genus are integer polynomials of
degree at most 2 in a, so their values at a few a fix them for every a.
Plane curves and table rows carry no class to check.

The registry is built once at import time and never mutated.
"""

from functools import lru_cache
from math import comb
from operator import itemgetter

from ._record import Plain, Record, check_ints, check_types, draft, type_error
from .errors import DegreeTooSmall, InvalidMove, NotInTable, UnknownSurface
from .hvector import min_genus, s_zero
from .picard import DivisorClass, SurfaceModel


def _blowup(name: str, h: str, ambient_dim: int, degree: int,
            sectional_genus: int) -> SurfaceModel:
    H = DivisorClass.parse(h)
    r = len(H) - 1
    gram = tuple(
        tuple((1 if i == 0 else -1) if i == j else 0 for j in range(r + 1))
        for i in range(r + 1)
    )
    return SurfaceModel(
        name=name,
        gram=gram,
        H=H,
        K=DivisorClass((-3,) + (-1,) * r),
        ambient_dim=ambient_dim,
        degree=degree,
        sectional_genus=sectional_genus,
        euler_char=1,
    )


_SURFACES: dict[str, SurfaceModel] = {}

for _model in (
    # Blow-up of one point, embedded by 2l - e.
    _blowup("scroll", "2;1", 4, 3, 0),
    # Blow-up of five points, no three collinear, embedded by 3l - sum e_i.
    _blowup("delpezzo", "3;1^5", 4, 4, 1),
    # Blow-up of eight points; the first carries multiplicity 2 in H.
    _blowup("castelnuovo", "4;2,1^7", 4, 5, 2),
    # Blow-up of ten points, embedded by quartics through all of them.
    _blowup("bordiga", "4;1^10", 4, 6, 3),
    # Nonsingular cubic surface in 3-space, blow-up of six points.
    _blowup("cubic", "3;1^6", 3, 3, 1),
    # Nonsingular quadric in 3-space, basis the two rulings.
    SurfaceModel(
        name="quadric",
        gram=((0, 1), (1, 0)),
        H=DivisorClass((1, 1)),
        K=DivisorClass((-2, -2)),
        ambient_dim=3,
        degree=2,
        sectional_genus=0,
        euler_char=1,
    ),
    # General ACM surface of degree 10 and sectional genus 11 in 4-space,
    # cut out by the 4x4 minors of a 4x5 matrix of general linear forms.
    # Its class group is generated by H and K, so the model is abstract.
    SurfaceModel(
        name="det10",
        gram=((10, 10), (10, 5)),
        H=DivisorClass((1, 0)),
        K=DivisorClass((0, 1)),
        ambient_dim=4,
        degree=10,
        sectional_genus=11,
        euler_char=5,
    ),
):
    _SURFACES[_model.name] = _model


def _check_positive(value, name: str, need: str) -> None:
    if type(value) is not int:
        raise type_error(name, int, value)
    if value < 1:
        raise DegreeTooSmall(f"need {need}, got {value}")


def _lower(value, name: str) -> str:
    if not isinstance(value, str):
        raise type_error(name, str, value)
    return value.lower()


def surface(name: str) -> SurfaceModel:
    """Look up a registered surface model by name."""
    try:
        return _SURFACES[name]
    except KeyError:
        known = ", ".join(surface_names())
        raise UnknownSurface(f"no surface named {name!r}; known: {known}") from None


def surface_names() -> tuple[str, ...]:
    """The registered surface names, sorted."""
    return tuple(sorted(_SURFACES))


class CurveFamily(Record):
    """A family of curves of fixed degree and genus in a fixed ambient.

    ``linsys_dim`` is the dimension of the family the curve moves in when
    that family is a linear system (plane curves, curves on the quadric
    or the cubic surface).  A field of the wrong type raises ``TypeError``
    naming it.  When a divisor class and surface are given, the stored
    (d, g) is recomputed from the lattice on construction.  The
    carrier constructors skip both checks: they build through
    :func:`_trusted`, as this constructor does after its checks.
    """

    __slots__ = _fields = ("ambient", "d", "g", "linsys_dim", "divisor", "surface", "label")
    _kinds = (str, int, int, (int, None), (DivisorClass, None), (str, None), str)

    def __new__(cls, ambient: str, d: int, g: int, linsys_dim: int | None = None,
                divisor: DivisorClass | None = None, surface: str | None = None,
                label: str = ""):
        fields = (ambient, d, g, linsys_dim, divisor, surface, label)
        check_types(cls._fields, cls._kinds, fields)
        family = _trusted(*fields)
        family.__post_init__()
        return family

    def __post_init__(self):
        """The lattice (d, g) cross-check, run by the constructor; a
        method of its own so that a profiler can time it apart."""
        if self.divisor is not None and self.surface is not None:
            model = surface(self.surface)
            for what, stored, lattice in (("degree", self.d, model.degree_of),
                                          ("genus", self.g, model.genus_of)):
                value = lattice(self.divisor)
                if value != stored:
                    raise ValueError(f"{self.label or self.divisor}: stored {what} {stored}"
                                     f" != lattice {what} {value}")

    @property
    def dg(self) -> tuple[int, int]:
        return (self.d, self.g)

    def __str__(self) -> str:
        tag = f" {self.label}" if self.label else ""
        return f"({self.d},{self.g}){tag}"


_ClassDraft = draft(DivisorClass)
_FamilyDraft = draft(CurveFamily)


def _class(coeffs: tuple[int, ...]) -> DivisorClass:
    """``DivisorClass(coeffs)`` without its per-coefficient check, for a
    tuple the caller built from ints."""
    divisor = _ClassDraft()
    divisor.coeffs = coeffs
    divisor.__class__ = DivisorClass
    return divisor


def _trusted(ambient: str, d: int, g: int, linsys_dim: int | None,
             divisor: DivisorClass | None, surface: str | None, label: str) -> CurveFamily:
    """The carrier ``CurveFamily(...)`` would build, without its checks:
    only for fields built from ints, with a (d, g) derived from the
    lattice at import or no class to check (plane curves and table
    rows)."""
    family = _FamilyDraft()
    family.ambient = ambient
    family.d = d
    family.g = g
    family.linsys_dim = linsys_dim
    family.divisor = divisor
    family.surface = surface
    family.label = label
    family.__class__ = CurveFamily
    return family


def _cubic_kind(kind: str, base: str):
    """The ``_CUBIC_KINDS`` row of the kind whose curve at a = 1 has class
    ``base``.  Its class at a is B + (a - 1)H, and H.H = 3, so the
    lattice gives d = 3a - drop and 2g = c.c + c.K + 2 = 3a^2 - g1*a + g0;
    drop, g1 and g0 are read off d and 2g at a = 1 and 2."""
    model = _SURFACES["cubic"]
    one = DivisorClass.parse(base)
    head, *tail = one.coeffs
    low = min(tail)
    if max(tail) > low + 2:
        raise ValueError(f"type {kind}: the tail of {base} spans more than three integers")
    pick = itemgetter(0, *(b - low + 1 for b in tail))
    twice_g1, twice_g2 = (2 * model.genus_of(c) for c in (one, one + model.H))
    g1 = 9 - twice_g2 + twice_g1
    return (head - 3, low - 1, pick, 3 - model.degree_of(one), g1, twice_g1 - 3 + g1,
            f"type {kind}")


# The four ACM families on the cubic surface, generated at a = 1 by a
# line, a conic, a twisted cubic and a plane cubic (the hyperplane
# class) B = (b_0; b_1, ..., b_6).  ``_CUBIC_KINDS`` maps each kind to
# (head0, low0, the picker of the class from (head0 + 3a, low0 + a,
# low0 + a + 1, low0 + a + 2), drop, g1, g0, label), where head0 = b_0 - 3
# and low0 = min b_i - 1 are those of B + (a - 1)H at a = 0.
_CUBIC_BASES = (("i", "0;0^5,-1"), ("ii", "1;1,0^5"), ("iii", "1;0^6"), ("iv", "3;1^6"))
_CUBIC_KINDS = {spec[0]: _cubic_kind(*spec) for spec in _CUBIC_BASES}
_CUBIC_NAMES = tuple(_CUBIC_KINDS)
_CUBIC_ROWS = tuple(_CUBIC_KINDS.values())  # by kind code, key & 3


def _cubic_dims(key: int) -> tuple[int, int, int]:
    """(d, g, linsys_dim) of the cubic carrier with key 4a + kind (i..iv = 0..3)."""
    row = _CUBIC_ROWS[key & 3]
    a = key >> 2
    three_a = 3 * a
    d = three_a - row[3]
    g = (a * (three_a - row[4]) + row[5]) // 2
    return d, g, d + g - 1


def _cubic_class(key: int) -> DivisorClass:
    """The class B + (a-1)H of the cubic carrier with key 4a + kind,
    picked from four ints."""
    row = _CUBIC_ROWS[key & 3]
    a = key >> 2
    c = row[1] + a
    return _class(row[2]((row[0] + 3 * a, c, c + 1, c + 2)))


def _cubic_label(key: int) -> str:
    return _CUBIC_ROWS[key & 3][-1]


def cubic_surface_type(kind: str, a: int) -> CurveFamily:
    """The four families of smooth ACM curves on a nonsingular cubic
    surface, indexed by kind i..iv and a parameter a >= 1:

        i)   d = 3a - 2,  g = (3a^2 - 7a + 4) / 2
        ii)  d = 3a - 1,  g = (3a^2 - 5a + 2) / 2
        iii) d = 3a,      g = (3a^2 - 3a) / 2
        iv)  d = 3a,      g = (3a^2 - 3a + 2) / 2

    Each moves in a linear system of dimension d + g - 1 on the surface.
    Kind k at parameter a is kind k at a-1 raised by one height-1
    biliaison on the surface.
    """
    if kind not in _CUBIC_KINDS:
        kind = _lower(kind, "kind")
        if kind not in _CUBIC_KINDS:
            raise ValueError(f"kind must be one of i, ii, iii, iv; got {kind!r}")
    _check_positive(a, "a", "a >= 1")
    return _carrier("cubic-surface", 4 * a + _CUBIC_NAMES.index(kind))


def _quadric_dims(d: int) -> tuple[int, int, int]:
    """(d, g, linsys_dim) of bidegree (a, b) with a = d // 2 and b = d - a:
    genus (a-1)(b-1), dimension ab + a + b.  At d = 1 that is (0, 1), whose
    numbers are the ruling line's."""
    a = d >> 1
    b = d - a
    return d, (a - 1) * (b - 1), a * b + d


def _quadric_class(d: int) -> DivisorClass:
    """Bidegree (d // 2, d - d // 2); the ruling line, d = 1, is (1, 0)."""
    a = d >> 1
    return _class((1, 0) if d == 1 else (a, d - a))


def _quadric_label(d: int) -> str:
    a = d >> 1
    return "ruling line" if d == 1 else f"bidegree ({a}, {d - a})"


def quadric_family(a: int, case: str) -> CurveFamily:
    """ACM curves on the nonsingular quadric: case i is the complete
    intersection of bidegree (a, a) with degree 2a, genus (a-1)^2, moving
    in dimension a^2 + 2a; case ii is bidegree (a, a+1) with degree
    2a + 1, genus a(a-1), dimension a^2 + 3a + 1."""
    case = _lower(case, "case")
    if case not in ("i", "ii"):
        raise ValueError(f"case must be i or ii, got {case!r}")
    _check_positive(a, "a", "a >= 1")
    return _carrier("quadric", 2 * a if case == "i" else 2 * a + 1)


def quadric_ruling_line() -> CurveFamily:
    """A line of one ruling of the quadric; it moves in a pencil."""
    return _carrier("quadric", 1)


def _plane_dims(d: int) -> tuple[int, int, int]:
    """(d, g, linsys_dim) of plane curves of degree d."""
    return d, (d - 1) * (d - 2) // 2, d * (d + 3) // 2


def _plane_label(d: int) -> str:
    return f"plane curve of degree {d}"


def plane_curve_family(d: int) -> CurveFamily:
    """Plane curves of degree d: genus (d-1)(d-2)/2, moving in the
    complete linear system of dimension d(d+3)/2."""
    _check_positive(d, "d", "d >= 1")
    return _carrier("p2", d)


class PerrinEntry(Plain):
    """Row of the general-points table: an ACM curve of type (d, g) in
    3-space passes through at most m general points."""

    __slots__ = _fields = ("d", "g", "m")


def _perrin_row(d: int) -> PerrinEntry:
    g, witness = min_genus(d, 2, nondegenerate=False)
    return PerrinEntry(d, g, min(2 * d, comb(s_zero(witness) + 3, 3) - 1))


_PERRIN_ROWS = tuple(map(_perrin_row, range(1, 11)))
_PERRIN_M = {(row.d, row.g): row.m for row in _PERRIN_ROWS}


def perrin_table() -> tuple[PerrinEntry, ...]:
    return _PERRIN_ROWS


def perrin_m(d: int, g: int) -> int:
    """Maximum number of general points of 3-space on an ACM (d, g)
    curve of the table: one row per degree d = 1..10, at the least genus
    over h-vectors of degree d.  The curves move in a family of dimension
    4d, so they hold at most 2d general points, and the points lie on a
    surface of the least degree s through the curve (``s_zero`` of the
    witness h-vector), which holds binom(s+3, 3) - 1 of them.  The smaller
    bound is 2d except for the conic (3) and the (5, 2) curve (9)."""
    check_ints(d=d, g=g)
    try:
        return _PERRIN_M[(d, g)]
    except KeyError:
        raise NotInTable(f"({d},{g}) is not in the general-points table") from None


def p3_acm_family(d: int, g: int) -> CurveFamily:
    """Table row as a curve family (raises NotInTable off the table)."""
    perrin_m(d, g)
    return _carrier("p3", d)


def _p3_dims(d: int) -> tuple[int, int, None]:
    """(d, g, linsys_dim) of the table row of degree d; a row carries no
    linear-system dimension, its bound is the row's m.  A key off the
    table's degrees 1..10, which only a corrupted key column can hold,
    raises :class:`InvalidMove` naming it."""
    if not 0 < d <= len(_PERRIN_ROWS):
        raise _unknown_key("p3", d)
    return d, _PERRIN_ROWS[d - 1].g, None


def _p3_label(d: int) -> str:
    return f"ACM ({d},{_PERRIN_ROWS[d - 1].g})"


def _no_class(key: int) -> None:
    return None


class _KeyLayout(Plain):
    """How one space names a carrier by one int, its key: the plane
    degree d in p2; the degree d on the quadric, bidegree (d // 2,
    d - d // 2), with 1 the ruling line; 4a plus the kind (i..iv = 0..3)
    on the cubic surface; the degree of a table row in 3-space.  Its
    ambient and surface are the space's; ``dims`` gives a key's (d, g,
    linsys_dim) by the closed forms, ``label`` its label and ``divisor``
    its class (None off a surface)."""

    __slots__ = _fields = ("ambient", "surface", "dims", "label", "divisor")


_KEYS = {
    "p2": _KeyLayout("p2", None, _plane_dims, _plane_label, _no_class),
    "quadric": _KeyLayout("p3-quadric", "quadric", _quadric_dims, _quadric_label,
                          _quadric_class),
    "cubic-surface": _KeyLayout("p3-cubic", "cubic", _cubic_dims, _cubic_label, _cubic_class),
    "p3": _KeyLayout("p3", None, _p3_dims, _p3_label, _no_class),
}


# The least key that names a carrier: degree 1 in the plane, on the
# quadric and in 3-space, and 4a + kind from a = 1 on the cubic surface.
# Only 3-space has a greatest key, its table's last degree, which
# ``_p3_dims`` checks.
_FIRST_KEYS = {"p2": 1, "quadric": 1, "cubic-surface": 4, "p3": 1}

# Keys that agree modulo this number name carriers of one class, over
# which d is linear in the key and g and linsys_dim are quadratic: the
# cubic kind, key & 3, and the quadric case, the key's parity.  3-space
# has none; its carriers are the table's rows.
_KEY_CLASSES = {"p2": 1, "quadric": 2, "cubic-surface": 4}


def _unknown_key(space: str, key: int) -> InvalidMove:
    """The refusal of a key that names no carrier, which only a corrupted
    key column holds."""
    named = "row of the general-points table" if space == "p3" else "carrier"
    return InvalidMove(f"{space} key {key} names no {named}")


def key_of(space: str, d: int, g: int) -> int:
    """The key of the (d, g) carrier of ``space``, one of ``_KEYS``: the
    inverse of its ``dims``.  It is d, except on the cubic surface: 4a +
    kind, a = ceil(d / 3) as every drop 3a - d is 0, 1 or 2.  A (d, g)
    that no carrier has raises :class:`InvalidMove`."""
    check_ints(d=d, g=g)
    if space == "p3":
        if (d, g) in _PERRIN_M:
            return d
        raise InvalidMove(f"carrier ({d},{g}) missing from the table")
    a = -(-d // 3)
    keys = range(4 * a, 4 * a + 4) if space == "cubic-surface" else (d,)
    for key in keys if d > 0 else ():
        if _KEYS[space].dims(key)[:2] == (d, g):
            return key
    raise InvalidMove(f"carrier ({d},{g}) is not a {space} carrier")


# The steps of all chains n <= 10^4 name 672 distinct carriers, so this
# many keeps them all; a large plan names a level's keys within a few steps.
_CARRIERS_KEPT = 1024


@lru_cache(maxsize=_CARRIERS_KEPT)
def _carrier(space: str, key: int) -> CurveFamily:
    """The carrier that ``key`` names in ``space``, built without the checks of
    ``CurveFamily(...)``, for an exact int key (the cache takes True for 1)
    that a public constructor computed or a planned chain stores."""
    layout = _KEYS[space]
    return _trusted(layout.ambient, *layout.dims(key), layout.divisor(key), layout.surface,
                    layout.label(key))


def _certify() -> None:
    """Prove the quadric layout's (d, g) equal to the lattice's.

    The class is (a, a) or (a, a + 1), so the lattice degree is linear in
    a and twice the lattice genus, c.c + c.K + 2, is quadratic in a, as
    are the formulas.  Two integer polynomials of degree at most 2 that
    agree at a = 1, 2, 3 are equal, so the checks below hold for every a;
    the ruling line is checked on its own.  Raises ``ValueError`` naming
    the family whose formula disagrees.
    """
    quadric, model = _KEYS["quadric"], _SURFACES["quadric"]
    checks = [("quadric ruling line", 1, 1)]
    checks += [(f"quadric case {case}", a, 2 * a + odd)
               for odd, case in enumerate(("i", "ii")) for a in (1, 2, 3)]
    for what, a, key in checks:
        fd, fg, _ = quadric.dims(key)
        divisor = quadric.divisor(key)
        d, g = model.degree_of(divisor), model.genus_of(divisor)
        if (fd, fg) != (d, g):
            raise ValueError(
                f"{what} at a = {a}: formula d = {fd}, g = {fg}; "
                f"lattice class {divisor} has d = {d}, g = {g}"
            )


_certify()


class DescentEntry(Plain):
    """An ACM curve family in 4-space with its recorded biliaison descent:
    the class C sits on a named surface and C - height*H is a smaller
    well-understood curve."""

    __slots__ = _fields = ("family", "height", "descent", "descent_d", "descent_g",
                           "descent_label")


def small_degree_descents() -> tuple[DescentEntry, ...]:
    """The descent catalog for general ACM curves of degree at most 9 in
    4-space (both (7,3) and both (8,5) cases recorded separately), with
    the degree-10 genus-6 entry handled by :func:`bordiga_ten_six`."""
    def entry(surface_name, class_text, d, g, label, height, descent_text,
              descent_d, descent_g, descent_label):
        family = CurveFamily(f"p4-{surface_name}", d, g, None, DivisorClass.parse(class_text),
                             surface_name, label)
        return DescentEntry(family, height, DivisorClass.parse(descent_text), descent_d,
                            descent_g, descent_label)

    return (
        entry("scroll", "2;0", 4, 0, "(4,0) rational normal curve",
              1, "0;-1", 1, 0, "line"),
        entry("scroll", "3;1", 5, 1, "(5,1) elliptic curve",
              1, "1;0", 2, 0, "conic"),
        entry("scroll", "4;2", 6, 2, "(6,2) curve",
              1, "2;1", 3, 0, "twisted cubic"),
        entry("delpezzo", "4;1^5", 7, 3, "(7,3) curve, finitely many trisecants",
              1, "1;0^5", 3, 0, "twisted cubic"),
        entry("scroll", "4;1", 7, 3, "(7,3) curve, infinitely many trisecants",
              2, "0;-1", 1, 0, "line"),
        entry("delpezzo", "5;2^2,1^3", 8, 4, "(8,4) curve",
              1, "2;1^2,0^3", 4, 0, "(4,0) curve"),
        entry("delpezzo", "6;2^5", 8, 5, "(8,5) canonical curve, not trigonal",
              1, "3;1^5", 4, 1, "elliptic quartic"),
        entry("scroll", "5;2", 8, 5, "(8,5) canonical curve, trigonal",
              2, "1;0", 2, 0, "conic"),
        entry("castelnuovo", "5;2,1^7", 9, 5, "(9,5) curve",
              1, "1;0^8", 4, 0, "(4,0) curve"),
        entry("delpezzo", "6;2^4,1", 9, 6, "(9,6) curve",
              2, "0;0^4,-1", 1, 0, "line"),
        entry("scroll", "6;3", 9, 7, "(9,7) curve of maximal genus",
              2, "2;1", 3, 0, "twisted cubic"),
    )


def small_degree_acm_pairs() -> tuple[tuple[int, int], ...]:
    """The (d, g) pairs of integral nondegenerate ACM curves of degree
    4 <= d <= 9 in 4-space, by degree and then genus: every genus from
    the least, ``min_genus(d, 3)``, up to Castelnuovo's bound for curves
    in 4-space, m(m-1)*3/2 + m*e where d - 1 = 3m + e and 0 <= e < 3.
    These are the nine pairs of the descent catalog."""
    pairs = []
    for d in range(4, 10):
        m, e = divmod(d - 1, 3)
        pairs += [(d, g) for g in range(min_genus(d, 3)[0], 3 * m * (m - 1) // 2 + m * e + 1)]
    return tuple(pairs)


_BORDIGA_TEN_SIX = tuple(
    DivisorClass.parse(text)
    for text in (
        "5;1^10",
        "6;2^4,1^6",
        "7;2^9,0",
        "7;3,2^6,1^3",
        "8;3^3,2^6,1",
        "8;4,2^9",
        "9;3^6,2^4",
        "10;3^10",
    )
)


def bordiga_ten_six() -> tuple[DivisorClass, ...]:
    """The eight divisor classes (up to point permutation) of (10, 6)
    curves on a general Bordiga surface, in ascending plane degree."""
    return _BORDIGA_TEN_SIX


def bordiga_eleven_seven() -> tuple[DivisorClass, ...]:
    """Representative classes of (11, 7) curves on a Bordiga surface.
    Any such class satisfies C.C = 23 - a where a is the plane degree,
    and a >= 6 is forced by the genus."""
    return tuple(
        DivisorClass.parse(text)
        for text in ("6;2^3,1^7", "7;2^8,1,0", "7;3,2^5,1^4", "8;3^3,2^5,1^2")
    )
