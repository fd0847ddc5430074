import copy
import re

import pytest

from glicci import catalog
from glicci.catalog import (
    CurveFamily,
    bordiga_eleven_seven,
    bordiga_ten_six,
    cubic_surface_type,
    p3_acm_family,
    perrin_m,
    perrin_table,
    plane_curve_family,
    quadric_family,
    quadric_ruling_line,
    small_degree_acm_pairs,
    small_degree_descents,
    surface,
    surface_names,
)
from glicci.errors import DegreeTooSmall, NotInTable, UnknownSurface
from glicci.hvector import min_genus, min_genus_formula
from glicci.moves import biliaison_curve
from glicci.picard import DivisorClass
from glicci.planner import plan

from oracles import dense_genus, dense_pair

# Proper transforms of the four cubic-surface families at a = 1: a line,
# a conic, a twisted cubic and a plane cubic (the hyperplane class).
CUBIC_BASE_TEXT = {"i": "0;0^5,-1", "ii": "1;1,0^5", "iii": "1;0^6", "iv": "3;1^6"}

# Their (drop, g1, g0), with d = 3a - drop and g = (3a^2 - g1*a + g0) / 2,
# as printed in cubic_surface_type's docstring.
CUBIC_FORMULAS = {"i": (2, 7, 4), "ii": (1, 5, 2), "iii": (0, 3, 0), "iv": (0, 3, 2)}

# The (d, g) of integral nondegenerate ACM curves of degree 4..9 in
# 4-space, as recorded with the descent catalog.
ACM_PAIRS = ((4, 0), (5, 1), (6, 2), (7, 3), (8, 4), (8, 5), (9, 5), (9, 6), (9, 7))


class TestSurfaceRegistry:
    def test_names(self):
        assert set(surface_names()) == {
            "scroll", "delpezzo", "castelnuovo", "bordiga", "cubic", "quadric", "det10",
        }

    def test_bordiga(self):
        model = surface("bordiga")
        assert model.basis_rank == 11
        assert model.H == DivisorClass.parse("4;1^10")
        assert (model.degree, model.sectional_genus) == (6, 3)

    def test_castelnuovo(self):
        model = surface("castelnuovo")
        assert model.H == DivisorClass.parse("4;2,1^7")
        assert (model.degree, model.sectional_genus) == (5, 2)

    def test_det10(self):
        model = surface("det10")
        assert model.gram == ((10, 10), (10, 5))
        assert model.euler_char == 5
        assert not model.is_blowup

    def test_unknown(self):
        with pytest.raises(UnknownSurface):
            surface("veronese")


class TestCubicSurfaceTypes:
    @pytest.mark.parametrize(
        "kind,a,dg",
        [
            ("iii", 3, (9, 9)),
            ("iv", 2, (6, 4)),
            ("i", 4, (10, 12)),
            ("i", 2, (4, 1)),
            ("ii", 2, (5, 2)),
            ("iii", 2, (6, 3)),
            ("i", 3, (7, 5)),
            ("ii", 3, (8, 7)),
            ("iv", 3, (9, 10)),
        ],
    )
    def test_type_values(self, kind, a, dg):
        fam = cubic_surface_type(kind, a)
        assert (fam.d, fam.g) == dg
        assert fam.linsys_dim == fam.d + fam.g - 1

    def test_base_cases_are_line_conic_cubic_hyperplane(self):
        assert (cubic_surface_type("i", 1).d, cubic_surface_type("i", 1).g) == (1, 0)
        assert (cubic_surface_type("ii", 1).d, cubic_surface_type("ii", 1).g) == (2, 0)
        assert (cubic_surface_type("iii", 1).d, cubic_surface_type("iii", 1).g) == (3, 0)
        assert (cubic_surface_type("iv", 1).d, cubic_surface_type("iv", 1).g) == (3, 1)

    def test_biliaison_recurrence(self):
        # Raising the parameter by one is a height-1 biliaison on the
        # cubic surface (degree 3, sectional genus 1).
        for kind in ("i", "ii", "iii", "iv"):
            for a in range(1, 20):
                cur = cubic_surface_type(kind, a)
                nxt = cubic_surface_type(kind, a + 1)
                assert biliaison_curve((cur.d, cur.g), 1, 3, 1) == (nxt.d, nxt.g)

    def test_lattice_cross_validation(self):
        # The stored divisor class recomputes (d, g) in the Picard
        # lattice of the cubic surface; this runs in the constructor,
        # so surviving construction is the assertion.
        for kind in ("i", "ii", "iii", "iv"):
            for a in range(1, 7):
                fam = cubic_surface_type(kind, a)
                assert fam.divisor is not None

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            cubic_surface_type("v", 1)
        with pytest.raises(DegreeTooSmall):
            cubic_surface_type("i", 0)

    @pytest.mark.parametrize("kind", ["i", "ii", "iii", "iv"])
    def test_kind_table_matches_class_arithmetic_and_closed_forms(self, kind):
        # The carrier built from the kind table equals one built by
        # DivisorClass arithmetic from the base curve, with (d, g) from
        # the docstring formulas and from a dense Gram evaluation.
        model = surface("cubic")
        gram, H, K = model.gram, model.H, model.K
        base = DivisorClass.parse(CUBIC_BASE_TEXT[kind])
        drop, g1, g0 = CUBIC_FORMULAS[kind]
        for a in range(1, 201):
            divisor = base + (a - 1) * H
            d, g = 3 * a - drop, (3 * a * a - g1 * a + g0) // 2
            assert (dense_pair(gram, divisor.coeffs, H.coeffs),
                    dense_genus(gram, divisor.coeffs, K.coeffs)) == (d, g)
            expected = CurveFamily(ambient="p3-cubic", d=d, g=g, linsys_dim=d + g - 1,
                                   divisor=divisor, surface="cubic", label=f"type {kind}")
            assert cubic_surface_type(kind, a) == expected
            assert repr(cubic_surface_type(kind.upper(), a)) == repr(expected)


class TestQuadricFamilies:
    @pytest.mark.parametrize(
        "a,case,expect",
        [
            (2, "i", (4, 1, 8)),
            (2, "ii", (5, 2, 11)),
            (1, "i", (2, 0, 3)),
            (1, "ii", (3, 0, 5)),
        ],
    )
    def test_values(self, a, case, expect):
        fam = quadric_family(a, case)
        assert (fam.d, fam.g, fam.linsys_dim) == expect

    @pytest.mark.parametrize("case", ["i", "ii"])
    def test_matches_closed_forms_and_dense_lattice(self, case):
        model = surface("quadric")
        for a in range(1, 201):
            if case == "i":
                coeffs, d, g, dim = (a, a), 2 * a, (a - 1) ** 2, a * a + 2 * a
            else:
                coeffs, d, g, dim = (a, a + 1), 2 * a + 1, a * (a - 1), a * a + 3 * a + 1
            assert (dense_pair(model.gram, coeffs, model.H.coeffs),
                    dense_genus(model.gram, coeffs, model.K.coeffs)) == (d, g)
            expected = CurveFamily(ambient="p3-quadric", d=d, g=g, linsys_dim=dim,
                                   divisor=DivisorClass(coeffs), surface="quadric",
                                   label=f"bidegree {coeffs}")
            assert quadric_family(a, case) == expected

    def test_plane_family_matches_closed_forms(self):
        for d in range(1, 201):
            assert plane_curve_family(d) == CurveFamily(
                ambient="p2", d=d, g=(d - 1) * (d - 2) // 2, linsys_dim=d * (d + 3) // 2,
                label=f"plane curve of degree {d}")

    def test_ruling_line(self):
        fam = quadric_ruling_line()
        assert (fam.d, fam.g, fam.linsys_dim) == (1, 0, 1)

    def test_plane_family(self):
        fam = plane_curve_family(3)
        assert (fam.d, fam.g, fam.linsys_dim) == (3, 1, 9)


class TestPerrinTable:
    def test_values(self):
        assert perrin_m(5, 2) == 9
        assert perrin_m(2, 0) == 3
        assert perrin_m(10, 11) == 20

    def test_naive_value_with_two_exceptions(self):
        for row in perrin_table():
            if (row.d, row.g) in ((2, 0), (5, 2)):
                assert row.m < 2 * row.d
            else:
                assert row.m == 2 * row.d

    def test_off_table(self):
        with pytest.raises(NotInTable):
            perrin_m(10, 6)
        with pytest.raises(NotInTable):
            p3_acm_family(11, 12)

    @pytest.mark.parametrize("lookup", [perrin_m, p3_acm_family])
    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    @pytest.mark.parametrize("field", ["d", "g"])
    def test_arguments_must_be_int(self, lookup, value, field):
        # True == 1 and 2.0 == 2 hash as the table's ints, so only the
        # type check keeps them from finding a row, and from the carrier cache.
        args = {"d": 2, "g": 0, field: value}
        message = rf"^{field} must be int, got {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            lookup(**args)

    def test_rows_have_minimal_genus_for_their_degree(self):
        # Each table row is the ACM curve of minimal genus in 3-space.
        for row in perrin_table():
            assert row.g == min_genus(row.d, 2, nondegenerate=False)[0]


class TestDescentCatalog:
    def test_eleven_entries(self):
        entries = small_degree_descents()
        assert len(entries) == 11
        assert [(e.family.d, e.family.g) for e in entries] == [
            (4, 0), (5, 1), (6, 2), (7, 3), (7, 3), (8, 4),
            (8, 5), (8, 5), (9, 5), (9, 6), (9, 7),
        ]

    def test_descent_classes_match_lattice(self):
        for entry in small_degree_descents():
            model = surface(entry.family.surface)
            down = model.subtract_hyperplanes(entry.family.divisor, entry.height)
            assert down == entry.descent
            assert model.degree_of(down) == entry.descent_d
            assert model.genus_of(down) == entry.descent_g
            assert model.is_effective_general(down)

    def test_pairs_list(self):
        pairs = small_degree_acm_pairs()
        assert pairs == ACM_PAIRS
        # Lower bound matches the minimal-genus formula at each degree.
        for d, g in pairs:
            assert g >= min_genus_formula(d)
        assert {(e.family.d, e.family.g) for e in small_degree_descents()} == set(pairs)


class TestBordigaClasses:
    def test_all_eight_are_ten_six(self):
        model = surface("bordiga")
        classes = bordiga_ten_six()
        assert len(classes) == 8
        for cls in classes:
            assert (model.degree_of(cls), model.genus_of(cls)) == (10, 6)

    def test_third_class(self):
        assert bordiga_ten_six()[2] == DivisorClass.parse("7;2^9,0")

    def test_last_descent_not_effective(self):
        model = surface("bordiga")
        d8 = bordiga_ten_six()[-1]
        assert not model.is_effective_general(model.subtract_hyperplanes(d8))

    def test_eleven_seven_classes(self):
        model = surface("bordiga")
        for cls in bordiga_eleven_seven():
            assert (model.degree_of(cls), model.genus_of(cls)) == (11, 7)
            assert model.self_intersection(cls) == 23 - cls.coeffs[0]


class TestSectionalGenusMinimality:
    def test_hyperplane_sections_realize_min_genus(self):
        # The hyperplane section of each 4-space surface is an ACM curve
        # of minimal genus for its degree in 3-space.
        for name in ("scroll", "delpezzo", "castelnuovo", "bordiga", "det10"):
            model = surface(name)
            assert (
                min_genus(model.degree, 2, nondegenerate=True)[0]
                == model.sectional_genus
            )


def _cubic_mutants():
    """(id, kind, base) for each +-1 change of one coefficient of a cubic
    kind's base class."""
    for kind, base in catalog._CUBIC_BASES:
        coeffs = DivisorClass.parse(base).coeffs
        for delta in (1, -1):
            for i in range(len(coeffs)):
                mutated = list(coeffs)
                mutated[i] += delta
                text = f"{mutated[0]};" + ",".join(map(str, mutated[1:]))
                yield f"{kind}-b{i}{delta:+d}", kind, text


CUBIC_MUTANTS = list(_cubic_mutants())


class TestCertificate:
    """The cubic kinds' formulas are derived from their base classes, so
    every +-1 change of a base class changes a formula; a slip in the
    quadric's genus formula fails the import-time certificate."""

    def test_table_is_the_recorded_bases(self):
        assert dict(catalog._CUBIC_BASES) == CUBIC_BASE_TEXT
        assert len(CUBIC_MUTANTS) == 4 * 2 * 7

    def test_derived_formulas_are_the_docstring_ones(self):
        printed = {}
        for kind, drop, g1, g0 in re.findall(
                r"(\w+)\)\s+d = 3a(?: - (\d))?,\s+g = \(3a\^2 - (\d)a(?: \+ (\d))?\) / 2",
                cubic_surface_type.__doc__):
            printed[kind] = (int(drop or 0), int(g1), int(g0 or 0))
        assert printed == CUBIC_FORMULAS
        assert {kind: row[3:6] for kind, row in catalog._CUBIC_KINDS.items()} == CUBIC_FORMULAS

    @pytest.mark.parametrize("kind, base", [m[1:] for m in CUBIC_MUTANTS],
                             ids=[m[0] for m in CUBIC_MUTANTS])
    def test_every_cubic_coefficient_mutant_fails(self, kind, base):
        assert catalog._cubic_kind(kind, base)[3:6] != CUBIC_FORMULAS[kind]

    def test_quadric_formula_mutant_fails(self, monkeypatch):
        layout = catalog._KEYS["quadric"]

        def slipped(key):
            d, g, held = layout.dims(key)
            a = key >> 1
            return (d, a * (a + 1), held) if key & 1 else (d, g, held)  # case ii: a(a+1)

        monkeypatch.setitem(catalog._KEYS, "quadric", catalog._KeyLayout(
            layout.ambient, layout.surface, slipped, layout.label, layout.divisor))
        with pytest.raises(ValueError, match="^quadric case ii at a = 1: "):
            catalog._certify()

    def test_tail_wider_than_three_integers_is_refused(self):
        with pytest.raises(ValueError, match="type i"):
            catalog._cubic_kind("i", "0;1,0^4,-2")


class TestKeyClasses:
    """``moves.validate_chain`` proves a planned piece from three sample
    steps because, over each class of ``catalog._KEY_CLASSES`` (cubic by
    key & 3, quadric by parity, plane all keys), d is linear in the key
    and g and linsys_dim are quadratic."""

    @staticmethod
    def _differences(values, order):
        for _ in range(order):
            values = [b - a for a, b in zip(values, values[1:])]
        return set(values)

    @pytest.mark.parametrize("space", sorted(catalog._KEY_CLASSES))
    def test_dims_are_polynomials_on_each_key_class(self, space):
        step, dims = catalog._KEY_CLASSES[space], catalog._KEYS[space].dims
        for first in range(catalog._FIRST_KEYS[space], catalog._FIRST_KEYS[space] + step):
            d, g, held = zip(*map(dims, range(first, 10**6 + 1, step)))
            assert self._differences(d, 2) == {0}
            assert self._differences(g, 3) == self._differences(held, 3) == {0}


class TestCurveFamilyValidation:
    def test_stored_dg_must_match_lattice(self):
        with pytest.raises(ValueError):
            CurveFamily(
                ambient="p4-scroll",
                d=4,
                g=1,
                divisor=DivisorClass.parse("2;0"),
                surface="scroll",
            )

    def test_unknown_surface_named_with_the_known_ones(self):
        with pytest.raises(UnknownSurface, match=r"^no surface named 'nope'; known: "
                                                 r"bordiga, castelnuovo, cubic, delpezzo, "
                                                 r"det10, quadric, scroll$"):
            CurveFamily("p4-x", 3, 0, divisor=DivisorClass((1, 2)), surface="nope")

    @pytest.mark.parametrize(
        "make",
        [lambda a: cubic_surface_type("i", a), lambda a: cubic_surface_type("iv", a),
         lambda a: quadric_family(a, "i"), lambda a: quadric_family(a, "ii")],
    )
    @pytest.mark.parametrize("field,delta", [("d", 1), ("d", -1), ("g", 1), ("g", -1)])
    def test_carrier_with_wrong_dg_rejected(self, make, field, delta):
        # The (d, g) cross-check against the lattice runs for every
        # carrier built with a divisor class, cubic and quadric alike.
        good = make(5)
        fields = {"d": good.d, "g": good.g, field: getattr(good, field) + delta}
        with pytest.raises(ValueError, match="stored " + ("degree" if field == "d" else "genus")):
            CurveFamily(ambient=good.ambient, linsys_dim=good.linsys_dim,
                        divisor=good.divisor, surface=good.surface, label=good.label, **fields)

    def test_certified_carriers_skip_the_check_and_equal_checked_ones(self, monkeypatch):
        # The planner's cubic and quadric carriers come from constructors
        # whose (d, g) formulas are derived from the lattice at import, so
        # building them runs no lattice check; each equals the carrier the
        # checking constructor builds from the same fields.
        checks = []
        check = CurveFamily.__post_init__

        def counted(self):
            checks.append(self)
            check(self)

        monkeypatch.setattr(CurveFamily, "__post_init__", counted)
        catalog._carrier.cache_clear()
        chain = plan("cubic-surface", 10**6)
        assert len({id(step.carrier) for step in chain.steps}) > 100
        assert checks == []
        built = [cubic_surface_type(kind, a) for kind in ("i", "ii", "iii", "iv")
                 for a in [*range(1, 51), 10**6, 10**12]]
        built += [quadric_family(a, case) for case in ("i", "ii")
                  for a in [*range(1, 51), 10**6, 10**12]]
        built.append(quadric_ruling_line())
        assert checks == []
        for family in built:
            fields = {name: getattr(family, name) for name in family._fields}
            fields["divisor"] = DivisorClass(family.divisor.coeffs)
            checked = CurveFamily(**fields)
            assert type(family) is CurveFamily and type(family.divisor) is DivisorClass
            assert all(type(c) is int for c in family.divisor.coeffs)
            assert family == checked and hash(family) == hash(checked)
            assert repr(family) == repr(checked)
        assert len(checks) == len(built)

    def test_carrier_caches_are_bounded(self):
        # The one carrier cache keeps at most its maxsize of the 3 * 1199
        # carriers built: the last ones stay, the first are rebuilt equal.
        catalog._carrier.cache_clear()
        makers = (lambda a: cubic_surface_type("iii", a), lambda a: quadric_family(a, "ii"),
                  plane_curve_family)
        first = [make(1) for make in makers]
        for a in range(1, 1200):
            for make in makers:
                make(a)
        info = catalog._carrier.cache_info()
        assert info.maxsize == catalog._CARRIERS_KEPT < 3 * 1199
        assert info.currsize <= info.maxsize and info.misses == 3 * 1199
        for make, early in zip(makers, first):
            assert make(1199) is make(1199)
            assert make(1) is not early and make(1) == early
        assert catalog._carrier.cache_info().currsize <= catalog._CARRIERS_KEPT
        assert cubic_surface_type("iii", 1).dg == (3, 0)

    def test_long_reads_leave_the_cache_to_small_chains(self):
        # Reading the 1,631 steps of cubic 10^6 (a key each) twice misses
        # the shared cache no more than once per distinct key, and a small
        # chain read before keeps its carriers there.  A long read shares a
        # carrier among the moves of one key, as the shared cache would.
        catalog._carrier.cache_clear()
        small = tuple(plan("cubic-surface", 54).steps)
        chain = plan("cubic-surface", 10**6)
        assert len(chain.steps) > catalog._CARRIERS_KEPT
        misses = catalog._carrier.cache_info().misses
        assert tuple(chain.steps) == tuple(chain.steps)
        assert catalog._carrier.cache_info().misses - misses <= len(set(chain.steps._key))
        misses = catalog._carrier.cache_info().misses
        again = tuple(plan("cubic-surface", 54).steps)
        assert catalog._carrier.cache_info().misses == misses
        assert all(a.carrier is b.carrier for a, b in zip(small, again))
        steps = plan("cubic-surface", 99999989).steps
        moves = tuple(steps)
        assert len(moves) > len(set(steps._key)) == len({id(m.carrier) for m in moves})

    @pytest.mark.parametrize("make, value", [
        (lambda v: cubic_surface_type("ii", v), 2.5),
        (lambda v: cubic_surface_type("i", v), True),
        (lambda v: quadric_family(v, "i"), 2.0),
        (lambda v: quadric_family(v, "ii"), "2"),
        (plane_curve_family, 2.5),
        (plane_curve_family, True),
        (plane_curve_family, None),
        # The kind and the case must be strings.
        (lambda v: cubic_surface_type(v, 1), 3),
        (lambda v: cubic_surface_type(v, 1), None),
        (lambda v: cubic_surface_type(v, 1), b"i"),
        (lambda v: quadric_family(2, v), None),
        (lambda v: quadric_family(2, v), 1),
    ])
    def test_carrier_parameters_must_be_int(self, make, value):
        with pytest.raises(TypeError,
                           match=rf"^(a|d|kind|case) must be (int|str), got {type(value).__name__}$"):
            make(value)

    def test_carrier_caches_are_typed(self):
        # Equal keys of another type (3.0 == 3, True == 1) must not find
        # the cached int entry.
        assert plane_curve_family(3).d == 3
        assert cubic_surface_type("iii", 1).d == 3
        assert quadric_family(3, "i").d == 6
        with pytest.raises(TypeError, match=r"^d must be int, got float$"):
            plane_curve_family(3.0)
        with pytest.raises(TypeError, match=r"^a must be int, got bool$"):
            cubic_surface_type("iii", True)
        with pytest.raises(TypeError, match=r"^a must be int, got float$"):
            quadric_family(3.0, "i")

    def test_cached_key_does_not_admit_a_bool(self):
        # The cache hashes True as 1, so 4 * True + 0 would find type i
        # at a = 1; the argument check runs before the cache is asked.
        carrier = catalog._carrier("cubic-surface", 4)
        assert cubic_surface_type("i", 1) is carrier
        with pytest.raises(TypeError, match=r"^a must be int, got bool$"):
            cubic_surface_type("i", True)

    def test_int_subclasses_are_refused_before_the_memo(self):
        # An int subclass is no int to the records, so the argument
        # checks refuse it too, before it could reach the carrier cache
        # under key 7 or be walked through a whole plan.
        class Count(int):
            pass

        with pytest.raises(TypeError, match=r"^d must be int, got Count$"):
            plane_curve_family(Count(7))
        carrier = plane_curve_family(7)
        assert type(carrier.d) is int and copy.copy(carrier) == carrier
        with pytest.raises(TypeError, match=r"^point count must be int, got Count$"):
            plan("p2", Count(5))
        for make in (lambda: cubic_surface_type("ii", Count(2)),
                     lambda: quadric_family(Count(2), "i")):
            with pytest.raises(TypeError, match=r"^a must be int, got Count$"):
                make()

    @pytest.mark.parametrize("space", ["p2", "quadric", "cubic-surface", "p3"])
    def test_one_carrier_per_key(self, space):
        # The public constructor's carrier is the one catalog._carrier
        # builds for the key, while the key stays cached.
        if space == "p3":
            made = [(row.d, lambda row=row: p3_acm_family(row.d, row.g))
                    for row in perrin_table()]
        else:
            made = []
            for level in [*range(1, 301), 10**6, 10**12]:
                if space == "p2":
                    made.append((level, lambda v=level: plane_curve_family(v)))
                elif space == "quadric":
                    made += [(2 * level, lambda v=level: quadric_family(v, "i")),
                             (2 * level + 1, lambda v=level: quadric_family(v, "ii"))]
                else:
                    made += [(4 * level + code, lambda v=level, k=kind: cubic_surface_type(k, v))
                             for code, kind in enumerate(("i", "ii", "iii", "iv"))]
        assert len(made) == {"p2": 302, "quadric": 604, "cubic-surface": 1208, "p3": 10}[space]
        for key, make in made:
            carrier = catalog._carrier(space, key)
            family = make()
            fresh = catalog._carrier.__wrapped__(space, key)
            assert family is carrier and family is catalog._carrier(space, key)
            assert family is not fresh and family == fresh and repr(family) == repr(fresh)
        if space == "quadric":
            line = quadric_ruling_line()
            assert line is quadric_ruling_line() is catalog._carrier("quadric", 1)
            assert line.divisor == DivisorClass((1, 0)) and line.label == "ruling line"
