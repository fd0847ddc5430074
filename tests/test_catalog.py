import pytest

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
    skew_plane_union,
    small_degree_acm_pairs,
    small_degree_descents,
    surface,
    surface_names,
)
from glicci.errors import DegreeTooSmall, NotInTable, UnknownSurface
from glicci.hvector import min_genus, min_genus_formula
from glicci.moves import biliaison_curve
from glicci.picard import DivisorClass


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
        assert len(pairs) == 9
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

    def test_carrier_caches_are_bounded(self):
        for fn in (cubic_surface_type, quadric_family, plane_curve_family):
            assert fn.cache_info().maxsize == 1024
        for a in range(1, 1200):
            cubic_surface_type("iii", a)
        assert cubic_surface_type.cache_info().currsize == 1024
        assert cubic_surface_type("iii", 1).dg == (3, 0)

    @pytest.mark.parametrize("make, value", [
        (lambda v: cubic_surface_type("ii", v), 2.5),
        (lambda v: cubic_surface_type("i", v), True),
        (lambda v: quadric_family(v, "i"), 2.0),
        (lambda v: quadric_family(v, "ii"), "2"),
        (plane_curve_family, 2.5),
        (plane_curve_family, True),
        (plane_curve_family, None),
    ])
    def test_carrier_parameters_must_be_int(self, make, value):
        with pytest.raises(TypeError, match=repr(value).replace(".", r"\.")):
            make(value)

    def test_carrier_caches_are_typed(self):
        # Equal keys of another type (3.0 == 3, True == 1) must not find
        # the cached int entry.
        assert plane_curve_family(3).d == 3
        assert cubic_surface_type("iii", 1).d == 3
        assert quadric_family(3, "i").d == 6
        with pytest.raises(TypeError, match=r"3\.0"):
            plane_curve_family(3.0)
        with pytest.raises(TypeError, match="True"):
            cubic_surface_type("iii", True)
        with pytest.raises(TypeError, match=r"3\.0"):
            quadric_family(3.0, "i")

    def test_skew_union_records_degree_only(self):
        fam = skew_plane_union(5)
        assert fam.d == 5
        assert fam.g is None
        assert "degree 4" in fam.label and "line" in fam.label
        with pytest.raises(DegreeTooSmall):
            skew_plane_union(1)
