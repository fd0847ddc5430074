import pickle
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci.catalog import bordiga_ten_six, surface, surface_names
from glicci.errors import AbstractSurface, NonIntegralGenus, RankMismatch
from glicci.picard import DivisorClass, SurfaceModel

from oracles import dense_genus, dense_pair

BLOWUPS = ("scroll", "delpezzo", "castelnuovo", "bordiga", "cubic")


def classes_on(name):
    model = surface(name)
    return st.tuples(
        *[st.integers(-9, 9) for _ in range(model.basis_rank)]
    ).map(DivisorClass)


any_surface = st.sampled_from(surface_names())


class TestDivisorClass:
    def test_parse_expands_runs(self):
        assert DivisorClass.parse("5;2^2,1^3").coeffs == (5, 2, 2, 1, 1, 1)
        assert DivisorClass.parse("0;0^4,-1").coeffs == (0, 0, 0, 0, 0, -1)
        assert DivisorClass.parse("-3;-1^10").coeffs == (-3,) + (-1,) * 10

    def test_parse_bare_integer(self):
        assert DivisorClass.parse("7").coeffs == (7,)

    def test_compact_round_trip(self):
        for text in ("5;2^2,1^3", "7;2^9,0", "3;1^9,-1", "6;3"):
            cls = DivisorClass.parse(text)
            assert DivisorClass.parse(cls.compact()) == cls

    def test_parse_rejects_garbage(self):
        for bad in ("", ";1", "a;1", "1;", "1;x", "1;2^0"):
            with pytest.raises(ValueError):
                DivisorClass.parse(bad)

    def test_arithmetic_componentwise(self):
        a = DivisorClass((2, 1, 0))
        b = DivisorClass((1, -1, 3))
        assert (a + b).coeffs == (3, 0, 3)
        assert (a - b).coeffs == (1, 2, -3)
        assert (-1 * a).coeffs == (-2, -1, 0)
        assert (3 * a).coeffs == (6, 3, 0)
        assert (a * 3).coeffs == (6, 3, 0)

    def test_mixed_length_arithmetic_fails(self):
        with pytest.raises(RankMismatch):
            DivisorClass((1, 2)) + DivisorClass((1, 2, 3))

    def test_str_uses_runs(self):
        assert str(DivisorClass.parse("8;3^3,2^6,1")) == "(8;3^3,2^6,1)"

    @pytest.mark.parametrize("coeffs", [(1.5, 2), ("3", "4"), (1, 2.0), (None,)])
    def test_non_integer_coefficients_are_a_type_error(self, coeffs):
        with pytest.raises(TypeError):
            DivisorClass(coeffs)

    @pytest.mark.parametrize("coeffs, message", [
        ((True, 2), "coefficient 0 must be int, got bool"),
        ((3, False), "coefficient 1 must be int, got bool"),
        ((1, 2.0), "coefficient 1 must be int, got float"),
        (("3", 4), "coefficient 0 must be int, got str"),
        ((1, 2, None), "coefficient 2 must be int, got NoneType"),
    ])
    def test_a_bad_coefficient_is_named_by_position(self, coeffs, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            DivisorClass(coeffs)

    def test_parse_with_matching_rank(self):
        assert DivisorClass.parse("6;2^3,1^7", rank=11) == DivisorClass.parse("6;2^3,1^7")
        assert DivisorClass.parse("7", rank=1).coeffs == (7,)

    def test_parse_checks_rank_before_expanding_runs(self):
        # Expanding ten million coefficients would allocate some 80 MB;
        # the summed run lengths are checked first, so almost nothing is.
        tracemalloc.start()
        try:
            with pytest.raises(RankMismatch):
                DivisorClass.parse("4;1^10000000", rank=11)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with pytest.raises(RankMismatch):
            DivisorClass.parse("4;1^9", rank=11)
        with pytest.raises(RankMismatch):
            DivisorClass.parse("4", rank=2)


class TestPairing:
    def test_diagonal_form_on_blowups(self):
        # l.l = 1, e_i.e_i = -1, l.e_i = 0 in the standard basis.
        model = surface("bordiga")
        r = model.basis_rank - 1
        l = DivisorClass((1,) + (0,) * r)
        assert model.pair(l, l) == 1
        for i in range(1, r + 1):
            e = DivisorClass(tuple(-1 if j == i else 0 for j in range(r + 1)))
            assert model.pair(e, e) == -1
            assert model.pair(l, e) == 0

    def test_bordiga_first_class_has_degree_ten(self):
        model = surface("bordiga")
        assert model.degree_of(bordiga_ten_six()[0]) == 10

    def test_degree10_surface_products(self):
        model = surface("det10")
        assert model.pair(model.H, model.H) == 10
        assert model.pair(model.H, model.K) == 10
        assert model.pair(model.K, model.K) == 5

    def test_rank_mismatch(self):
        with pytest.raises(RankMismatch):
            surface("scroll").pair(DivisorClass((1, 2, 3)), DivisorClass((1, 2, 3)))

    @pytest.mark.parametrize("call", [
        lambda m, bad: m.pair(bad, m.H),
        lambda m, bad: m.pair(m.H, bad),
        lambda m, bad: m.pair(bad, bad),
        lambda m, bad: m.degree_of(bad),
        lambda m, bad: m.genus_of(bad),
    ])
    @pytest.mark.parametrize("bad", [(1, 2), (3,) + (1,) * 7])
    def test_rank_mismatch_names_the_class_length_and_the_model(self, call, bad):
        # A wrong length in either argument gives the same text.
        text = f"class of length {len(bad)} does not fit cubic (rank 7)"
        with pytest.raises(RankMismatch, match=f"^{re.escape(text)}$"):
            call(surface("cubic"), DivisorClass(bad))

    @given(st.data())
    def test_bilinear_and_symmetric(self, data):
        name = data.draw(any_surface)
        model = surface(name)
        c = data.draw(classes_on(name))
        d = data.draw(classes_on(name))
        e = data.draw(classes_on(name))
        assert model.pair(c, d) == model.pair(d, c)
        assert model.pair(c + d, e) == model.pair(c, e) + model.pair(d, e)
        assert model.pair(2 * c, d) == 2 * model.pair(c, d)


class TestDegreeGenus:
    @pytest.mark.parametrize(
        "name,text,degree",
        [
            ("scroll", "4;3", 5),
            ("delpezzo", "5;2^2,1^3", 8),
            ("bordiga", "6;2^3,1^7", 11),
        ],
    )
    def test_degrees(self, name, text, degree):
        model = surface(name)
        assert model.degree_of(DivisorClass.parse(text)) == degree

    @pytest.mark.parametrize(
        "name,text,genus",
        [
            ("scroll", "4;3", 0),
            ("delpezzo", "4;2,1^3,0", 2),
        ],
    )
    def test_genera(self, name, text, genus):
        model = surface(name)
        assert model.genus_of(DivisorClass.parse(text)) == genus

    def test_degree10_adjoint_class(self):
        # H + K on the degree-10 surface: 2g - 2 = 35 + 15 = 50.
        model = surface("det10")
        c = model.H + model.K
        assert model.pair(c, c) == 35
        assert model.pair(c, model.K) == 15
        assert (model.degree_of(c), model.genus_of(c)) == (20, 26)

    def test_non_integral_genus_detected(self):
        model = SurfaceModel(
            name="toy",
            gram=((1, 0), (0, 1)),
            H=DivisorClass((1, 0)),
            K=DivisorClass((-3, 0)),
            ambient_dim=3,
            degree=1,
            sectional_genus=0,
        )
        with pytest.raises(NonIntegralGenus):
            model.genus_of(DivisorClass((0, 1)))

    @given(st.data())
    def test_genus_always_integral_on_registered_surfaces(self, data):
        name = data.draw(any_surface)
        model = surface(name)
        c = data.draw(classes_on(name))
        model.genus_of(c)

    @given(st.data())
    def test_height_one_genus_law(self, data):
        # g(C + H) - g(C) = deg C + pi - 1 on every registered surface.
        name = data.draw(any_surface)
        model = surface(name)
        c = data.draw(classes_on(name))
        assert model.genus_of(c + model.H) - model.genus_of(c) == (
            model.degree_of(c) + model.sectional_genus - 1
        )


class TestAgClass:
    def test_bordiga_twist_three(self):
        model = surface("bordiga")
        ag = model.ag_class(3)
        assert ag == DivisorClass.parse("15;4^10")
        assert model.degree_of(ag) == 20

    def test_delpezzo_anticanonical_is_hyperplane(self):
        # K = -H on the Del Pezzo surface, so H - K = 2H of degree 8.
        model = surface("delpezzo")
        assert model.K == -1 * model.H
        ag = model.ag_class(1)
        assert ag == 2 * model.H
        assert model.degree_of(ag) == 8

    def test_twist_zero_is_minus_canonical(self):
        for name in surface_names():
            model = surface(name)
            assert model.ag_class(0) == -1 * model.K


class TestSubtractHyperplanes:
    @pytest.mark.parametrize(
        "name,text,h,expected",
        [
            ("scroll", "2;0", 1, "0;-1"),
            ("delpezzo", "6;2^4,1", 2, "0;0^4,-1"),
            ("bordiga", "7;2^9,0", 1, "3;1^9,-1"),
        ],
    )
    def test_known_descents(self, name, text, h, expected):
        model = surface(name)
        got = model.subtract_hyperplanes(DivisorClass.parse(text), h)
        assert got == DivisorClass.parse(expected)

    @given(st.data())
    def test_round_trip(self, data):
        name = data.draw(any_surface)
        model = surface(name)
        c = data.draw(classes_on(name))
        h = data.draw(st.integers(0, 4))
        assert model.subtract_hyperplanes(c, h) + h * model.H == c


class TestEffectiveness:
    def test_bordiga_verdicts(self):
        # D1, D2, D4 descend (and D3 splits off its line); D5, D6, D7,
        # D8 have negative virtual count.  The recorded verdicts only
        # speak about D1, D2, D4 and D5, D7, D8.
        model = surface("bordiga")
        classes = bordiga_ten_six()
        down = [model.subtract_hyperplanes(c) for c in classes]
        verdicts = [model.is_effective_general(c) for c in down]
        assert verdicts == [True, True, True, True, False, False, False, False]

    def test_expected_dimension_counts(self):
        model = surface("bordiga")
        assert model.expected_dimension(DivisorClass.parse("2;1^4,0^6")) == 1
        assert model.expected_dimension(DivisorClass.parse("4;2^3,1^6,0")) == -1

    def test_zero_class_effective(self):
        model = surface("scroll")
        assert model.is_effective_general(DivisorClass((0, 0)))

    def test_negative_plane_degree_not_effective(self):
        model = surface("scroll")
        assert not model.is_effective_general(DivisorClass((-1, 0)))

    def test_pure_exceptional_effective(self):
        model = surface("delpezzo")
        assert model.is_effective_general(DivisorClass.parse("0;0^3,-1^2"))
        assert not model.is_effective_general(DivisorClass.parse("0;0^4,1"))

    def test_abstract_surface_rejected(self):
        with pytest.raises(AbstractSurface):
            surface("det10").is_effective_general(DivisorClass((1, 0)))
        with pytest.raises(AbstractSurface):
            surface("quadric").is_effective_general(DivisorClass((1, 0)))

    def test_exceptional_split(self):
        model = surface("bordiga")
        core, excess = model.exceptional_split(DivisorClass.parse("3;1^9,-1"))
        assert core == DivisorClass.parse("3;1^9,0")
        assert excess == ((10, 1),)


class TestCanonicalForm:
    def test_sorts_descending(self):
        model = surface("bordiga")
        messy = DivisorClass.parse("9;2^4,3^6")
        assert model.canonical(messy) == DivisorClass.parse("9;3^6,2^4")

    def test_castelnuovo_distinguished_point_fixed(self):
        # Index 1 carries weight 2 in H and never moves under sorting.
        model = surface("castelnuovo")
        messy = DivisorClass.parse("5;1,1,1,2,2,2,2,1")
        assert model.canonical(messy) == DivisorClass.parse("5;1,2^4,1^3")

    def test_same_class(self):
        model = surface("delpezzo")
        assert model.canonical(DivisorClass.parse("3;0,1,0,1,1")) == model.canonical(
            DivisorClass.parse("3;1^3,0^2")
        )
        assert model.canonical(DivisorClass.parse("3;1^3,0^2")) != model.canonical(
            DivisorClass.parse("3;1^4,0")
        )

    def test_abstract_canonical_is_identity(self):
        model = surface("det10")
        c = DivisorClass((3, -2))
        assert model.canonical(c) == c


class TestSurfaceModelValidation:
    def test_degree_must_match_lattice(self):
        with pytest.raises(ValueError):
            SurfaceModel(
                name="bad",
                gram=((1, 0), (0, -1)),
                H=DivisorClass((2, 1)),
                K=DivisorClass((-3, -1)),
                ambient_dim=4,
                degree=4,
                sectional_genus=0,
            )

    def test_adjunction_must_hold(self):
        with pytest.raises(ValueError):
            SurfaceModel(
                name="bad",
                gram=((1, 0), (0, -1)),
                H=DivisorClass((2, 1)),
                K=DivisorClass((-3, -1)),
                ambient_dim=4,
                degree=3,
                sectional_genus=5,
            )

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError):
            SurfaceModel(
                name="bad",
                gram=((0, 1), (2, 0)),
                H=DivisorClass((1, 1)),
                K=DivisorClass((-2, -2)),
                ambient_dim=3,
                degree=3,
                sectional_genus=0,
            )

    @pytest.mark.parametrize("gram", [((1.0, 0), (0, -1)), (("1", 0), (0, -1))])
    def test_non_integer_gram_is_a_type_error(self, gram):
        with pytest.raises(TypeError):
            SurfaceModel(
                name="bad",
                gram=gram,
                H=DivisorClass((2, 1)),
                K=DivisorClass((-3, -1)),
                ambient_dim=4,
                degree=3,
                sectional_genus=0,
            )

    @pytest.mark.parametrize("gram, message", [
        (((True, 0), (0, -1)), "gram row 0 entry 0 must be int, got bool"),
        (((1, 0), (0, 1.0)), "gram row 1 entry 1 must be int, got float"),
        (((1, 0), (None, -1)), "gram row 1 entry 0 must be int, got NoneType"),
    ])
    def test_a_bad_gram_entry_is_named_by_position(self, gram, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            SurfaceModel(name="bad", gram=gram, H=DivisorClass((1, 0)),
                         K=DivisorClass((-3, -1)), ambient_dim=3, degree=1, sectional_genus=0)

    def test_registered_surfaces_satisfy_adjunction(self):
        for name in surface_names():
            model = surface(name)
            assert model.pair(model.H, model.H) == model.degree
            assert (
                model.pair(model.H, model.H) + model.pair(model.H, model.K)
                == 2 * model.sectional_genus - 2
            )

    def test_blowup_flags(self):
        for name in BLOWUPS:
            assert surface(name).is_blowup
        assert not surface("quadric").is_blowup
        assert not surface("det10").is_blowup

    def test_derived_fields_are_slots_set_on_construction(self):
        # A model has no instance __dict__, and a copy or an unpickled
        # model recomputes its entries and blow-up flag.
        for name in surface_names():
            model = surface(name)
            assert not hasattr(model, "__dict__")
            back = pickle.loads(pickle.dumps(model))
            assert back == model
            assert (back._entries, back.is_blowup) == (model._entries, model.is_blowup)
        with pytest.raises(AttributeError):
            surface("cubic").is_blowup = False


def _toy(name, gram, K):
    # Lattices on which c.c + c.K can be odd: H = (1, 0) has H.H = 1 and
    # H.K = -3 on both, so the model itself is consistent.
    return SurfaceModel(name=name, gram=gram, H=DivisorClass((1, 0)), K=DivisorClass(K),
                        ambient_dim=3, degree=1, sectional_genus=0)


ODD_TOYS = (
    _toy("toy-diagonal", ((1, 0), (0, 1)), (-3, 0)),
    _toy("toy-dense", ((1, 2), (2, 3)), (-3, 0)),
)


class TestDenseReference:
    """The sparse kernel against a dense c^T G d on every registered model
    (150 pairs of classes each, over a thousand in all) and on two
    lattices where adjunction can be odd."""

    @pytest.mark.parametrize("model", [surface(n) for n in surface_names()] + list(ODD_TOYS),
                             ids=lambda m: m.name)
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_dense_gram(self, model, data):
        coeffs = st.tuples(*[st.integers(-40, 40)] * model.basis_rank)
        c, d = data.draw(coeffs), data.draw(coeffs)
        C, D = DivisorClass(c), DivisorClass(d)
        gram = model.gram
        assert model.pair(C, D) == dense_pair(gram, c, d)
        assert model.degree_of(C) == dense_pair(gram, c, model.H.coeffs)
        assert model.self_intersection(C) == dense_pair(gram, c, c)
        genus = dense_genus(gram, c, model.K.coeffs)
        if genus is None:
            with pytest.raises(NonIntegralGenus):
                model.genus_of(C)
        else:
            assert model.genus_of(C) == genus

    @pytest.mark.parametrize("model", ODD_TOYS, ids=lambda m: m.name)
    def test_odd_parity_reached(self, model):
        c = DivisorClass((0, 1))
        assert dense_genus(model.gram, c.coeffs, model.K.coeffs) is None
        with pytest.raises(NonIntegralGenus):
            model.genus_of(c)

    def test_every_kernel_entry_point_checks_rank(self):
        model = surface("cubic")
        short = DivisorClass((3, 1, 1))
        for call in (lambda: model.pair(short, model.H), lambda: model.pair(model.H, short),
                     lambda: model.degree_of(short), lambda: model.genus_of(short),
                     lambda: model.self_intersection(short)):
            with pytest.raises(RankMismatch):
                call()
