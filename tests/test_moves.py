import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci.catalog import (
    _KEYS,
    CurveFamily,
    cubic_surface_type,
    key_of,
    p3_acm_family,
    plane_curve_family,
    quadric_family,
    surface,
    surface_names,
)
from glicci.errors import DegreeTooLarge, InvalidMove
from glicci.hvector import min_genus
from glicci.moves import (
    _RULES,
    BILIAISON,
    LIAISON,
    Chain,
    LinkMove,
    biliaison_curve,
    decompose_biliaison,
    liaison_target,
    liaison_total,
    validate_chain,
)
from glicci.picard import DivisorClass
from glicci.planner import SPACES, build_oracle, plan

carriers = st.builds(
    cubic_surface_type,
    st.sampled_from(["i", "ii", "iii", "iv"]),
    st.integers(1, 8),
)


class TestLiaisonTarget:
    @pytest.mark.parametrize(
        "n,m,kind,a,expected",
        [
            (1, 1, "i", 2, 3),      # H-K on (4,1)
            (12, 5, "iii", 3, 17),  # 5H-K on (9,9)
        ],
    )
    def test_values_on_cubic(self, n, m, kind, a, expected):
        assert liaison_target(n, m, cubic_surface_type(kind, a)) == expected

    def test_value_on_p3_table(self):
        assert liaison_target(11, 5, p3_acm_family(10, 11)) == 19

    @given(st.integers(-50, 200), st.integers(1, 9), carriers)
    def test_involution(self, n, m, carrier):
        assert liaison_target(liaison_target(n, m, carrier), m, carrier) == n

    @given(st.integers(1, 9), carriers)
    def test_total_matches_lattice(self, m, carrier):
        # Degree of m*H - K on the carrier two ways: the (d, g) formula
        # and adjunction in the Picard lattice of the cubic surface.
        model = surface("cubic")
        cls = carrier.divisor
        lattice_deg = m * model.degree_of(cls) - (
            model.pair(cls, cls) + model.pair(cls, model.K)
        )
        assert liaison_total(m, carrier) == lattice_deg


def _dims(carrier):
    """A carrier's (d, g, linsys_dim), the ints a step rule reads."""
    return carrier.d, carrier.g, carrier.linsys_dim


class TestValidators:
    # A step rule returns None for an admissible move and otherwise the
    # text of the first relation the move breaks.
    def test_cubic_window(self):
        rule = _RULES["cubic-surface"][LIAISON]
        i = cubic_surface_type("i", 4)
        assert rule("cubic-surface", 18, 20, *_dims(i), 6, "", i) is None
        iv = cubic_surface_type("iv", 2)  # (6, 4), window [4, 9]
        assert rule("cubic-surface", 4, 8, *_dims(iv), 3, "", iv) is None
        assert rule("cubic-surface", 3, 9, *_dims(iv), 3, "", iv) == (
            "3 <-> 9 breaks the window [4, 9] on (6,4)")
        # 3 + 11 is no twist's total on (6,4), so the total breaks first.
        assert rule("cubic-surface", 3, 11, *_dims(iv), 3, "", iv) == (
            "3 + 11 != deg(3H-K on (6,4)) = 12")

    def test_p3_directional(self):
        rule = _RULES["p3"][BILIAISON]
        nine, ten = p3_acm_family(9, 9), p3_acm_family(10, 11)
        assert rule("p3", 18, 9, *_dims(nine), 1, "", nine) is None
        assert rule("p3", 20, 10, *_dims(ten), 1, "", ten) == (
            "20 -> 10 on (10,11) fails the containment/effectiveness bounds")

    def test_p3_off_table_carrier(self):
        # The rules read the table's rows only: a carrier off the table
        # is refused where the chain is built, by either kind of move.
        off = CurveFamily(ambient="p3", d=10, g=6)
        for kind, n_to, param in ((BILIAISON, 2, {"h": 1}), (LIAISON, 8, {"m": 3})):
            with pytest.raises(InvalidMove, match=r"^carrier \(10,6\) missing from the table$"):
                Chain("p3", 12, (LinkMove(kind, 12, n_to, off, **param),))

    def test_p3_undirected(self):
        oracle = build_oracle("p3", 40)
        assert oracle.has_edge(12, 17)
        # 19 -> 31 would be admissible one way only; the oracle needs a
        # liaison both ways, and 31 points cannot sit on the curve.
        rule = _RULES["p3"][LIAISON]
        ten_eleven = p3_acm_family(10, 11)
        assert rule("p3", 19, 31, *_dims(ten_eleven), 7, "", ten_eleven) is None
        assert rule("p3", 31, 19, *_dims(ten_eleven), 7, "", ten_eleven) == (
            "31 -> 19 on (10,11) fails the containment/effectiveness bounds")
        assert not oracle.has_edge(19, 31)


class TestBiliaisonCurve:
    @pytest.mark.parametrize(
        "dg,h,s,pi,expected",
        [
            ((10, 6), 1, 10, 11, (20, 26)),
            ((5, 0), 1, 6, 3, (11, 7)),
            ((7, 4), 0, 9, 5, (7, 4)),
        ],
    )
    def test_values(self, dg, h, s, pi, expected):
        assert biliaison_curve(dg, h, s, pi) == expected

    def test_negative_height_rejected(self):
        with pytest.raises(InvalidMove):
            biliaison_curve((5, 0), -1, 3, 0)

    @given(
        st.tuples(st.integers(1, 40), st.integers(0, 40)),
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(1, 12),
        st.integers(0, 12),
    )
    def test_heights_compose(self, dg, h1, h2, s, pi):
        step = biliaison_curve(biliaison_curve(dg, h1, s, pi), h2, s, pi)
        assert step == biliaison_curve(dg, h1 + h2, s, pi)

    @given(st.data())
    def test_agrees_with_lattice(self, data):
        # (deg, genus) of C + h*H computed on the surface equals the
        # biliaison formula applied to (deg, genus) of C.
        name = data.draw(st.sampled_from(surface_names()))
        model = surface(name)
        coeffs = data.draw(
            st.tuples(*[st.integers(-6, 6) for _ in range(model.basis_rank)])
        )
        c = DivisorClass(coeffs)
        h = data.draw(st.integers(0, 3))
        raised = c + h * model.H
        assert biliaison_curve(
            (model.degree_of(c), model.genus_of(c)),
            h,
            model.degree,
            model.sectional_genus,
        ) == (model.degree_of(raised), model.genus_of(raised))


# Each int argument of the public count and (d, g) helpers, with a call
# that puts a given value in its place.
_INT_ARGUMENTS = [
    pytest.param("d", lambda v: biliaison_curve((v, 6), 1, 10, 11), id="biliaison_curve-d"),
    pytest.param("g", lambda v: biliaison_curve((10, v), 1, 10, 11), id="biliaison_curve-g"),
    pytest.param("h", lambda v: biliaison_curve((10, 6), v, 10, 11), id="biliaison_curve-h"),
    pytest.param("s", lambda v: biliaison_curve((10, 6), 1, v, 11), id="biliaison_curve-s"),
    pytest.param("sectional_genus", lambda v: biliaison_curve((10, 6), 1, 10, v),
                 id="biliaison_curve-sectional_genus"),
    pytest.param("n", lambda v: liaison_target(v, 1, plane_curve_family(3)),
                 id="liaison_target-n"),
    pytest.param("m", lambda v: liaison_target(2, v, plane_curve_family(3)),
                 id="liaison_target-m"),
    pytest.param("m", lambda v: liaison_total(v, plane_curve_family(3)), id="liaison_total-m"),
]


@pytest.mark.parametrize("name,call", _INT_ARGUMENTS)
@pytest.mark.parametrize("value", [True, 2.0, "2"])
def test_count_helpers_take_only_ints(name, call, value):
    with pytest.raises(TypeError, match=rf"^{name} must be int, got {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: biliaison_curve(5, 1, 3, 0), "dg must be a (d, g) tuple, got 5",
                 id="biliaison_curve-int"),
    pytest.param(lambda: biliaison_curve((1, 2, 3), 1, 3, 0),
                 "dg must be a (d, g) tuple, got (1, 2, 3)", id="biliaison_curve-triple"),
    pytest.param(lambda: biliaison_curve([10, 6], 1, 3, 0),
                 "dg must be a (d, g) tuple, got [10, 6]", id="biliaison_curve-list"),
    pytest.param(lambda: liaison_total(1, "x"), "carrier must be CurveFamily, got str",
                 id="liaison_total-str"),
    pytest.param(lambda: liaison_target(3, 1, None), "carrier must be CurveFamily, got NoneType",
                 id="liaison_target-None"),
])
def test_pair_and_carrier_arguments_are_checked(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


class TestDecompose:
    def test_twenty_twentysix_unique_source(self):
        def p4_min(d):
            return min_genus(d, 3, nondegenerate=False)[0]

        def p3_min(d):
            return min_genus(d, 2, nondegenerate=False)[0]

        assert decompose_biliaison(20, 26, p4_min, p3_min) == [((10, 6), (10, 11))]

    def test_eleven_seven_unique_source(self):
        def l1_min(d):
            return {4: 0, 5: 0, 6: 1, 7: 2}.get(d)

        def p3_min(d):
            return min_genus(d, 2, nondegenerate=False)[0]

        assert decompose_biliaison(11, 7, l1_min, p3_min) == [((5, 0), (6, 3))]

    def test_four_zero_has_no_nondegenerate_source(self):
        # With minima restricted to nondegenerate curves no split of a
        # (4,0) curve survives (each would need a source of degree < 4).
        def p4_min(d):
            return min_genus(d, 3, nondegenerate=True)[0] if d >= 4 else None

        def p3_min(d):
            return min_genus(d, 2, nondegenerate=True)[0] if d >= 3 else None

        assert decompose_biliaison(4, 0, p4_min, p3_min) == []

    def test_four_zero_degenerate_route_exists(self):
        # Allowing degenerate sources recovers the line + twisted cubic
        # split that the descent catalog exhibits on the scroll.
        def p4_min(d):
            return min_genus(d, 3, nondegenerate=False)[0]

        def p3_min(d):
            return min_genus(d, 2, nondegenerate=False)[0]

        assert ((1, 0), (3, 0)) in decompose_biliaison(4, 0, p4_min, p3_min)


class TestChains:
    def _chain(self):
        fam = cubic_surface_type("ii", 2)  # (5, 2)
        steps = (
            LinkMove(LIAISON, 2, 6, fam, m=2),
            LinkMove(LIAISON, 6, 2, fam, m=2),
        )
        return Chain("cubic-surface", 2, steps)

    def test_sequence_and_terminal(self):
        chain = self._chain()
        assert chain.point_sequence() == [2, 6, 2]
        assert chain.terminal == 2
        validate_chain(chain)

    def test_broken_linkage_rejected(self):
        # The columns hold one count per step, so a chain is linked when
        # it is built.
        fam = cubic_surface_type("ii", 2)
        moves = (LinkMove(LIAISON, 2, 6, fam, m=2), LinkMove(LIAISON, 5, 3, fam, m=2))
        with pytest.raises(InvalidMove, match=r"^step starts at 5 but the chain sits at 6$"):
            Chain("cubic-surface", 2, moves)

    def test_bad_window_rejected(self):
        fam = cubic_surface_type("iv", 2)  # (6, 4), window [4, 9]
        chain = Chain("cubic-surface", 3, (LinkMove(LIAISON, 3, 11, fam, m=3),))
        with pytest.raises(InvalidMove):
            validate_chain(chain)

    def test_wrong_degree_equation_rejected(self):
        fam = cubic_surface_type("ii", 2)
        chain = Chain("cubic-surface", 5, (LinkMove(LIAISON, 5, 4, fam, m=2),))
        with pytest.raises(InvalidMove):
            validate_chain(chain)

    def test_biliaison_on_cubic_rejected(self):
        fam = cubic_surface_type("ii", 2)
        chain = Chain("cubic-surface", 7, (LinkMove(BILIAISON, 7, 2, fam, h=1),))
        with pytest.raises(InvalidMove):
            validate_chain(chain)

    def test_height_zero_needs_note(self):
        fam = quadric_family(1, "ii")
        bad = Chain("quadric", 2, (LinkMove(BILIAISON, 2, 2, fam, h=0),))
        with pytest.raises(InvalidMove):
            validate_chain(bad)
        good = Chain(
            "quadric", 2, (LinkMove(BILIAISON, 2, 2, fam, h=0, note="slide"),)
        )
        validate_chain(good)

    @pytest.mark.parametrize("space, start, fam, h", [
        ("p2", 2, plane_curve_family(1), -48),  # 50 points "on" a line
        ("quadric", 3, quadric_family(1, "i"), -500),  # 1003 on the conic
        ("quadric", 2, quadric_family(1, "ii"), -1),
    ])
    def test_negative_height_rejected_in_the_plane_and_quadric(self, space, start, fam, h):
        move = LinkMove(BILIAISON, start, start - h * fam.d, fam, h=h, note="repositioned")
        with pytest.raises(InvalidMove, match=rf"^{space} chains use biliaisons of height >= 0"):
            validate_chain(Chain(space, start, (move,)))

    @pytest.mark.parametrize("space, kind, d, g, key, got", [
        ("p2", BILIAISON, 2, None, "g", "NoneType"),
        ("p2", BILIAISON, "2", 0, "d", "str"),
        ("quadric", BILIAISON, 2, None, "g", "NoneType"),
        ("cubic-surface", LIAISON, 4, None, "g", "NoneType"),
        ("cubic-surface", LIAISON, "4", 1, "d", "str"),
        ("p3", BILIAISON, "2", 0, "d", "str"),
    ])
    def test_ill_typed_carrier_degree_or_genus_rejected(self, space, kind, d, g, key, got):
        with pytest.raises(TypeError, match=rf"^field '{key}' must be int, got {got}$"):
            CurveFamily(space, d, g, 5)
        param = {"m": 1} if kind == LIAISON else {"h": 1}
        step = {"kind": kind, "from": 3, "to": 1, "carrier": {"ambient": space, "d": d, "g": g},
                **param}
        with pytest.raises(InvalidMove,
                           match=rf"^step 0 carrier: field '{key}' must be int, got {got}$"):
            Chain.from_dict({"space": space, "start": 3, "steps": [step]})

    def test_null_genus_from_json_rejected(self):
        data = plan("cubic-surface", 18).to_dict()
        data["steps"][1]["carrier"]["g"] = None
        with pytest.raises(InvalidMove,
                           match=r"^step 1 carrier: field 'g' must be int, got NoneType$"):
            Chain.from_dict(data)

    # Steps whose rule would pass whatever the type of the carrier's d or
    # g: the arithmetic agrees with 2.0 as with 2, and a height-0 step
    # never reads the genus.  Only the carrier's constructor can refuse
    # them.  Each move is (kind, from, to, carrier fields, parameter).
    @pytest.mark.parametrize("space, move, key, got", [
        ("p2", (BILIAISON, 3, 1, ("p2", 2.0, 0, 5), {"h": 1}), "d", "float"),
        ("quadric", (BILIAISON, 3, 3, ("p3-quadric", 3, None, 5), {"h": 0, "note": "slide"}),
         "g", "NoneType"),
        ("cubic-surface", (LIAISON, 2, 6, ("p3-cubic", 5, 2.0, 6), {"m": 2}), "g", "float"),
    ])
    def test_ill_typed_carrier_rejected_where_the_rule_passes(self, space, move, key, got):
        kind, n_from, n_to, carrier, param = move
        with pytest.raises(TypeError, match=rf"^field '{key}' must be int, got {got}$"):
            Chain(space, n_from, (LinkMove(kind, n_from, n_to, CurveFamily(*carrier), **param),))

    @pytest.mark.parametrize("record, key, value, kind, got", [
        ("carrier", "linsys_dim", 5.0, "int", "float"),
        ("carrier", "linsys_dim", "5", "int", "str"),
        ("carrier", "linsys_dim", [3], "int", "list"),
        ("carrier", "linsys_dim", True, "int", "bool"),
        ("carrier", "ambient", 7, "str", "int"),
        ("carrier", "label", None, "str", "NoneType"),
        ("carrier", "g", None, "int", "NoneType"),
        ("carrier", "divisor", (1, 1), "DivisorClass", "tuple"),
        ("carrier", "surface", 3, "str", "int"),
        ("step", "note", None, "str", "NoneType"),
        ("step", "kind", 3, "str", "int"),
        ("chain", "space", None, "str", "NoneType"),
        ("carrier", "d", 2.0, "int", "float"),
        ("step", "n_from", 3.0, "int", "float"),
        ("step", "n_to", "1", "int", "str"),
        ("step", "carrier", "x", "CurveFamily", "str"),
        ("step", "m", 1.0, "int", "float"),
        ("step", "h", True, "int", "bool"),
        ("chain", "start", 3.0, "int", "float"),
        ("chain", "steps", [], "tuple", "list"),
    ])
    def test_ill_typed_field_named_on_construction(self, record, key, value, kind, got):
        # Every field of the three checked records; a move names its
        # counts by their serialized keys.
        cls, fields = {
            "carrier": (CurveFamily, dict(ambient="p2", d=2, g=0, linsys_dim=5, label="conic")),
            "step": (LinkMove, dict(kind=BILIAISON, n_from=3, n_to=1,
                                    carrier=plane_curve_family(2), h=1)),
            "chain": (Chain, dict(space="p2", start=3, steps=())),
        }[record]
        cls(**fields)
        fields[key] = value
        name = {"n_from": "from", "n_to": "to"}.get(key, key)
        with pytest.raises(TypeError, match=rf"^field '{name}' must be {kind}, got {got}$"):
            cls(**fields)

    # One minimal chain per relation validate_chain checks, as (space,
    # start, step or None, the exact message).  A step is (kind, from,
    # to, carrier, parameter, note).
    @pytest.mark.parametrize("space, start, step, message", [
        ("p2", 0, None, "chains start at a positive count, got 0"),
        ("p2", 5, (BILIAISON, 4, 1, plane_curve_family(3), 1, ""),
         "step starts at 4 but the chain sits at 5"),
        ("p2", 3, (LIAISON, 3, 1, plane_curve_family(2), 1, ""),
         "p2 chains use no liaison moves"),
        ("p2", 2, (BILIAISON, 2, 3, plane_curve_family(1), -1, "repositioned"),
         "p2 chains use biliaisons of height >= 0, got -1"),
        ("p2", 9, (BILIAISON, 9, 7, plane_curve_family(3), 1, ""),
         "height-1 biliaison on (3,1) must drop 3 points"),
        ("quadric", 2, (BILIAISON, 2, 2, quadric_family(1, "ii"), 0, ""),
         "height-0 move needs an annotation"),
        ("p2", 3, (BILIAISON, 3, 0, plane_curve_family(3), 1, ""),
         "residual 0 below genus 1: divisor may not be effective"),
        ("p2", 5, (BILIAISON, 5, 2,
                   CurveFamily("p2", 3, 1, label="plane curve of degree 3"), 1, ""),
         "carrier (3,1) plane curve of degree 3 lacks its linear-system dimension"),
        ("p2", 12, (BILIAISON, 12, 9, plane_curve_family(3), 1, ""),
         "12 general points do not lie on (3,1) plane curve of degree 3 (system dimension 9)"),
        ("cubic-surface", 18, (LIAISON, 18, 21, cubic_surface_type("i", 4), 1, ""),
         "18 + 21 != deg(1H-K on (10,12)) = -12"),
        ("cubic-surface", 1, (LIAISON, 1, 5, cubic_surface_type("iv", 2), 2, ""),
         "1 <-> 5 breaks the window [4, 9] on (6,4)"),
        ("p3", 12, (BILIAISON, 12, 2, CurveFamily("p3", 10, 6), 1, ""),
         "carrier (10,6) missing from the table"),
        ("p3", 7, (BILIAISON, 7, 7, p3_acm_family(3, 0), 0, "repositioned"),
         "3-space chains use biliaisons of height >= 1"),
        ("p3", 20, (BILIAISON, 20, 10, p3_acm_family(10, 11), 1, ""),
         "20 -> 10 on (10,11) fails the containment/effectiveness bounds"),
    ])
    def test_every_rejection_message_is_pinned(self, space, start, step, message):
        steps = ()
        if step is not None:
            kind, n_from, n_to, carrier, param, note = step
            twist = {"m": param} if kind == LIAISON else {"h": param}
            steps = (LinkMove(kind, n_from, n_to, carrier, note=note, **twist),)
        with pytest.raises(InvalidMove, match=rf"^{re.escape(message)}$"):
            validate_chain(Chain(space, start, steps))

    def test_counts_beyond_the_columns_are_a_typed_error(self):
        # Counts and parameters live in 64-bit columns; one that does not
        # fit is refused by name, whether the chain is built in code or
        # read from JSON.
        big = 10**20
        line, conic = plane_curve_family(1), plane_curve_family(2)
        too_large = "a chain's counts and parameters must fit in 64 bits"
        for build, where in [
            (lambda: Chain("p2", big, (LinkMove(BILIAISON, big, big - 1, line, h=1),)), "step 0"),
            (lambda: Chain("p2", 3, (LinkMove(BILIAISON, 3, 1, conic, h=1),
                                     LinkMove(BILIAISON, 1, 1 - 2 * big, conic, h=big))),
             "step 1"),
        ]:
            with pytest.raises(DegreeTooLarge, match=rf"^{where}: {too_large}$"):
                build()
        data = plan("p2", 17).to_dict()
        data["steps"][1]["to"] = -big
        with pytest.raises(DegreeTooLarge, match=rf"^step 1: {too_large}$"):
            Chain.from_dict(data)
        with pytest.raises(DegreeTooLarge, match=rf"^{big} points: {too_large}$"):
            plan("p2", big)

    @pytest.mark.parametrize("with_steps", [False, True])
    def test_unknown_space_rejected_before_the_steps(self, with_steps):
        # The steps (from 2) do not even link to the start (3).
        steps = tuple(self._chain().steps) if with_steps else ()
        with pytest.raises(InvalidMove, match=r"^unknown space 'p5'$"):
            validate_chain(Chain("p5", 3, steps))

    def test_non_integer_counts_rejected(self):
        fam = plane_curve_family(2)
        validate_chain(Chain("p2", 3, (LinkMove(BILIAISON, 3, 1, fam, h=1),)))
        for build, message in [
            (lambda: Chain("p2", 3.0, ()), r"^field 'start' must be int, got float$"),
            (lambda: Chain("p2", True, ()), r"^field 'start' must be int, got bool$"),
            (lambda: LinkMove(BILIAISON, 3.0, 1, fam, h=1),
             r"^field 'from' must be int, got float$"),
            (lambda: LinkMove(BILIAISON, 1, 1.0, fam, h=0, note="x"),
             r"^field 'to' must be int, got float$"),
            (lambda: LinkMove(BILIAISON, 3, 1, fam, h=True), r"^field 'h' must be int, got bool$"),
            (lambda: LinkMove(BILIAISON, 3, 1, fam, m=1.0, h=1),
             r"^field 'm' must be int, got float$"),
            (lambda: LinkMove(LIAISON, 2, 6, cubic_surface_type("ii", 2), m=True),
             r"^field 'm' must be int, got bool$"),
        ]:
            with pytest.raises(TypeError, match=message):
                build()

    def test_step_that_is_not_a_move_rejected(self):
        with pytest.raises(InvalidMove, match=r"^step 0: expected a LinkMove, got NoneType$"):
            validate_chain(Chain("p2", 3, (None,)))
        good = LinkMove(BILIAISON, 3, 1, plane_curve_family(2), h=1)
        with pytest.raises(InvalidMove, match=r"^step 1: expected a LinkMove, got dict$"):
            validate_chain(Chain("p2", 3, (good, {"from": 1, "to": 1})))

    def test_later_steps_are_checked_within_a_run_of_one_kind(self):
        # The rule is looked up once per run of one kind; every step of
        # the run is still checked, and a failure names its step.
        first, second = plan("cubic-surface", 2).steps[:2]  # 2 -> 6 -> 7
        with pytest.raises(InvalidMove, match=r"^step 2: expected a LinkMove, got NoneType$"):
            validate_chain(Chain("cubic-surface", 2, (first, second, None)))
        linked_wrong = LinkMove(LIAISON, 6, 7, second.carrier, m=second.m + 1)
        with pytest.raises(InvalidMove, match=r"^6 \+ 7 != deg\(4H-K on \(7,5\)\) = 20$"):
            validate_chain(Chain("cubic-surface", 2, (first, linked_wrong)))
        # A kind the space lacks is refused where its run starts.
        bil = plan("p2", 9).steps[0]
        stray = LinkMove(LIAISON, bil.n_to, bil.n_to, bil.carrier, m=1)
        with pytest.raises(InvalidMove, match=r"^p2 chains use no liaison moves$"):
            validate_chain(Chain("p2", 9, (bil, stray)))

    def test_steps_that_are_not_a_tuple_rejected(self):
        with pytest.raises(TypeError, match=r"^field 'steps' must be tuple, got int$"):
            Chain("p2", 3, 5)

    # Each move is its space's kind and parameter.
    @pytest.mark.parametrize("space, move", [
        ("p2", (BILIAISON, {"h": 1})),
        ("quadric", (BILIAISON, {"h": 1})),
        ("cubic-surface", (LIAISON, {"m": 1})),
        ("p3", (BILIAISON, {"h": 1})),
    ])
    def test_carrier_that_is_not_a_family_rejected(self, space, move):
        kind, param = move
        with pytest.raises(TypeError, match=r"^field 'carrier' must be CurveFamily, got str$"):
            LinkMove(kind, 3, 1, "x", **param)
        step = {"kind": kind, "from": 3, "to": 1, "carrier": "x", **param}
        with pytest.raises(InvalidMove, match=r"^step 0: field 'carrier' must be dict, got str$"):
            Chain.from_dict({"space": space, "start": 3, "steps": [step]})

    def test_move_kind_fields_enforced(self):
        fam = cubic_surface_type("i", 2)
        with pytest.raises(InvalidMove):
            LinkMove(LIAISON, 1, 3, fam)
        with pytest.raises(InvalidMove):
            LinkMove(BILIAISON, 4, 0, fam)
        with pytest.raises(InvalidMove):
            LinkMove("twist", 1, 3, fam, m=1)
        # Each kind refuses the other's parameter.
        with pytest.raises(InvalidMove, match=r"^liaison move takes no height h$"):
            LinkMove(LIAISON, 1, 3, fam, m=1, h=0)
        with pytest.raises(InvalidMove, match=r"^biliaison move takes no twist m$"):
            LinkMove(BILIAISON, 4, 0, fam, m=0, h=1)

    def test_descriptor_grammar(self):
        fam = cubic_surface_type("i", 4)
        move = LinkMove(LIAISON, 18, 20, fam, m=6)
        assert move.descriptor() == "[6H-K on (10,12) type i]"
        unit = LinkMove(LIAISON, 1, 3, cubic_surface_type("i", 2), m=1)
        assert unit.descriptor() == "[H-K on (4,1) type i]"
        bil = LinkMove(BILIAISON, 7, 1, p3_acm_family(3, 0), h=2)
        assert bil.descriptor() == "[bil h=2 on (3,0)]"

    def test_json_round_trip(self):
        chain = plan("cubic-surface", 18)
        text = chain.to_json()
        back = Chain.from_json(text)
        validate_chain(back)
        assert back.to_dict() == chain.to_dict()
        assert back.point_sequence() == chain.point_sequence()
        # and the payload is honest JSON
        assert json.loads(text)["start"] == 18

    def test_tampered_json_rejected(self):
        data = plan("cubic-surface", 18).to_dict()
        data["terminal"] = 7
        with pytest.raises(InvalidMove):
            Chain.from_dict(data)
        # A target that breaks the linkage is refused on entry; one that
        # keeps it (the next step starts there) by validate_chain.
        data = plan("cubic-surface", 18).to_dict()
        data["steps"][0]["to"] = 21
        with pytest.raises(InvalidMove, match=r"^step starts at 20 but the chain sits at 21$"):
            Chain.from_dict(data)
        data["steps"][1]["from"] = 21
        chain = Chain.from_dict(data)
        with pytest.raises(InvalidMove):
            validate_chain(chain)

    @pytest.mark.parametrize("value, kind", [(True, "bool"), (1.0, "float"), ("1", "str")])
    def test_from_dict_terminal_must_be_int(self, value, kind):
        # The chain ends at 1, which true and 1.0 compare equal to.
        data = plan("cubic-surface", 18).to_dict()
        assert data["terminal"] == 1
        data["terminal"] = value
        with pytest.raises(InvalidMove, match=f"^chain: field 'terminal' must be int, got {kind}$"):
            Chain.from_dict(data)
        del data["terminal"]
        assert Chain.from_dict(data).to_dict() == plan("cubic-surface", 18).to_dict()

    def test_from_dict_names_missing_step_field(self):
        data = plan("cubic-surface", 18).to_dict()
        del data["steps"][2]["to"]
        with pytest.raises(InvalidMove, match=r"step 2: missing field 'to'"):
            Chain.from_dict(data)
        data = plan("cubic-surface", 18).to_dict()
        del data["steps"][0]["carrier"]["d"]
        with pytest.raises(InvalidMove, match=r"step 0 carrier: missing field 'd'"):
            Chain.from_dict(data)

    @pytest.mark.parametrize("space, n, index, key, value, message", [
        ("cubic-surface", 18, 2, "m", None, r"^step 2: liaison move needs its twist m$"),
        ("cubic-surface", 18, 2, "m", ..., r"^step 2: liaison move needs its twist m$"),
        ("p2", 17, 1, "h", None, r"^step 1: biliaison move needs its height h$"),
        ("p2", 17, 1, "h", ..., r"^step 1: biliaison move needs its height h$"),
        ("p3", 17, 1, "kind", "link", r"^step 1: unknown move kind 'link'$"),
        ("cubic-surface", 10, 0, "h", 3, r"^step 0: liaison move takes no height h$"),
        ("p2", 17, 1, "m", 2, r"^step 1: biliaison move takes no twist m$"),
    ])
    def test_from_dict_names_the_step_of_a_bad_move(self, space, n, index, key, value, message):
        # ``...`` deletes the field.  The JSON text is refused alike.
        data = plan(space, n).to_dict()
        if value is ...:
            del data["steps"][index][key]
        else:
            data["steps"][index][key] = value
        with pytest.raises(InvalidMove, match=message):
            Chain.from_dict(data)
        with pytest.raises(InvalidMove, match=message):
            Chain.from_json(json.dumps(data))

    @pytest.mark.parametrize(
        "path,value,message",
        [
            (("kind",), 3, r"step 1: field 'kind' must be str, got int"),
            (("from",), "18", r"step 1: field 'from' must be int, got str"),
            (("to",), True, r"step 1: field 'to' must be int, got bool"),
            (("m",), 1.5, r"step 1: field 'm' must be int, got float"),
            (("carrier",), [], r"step 1: field 'carrier' must be dict, got list"),
            (("carrier", "g"), "1", r"step 1 carrier: field 'g' must be int, got str"),
            (("carrier", "linsys_dim"), [3], r"step 1 carrier: field 'linsys_dim' must be int"),
            (("carrier", "label"), None, r"step 1 carrier: field 'label' must be str"),
        ],
    )
    def test_from_dict_names_ill_typed_step_field(self, path, value, message):
        data = plan("cubic-surface", 18).to_dict()
        target = data["steps"][1]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(InvalidMove, match=message):
            Chain.from_dict(data)

    @pytest.mark.parametrize("text", ["not json", '{"space": "p2",', "", b"\xff{}"])
    def test_from_json_names_text_that_is_not_json(self, text):
        with pytest.raises(ValueError) as decoded:
            json.loads(text)
        message = rf"^chain: not JSON: {re.escape(str(decoded.value))}$"
        with pytest.raises(InvalidMove, match=message):
            Chain.from_json(text)

    @pytest.mark.parametrize("text, what", [("[" * 100000, "array"),
                                            ('{"a":' * 100000, "object")])
    def test_from_json_names_nesting_too_deep_to_decode(self, text, what):
        message = (rf"^chain: not JSON: maximum recursion depth exceeded while decoding"
                   rf" a JSON {what} from a unicode string$")
        with pytest.raises(InvalidMove, match=message):
            Chain.from_json(text)

    def test_from_json_leaves_recursion_after_decoding_alone(self, monkeypatch):
        def recurse(data):
            raise RecursionError("in the program")

        monkeypatch.setattr(Chain, "from_dict", recurse)
        with pytest.raises(RecursionError, match="in the program"):
            Chain.from_json(plan("p2", 5).to_json())

    def test_from_dict_checks_the_envelope(self):
        assert issubclass(InvalidMove, ValueError)
        for data, message in [
            ([], r"chain: expected an object, got list"),
            ({"start": 2, "steps": []}, r"chain: missing field 'space'"),
            ({"space": "p2", "start": "2", "steps": []}, r"chain: field 'start' must be int"),
            ({"space": "p2", "start": 2, "steps": {}}, r"chain: field 'steps' must be list"),
            ({"space": "p2", "start": 2, "steps": [7]}, r"step 0: expected an object, got int"),
        ]:
            with pytest.raises(InvalidMove, match=message):
                Chain.from_dict(data)

    def test_from_dict_keeps_optional_defaults(self):
        # The liaisons of a cubic chain carry no height, and the catalog
        # fills in the carrier fields left out.
        data = plan("cubic-surface", 18).to_dict()
        for step in data["steps"]:
            step.pop("h")
            step.pop("note")
            step["carrier"].pop("label")
            step["carrier"].pop("linsys_dim")
        chain = Chain.from_dict(data)
        assert chain == plan("cubic-surface", 18)
        assert all(s.note == "" and s.carrier.label.startswith("type ") for s in chain.steps)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_every_planned_chain_round_trips(self, data):
        # In every space: the chain read back is the planned one, down to
        # its pickle bytes.
        for space in SPACES:
            chain = plan(space, data.draw(st.integers(1, 19 if space == "p3" else 10**6)))
            back = Chain.from_json(chain.to_json())
            validate_chain(back)
            assert back == chain and back.to_dict() == chain.to_dict()
            assert pickle.dumps(back) == pickle.dumps(chain)

# The keys below each cap: the plane degree, the quadric degree (1 the
# ruling line), 4a + kind with a >= 1 on the cubic surface, a table row's
# degree in 3-space.
_KEY_RANGES = {"p2": range(1, 400), "quadric": range(1, 400),
               "cubic-surface": range(4, 1600), "p3": range(1, 11)}


@pytest.mark.parametrize("space", SPACES)
def test_key_of_inverts_every_layout(space):
    dims = _KEYS[space].dims
    for key in _KEY_RANGES[space]:
        assert key_of(space, *dims(key)[:2]) == key


@pytest.mark.parametrize("space", SPACES)
def test_key_of_refuses_the_neighbours_of_a_carrier(space):
    # Every (d, g) one off a carrier's in degree or genus that is no
    # carrier itself; the carriers of keys past the cap have larger d.
    dims = _KEYS[space].dims
    known = {dims(key)[:2] for key in range(_KEY_RANGES[space].start,
                                            2 * _KEY_RANGES[space].stop)
             if space != "p3" or key <= 10}
    refused = 0
    for key in _KEY_RANGES[space]:
        d, g, _ = dims(key)
        for near in ((d - 1, g), (d + 1, g), (d, g - 1), (d, g + 1)):
            if near not in known:
                with pytest.raises(InvalidMove, match=rf"^carrier \({near[0]},{near[1]}\) "):
                    key_of(space, *near)
                with pytest.raises(InvalidMove, match=rf"^carrier \({near[0]},{near[1]}\) "):
                    Chain(space, 3, (LinkMove(BILIAISON, 3, 1, CurveFamily(
                        _KEYS[space].ambient, *near), h=1),))
                refused += 1
    assert refused >= len(_KEY_RANGES[space])


def _json_step(kind, n_from, n_to, param, carrier, note=""):
    return {"kind": kind, "from": n_from, "to": n_to, "m": param if kind == LIAISON else None,
            "h": None if kind == LIAISON else param, "carrier": carrier, "note": note}


# Carriers no space registers, each in a chain that its space's rule
# would admit if the carrier were believed, and the message refusing it.
_FORGERIES = [
    pytest.param("p2", 100, _json_step(BILIAISON, 100, 1, 99, {
        "ambient": "p2", "d": 1, "g": 0, "linsys_dim": 10**6, "label": "plane curve of degree 1"}),
        "^step 0: carrier field 'linsys_dim' is 1000000, not the catalog's 2$", id="p2-line"),
    pytest.param("cubic-surface", 4, _json_step(LIAISON, 4, 1, 1, {
        "ambient": "p3-cubic", "d": 5, "g": 1, "linsys_dim": 5, "label": "type ii"}),
        r"^carrier \(5,1\) is not a cubic-surface carrier$", id="cubic-5-1"),
    pytest.param("p2", 5, _json_step(BILIAISON, 5, 1, 2, {
        "ambient": "p3", "d": 2, "g": 0, "linsys_dim": 5, "label": "plane curve of degree 2"}),
        "^step 0: carrier field 'ambient' is 'p3', not the catalog's 'p2'$", id="p2-conic-in-p3"),
]


@pytest.mark.parametrize("space, start, step, message", _FORGERIES)
def test_forged_carriers_are_refused_on_entry(space, start, step, message):
    data = {"space": space, "start": start, "terminal": 1, "steps": [step]}
    with pytest.raises(InvalidMove, match=message):
        Chain.from_dict(data)
    raw = step["carrier"]
    carrier = CurveFamily(raw["ambient"], raw["d"], raw["g"], raw["linsys_dim"],
                          label=raw["label"])
    param = {"m": step["m"]} if step["kind"] == LIAISON else {"h": step["h"]}
    move = LinkMove(step["kind"], step["from"], step["to"], carrier, **param)
    with pytest.raises(InvalidMove):
        Chain(space, start, (move,))


@pytest.mark.parametrize("space, n", [("quadric", 12), ("cubic-surface", 18)])
def test_carrier_fields_in_code_must_be_the_catalogs(space, n):
    # A carrier built in code carries every field, its class and surface
    # too; each must be the catalog's.  JSON carries no class, and the
    # catalog supplies it.
    move = plan(space, n).steps[0]
    carrier = move.carrier
    classless = CurveFamily(carrier.ambient, carrier.d, carrier.g, carrier.linsys_dim,
                            label=carrier.label)
    with pytest.raises(InvalidMove, match=r"^step 0: carrier field 'divisor' is None, "):
        Chain(space, n, (LinkMove(move.kind, n, move.n_to, classless, move.m, move.h),))
    relabelled = CurveFamily(carrier.ambient, carrier.d, carrier.g, carrier.linsys_dim,
                             carrier.divisor, carrier.surface, "x")
    with pytest.raises(InvalidMove, match=r"^step 0: carrier field 'label' is 'x', "):
        Chain(space, n, (LinkMove(move.kind, n, move.n_to, relabelled, move.m, move.h),))
    genuine = CurveFamily(*(getattr(carrier, name) for name in CurveFamily._fields))
    assert Chain(space, n, (LinkMove(move.kind, n, move.n_to, genuine, move.m, move.h),)) == (
        Chain(space, n, (move,)))


def test_notes_outside_the_move_codes_round_trip():
    # The chain keeps the (kind, note) pairs the planner has no code for.
    twisted, conic = quadric_family(1, "ii"), quadric_family(1, "i")
    slide = LinkMove(BILIAISON, 2, 2, twisted, h=0, note="slide")
    chain = Chain("quadric", 2, (slide, LinkMove(BILIAISON, 2, 2, conic, h=0,
                                                 note="repositioned")))
    assert [(s.kind, s.note) for s in chain.steps] == [(BILIAISON, "slide"),
                                                       (BILIAISON, "repositioned")]
    assert Chain.from_json(chain.to_json()) == chain
    assert pickle.loads(pickle.dumps(chain)) == chain
    assert chain != Chain("quadric", 2, (slide, LinkMove(BILIAISON, 2, 2, conic, h=0,
                                                         note="slide")))
