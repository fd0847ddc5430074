import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import cubic_spiral_walk

from glicci.catalog import cubic_surface_type, plane_curve_family
from glicci.errors import (
    DegreeTooSmall,
    InvalidMove,
    OutOfGuaranteedRange,
    SearchBudgetExceeded,
)
from glicci.moves import BILIAISON, LIAISON, Chain, LinkMove, validate_chain
from glicci.planner import (
    P3_GUARANTEED_MAX,
    _cubic_level,
    _cubic_range_move,
    _plane_degree,
    _quadric_level,
    _walk,
    build_oracle,
    oracle_reachability,
    p3_descending_moves,
    plan,
    plan_cubic,
    plan_p2,
    plan_p3,
    plan_quadric,
)


class TestPlanP2:
    def test_single_point_is_empty(self):
        chain = plan_p2(1)
        assert chain.steps == ()
        assert chain.terminal == 1

    def test_two_points_on_a_line(self):
        chain = plan_p2(2)
        assert len(chain.steps) == 1
        step = chain.steps[0]
        assert (step.h, step.carrier.d, step.carrier.g) == (1, 1, 0)

    def test_seven_points_via_plane_cubic(self):
        chain = plan_p2(7)
        assert chain.point_sequence() == [7, 1]
        step = chain.steps[0]
        assert (step.h, step.carrier.d, step.carrier.g) == (2, 3, 1)

    def test_strictly_descending_heights(self):
        for n in range(1, 400):
            for step in plan_p2(n).steps:
                assert step.h >= 1
                assert step.n_to < step.n_from

    def test_rejects_nonpositive(self):
        with pytest.raises(DegreeTooSmall):
            plan_p2(0)


class TestPlanQuadric:
    def test_three_points_on_a_conic(self):
        chain = plan_quadric(3)
        assert chain.point_sequence() == [3, 1]
        assert (chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (2, 0)

    def test_five_points_via_twisted_cubic_then_two(self):
        chain = plan_quadric(5)
        assert chain.point_sequence() == [5, 2, 2, 1]
        first = chain.steps[0]
        assert (first.carrier.d, first.carrier.g) == (3, 0)
        slide = chain.steps[1]
        assert slide.h == 0 and slide.note
        last = chain.steps[2]
        assert last.carrier.label == "ruling line"

    def test_seven_points_case_i(self):
        chain = plan_quadric(7)
        assert chain.point_sequence() == [7, 3, 1]
        assert (chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (4, 1)

    def test_heights_positive_outside_the_slide(self):
        for n in range(1, 400):
            for step in plan_quadric(n).steps:
                if step.h == 0:
                    assert step.n_to == step.n_from and step.note
                else:
                    assert step.n_to < step.n_from


class TestPlanCubic:
    def test_chain_for_two(self):
        assert plan_cubic(2).point_sequence() == [2, 6, 7, 5, 3, 1]

    def test_chain_for_eighteen_with_carriers(self):
        chain = plan_cubic(18)
        assert chain.point_sequence() == [18, 20, 28, 22, 16, 13, 7, 5, 3, 1]
        got = [
            (step.m, step.carrier.d, step.carrier.g, step.carrier.label)
            for step in chain.steps
        ]
        assert got == [
            (6, 10, 12, "type i"),
            (7, 12, 19, "type iv"),
            (7, 12, 18, "type iii"),
            (6, 11, 15, "type ii"),
            (5, 9, 9, "type iii"),
            (4, 8, 7, "type ii"),
            (3, 6, 4, "type iv"),
            (2, 5, 2, "type ii"),
            (1, 4, 1, "type i"),
        ]

    def test_chain_for_fiftyfour_with_carriers(self):
        chain = plan_cubic(54)
        assert chain.point_sequence() == [
            54, 55, 53, 56, 52, 40, 35, 27, 23, 15, 12, 8, 6, 7, 5, 3, 1,
        ]
        got = [
            (step.m, step.carrier.d, step.carrier.g, step.carrier.label)
            for step in chain.steps
        ]
        assert got == [
            (11, 17, 40, "type ii"),   # range D spiral, even level
            (11, 18, 46, "type iv"),
            (11, 17, 40, "type ii"),
            (11, 18, 46, "type iv"),   # range E back into C
            (10, 17, 40, "type ii"),   # range C down a level
            (9, 15, 31, "type iv"),
            (8, 14, 26, "type ii"),
            (7, 12, 18, "type iii"),
            (6, 11, 15, "type ii"),
            (5, 9, 10, "type iv"),
            (4, 8, 7, "type ii"),
            (3, 6, 3, "type iii"),
            (3, 7, 5, "type i"),
            (3, 6, 4, "type iv"),
            (2, 5, 2, "type ii"),
            (1, 4, 1, "type i"),
        ]

    def test_chain_for_two_with_carriers(self):
        got = [
            (step.m, step.carrier.d, step.carrier.g)
            for step in plan_cubic(2).steps
        ]
        assert got == [(2, 5, 2), (3, 7, 5), (3, 6, 4), (2, 5, 2), (1, 4, 1)]

    def test_all_moves_are_liaisons(self):
        for n in (1, 5, 13, 29, 100, 321):
            for step in plan_cubic(n).steps:
                assert step.kind == LIAISON

    def test_determinism(self):
        assert plan_cubic(777).to_dict() == plan_cubic(777).to_dict()

    @pytest.mark.parametrize("a", [*range(4, 61), 1000, 1001, 4097, 8165, 8166])
    def test_closed_form_spiral_matches_the_walk(self, a):
        n0 = 3 * a * (a - 1) // 2
        visited, landing = cubic_spiral_walk(a)
        # The walk from the middle of range D covers D once and lands in E.
        assert sorted(n for n, _ in visited) == list(range(n0 + a + 2, n0 + 2 * a - 1))
        assert n0 + 2 * a - 1 <= landing <= n0 + 2 * a
        expected = dict(visited)
        for n in (n0 + 2 * a - 1, n0 + 2 * a):  # range E links back by type iv
            expected[n] = (2 * n0 + 3 * a - n, 2 * a - 1, "iv")
        got = {n: _cubic_range_move(n) for n in range(n0 + a + 2, n0 + 2 * a + 1)}
        assert got == {n: (*move, a) for n, move in expected.items()}

    @pytest.mark.parametrize("a", [*range(4, 41), 997])
    def test_ranges_tile_each_level(self, a):
        for n in range(3 * a * (a - 1) // 2, 3 * a * (a + 1) // 2):
            nxt, m, kind, level = _cubic_range_move(n)
            assert level == a
            step = LinkMove(LIAISON, n, nxt, cubic_surface_type(kind, a), m=m)
            validate_chain(Chain("cubic-surface", n, (step,)))

    def test_chain_length_bound(self):
        # Empirical bound recorded over the full guaranteed range: the
        # longest chain for n <= 10^4 has 239 moves (at n = 9842).
        assert len(plan_cubic(9842).steps) == 239


def _assert_levels(n):
    d = _plane_degree(n)
    assert (d - 1) * (d + 2) // 2 < n <= d * (d + 3) // 2
    a = _quadric_level(n)
    assert a * a + a <= n <= a * a + 3 * a + 1
    c = _cubic_level(n)
    assert 3 * c * (c - 1) // 2 <= n < 3 * c * (c + 1) // 2


class TestClosedFormLevels:
    @given(st.integers(min_value=1, max_value=10**18))
    def test_levels_satisfy_their_inequalities(self, n):
        _assert_levels(n)

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=-1, max_value=1))
    def test_levels_at_range_edges(self, k, delta):
        for edge in (k * (k + 3) // 2, k * k + k, 3 * k * (k - 1) // 2):
            if edge + delta >= 1:
                _assert_levels(edge + delta)


class TestPlanP3:
    def test_chain_for_eighteen(self):
        chain = plan_p3(18)
        assert chain.point_sequence() == [18, 9, 4, 1]
        assert [(s.carrier.d, s.carrier.g) for s in chain.steps] == [
            (9, 9), (5, 2), (3, 0),
        ]
        assert all(step.kind == BILIAISON for step in chain.steps)

    def test_seventeen_needs_one_liaison(self):
        chain = plan_p3(17)
        assert chain.point_sequence() == [17, 12, 6, 3, 1]
        kinds = [step.kind for step in chain.steps]
        assert kinds.count(LIAISON) == 1
        assert chain.steps[0].kind == LIAISON
        assert (chain.steps[0].m, chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (5, 9, 9)

    def test_nineteen_needs_one_liaison(self):
        chain = plan_p3(19)
        assert chain.point_sequence() == [19, 11, 5, 2, 1]
        assert chain.steps[0].kind == LIAISON
        assert chain.steps[0].carrier.d == 10

    def test_biliaisons_only_off_the_two_exceptions(self):
        for n in range(1, P3_GUARANTEED_MAX + 1):
            if n in (17, 19):
                continue
            assert all(step.kind == BILIAISON for step in plan_p3(n).steps)

    def test_open_case_raises(self):
        for n in (20, 21, 50):
            with pytest.raises(OutOfGuaranteedRange):
                plan_p3(n)

    def test_open_case_message_explains(self):
        with pytest.raises(OutOfGuaranteedRange) as info:
            plan_p3(20)
        text = str(info.value)
        assert "open" in text
        assert "(10,11)" in text


class TestDispatch:
    def test_plan_routes_by_space(self):
        assert plan("p2", 7).point_sequence() == [7, 1]
        assert plan("cubic-surface", 2).point_sequence() == [2, 6, 7, 5, 3, 1]

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            plan("p5", 3)

    @pytest.mark.parametrize("space, n", [("cubic-surface", 1.5), ("p3", 2.5), ("p2", True),
                                          ("quadric", "7"), ("p3", False)])
    def test_non_integer_count_is_a_type_error(self, space, n):
        with pytest.raises(TypeError, match=repr(n).replace(".", r"\.")):
            plan(space, n)

    def test_planners_reject_bool(self):
        for planner in (plan_p2, plan_quadric, plan_cubic, plan_p3):
            with pytest.raises(TypeError):
                planner(True)


class TestWalk:
    # 9 -> 5 -> 2 -> 5 comes back to 5; 10 -> 10 stays put.
    @pytest.mark.parametrize("n, repeat, hops", [(9, 5, 3), (10, 10, 1)])
    def test_cycle_raises_at_once(self, n, repeat, hops):
        line = plane_curve_family(1)
        cycle = {9: 5, 5: 2, 2: 5, 10: 10}
        calls = []

        def next_moves(cur):
            calls.append(cur)
            if len(calls) > 10:  # fail rather than hang if the guard is gone
                raise RuntimeError("the walk did not stop at the repeated count")
            return (LinkMove(BILIAISON, cur, cycle[cur], line, h=1),)

        with pytest.raises(InvalidMove, match=f"p2 walk from {n} returns to {repeat}"):
            _walk("p2", n, next_moves)
        assert len(calls) == hops


class TestOracle:
    def test_cubic_reachability_and_chain_confirmation(self):
        oracle = build_oracle("cubic-surface", 120)
        for n in range(1, 121):
            assert oracle.is_reachable(n)
            assert oracle.confirms(plan_cubic(n))

    def test_p2_and_quadric_reachability(self):
        for space, planner in (("p2", plan_p2), ("quadric", plan_quadric)):
            oracle = build_oracle(space, 120)
            for n in range(1, 121):
                assert oracle.is_reachable(n)
                assert oracle.confirms(planner(n))

    def test_p3_reachability(self):
        table = oracle_reachability("p3", P3_GUARANTEED_MAX)
        assert all(table.values())
        oracle = build_oracle("p3", P3_GUARANTEED_MAX)
        for n in range(1, P3_GUARANTEED_MAX + 1):
            assert oracle.confirms(plan_p3(n))

    def test_no_descending_move_from_twenty(self):
        assert p3_descending_moves(20) == []

    def test_nineteen_has_its_liaison(self):
        moves = p3_descending_moves(19)
        assert (LIAISON, 5, (10, 11), 11) in moves

    def test_descending_moves_match_plans(self):
        for n in range(2, 20):
            targets = {target for _, _, _, target in p3_descending_moves(n)}
            assert plan_p3(n).steps[0].n_to in targets

    def test_budget_guard(self):
        with pytest.raises(SearchBudgetExceeded):
            build_oracle("p2", 10_001)

    def test_unknown_space(self):
        with pytest.raises(ValueError):
            build_oracle("p5", 10)

    def test_unknown_space_checked_before_budget(self):
        with pytest.raises(ValueError, match="p5"):
            build_oracle("p5", 20_000)

    def test_non_integer_budget_is_a_type_error(self):
        with pytest.raises(TypeError):
            build_oracle("p2", 10.5)
