import random
from array import array
from itertools import islice

import pytest
import windows
from hypothesis import given
from hypothesis import strategies as st
from oracles import cubic_range_move, cubic_spiral_walk

from glicci import catalog, planner
from glicci.catalog import (
    CurveFamily,
    cubic_surface_type,
    p3_acm_family,
    plane_curve_family,
    quadric_family,
    quadric_ruling_line,
)
from glicci.errors import (
    DegreeTooLarge,
    DegreeTooSmall,
    InvalidMove,
    OutOfGuaranteedRange,
    SearchBudgetExceeded,
)
from glicci.moves import (
    _BILIAISON_CODE,
    BILIAISON,
    LIAISON,
    Chain,
    LinkMove,
    validate_chain,
)
from glicci.picard import DivisorClass
from glicci.planner import (
    P3_GUARANTEED_MAX,
    SPACES,
    _cubic_level,
    _cubic_pieces,
    _plane_degree,
    _quadric_level,
    _walk,
    build_oracle,
    p3_descending_moves,
    plan,
)


def _packed(space, start, hops):
    """The chain of the (target, parameter, key, code) moves ``hops``, as
    the walk packs them, unvalidated."""
    columns = [array("q") for _ in range(4)]
    for move in hops:
        for column, value in zip(columns, move):
            column.append(value)
    return windows.run_chain(space, start, columns)


def _first_piece(start):
    """The steps of the first piece that _cubic_pieces yields from start."""
    return _walk("cubic-surface", start, lambda n: islice(_cubic_pieces(n), 1)).steps


def _spiral_run(start, lo, hi):
    """The steps of the first piece from start while the count stays in
    [lo, hi], up to and including the one that leaves it."""
    steps = _first_piece(start)
    columns = windows.columns(steps)
    end = next(i for i, n_to in enumerate(columns[0]) if not lo <= n_to <= hi) + 1
    return windows.run_chain("cubic-surface", start, [column[:end] for column in columns]).steps


class TestPlanP2:
    def test_single_point_is_empty(self):
        chain = plan("p2", 1)
        assert chain.steps == ()
        assert chain.terminal == 1

    def test_two_points_on_a_line(self):
        chain = plan("p2", 2)
        assert len(chain.steps) == 1
        step = chain.steps[0]
        assert (step.h, step.carrier.d, step.carrier.g) == (1, 1, 0)

    def test_seven_points_via_plane_cubic(self):
        chain = plan("p2", 7)
        assert chain.point_sequence() == [7, 1]
        step = chain.steps[0]
        assert (step.h, step.carrier.d, step.carrier.g) == (2, 3, 1)

    def test_strictly_descending_heights(self):
        for n in range(1, 400):
            for step in plan("p2", n).steps:
                assert step.h >= 1
                assert step.n_to < step.n_from

    def test_rejects_nonpositive(self):
        with pytest.raises(DegreeTooSmall):
            plan("p2", 0)


class TestPlanQuadric:
    def test_three_points_on_a_conic(self):
        chain = plan("quadric", 3)
        assert chain.point_sequence() == [3, 1]
        assert (chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (2, 0)

    def test_five_points_via_twisted_cubic_then_two(self):
        chain = plan("quadric", 5)
        assert chain.point_sequence() == [5, 2, 2, 1]
        first = chain.steps[0]
        assert (first.carrier.d, first.carrier.g) == (3, 0)
        slide = chain.steps[1]
        assert slide.h == 0 and slide.note
        last = chain.steps[2]
        assert last.carrier.label == "ruling line"

    def test_seven_points_case_i(self):
        chain = plan("quadric", 7)
        assert chain.point_sequence() == [7, 3, 1]
        assert (chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (4, 1)

    def test_heights_positive_outside_the_slide(self):
        for n in range(1, 400):
            for step in plan("quadric", n).steps:
                if step.h == 0:
                    assert step.n_to == step.n_from and step.note
                else:
                    assert step.n_to < step.n_from


class TestPlanCubic:
    def test_chain_for_two(self):
        assert plan("cubic-surface", 2).point_sequence() == [2, 6, 7, 5, 3, 1]

    def test_chain_for_eighteen_with_carriers(self):
        chain = plan("cubic-surface", 18)
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
        chain = plan("cubic-surface", 54)
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
            for step in plan("cubic-surface", 2).steps
        ]
        assert got == [(2, 5, 2), (3, 7, 5), (3, 6, 4), (2, 5, 2), (1, 4, 1)]

    def test_all_moves_are_liaisons(self):
        for n in (1, 5, 13, 29, 100, 321):
            for step in plan("cubic-surface", n).steps:
                assert step.kind == LIAISON

    def test_determinism(self):
        assert plan("cubic-surface", 777).to_dict() == plan("cubic-surface", 777).to_dict()

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
        got = {n: cubic_range_move(n) for n in range(n0 + a + 2, n0 + 2 * a + 1)}
        assert got == expected

    @pytest.mark.parametrize("a", [*range(4, 61), 1000, 1001, 4097, 8165, 8166])
    def test_spiral_run_is_the_one_step_moves_on_two_carriers(self, a):
        # From a count in ranges D and E, the first piece holds the moves
        # that one-step classification gives until the count leaves D and
        # E, on the level's two carriers, named by two keys.
        n0 = 3 * a * (a - 1) // 2
        lo, hi = n0 + a + 2, n0 + 2 * a
        one_step = {n: cubic_range_move(n) for n in range(lo, hi + 1)}
        carriers = {kind: cubic_surface_type(kind, a) for kind in ("ii", "iv")}
        starts = range(lo, hi + 1)
        if a > 1001:
            # A run from the middle holds about a moves; from every count
            # the runs hold about a^2 / 4, so sample these three levels:
            # both ends, where runs are short, and every 256th count.
            starts = sorted({*range(lo, lo + 32), *range(lo, hi + 1, 256), *range(hi - 31, hi + 1)})
        for start in starts:
            run = _spiral_run(start, lo, hi)
            expected, n = [], start
            while lo <= n <= hi:
                nxt, m, kind = one_step[n]
                expected.append((n, nxt, m, kind))
                n = nxt
            assert [(s.n_from, s.n_to, s.m, s.carrier.label[5:]) for s in run] == expected
            assert all(s.kind == LIAISON and s.carrier == carriers[s.carrier.label[5:]]
                       for s in run)
            assert len(set(windows.columns(run)[2])) == min(len(run), 2)

    def test_spiral_run_walks_the_whole_spiral(self):
        # At 99999989 the walk starts in range D of level 8165 and spirals
        # out in one run of 6466 moves on two carrier keys.
        a = 8165
        n0 = 3 * a * (a - 1) // 2
        run = _spiral_run(99999989, n0 + a + 2, n0 + 2 * a)
        assert len(run) == 6466
        steps = plan("cubic-surface", 99999989).steps
        assert len(set(windows.columns(steps, 0, 6466)[2])) == 2
        assert steps[:6466] == tuple(run)

    @pytest.mark.parametrize("a", [*range(4, 41), 997])
    def test_ranges_tile_each_level(self, a):
        for n in range(3 * a * (a - 1) // 2, 3 * a * (a + 1) // 2):
            assert _cubic_level(n) == a
            nxt, m, kind = cubic_range_move(n)
            step = LinkMove(LIAISON, n, nxt, cubic_surface_type(kind, a), m=m)
            validate_chain(Chain("cubic-surface", n, (step,)))

    @pytest.mark.parametrize("a", [*range(3, 61), 997, 1000, 1001, 4097, 8165, 8166])
    def test_first_hop_is_the_reference_move(self, a):
        # From any count the first move of the first piece is the one the
        # range-by-range reference gives, on the level's carrier of that
        # kind.
        n0, top = 3 * a * (a - 1) // 2, 3 * a * (a + 1) // 2
        counts = range(n0, top)
        if a > 1001:
            counts = sorted({*range(n0, n0 + 32), *range(n0, top, 256), *range(top - 32, top)})
        for n in counts:
            nxt, m, kind = cubic_range_move(n)
            _, _, first, _ = next(_cubic_pieces(n))
            move = _packed("cubic-surface", n, first[:1]).steps[0]
            assert (move.kind, move.n_from, move.n_to, move.m, move.h, move.note) == (
                LIAISON, n, nxt, m, None, "")
            assert move.carrier == cubic_surface_type(kind, a)

    def test_levels_share_their_carriers(self):
        # A level's steps of one kind name one carrier: 5,737 carrier keys
        # serve the 6,476 steps.
        steps = plan("cubic-surface", 12345678).steps
        assert len(steps) == 6476
        assert len(set(windows.columns(steps)[2])) == 5737

    def test_chain_length_bound(self):
        # Empirical bound recorded over the full guaranteed range: the
        # longest chain for n <= 10^4 has 239 moves (at n = 9842).
        assert len(plan("cubic-surface", 9842).steps) == 239

    @pytest.mark.parametrize("ns", [
        range(1, 3001),
        [int(10 ** random.Random(f"levels {i}").uniform(3.5, 10)) for i in range(30)],
    ], ids=["all-to-3000", "seeded-to-1e10"])
    def test_every_level_entered_is_the_closed_form_level(self, ns):
        # Each piece finds its level by one square root and the levels it
        # passes through by its closed form; either way the level of every
        # move off the literal ones at 2, 3, 5 and 6 (its key // 4) is n's.
        for n in ns:
            steps = plan("cubic-surface", n).steps
            to, _, keys, _ = windows.columns(steps)
            for n_from, key in zip([n, *to], keys):
                if n_from not in (2, 3, 5, 6):
                    assert key >> 2 == _cubic_level(n_from), (n, n_from, key)

    def test_each_piece_finds_its_level_by_one_square_root(self, monkeypatch):
        # At 99999989 the 6,466-move spiral is followed by 16,324 moves
        # of the C descent, down through 8,163 levels: each of the two
        # pieces takes one square root, and the literal tail none.
        roots = []
        monkeypatch.setattr(planner, "_cubic_level", lambda n: roots.append(n) or _cubic_level(n))
        steps = plan("cubic-surface", 99999989).steps
        assert len(steps) == 22794
        assert roots == [99999989, windows.columns(steps, 6465, 6466)[0][0]]


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
        chain = plan("p3", 18)
        assert chain.point_sequence() == [18, 9, 4, 1]
        assert [(s.carrier.d, s.carrier.g) for s in chain.steps] == [
            (9, 9), (5, 2), (3, 0),
        ]
        assert all(step.kind == BILIAISON for step in chain.steps)

    def test_seventeen_needs_one_liaison(self):
        chain = plan("p3", 17)
        assert chain.point_sequence() == [17, 12, 6, 3, 1]
        kinds = [step.kind for step in chain.steps]
        assert kinds.count(LIAISON) == 1
        assert chain.steps[0].kind == LIAISON
        assert (chain.steps[0].m, chain.steps[0].carrier.d, chain.steps[0].carrier.g) == (5, 9, 9)

    def test_nineteen_needs_one_liaison(self):
        chain = plan("p3", 19)
        assert chain.point_sequence() == [19, 11, 5, 2, 1]
        assert chain.steps[0].kind == LIAISON
        assert chain.steps[0].carrier.d == 10

    def test_biliaisons_only_off_the_two_exceptions(self):
        for n in range(1, P3_GUARANTEED_MAX + 1):
            if n in (17, 19):
                continue
            assert all(step.kind == BILIAISON for step in plan("p3", n).steps)

    def test_open_case_raises(self):
        for n in (20, 21, 50):
            with pytest.raises(OutOfGuaranteedRange):
                plan("p3", n)

    def test_open_case_message_explains(self):
        with pytest.raises(OutOfGuaranteedRange) as info:
            plan("p3", 20)
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
        with pytest.raises(TypeError, match=rf"^point count must be int, got {type(n).__name__}$"):
            plan(space, n)

    def test_planners_reject_bool(self):
        for space in SPACES:
            with pytest.raises(TypeError):
                plan(space, True)


def _rebuilt_carrier(space, carrier):
    """The carrier built again by its family's public constructor, and
    then by ``CurveFamily(...)``, which checks every field's type and the
    lattice (d, g)."""
    if space == "p2":
        family = plane_curve_family(carrier.d)
    elif space == "quadric" and carrier.label == "ruling line":
        family = quadric_ruling_line()
    elif space == "quadric":
        a, b = carrier.divisor.coeffs
        family = quadric_family(a, "i" if a == b else "ii")
    elif space == "cubic-surface":
        family = cubic_surface_type(carrier.label.split()[1], (carrier.d + 2) // 3)
    else:
        family = p3_acm_family(carrier.d, carrier.g)
    divisor = None if family.divisor is None else DivisorClass(family.divisor.coeffs)
    checked = CurveFamily(family.ambient, family.d, family.g, family.linsys_dim, divisor,
                          family.surface, family.label)
    return family, checked


def _seeded_counts(space):
    if space == "p3":
        return range(1, P3_GUARANTEED_MAX + 1)
    rng = random.Random(f"checked builds {space}")
    return [*rng.sample(range(1, 3001), 60), *(rng.randrange(10**7, 10**8) for _ in range(2))]


class TestCheckedBuilds:
    # The planner builds its moves with the unchecked _move and its
    # carriers without the constructors' checks, sharing the carriers of
    # a level; each must equal, hash and print as the checked build.
    @pytest.mark.parametrize("space", ["p2", "quadric", "cubic-surface", "p3"])
    def test_planned_records_equal_their_checked_builds(self, space):
        for n in _seeded_counts(space):
            steps = tuple(plan(space, n).steps)
            catalog._carrier.cache_clear()  # rebuild even the cached carriers
            rebuilt = {}
            for step in steps:
                carrier = step.carrier
                if id(carrier) not in rebuilt:
                    rebuilt[id(carrier)] = _rebuilt_carrier(space, carrier)
                for family in rebuilt[id(carrier)]:
                    assert family is not carrier
                    assert (family, hash(family), repr(family)) == (carrier, hash(carrier),
                                                                    repr(carrier))
                move = LinkMove(step.kind, step.n_from, step.n_to, family, step.m, step.h,
                                step.note)
                assert type(step) is LinkMove
                assert (move, hash(move), repr(move)) == (step, hash(step), repr(step))
        with pytest.raises(AttributeError):
            step.n_to = 0


class TestWalk:
    # 9 -> 5 -> 2 -> 5 comes back to 5; 10 -> 10 may keep its count once,
    # and the second move that keeps it raises.
    @pytest.mark.parametrize("n, repeat, hops", [(9, 5, 3), (10, 10, 2)])
    def test_cycle_raises_at_once(self, n, repeat, hops):
        cycle = {9: 5, 5: 2, 2: 5, 10: 10}
        yielded = []

        def looping(cur):
            while True:
                yielded.append(cur)
                if len(yielded) > 10:  # fail rather than hang if the guard is gone
                    raise RuntimeError("the walk did not stop at the repeated count")
                move = cycle[cur], 1, 1, _BILIAISON_CODE  # height 1 on a line
                yield 1, 0, (move,), (move,)
                cur = cycle[cur]

        with pytest.raises(InvalidMove, match=f"p2 walk from {n} returns to {repeat}"):
            _walk("p2", n, looping)
        assert len(yielded) == hops

    def test_step_budget_counts_every_piece(self, monkeypatch):
        # plan("p2", 1000) is pieces of 10 and 23 moves: the budget holds
        # the plan whole, and one step less refuses it at its last piece.
        assert len(plan("p2", 1000).steps) == 33
        monkeypatch.setattr(planner, "_STEP_BUDGET", 33)
        plan("p2", 1000)
        monkeypatch.setattr(planner, "_STEP_BUDGET", 32)
        with pytest.raises(DegreeTooLarge, match="^1000 points: the chain passes 33 steps,"
                                                 " more than the 32 a plan may take$"):
            plan("p2", 1000)

    @pytest.mark.parametrize("curve, first, after", [
        # The targets 2^62, 2^62 + 2^58, ...: the first two periods fit in
        # 64 bits, the last, 2^62 + 256 * 2^58, does not.
        (0, ((2**62, 1, 1, _BILIAISON_CODE),), ((2**62 + 2**58, 1, 1, _BILIAISON_CODE),)),
        # The targets 0, -2^57, ... with a curve that brings the last back
        # to 32,128: both ends fit, and the least, near -2^63 - 2^55, does not.
        (-(-2**65 // 32640), ((0, 1, 1, _BILIAISON_CODE),), ((-2**57, 1, 1, _BILIAISON_CODE),)),
    ])
    def test_a_piece_past_64_bits_after_its_first_periods_is_refused_by_the_walk(
            self, curve, first, after):
        # The walk writes no column, so it checks every int of a piece,
        # not only those it is given.
        with pytest.raises(DegreeTooLarge, match="^5 points: a chain's counts and"
                                                 " parameters must fit in 64 bits$"):
            _walk("p2", 5, lambda n: iter(((257, curve, first, after),)))


class TestOracle:
    def test_cubic_reachability_and_chain_confirmation(self):
        oracle = build_oracle("cubic-surface", 120)
        for n in range(1, 121):
            assert oracle.is_reachable(n)
            assert oracle.confirms(plan("cubic-surface", n))

    def test_p2_and_quadric_reachability(self):
        for space in ("p2", "quadric"):
            oracle = build_oracle(space, 120)
            for n in range(1, 121):
                assert oracle.is_reachable(n)
                assert oracle.confirms(plan(space, n))

    def test_p3_reachability(self):
        oracle = build_oracle("p3", P3_GUARANTEED_MAX)
        for n in range(1, P3_GUARANTEED_MAX + 1):
            assert oracle.is_reachable(n)
            assert oracle.confirms(plan("p3", n))

    def test_no_descending_move_from_twenty(self):
        assert p3_descending_moves(20) == []

    @pytest.mark.parametrize("n, error, message", [
        (0, DegreeTooSmall, r"^need at least one point, got 0$"),
        (True, TypeError, r"^point count must be int, got bool$"),
        (20.0, TypeError, r"^point count must be int, got float$"),
    ])
    def test_descending_moves_check_n(self, n, error, message):
        with pytest.raises(error, match=message):
            p3_descending_moves(n)

    def test_nineteen_has_its_liaison(self):
        moves = p3_descending_moves(19)
        assert (LIAISON, 5, (10, 11), 11) in moves

    def test_descending_moves_match_plans(self):
        for n in range(2, 20):
            targets = {target for _, _, _, target in p3_descending_moves(n)}
            assert plan("p3", n).steps[0].n_to in targets

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
