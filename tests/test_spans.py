"""A planned chain is proved one closed-form piece at a time.

``planner._walk`` records the span (first index, length, period) of each
piece it writes in closed form, and ``moves._proved_spans`` proves a long span
from three sample steps per place of its period, through the rules'
relation tables, ``moves._RELATIONS``; ``validate_chain`` reads the
rest of the chain step by step, or the whole chain where the proof does
not go through.  So the proof must never pass a step that reading
refuses: these tests check the tables against the rules, the proof
against reading on every small plan and on seeded large ones, and both
on mutants of the pieces themselves.
"""

import pickle
import random
from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci import moves, planner
from glicci.errors import DegreeTooLarge, InvalidMove
from glicci.moves import (
    _LIAISON_CODE,
    _MOVE_CODES,
    _RELATIONS,
    _RULES,
    BILIAISON,
    Chain,
    _least,
    _PROVED_FROM,
    _proved_spans,
    validate_chain,
)
from glicci.planner import _BY_SPACE, _candidates, _carriers, _walk, plan

SPACES = ("p2", "quadric", "cubic-surface")

# The oracle caps of the acceptance suite.
ACCEPTANCE_CAPS = {"p2": 300, "quadric": 300, "cubic-surface": 500}


def _long_spans(chain):
    """The spans the proof takes: of ``_PROVED_FROM`` periods or more."""
    return [span for span in chain.steps._spans if span[1] >= moves._PROVED_FROM * span[2]]


def _twin(chain):
    """The chain with the same columns and no spans, as code builds it."""
    return Chain._packed(chain.space, chain.start, *chain.steps._columns()[2:])


def _verdict(chain):
    """None, or the type and text of what ``validate_chain`` raises."""
    try:
        validate_chain(chain)
    except (InvalidMove, IndexError) as exc:  # a code past the table raises IndexError
        return type(exc).__name__, str(exc)
    return None


def _table_admits(slacks, *step):
    equalities, inequalities = slacks(*step)
    return not any(equalities) and min(inequalities) >= 0


@pytest.mark.parametrize("space", SPACES)
def test_relation_table_admits_what_the_rule_admits(space):
    # Every candidate move of the oracle's listing at the acceptance cap
    # and its neighbours: either end and the parameter one off, and the
    # heights 0 and -1.  Without a note the table admits exactly what the
    # rule admits; with a note the table still admits nothing the rule
    # refuses.
    _, cap_of, *_ = _BY_SPACE[space]
    cap = cap_of(ACCEPTANCE_CAPS[space])
    notes = {note for kind, note in _MOVE_CODES if note}
    verdicts = {True: 0, False: 0}
    for d, g, held, holds in _carriers(space):
        if g > cap:
            break
        lo, hi = max(g, 1), min(holds, cap)
        for n in range(lo, hi + 1):
            for kind, param, n_to in _candidates(space, d, g, n, lo, hi):
                rule = _RULES[space][kind]
                slacks = _RELATIONS[rule]
                params = {param - 1, param, param + 1} | ({0, -1} if kind == BILIAISON else set())
                for frm, to, p in product((n - 1, n, n + 1), (n_to - 1, n_to, n_to + 1), params):
                    admitted = rule(space, frm, to, d, g, held, p, "", None) is None
                    assert _table_admits(slacks, frm, to, d, g, held, p, "") == admitted
                    verdicts[admitted] += 1
                    for note in notes:
                        if _table_admits(slacks, frm, to, d, g, held, p, note):
                            assert rule(space, frm, to, d, g, held, p, note, None) is None
    assert min(verdicts.values()) > 1000, verdicts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-50, 50), min_size=3, max_size=3), st.integers(0, 60))
def test_least_is_the_least_value(coefficients, last):
    c0, c1, c2 = coefficients
    value = [c0 + c1 * t + c2 * t * t for t in range(max(last + 1, 3))]
    assert _least(*value[:3], last) == min(value[:last + 1])


@pytest.mark.parametrize("space", SPACES)
def test_every_small_plan_is_proved_and_passes_step_by_step(space):
    for n in range(1, 10**4 + 1):
        chain = plan(space, n)
        assert list(_proved_spans(chain)) == _long_spans(chain), n
        validate_chain(_twin(chain))


@pytest.mark.parametrize("space, n", [
    (space, int(10 ** random.Random(f"spans {space} {i}").uniform(4, 10)))
    for space in SPACES for i in range(4)
])
def test_seeded_large_plans_are_proved_and_pass_step_by_step(space, n):
    chain = plan(space, n)
    assert list(_proved_spans(chain)) == _long_spans(chain)
    validate_chain(_twin(chain))


@pytest.mark.parametrize("space", SPACES)
def test_a_large_plan_carries_spans_and_its_copies_do_not(space):
    chain = plan(space, 10**8)
    # The proof takes spans of _PROVED_FROM periods or more; they hold
    # nearly every step of a large plan, and it proves them.
    proved = _proved_spans(chain)
    assert sum(length for _, length, _ in proved) > 0.99 * len(chain.steps)
    for copy in (pickle.loads(pickle.dumps(chain)), Chain.from_json(chain.to_json()), _twin(chain)):
        assert copy.steps._spans is None
        assert copy == chain and pickle.dumps(copy) == pickle.dumps(chain)
    assert repr(_twin(chain)) == repr(chain)


def _long_pieces(space, n):
    """The indices of the pieces from n that the walk writes in closed form."""
    pieces, *_ = _BY_SPACE[space]
    return [i for i, (length, _, first, _) in enumerate(pieces(n)) if length > 2 * len(first)]


def _mutant(space, n, index, field, delta):
    """The chain the walk writes from n when piece ``index`` has one int
    moved by ``delta``: its curve, its length, or entry (move, column) of
    its first or after period; unvalidated.  None when the walk refuses
    the pieces (a cycle, an empty piece)."""
    pieces, *_ = _BY_SPACE[space]

    def mutated(start):
        for i, piece in enumerate(pieces(start)):
            if i == index:
                length, curve, first, after = piece
                if field == "curve":
                    curve += delta
                elif field == "length":
                    length += delta
                else:
                    which, move, column = field
                    moves = [list(step) for step in (first if which == "first" else after)]
                    moves[move][column] += delta
                    moves = tuple(map(tuple, moves))
                    first, after = (moves, after) if which == "first" else (first, moves)
                piece = length, curve, first, after
            yield piece

    walked = []
    try:
        with mock.patch.object(planner, "validate_chain", walked.append):
            _walk(space, n, mutated)
    except (InvalidMove, DegreeTooLarge):
        return None
    return walked[0]


def _fields(piece):
    length, curve, first, after = piece
    return ["curve", "length"] + [(which, move, column)
                                  for which, moves in (("first", first), ("after", after))
                                  for move in range(len(moves)) for column in range(4)]


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_piece_gets_the_verdict_of_its_spanless_twin(data):
    # The proof is sound for spans of any length from four periods, the
    # least it can sample, so the mutants are judged at that floor too.
    floor = data.draw(st.sampled_from((4, _PROVED_FROM)))
    space = data.draw(st.sampled_from(SPACES))
    n = data.draw(st.integers(2000, 10**7))
    long_pieces = _long_pieces(space, n)
    index = data.draw(st.sampled_from(long_pieces))
    pieces, *_ = _BY_SPACE[space]
    piece = next(p for i, p in enumerate(pieces(n)) if i == index)
    field = data.draw(st.sampled_from(_fields(piece)))
    delta = data.draw(st.sampled_from((-2, -1, 1, 2)))
    chain = _mutant(space, n, index, field, delta)
    if chain is None:
        return
    assert chain.steps._spans is not None
    with mock.patch.object(moves, "_PROVED_FROM", floor):
        assert _verdict(chain) == _verdict(_twin(chain))


def _pinned_mutant(space, n, field, delta):
    chain = _mutant(space, n, _long_pieces(space, n)[0], field, delta)
    assert _long_spans(chain)
    return chain


def test_a_code_column_that_steps_is_not_a_run_of_one_rule():
    # The code steps -1, 0, 1, ...: a repositioning biliaison, a plain
    # one, a liaison, a slide.  Each place must keep one code for the
    # proof to read its rule off the first period.
    chain = _pinned_mutant("p2", 10**6, ("first", 0, 3), -1)
    assert chain.steps._code[:4].tolist() == [-1, 0, 1, 2]
    assert _long_spans(chain) and not _proved_spans(chain)
    assert _verdict(chain) == _verdict(_twin(chain)) == (
        "InvalidMove", "p2 chains use no liaison moves")


@mock.patch.object(moves, "_PROVED_FROM", 4)
def test_a_cubic_key_that_steps_off_a_multiple_of_four_mixes_kinds():
    # With the proof taking spans from four periods, the least it can
    # sample: liaisons from 40 points by 9H-K, 8H-K, ... on the keys 23, 21, 19,
    # ... (kinds iv and ii in turn): the first four are admissible, and
    # the slacks at j = 1, 2, 3 lie on quadratics that hold over the span
    # (the totals all 0), but the fifth breaks its total.  Across kinds
    # (d, g) are no one polynomial in the key, so three samples prove
    # nothing.
    piece = 5, 2, ((35, 9, 23, _LIAISON_CODE),), ((27, 8, 21, _LIAISON_CODE),)
    walked = []
    with mock.patch.object(planner, "validate_chain", walked.append):
        _walk("cubic-surface", 40, lambda n: iter((piece,)))
    chain, = walked
    assert chain.steps._spans == ((0, 5, 1),)
    assert chain.steps._to.tolist() == [35, 27, 21, 17, 15]
    assert _long_spans(chain) and not _proved_spans(chain)
    assert _verdict(chain) == _verdict(_twin(chain)) == (
        "InvalidMove", "17 + 15 != deg(5H-K on (9,10)) = 27")
