"""A planned chain is proved one closed-form piece at a time.

``planner._walk`` keeps the pieces it walks, with the first index of
each, and ``moves._proves`` proves a long piece from three sample
steps per place of its period, through the slacks of its space's rule
in ``moves._RULES``; ``validate_chain`` reads the first period of a
proved piece and every other piece step by step.  So the proof must
never pass a step that reading refuses: these tests check the tables against the rules as they were
stated before them (``oracles.REFERENCE_RULES``), the proof against
reading on every small plan and on seeded large ones, and both on
mutants of the pieces themselves.
"""

import pickle
import random
from itertools import product
from unittest import mock

import pytest
import windows
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import REFERENCE_RULES

from glicci import moves, planner
from glicci.errors import DegreeTooLarge, InvalidMove
from glicci.moves import (
    _LIAISON_CODE,
    _MOVE_CODES,
    _REPOSITIONED_CODE,
    _RULES,
    _SLIDE_CODE,
    BILIAISON,
    Chain,
    _broken,
    _least,
    _PROVED_FROM,
    _proves,
    validate_chain,
)
from glicci.planner import _BY_SPACE, _candidates, _carriers, _walk, plan

SPACES = ("p2", "quadric", "cubic-surface")

# The oracle caps of the acceptance suite.
ACCEPTANCE_CAPS = {"p2": 300, "quadric": 300, "cubic-surface": 500, "p3": 19}


def _taken(chain):
    """The pieces the proof takes: in closed form, of ``_PROVED_FROM``
    periods or more."""
    return [piece for piece in chain.steps._pieces
            if piece[3] is not None and piece[1] >= moves._PROVED_FROM * len(piece[3])]


def _proved(chain):
    """The pieces of the chain that ``_proves`` proves."""
    return [piece for piece in chain.steps._pieces
            if _proves(chain.space, piece, chain.steps._codes)]


def _twin(chain):
    """The chain with the same columns held as one run, as code builds it."""
    return windows.run_chain(chain.space, chain.start, windows.columns(chain.steps))


def _verdict(chain):
    """None, or the type and text of what ``validate_chain`` raises."""
    try:
        validate_chain(chain)
    except (InvalidMove, IndexError) as exc:  # a code past the table raises IndexError
        return type(exc).__name__, str(exc)
    return None


@pytest.mark.parametrize("space", (*SPACES, "p3"))
def test_each_table_words_what_the_reference_rule_words(space):
    # Every candidate move of the oracle's listing at the acceptance cap
    # and its neighbours: either end and the parameter one off, and the
    # heights 0 and -1, with no note, each note of the chains' codes and
    # one no code carries.  The table admits exactly the moves the rule
    # as stated before it admits, and words the first relation a move
    # breaks as that rule did.
    _, cap_of, *_ = _BY_SPACE[space]
    cap = cap_of(ACCEPTANCE_CAPS[space])
    notes = {note for kind, note in _MOVE_CODES} | {"repositioned by hand"}
    verdicts = {True: 0, False: 0}
    for d, g, held, holds in _carriers(space):
        if g > cap:
            break
        lo, hi = max(g, 1), min(holds, cap)
        carrier = f"the ({d},{g}) carrier"
        for n in range(lo, hi + 1):
            for kind, param, n_to in _candidates(space, d, g, n, lo, hi):
                slacks, reference = _RULES[space][kind][0], REFERENCE_RULES[space][kind]
                params = {param - 1, param, param + 1} | ({0, -1} if kind == BILIAISON else set())
                for frm, to, p, note in product((n - 1, n, n + 1), (n_to - 1, n_to, n_to + 1),
                                                params, notes):
                    broken = reference(space, frm, to, d, g, held, p, note, carrier)
                    admitted = min(slacks(frm, to, d, g, held, p, note)) >= 0
                    assert admitted == (broken is None)
                    assert _broken(space, kind, frm, to, d, g, held, p, note, carrier) == broken
                    verdicts[admitted] += 1
    assert min(verdicts.values()) > (100 if space == "p3" else 1000), verdicts


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
        assert _proved(chain) == _taken(chain), n
        validate_chain(_twin(chain))


@pytest.mark.parametrize("space, n", [
    (space, int(10 ** random.Random(f"spans {space} {i}").uniform(4, 10)))
    for space in SPACES for i in range(4)
])
def test_seeded_large_plans_are_proved_and_pass_step_by_step(space, n):
    chain = plan(space, n)
    assert _proved(chain) == _taken(chain)
    validate_chain(_twin(chain))


@pytest.mark.parametrize("space", SPACES)
def test_a_large_plan_carries_spans_and_its_copies_do_not(space):
    chain = plan(space, 10**8)
    # The proof takes pieces of _PROVED_FROM periods or more; they hold
    # nearly every step of a large plan, and it proves them.
    proved = _proved(chain)
    assert sum(piece[1] for piece in proved) > 0.99 * len(chain.steps)
    for copy in (pickle.loads(pickle.dumps(chain)), Chain.from_json(chain.to_json()), _twin(chain)):
        assert [piece[3] for piece in copy.steps._pieces] == [None]  # one run of moves
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
    # The proof is sound for pieces of any length from four periods, the
    # least it can sample, so the mutants are judged at that floor too.
    floor = data.draw(st.sampled_from((4, _PROVED_FROM)))
    space = data.draw(st.sampled_from(SPACES))
    n = data.draw(st.integers(2000, 10**7))
    long_pieces = _long_pieces(space, n)
    assume(long_pieces)  # some cubic n near 2000 give every piece move by move
    index = data.draw(st.sampled_from(long_pieces))
    pieces, *_ = _BY_SPACE[space]
    piece = next(p for i, p in enumerate(pieces(n)) if i == index)
    field = data.draw(st.sampled_from(_fields(piece)))
    delta = data.draw(st.sampled_from((-2, -1, 1, 2)))
    with mock.patch.object(moves, "_PROVED_FROM", floor):
        chain = _mutant(space, n, index, field, delta)
        if chain is None:
            return
        assert [piece[3] for piece in _twin(chain).steps._pieces] == [None]
        assert _verdict(chain) == _verdict(_twin(chain))


def _pinned_mutant(space, n, field, delta):
    chain = _mutant(space, n, _long_pieces(space, n)[0], field, delta)
    assert _taken(chain)
    return chain


def test_a_code_column_that_steps_is_not_a_run_of_one_rule():
    # The code steps -1, 0, 1, ...: a repositioning biliaison, a plain
    # one, a liaison, a slide.  Each place must keep one code for the
    # proof to read its rule off the first period.
    chain = _pinned_mutant("p2", 10**6, ("first", 0, 3), -1)
    assert windows.columns(chain.steps, 0, 4)[3].tolist() == [-1, 0, 1, 2]
    assert _taken(chain) and _proved(chain) != _taken(chain)
    assert _verdict(chain) == _verdict(_twin(chain)) == (
        "InvalidMove", "p2 chains use no liaison moves")


@mock.patch.object(moves, "_PROVED_FROM", 4)
def test_a_cubic_key_that_steps_off_a_multiple_of_four_mixes_kinds():
    # With the proof taking pieces from four periods, the least it can
    # sample: liaisons from 40 points by 9H-K, 8H-K, ... on the keys 23, 21, 19,
    # ... (kinds iv and ii in turn): the first four are admissible, and
    # the slacks at j = 1, 2, 3 lie on quadratics that hold over the piece
    # (the totals all 0), but the fifth breaks its total.  Across kinds
    # (d, g) are no one polynomial in the key, so three samples prove
    # nothing.
    piece = 5, 2, ((35, 9, 23, _LIAISON_CODE),), ((27, 8, 21, _LIAISON_CODE),)
    walked = []
    with mock.patch.object(planner, "validate_chain", walked.append):
        _walk("cubic-surface", 40, lambda n: iter((piece,)))
    chain, = walked
    assert chain.steps._pieces == ((0, *piece),)
    assert windows.columns(chain.steps)[0].tolist() == [35, 27, 21, 17, 15]
    assert _taken(chain) and _proved(chain) != _taken(chain)
    assert _verdict(chain) == _verdict(_twin(chain)) == (
        "InvalidMove", "17 + 15 != deg(5H-K on (9,10)) = 27")


def test_a_run_beside_a_closed_form_piece_has_its_keys_read():
    # plan("p2", 999) is a run of 9 height-2 moves and a closed-form
    # piece of 25 height-1 moves.  A run whose first key is 0, which
    # names no carrier, is refused by the least key read, as its
    # piece-less twin is, though the closed-form piece is proved.
    (length, curve, first, after), closed = _BY_SPACE["p2"][0](999)
    first = ((first[0][0], first[0][1], 0, first[0][3]),)
    walked = []
    with mock.patch.object(planner, "validate_chain", walked.append):
        _walk("p2", 999, lambda n: iter(((length, curve, first, after), closed)))
    chain, = walked
    assert [piece[3] is None for piece in chain.steps._pieces] == [True, False]
    assert _proved(chain) == [chain.steps._pieces[1]]
    assert _verdict(chain) == _verdict(_twin(chain)) == ("InvalidMove", "p2 key 0 names no carrier")


@pytest.mark.parametrize("code", (_REPOSITIONED_CODE, _SLIDE_CODE))
def test_a_piece_whose_moves_carry_a_note_is_not_proved(code):
    # A note lets a plane step skip its residual (at height 0) or its
    # containment (when repositioned), so its slacks are no polynomials
    # in the place's index: a long p2 piece whose moves all carry one is
    # read step by step.
    pieces = list(_BY_SPACE["p2"][0](10**6))
    index = next(i for i, piece in enumerate(pieces) if piece[0] >= _PROVED_FROM)
    length, curve, first, after = pieces[index]
    noted = tuple(tuple((*move[:3], code) for move in moves) for moves in (first, after))
    pieces[index] = length, curve, *noted
    walked = []
    with mock.patch.object(planner, "validate_chain", walked.append):
        _walk("p2", 10**6, lambda n: iter(pieces))
    chain, = walked
    assert any(piece[3:] == noted for piece in _taken(chain))
    assert _proved(chain) != _taken(chain)
    assert _verdict(chain) == _verdict(_twin(chain))


def test_a_corrupted_second_piece_is_read_and_the_first_proved():
    # plan("p2", 10**6) is two closed-form pieces; with the second
    # piece's first target moved on by one, the first is proved and read
    # for its first period only, with no window of columns built over
    # it, and the second is read step by step, as its twin reads it.
    chain = _mutant("p2", 10**6, 1, ("after", 0, 0), 1)
    first, second = chain.steps._pieces
    assert _proved(chain) == [first] and first[3] is not None and second[3] is not None
    with windows.recorded() as built:
        verdict = _verdict(chain)
    assert verdict == _verdict(_twin(chain)) and verdict[0] == "InvalidMove"
    assert built and all(start >= first[0] + first[1] for start, _ in built)
