"""A chain keeps its steps in columns and builds records on read.

The planner fills the columns itself; every other chain is packed on
entry.  Its twin, ``Chain(space, start, tuple(chain.steps))``, reads a
planned chain's moves and packs them again, so every observable of the
two must agree: packing inverts reading.  ``validate_chain`` must give
a corrupted planned chain the verdict, and the text, it gives the
corrupted chain re-entered.
"""

import copy
import gc
import pickle
from array import array
from collections.abc import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci import catalog
from glicci.errors import DegreeTooSmall, InvalidMove, OutOfGuaranteedRange
from glicci.moves import (
    _BILIAISON_CODE,
    _LIAISON_CODE,
    _MOVE_CODES,
    _SLIDE_CODE,
    Chain,
    LinkMove,
    validate_chain,
)
from glicci.planner import P3_GUARANTEED_MAX, SPACES, _walk, plan


def _counts(space):
    if space == "p3":
        return st.integers(1, P3_GUARANTEED_MAX)
    return st.integers(1, 3000) | st.integers(1, 10**6)


def _verdict(chain):
    try:
        validate_chain(chain)
    except InvalidMove as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_chain_equals_its_materialized_twin(data):
    space = data.draw(st.sampled_from(SPACES))
    n = data.draw(_counts(space))
    packed = plan(space, n)
    steps = packed.steps
    twin = Chain(space, n, tuple(steps))
    assert type(steps) is not tuple and isinstance(steps, Sequence)
    assert steps._columns() == twin.steps._columns()

    assert packed == twin and twin == packed and not packed != twin
    assert hash(packed) == hash(twin) and hash(steps) == hash(twin.steps)
    assert steps == twin.steps and twin.steps == steps
    assert (repr(packed), str(packed)) == (repr(twin), str(twin))
    assert packed.to_dict() == twin.to_dict()
    assert packed.to_json() == twin.to_json()
    assert (packed.terminal, packed.point_sequence()) == (twin.terminal, twin.point_sequence())
    assert list(packed._lines()) == list(twin._lines())

    assert len(steps) == len(twin.steps)
    assert list(steps) == list(twin.steps)
    assert all(type(step) is LinkMove for step in steps)
    size = len(steps)
    if size:
        for index in data.draw(st.lists(st.integers(-size, size - 1), max_size=6)):
            assert steps[index] == twin.steps[index]
    for index in (size, -size - 1):
        with pytest.raises(IndexError):
            steps[index]
    bounds = st.none() | st.integers(-size - 2, size + 2)
    cut = slice(data.draw(bounds), data.draw(bounds), data.draw(st.none() | st.sampled_from(
        [1, 2, 3, -1, -2])))
    assert type(steps[cut]) is tuple
    assert steps[cut] == twin.steps[cut]

    assert pickle.dumps(packed) == pickle.dumps(twin)
    assert pickle.loads(pickle.dumps(packed)) == twin
    assert copy.copy(packed) == twin and copy.deepcopy(packed) == twin
    validate_chain(twin)


def test_steps_are_immutable():
    steps = plan("cubic-surface", 1000).steps
    with pytest.raises(AttributeError):
        steps._to = array("q")
    with pytest.raises(TypeError):
        steps[0] = steps[1]


def _replaced(space, n, column, index, value):
    """``plan(space, n)`` with one entry of one column replaced, built
    through the private constructor."""
    columns = [array("q", values) for values in plan(space, n).steps._columns()[2:]]
    columns[column][index] = value
    return Chain._packed(space, n, *columns)


def _corrupted(space, n, column, index, value):
    """:func:`_replaced` and its twin packed from its moves."""
    bad = _replaced(space, n, column, index, value)
    return bad, Chain(space, n, tuple(bad.steps))


TARGET, PARAM, KEY, CODE = range(4)


@pytest.mark.parametrize("space, n, column, index, value, message", [
    ("p2", 100, TARGET, 0, 75, "height-2 biliaison on (13,66) must drop 26 points"),
    ("p2", 100, PARAM, 1, 1, "height-1 biliaison on (11,45) must drop 11 points"),
    ("p2", 100, CODE, 2, _LIAISON_CODE, "p2 chains use no liaison moves"),
    ("quadric", 5, CODE, 1, _BILIAISON_CODE, "height-0 move needs an annotation"),
    ("quadric", 5, CODE, 2, _BILIAISON_CODE,
     "2 general points do not lie on (1,0) ruling line (system dimension 1)"),
    ("cubic-surface", 100, KEY, 0, 4 * 9 + 1,
     "100 <-> 92 breaks the window [100, 125] on (26,100)"),
    ("cubic-surface", 100, PARAM, 3, 1, "71 + 57 != deg(1H-K on (20,57)) = -92"),
    ("p3", 17, KEY, 0, 10, "17 + 12 != deg(5H-K on (10,11)) = 30"),
])
def test_corrupted_column_is_rejected_as_its_twin(space, n, column, index, value, message):
    bad, twin = _corrupted(space, n, column, index, value)
    with pytest.raises(InvalidMove) as packed_error:
        validate_chain(bad)
    with pytest.raises(InvalidMove) as twin_error:
        validate_chain(twin)
    assert str(packed_error.value) == str(twin_error.value) == message


@pytest.mark.parametrize("key", [0, 11])
def test_p3_key_off_the_table_is_refused(key):
    # The table has rows of degree 1..10 only; 0 must not read row 10
    # from the end, nor 11 run off it.
    bad = _replaced("p3", 17, KEY, 0, key)
    message = rf"^p3 key {key} names no row of the general-points table$"
    for read in (validate_chain, Chain.to_dict, lambda chain: chain.steps[0]):
        with pytest.raises(InvalidMove, match=message):
            read(bad)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_any_corrupted_entry_gets_its_twins_verdict(data):
    space = data.draw(st.sampled_from(SPACES))
    n = data.draw(st.integers(2, P3_GUARANTEED_MAX if space == "p3" else 3000))
    chain = plan(space, n)
    column = data.draw(st.sampled_from((TARGET, PARAM, KEY, CODE)))
    index = data.draw(st.integers(0, len(chain.steps) - 1))
    old = chain.steps._columns()[2 + column][index]
    if column == KEY:
        # Keys of real carriers: a table row's degree in 3-space, a >= 1 on the cubic surface.
        low, high = {"p3": (1, 10), "cubic-surface": (4, old + 12)}.get(space, (1, old + 3))
        value = data.draw(st.integers(low, high))
    elif column == CODE:
        value = data.draw(st.integers(0, len(_MOVE_CODES) - 1))
    else:
        value = old + data.draw(st.integers(-3, 3))
    bad, twin = _corrupted(space, n, column, index, value)
    assert _verdict(bad) == _verdict(twin)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored(monkeypatch, enabled):
    # to_dict pauses the cyclic collector while it renders a planned
    # chain, and every call leaves the caller's state as it found it, on
    # success and on each error, also when it was off.
    seen = []
    layout = catalog._KEYS["p2"]
    monkeypatch.setitem(catalog._KEYS, "p2", catalog._KeyLayout(
        layout.ambient, layout.surface, layout.dims,
        lambda d: seen.append(gc.isenabled()) or layout.label(d), layout.divisor))

    def cycling(cur):
        while True:
            yield cur, 0, 1, _SLIDE_CODE  # height 0 on a line

    calls = [
        (lambda: plan("cubic-surface", 99999989).to_dict(), None),
        (lambda: plan("p2", 100).to_dict(), None),
        (lambda: plan("p3", 20), OutOfGuaranteedRange),
        (lambda: plan("p2", 0), DegreeTooSmall),
        (lambda: _walk("p2", 10, cycling), InvalidMove),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for call, error in calls:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * len(plan("p2", 100).steps)
