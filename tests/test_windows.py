"""Every reader of a chain reads its columns a window at a time.

``moves._Steps._windows`` builds the columns of at most
``moves._WINDOW`` steps at a time, each window within one piece, with
``moves._values`` for a closed-form piece.  A window may start anywhere
in a piece's period and be shorter than one, so every reader must give
the same result whatever the window's size, and ``_spread``, which
builds each place of a window, must give every count of values,
including none.
"""

import pickle
from functools import lru_cache

import pytest
import windows
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci import moves
from glicci.moves import Chain, _spread
from glicci.planner import P3_GUARANTEED_MAX, plan


@pytest.mark.parametrize("first, step, curve", [(5, 3, 2), (-7, 4, -3), (9, -2, 0), (4, 0, 0)])
@pytest.mark.parametrize("count", range(4))
def test_spread_gives_count_values_on_every_arm(first, step, curve, count):
    expected = [first + k * step + curve * (k * (k - 1) // 2) for k in range(count)]
    assert _spread(first, step, curve, count).tolist() == expected


@lru_cache(maxsize=None)
def _small_with_a_piece(space):
    """The n <= 1000 whose plan keeps a closed-form piece."""
    return [n for n in range(1, 1001)
            if any(piece[3] is not None for piece in plan(space, n).steps._pieces)]


@st.composite
def _chains(draw):
    space = draw(st.sampled_from(("p2", "quadric", "cubic-surface", "p3")))
    if space == "p3":
        n = draw(st.integers(1, P3_GUARANTEED_MAX))
    elif space == "cubic-surface":
        n = draw(st.integers(1, 10**6))
    else:
        n = draw(st.sampled_from(_small_with_a_piece(space)) | st.integers(1, 10**6))
    chain = plan(space, n)
    if draw(st.booleans()):  # packed, as a chain read from JSON is
        chain = Chain.from_json(chain.to_json())
    return chain


def _read(chain, other):
    """What every reader gives: the moves, text, JSON, points, equality
    with ``other``, hash and pickle bytes."""
    steps = chain.steps
    return (tuple(steps), list(chain._lines()), chain.to_dict(), chain.point_sequence(),
            chain == other, other == chain, steps == other.steps, hash(chain), hash(steps),
            pickle.dumps(chain))


_SLICES = st.builds(slice, st.none() | st.integers(-1100, 1100), st.none() | st.integers(-1100, 1100),
                    st.none() | st.sampled_from([1, 2, 3, 7, 50, -1, -2, -5]))


@settings(max_examples=60, deadline=None)
@given(_chains(), st.data())
def test_every_reader_gives_the_same_whatever_the_window(chain, data):
    size = len(chain.steps)
    columns = [column.tolist() for column in windows.columns(chain.steps)]
    if size:  # the chain with one int of one step moved by one
        place, index = data.draw(st.integers(0, 3)), data.draw(st.integers(0, size - 1))
        columns[place][index] += 1
    other = windows.run_chain(chain.space, chain.start, columns)
    expected = _read(chain, other)
    assert expected[4] is expected[5] is expected[6] is (size == 0)
    moves_read = expected[0]
    indices = data.draw(st.lists(st.integers(-size - 3, size + 2), max_size=8))
    cuts = data.draw(st.lists(_SLICES, max_size=8))
    for window in (1, 2, 3, 7):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moves, "_WINDOW", window)
            assert _read(chain, other) == expected, window
            for index in indices:
                if -size <= index < size:
                    assert chain.steps[index] == moves_read[index], (window, index)
                else:
                    with pytest.raises(IndexError):
                        chain.steps[index]
            for cut in cuts:
                assert chain.steps[cut] == moves_read[cut], (window, cut)
