"""Memory a plan holds, and the walk guard that keeps none.

A chain holds its steps as pieces, and a plan keeps its closed-form
ones as they are: every reader builds the columns of a window of steps
at a time, and validation builds none over a piece it proves.  So
planning costs in the pieces, and reading in the steps read, at the
memory of a window; these tests pin what each costs and that nothing
else grows.
"""

import gc
import subprocess
import sys
import tracemalloc
from itertools import cycle as cycle_of
from itertools import islice, repeat
from pathlib import Path

import pytest
import windows

from glicci import catalog
from glicci.catalog import cubic_surface_type
from glicci.errors import InvalidMove
from glicci.moves import _BILIAISON_CODE, _SLIDE_CODE, Chain
from glicci.planner import _walk, plan

# A chain read from JSON holds four array('q') columns, 32 bytes a step,
# and builds its records only when they are read.  A plan holds its
# closed-form pieces instead; its point sequence builds the target
# column a window at a time and a list of ints (about 40 bytes a step),
# in every space.
PACKED_BYTES_PER_STEP = 64


def _traced_bytes_per_step(space, n, steps, read=lambda chain: None):
    catalog._carrier.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        chain = plan(space, n)
        read(chain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain.steps) == steps
    return peak / steps


def _fresh(probe):
    """The stdout of ``probe`` run in a fresh interpreter on this source."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env={"PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_spiral_runs_share_their_carriers_in_memory():
    # The spiral's 6,466 moves name the level's two carriers by two keys.
    steps = plan("cubic-surface", 99999989).steps
    assert len(set(windows.columns(steps, 0, 6466)[2])) == 2


_DEEP = [("cubic-surface", 10**7, 7572), ("cubic-surface", 99999989, 22794),
         ("p2", 10**8, 8988), ("quadric", 10**8, 9999)]


@pytest.mark.parametrize("space, n, steps", _DEEP)
def test_a_plan_builds_no_column_and_takes_a_few_bytes_a_step(space, n, steps):
    # Planning reads its runs of moves, and builds no window over a
    # closed-form piece, which it proves.
    with windows.recorded() as built:
        chain = plan(space, n)
    closed = [(index, index + length) for index, length, _, first, _ in chain.steps._pieces
              if first is not None]
    assert closed
    assert all(stop <= lo or hi <= start for start, stop in built for lo, hi in closed)
    assert _traced_bytes_per_step(space, n, steps) <= 4


@pytest.mark.parametrize("space, n, steps", [("cubic-surface", 10**7, 7572),
                                             ("cubic-surface", 99999989, 22794),
                                             ("p2", 10**8, 8988), ("quadric", 10**8, 9999)])
def test_packed_plan_peak_bytes_per_step(space, n, steps):
    read = Chain.point_sequence
    assert _traced_bytes_per_step(space, n, steps, read) <= PACKED_BYTES_PER_STEP


def _vmhwm_probe(setup):
    """A probe that runs ``setup`` and prints its own peak resident set
    (VmHWM) in kB last; it needs /proc/self/status (Linux)."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read VmHWM from")
    return (setup + "\nline = next(x for x in open('/proc/self/status')"
            " if x.startswith('VmHWM:'))\nprint(int(line.split()[1]))")


def test_cubic_plan_at_ten_to_the_ten_peaks_below_40_mb():
    # A fresh interpreter, so that the peak resident set is the plan's
    # own: 163,300 steps, with all four columns read through windows.
    out = _fresh(_vmhwm_probe(
        "import glicci; chain = glicci.plan('cubic-surface', 10**10); s = chain.steps\n"
        "lengths = [0] * 4\n"
        "for window in s._windows(0, len(s)):\n"
        "    lengths = [length + len(column) for length, column in zip(lengths, window)]\n"
        "print(len(s), *lengths)"))
    *lengths, peak_kb = map(int, out.split())
    assert lengths == [163300] * 5
    assert peak_kb <= 40 * 1024, f"VmHWM {peak_kb} kB"


def test_a_cubic_plan_at_ten_to_the_fifteen_is_planned_in_its_pieces():
    # 73,542,700 steps, whose columns would take about 2.35 GB: the plan
    # holds its pieces and proves them, and a reader builds a window of
    # columns at a time, so that a step, a slice or the first lines cost
    # in what they read.
    out = _fresh(_vmhwm_probe(
        # A column of the whole chain built by mistake fails on the
        # address-space limit instead of taking the machine's memory.
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        # The name is read before the timer: reading it imports the planner.
        "from glicci import plan\n"
        "t = time.perf_counter(); chain = plan('cubic-surface', 10**15)\n"
        "t = time.perf_counter() - t\n"
        "steps, reads = chain.steps, []\n"
        "for index in (0, -1, len(steps) // 2):\n"
        "    r = time.perf_counter(); steps[index]; reads.append(time.perf_counter() - r)\n"
        "tail = [move.n_to for move in steps[-3:]]\n"
        "lines = sum(1 for _ in zip(chain._lines(), range(1000)))\n"
        "print(len(steps), chain.terminal, round(t * 1e6), *(round(r * 1e6) for r in reads),"
        " *tail, lines)"))
    steps, terminal, micros, *reads, last, before, end, lines, peak_kb = map(int, out.split())
    assert (steps, terminal, last, before, end, lines) == (73_542_700, 1, 5, 3, 1, 1000)
    assert micros < 10_000, f"{micros} us"
    assert max(reads) < 1_000, f"{reads} us"
    assert peak_kb <= 40 * 1024, f"VmHWM {peak_kb} kB"


@pytest.mark.parametrize("kind", ["i", "ii", "iii", "iv"])
def test_cubic_carrier_holds_one_object_per_distinct_coefficient(kind):
    # Integers above 256 are separate objects; the class B + k*H has at
    # most four distinct values (b_0 + 3k and k - 1, k, k + 1).
    for a in [*range(1, 51), *range(300, 350), 10**6, 10**12]:
        coeffs = cubic_surface_type(kind, a).divisor.coeffs
        assert len({id(c) for c in coeffs}) == len(set(coeffs)), (kind, a, coeffs)


def _hops_along(pairs, yielded, limit):
    """A pieces function for _walk that yields a piece of one move on a
    line for each (from, to) in ``pairs`` and records it, and raises
    RuntimeError rather than hang after ``limit`` moves.  A move that
    keeps its count is a height-0 slide, any other a height-1 biliaison."""

    def hops(n):
        for n_from, n_to in pairs:
            yielded.append(n_from)
            if len(yielded) > limit:
                raise RuntimeError("the walk did not stop in the cycle")
            move = (n_to, 0, 1, _SLIDE_CODE) if n_from == n_to else (n_to, 1, 1, _BILIAISON_CODE)
            yield 1, 0, (move,), (move,)

    return hops


def test_walk_guard_catches_a_tail_into_a_cycle_in_time():
    # Seven counts 100..94 lead into the 5-cycle 50 -> 51 -> ... -> 54 -> 50.
    hop = {100 - i: 99 - i for i in range(6)}
    hop[94] = 50
    hop.update({50 + i: 51 + i for i in range(4)})
    hop[54] = 50
    tail, cycle = 7, 5
    pairs = [(100 - i, hop[100 - i]) for i in range(tail)]
    pairs += islice(cycle_of([(50 + i, hop[50 + i]) for i in range(cycle)]), 1000)
    yielded = []
    with pytest.raises(InvalidMove, match=r"^p2 walk from 100 returns to 5[0-4]$"):
        _walk("p2", 100, _hops_along(pairs, yielded, 10 * (tail + cycle)))
    assert len(yielded) < 3 * (tail + cycle)
    assert set(yielded[tail:]) == {50, 51, 52, 53, 54}


def test_walk_guard_catches_a_cycle_through_a_kept_count():
    # Two counts lead into the cycle 50 -> 51 -> 51 -> 52 -> 50, whose
    # second move keeps the count: a walk may keep a count once, which
    # must not hide the cycle.
    tail, cycle = 2, [(50, 51), (51, 51), (51, 52), (52, 50)]
    pairs = [(100, 99), (99, 50), *islice(cycle_of(cycle), 1000)]
    yielded = []
    with pytest.raises(InvalidMove, match=r"^p2 walk from 100 returns to 5[0-2]$"):
        _walk("p2", 100, _hops_along(pairs, yielded, 10 * (tail + len(cycle))))
    assert len(yielded) < 3 * (tail + len(cycle))


def test_walk_guard_stops_a_walk_that_keeps_its_count():
    # The quadric's 2 -> 2 slide before its 2 -> 1 keeps the count once;
    # a walk that keeps it again raises instead of hanging.
    yielded = []
    with pytest.raises(InvalidMove, match=r"^p2 walk from 7 returns to 7$"):
        _walk("p2", 7, _hops_along(repeat((7, 7), 1000), yielded, 100))
    assert len(yielded) == 2
    assert plan("quadric", 2).point_sequence() == [2, 2, 1]
    assert plan("quadric", 5).point_sequence() == [5, 2, 2, 1]


def test_walk_refuses_an_empty_piece_at_once():
    # A piece of no moves keeps the count without a move; the walk
    # raises at the first one instead of waiting for the count to repeat.
    yielded = []

    def empty(n):
        while len(yielded) < 100:
            yielded.append(n)
            yield 0, 0, ((n, 1, 1, _BILIAISON_CODE),), ((n, 1, 1, _BILIAISON_CODE),)
        raise RuntimeError("the walk did not stop at the empty piece")

    with pytest.raises(InvalidMove, match=r"^p2 walk from 7 yields an empty piece at 7$"):
        _walk("p2", 7, empty)
    assert yielded == [7]
