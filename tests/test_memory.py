"""Memory a plan holds per step, and the walk guard that keeps none.

A deep plan keeps every step, so its memory grows with the chain; these
tests pin what each step costs and that nothing else grows with it.
"""

import gc
import subprocess
import sys
import tracemalloc
from itertools import cycle as cycle_of
from itertools import islice, repeat
from pathlib import Path

import pytest

from glicci import catalog
from glicci.catalog import cubic_surface_type
from glicci.errors import InvalidMove
from glicci.moves import _BILIAISON_CODE, _SLIDE_CODE
from glicci.planner import _walk, plan

# A planned chain keeps four array('q') columns, 32 bytes a step, and
# builds its records only when they are read: about 34 traced bytes per
# step with the arrays' spare room, in every space.
PACKED_BYTES_PER_STEP = 64


def _traced_bytes_per_step(space, n, steps):
    catalog._carrier.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        chain = plan(space, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chain.steps) == steps
    return peak / steps


def test_spiral_runs_share_their_carriers_in_memory():
    # The spiral's 6,466 moves name the level's two carriers by two keys.
    assert len(set(plan("cubic-surface", 99999989).steps._key[:6466])) == 2


@pytest.mark.parametrize("space, n, steps", [("cubic-surface", 10**7, 7572),
                                             ("cubic-surface", 99999989, 22794),
                                             ("p2", 10**8, 8988), ("quadric", 10**8, 9999)])
def test_packed_plan_peak_bytes_per_step(space, n, steps):
    assert _traced_bytes_per_step(space, n, steps) <= PACKED_BYTES_PER_STEP


def test_cubic_plan_at_ten_to_the_ten_peaks_below_40_mb():
    # A fresh interpreter, so that the peak resident set (VmHWM) is the
    # plan's own: 163,300 steps.  It needs /proc/self/status (Linux).
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("no /proc/self/status to read VmHWM from")
    probe = (
        "import glicci; chain = glicci.plan('cubic-surface', 10**10); "
        "line = next(x for x in open('/proc/self/status') if x.startswith('VmHWM:')); "
        "print(len(chain.steps), int(line.split()[1]))"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env={"PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    steps, peak_kb = map(int, result.stdout.split())
    assert steps == 163300
    assert peak_kb <= 40 * 1024, f"VmHWM {peak_kb} kB"


@pytest.mark.parametrize("kind", ["i", "ii", "iii", "iv"])
def test_cubic_carrier_holds_one_object_per_distinct_coefficient(kind):
    # Integers above 256 are separate objects; the class B + k*H has at
    # most four distinct values (b_0 + 3k and k - 1, k, k + 1).
    for a in [*range(1, 51), *range(300, 350), 10**6, 10**12]:
        coeffs = cubic_surface_type(kind, a).divisor.coeffs
        assert len({id(c) for c in coeffs}) == len(set(coeffs)), (kind, a, coeffs)


def _hops_along(pairs, yielded, limit):
    """A hops function for _walk that yields a move on a line for each
    (from, to) in ``pairs`` and records it, and raises RuntimeError
    rather than hang after ``limit`` moves.  A move that keeps its count
    is a height-0 slide, any other a height-1 biliaison."""

    def hops(n):
        for n_from, n_to in pairs:
            yielded.append(n_from)
            if len(yielded) > limit:
                raise RuntimeError("the walk did not stop in the cycle")
            yield (n_to, 0, 1, _SLIDE_CODE) if n_from == n_to else (n_to, 1, 1, _BILIAISON_CODE)

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
