"""The planners' closed-form pieces against the reference walk.

``plan`` writes a chain from closed-form pieces; ``oracles`` keeps the
earlier walk, one move at a time from each count's level.  Both give
the same four columns on every count up to 10^4, on every count within
2 of a level boundary up to 10^5, and on a seeded sample up to 10^10.
``SMALL_CHAIN_DIGESTS`` pins every chain up to 10^4 (3-space: up to 19)
by one SHA-256 per space over its columns' little-endian bytes, in
order of n; the digests were taken from the walk before the pieces
replaced it.
"""

import hashlib
import random
import sys
from array import array

import pytest
import windows
from oracles import reference_columns

from glicci.planner import P3_GUARANTEED_MAX, plan

SMALL_CHAIN_DIGESTS = {
    "p2": "04009270daf66e05314b517c651ebac08643cb414a9e4b831d4a5ae3181cb910",
    "quadric": "746af3503e3b37340e95c1688a02e561467291d558c9e89cbdeb8b5014df4005",
    "cubic-surface": "a832a51b671cea9669c696a7cb7d03d23e136c5466d4b1421e795a740658d6bf",
    "p3": "f8350b313cdbcf0f9182500f7551e0ee68508852332235f362384e7687724a67",
}

# The first count of each level: of plane degree d, quadric level a and
# cubic level a.
LEVEL_STARTS = {
    "p2": lambda k: (k - 1) * (k + 2) // 2 + 1,
    "quadric": lambda k: k * k + k,
    "cubic-surface": lambda k: 3 * k * (k - 1) // 2,
}


def _columns(space, n):
    return windows.columns(plan(space, n).steps)


def _little_endian(column):
    if sys.byteorder == "big":
        column = array("q", column)
        column.byteswap()
    return column.tobytes()


@pytest.mark.parametrize("space, top", [("p2", 10**4), ("quadric", 10**4),
                                        ("cubic-surface", 10**4), ("p3", P3_GUARANTEED_MAX)])
def test_every_small_chain_is_the_reference_walk_and_pinned(space, top):
    digest = hashlib.sha256()
    for n in range(1, top + 1):
        columns = _columns(space, n)
        if space in LEVEL_STARTS:
            assert columns == reference_columns(space, n), n
        for column in columns:
            digest.update(_little_endian(column))
    assert digest.hexdigest() == SMALL_CHAIN_DIGESTS[space]


@pytest.mark.parametrize("space", list(LEVEL_STARTS))
def test_counts_at_level_boundaries_are_the_reference_walk(space):
    start, counts, k = LEVEL_STARTS[space], set(), 1
    while start(k) <= 10**5 + 2:
        counts.update(range(start(k) - 2, start(k) + 3))
        k += 1
    for n in sorted(n for n in counts if 10**4 < n <= 10**5):
        assert _columns(space, n) == reference_columns(space, n), n


@pytest.mark.parametrize("space, n", [
    (space, int(10 ** random.Random(f"pieces {space} {i}").uniform(7, 10)))
    for space in LEVEL_STARTS for i in range(4)
])
def test_seeded_large_counts_are_the_reference_walk(space, n):
    assert _columns(space, n) == reference_columns(space, n)
