"""Small-count chains and the general-points table, pinned as literals.

Each planner's next hop is a formula in n with a few literal moves where
the recorded chain leaves it (cubic surface n in {2, 3, 5, 6}, 3-space
n in {17, 19}, the plane's n in {2, 4} and the quadric's n = 2 slide).
These literals pin every chain those formulas and exceptions produce
for cubic n <= 17, 3-space n <= 19 and the plane and quadric n <= 6:
the point sequence and, per step, the kind, twist m or height h, the
carrier's (d, g) and label, and the note.  ``PERRIN_ROWS`` pins the
general-points table derived from h-vectors.  ``LARGE_CHAINS`` pins
whole chains at n near 10^7, 10^7.5 and 10^8, and at the first and the
last count of one level above 10^8 in each space, by the SHA-256 of
their JSON, where the carriers reach levels no other test builds.
"""

import hashlib

import pytest

from glicci.catalog import perrin_m, perrin_table
from glicci.moves import BILIAISON, LIAISON
from glicci.planner import plan

# (space, point sequence, steps); a step is (kind, m or h, d, g, label)
# followed by its note when it has one.  "L" is a liaison by m*H - K and
# "B" a biliaison of height h.
CHAINS = (
    ("p2", (2, 1), (
        ("B", 1, 1, 0, "plane curve of degree 1"),
    )),
    ("p2", (3, 1), (
        ("B", 1, 2, 0, "plane curve of degree 2"),
    )),
    ("p2", (4, 2, 1), (
        ("B", 1, 2, 0, "plane curve of degree 2"),
        ("B", 1, 1, 0, "plane curve of degree 1"),
    )),
    ("p2", (5, 1), (
        ("B", 2, 2, 0, "plane curve of degree 2"),
    )),
    ("p2", (6, 3, 1), (
        ("B", 1, 3, 1, "plane curve of degree 3"),
        ("B", 1, 2, 0, "plane curve of degree 2"),
    )),
    ("quadric", (2, 2, 1), (
        ("B", 0, 3, 0, "bidegree (1, 2)", "slide along the twisted cubic onto a ruling line"),
        ("B", 1, 1, 0, "ruling line", "points repositioned onto the line"),
    )),
    ("quadric", (3, 1), (
        ("B", 1, 2, 0, "bidegree (1, 1)"),
    )),
    ("quadric", (4, 1), (
        ("B", 1, 3, 0, "bidegree (1, 2)"),
    )),
    ("quadric", (5, 2, 2, 1), (
        ("B", 1, 3, 0, "bidegree (1, 2)"),
        ("B", 0, 3, 0, "bidegree (1, 2)", "slide along the twisted cubic onto a ruling line"),
        ("B", 1, 1, 0, "ruling line", "points repositioned onto the line"),
    )),
    ("quadric", (6, 2, 2, 1), (
        ("B", 1, 4, 1, "bidegree (2, 2)"),
        ("B", 0, 3, 0, "bidegree (1, 2)", "slide along the twisted cubic onto a ruling line"),
        ("B", 1, 1, 0, "ruling line", "points repositioned onto the line"),
    )),
    ("cubic-surface", (2, 6, 7, 5, 3, 1), (
        ("L", 2, 5, 2, "type ii"), ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"),
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (3, 1), (
        ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (4, 8, 6, 7, 5, 3, 1), (
        ("L", 3, 6, 4, "type iv"), ("L", 3, 6, 3, "type iii"), ("L", 3, 7, 5, "type i"),
        ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (5, 3, 1), (
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (6, 7, 5, 3, 1), (
        ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"),
        ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (7, 5, 3, 1), (
        ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (8, 6, 7, 5, 3, 1), (
        ("L", 3, 6, 3, "type iii"), ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"),
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (9, 11, 16, 13, 7, 5, 3, 1), (
        ("L", 4, 7, 5, "type i"), ("L", 5, 9, 10, "type iv"), ("L", 5, 9, 9, "type iii"),
        ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"),
        ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (10, 17, 12, 8, 6, 7, 5, 3, 1), (
        ("L", 5, 9, 10, "type iv"), ("L", 5, 9, 9, "type iii"), ("L", 4, 8, 7, "type ii"),
        ("L", 3, 6, 3, "type iii"), ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"),
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (11, 16, 13, 7, 5, 3, 1), (
        ("L", 5, 9, 10, "type iv"), ("L", 5, 9, 9, "type iii"), ("L", 4, 8, 7, "type ii"),
        ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (12, 8, 6, 7, 5, 3, 1), (
        ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 3, "type iii"), ("L", 3, 7, 5, "type i"),
        ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (13, 7, 5, 3, 1), (
        ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"),
        ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (14, 13, 7, 5, 3, 1), (
        ("L", 5, 9, 10, "type iv"), ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 4, "type iv"),
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (15, 12, 8, 6, 7, 5, 3, 1), (
        ("L", 5, 9, 10, "type iv"), ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 3, "type iii"),
        ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"),
        ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (16, 13, 7, 5, 3, 1), (
        ("L", 5, 9, 9, "type iii"), ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 4, "type iv"),
        ("L", 2, 5, 2, "type ii"), ("L", 1, 4, 1, "type i"),
    )),
    ("cubic-surface", (17, 12, 8, 6, 7, 5, 3, 1), (
        ("L", 5, 9, 9, "type iii"), ("L", 4, 8, 7, "type ii"), ("L", 3, 6, 3, "type iii"),
        ("L", 3, 7, 5, "type i"), ("L", 3, 6, 4, "type iv"), ("L", 2, 5, 2, "type ii"),
        ("L", 1, 4, 1, "type i"),
    )),
    ("p3", (2, 1), (
        ("B", 1, 1, 0, "ACM (1,0)"),
    )),
    ("p3", (3, 1), (
        ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (4, 1), (
        ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (5, 2, 1), (
        ("B", 1, 3, 0, "ACM (3,0)"), ("B", 1, 1, 0, "ACM (1,0)"),
    )),
    ("p3", (6, 3, 1), (
        ("B", 1, 3, 0, "ACM (3,0)"), ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (7, 3, 1), (
        ("B", 1, 4, 1, "ACM (4,1)"), ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (8, 4, 1), (
        ("B", 1, 4, 1, "ACM (4,1)"), ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (9, 4, 1), (
        ("B", 1, 5, 2, "ACM (5,2)"), ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (10, 4, 1), (
        ("B", 1, 6, 3, "ACM (6,3)"), ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (11, 5, 2, 1), (
        ("B", 1, 6, 3, "ACM (6,3)"), ("B", 1, 3, 0, "ACM (3,0)"),
        ("B", 1, 1, 0, "ACM (1,0)"),
    )),
    ("p3", (12, 6, 3, 1), (
        ("B", 1, 6, 3, "ACM (6,3)"), ("B", 1, 3, 0, "ACM (3,0)"),
        ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (13, 6, 3, 1), (
        ("B", 1, 7, 5, "ACM (7,5)"), ("B", 1, 3, 0, "ACM (3,0)"),
        ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (14, 7, 3, 1), (
        ("B", 1, 7, 5, "ACM (7,5)"), ("B", 1, 4, 1, "ACM (4,1)"),
        ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (15, 7, 3, 1), (
        ("B", 1, 8, 7, "ACM (8,7)"), ("B", 1, 4, 1, "ACM (4,1)"),
        ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (16, 8, 4, 1), (
        ("B", 1, 8, 7, "ACM (8,7)"), ("B", 1, 4, 1, "ACM (4,1)"),
        ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (17, 12, 6, 3, 1), (
        ("L", 5, 9, 9, "ACM (9,9)"), ("B", 1, 6, 3, "ACM (6,3)"),
        ("B", 1, 3, 0, "ACM (3,0)"), ("B", 1, 2, 0, "ACM (2,0)"),
    )),
    ("p3", (18, 9, 4, 1), (
        ("B", 1, 9, 9, "ACM (9,9)"), ("B", 1, 5, 2, "ACM (5,2)"),
        ("B", 1, 3, 0, "ACM (3,0)"),
    )),
    ("p3", (19, 11, 5, 2, 1), (
        ("L", 5, 10, 11, "ACM (10,11)"), ("B", 1, 6, 3, "ACM (6,3)"),
        ("B", 1, 3, 0, "ACM (3,0)"), ("B", 1, 1, 0, "ACM (1,0)"),
    )),
)

# (d, g, m): an ACM (d, g) curve of 3-space holds at most m general points.
PERRIN_ROWS = (
    (1, 0, 2), (2, 0, 3), (3, 0, 6), (4, 1, 8), (5, 2, 9),
    (6, 3, 12), (7, 5, 14), (8, 7, 16), (9, 9, 18), (10, 11, 20),
)

# (space, n, steps, SHA-256 of plan(space, n).to_json()).
LARGE_CHAINS = (
    ("p2", 10000019, 2862, "d42b7a30b83d1cad71755b497f2d4de9dfdaec9a809c7de79799bbc32e849f6a"),
    ("p2", 31622777, 6302, "a276f77ca623ca8912e64d191b2e154c70db8a830f8a75b4138c442ef1e736ba"),
    ("p2", 99999989, 8977, "d0db48e88fb16a60e58e782570ac8c6554655cd27b5f4c2412f53c3adb5631ae"),
    ("quadric", 10000019, 3163,
     "ea23614eb2834dcbf2b7d50627b575b34147ebc2c08ecfee023dbc18b0c631a7"),
    ("quadric", 31622777, 5624,
     "9c17f99234ccb1ce421b208cf13fb8cc0c095be83854da84771f953bd55e17aa"),
    ("quadric", 99999989, 9999,
     "a3e33e3e8e2b021f3f9a98dc7c348a6d43e939cce00307a1db4b0dfc424d000e"),
    ("cubic-surface", 10000019, 7610,
     "a3e9bff5418f8ce3944fd3bcb0fbd2814b676c9a66e49ea3acab99dd123b4f7f"),
    ("cubic-surface", 31622777, 9183,
     "585078d822fc72d8a1ca7dd1378effd008937166341a7c8112e04554b5587f5f"),
    ("cubic-surface", 99999989, 22794,
     "35ecc1265432021558c860575f7a2ca32ebcdbb5e773297c59ae5e2b22d60840"),
    # The ends of plane degree 14142, quadric level 10000 and cubic level 8166.
    ("p2", 100005153, 14141, "25d20380b7197ed60cf624a5273d4c4ef9797cf4e36c872a6a946f546f760ca0"),
    ("p2", 100019295, 14141, "4c822b42d787c6dbbb846c3033eb957a9a8dd2404c1354325fcd5dd0fedbfedc"),
    ("quadric", 100010000, 10001,
     "51660c5475fcd15597b82998435350080e01a30fdf5e55e95d44a8f237f01ea2"),
    ("quadric", 100030001, 10002,
     "66bb2a8d82d13949d4ae1d6adf0cc9f20c3169a9119ce3c15a15c2a8d52291d4"),
    ("cubic-surface", 100013085, 16333,
     "b3fdb6f5edd24c417ce9af5811cbdb822678bd2276831cd8fbc2ecd85411f806"),
    ("cubic-surface", 100037582, 16333,
     "6532e32474b83dae20651b3b296ec71d0092b37eb0006cf735e97ee83e93a1f6"),
)


def _step(step):
    if step.kind == LIAISON:
        assert step.h is None
        kind, param = "L", step.m
    else:
        assert step.kind == BILIAISON and step.m is None
        kind, param = "B", step.h
    note = (step.note,) if step.note else ()
    return (kind, param, step.carrier.d, step.carrier.g, step.carrier.label) + note


@pytest.mark.parametrize("space,points,steps", CHAINS,
                         ids=[f"{space}-{points[0]}" for space, points, _ in CHAINS])
def test_recorded_chain(space, points, steps):
    chain = plan(space, points[0])
    assert tuple(chain.point_sequence()) == points
    assert [(s.n_from, s.n_to) for s in chain.steps] == list(zip(points, points[1:]))
    assert tuple(map(_step, chain.steps)) == steps


@pytest.mark.parametrize("space,n,length,digest", LARGE_CHAINS,
                         ids=[f"{space}-{n}" for space, n, _, _ in LARGE_CHAINS])
def test_large_chain(space, n, length, digest):
    chain = plan(space, n)
    assert len(chain.steps) == length
    assert chain.terminal == 1
    assert hashlib.sha256(chain.to_json().encode()).hexdigest() == digest


def test_every_small_count_is_pinned():
    pinned = {(space, points[0]) for space, points, _ in CHAINS}
    tops = {"p2": 6, "quadric": 6, "cubic-surface": 17, "p3": 19}
    assert pinned == {(space, n) for space, top in tops.items() for n in range(2, top + 1)}


def test_general_points_table():
    assert [(row.d, row.g, row.m) for row in perrin_table()] == list(PERRIN_ROWS)
    for d, g, m in PERRIN_ROWS:
        assert perrin_m(d, g) == m
