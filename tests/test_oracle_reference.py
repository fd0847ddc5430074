"""The oracle and the 20-point obstruction against references that share
no code with ``glicci.planner``.

``ORACLES`` and ``P3_DESCENDING`` were computed by the planner's earlier
per-space graph builders, before every graph came from one candidate
enumerator; they pin the cap, the edge count, the counts reachable from
1 (as runs of consecutive counts) and a SHA-256 of the sorted edge list.
``ACCEPTANCE_DIGESTS`` pin the edges and reachable sets at the caps of
the acceptance suite, as built before the oracle asked the step rules
about each candidate directly instead of through a one-step chain.
``move_graph_edges`` re-derives the edges for small caps from
``validate_chain`` alone, so it fails if the enumerator ever drops an
admissible move.
"""

import hashlib
from itertools import product

import pytest
from oracles import _accepts, _carriers, move_graph_edges

from glicci import catalog, moves
from glicci.catalog import _trusted, perrin_m
from glicci.errors import InvalidMove
from glicci.moves import _RULES, BILIAISON, LIAISON, Chain, LinkMove, _broken, validate_chain
from glicci.planner import (
    _BY_SPACE,
    SPACES,
    _admits,
    _candidates,
    build_oracle,
    p3_descending_moves,
    plan,
)

# (space, n_max, cap, edge count, reachable runs, SHA-256 of the edges
# "u v" with u < v, one per line in sorted order).
ORACLES = (
    ("p2", 1, 1, 0, ((1, 1),),
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2", 2, 2, 1, ((1, 2),),
     "f71998fe363b9c29116c80b5eecf33a2fedca3b6159724384485804b71651029"),
    ("p2", 17, 17, 37, ((1, 17),),
     "c60381414848adab8080355030069c1ac5208c220e8149bd0c0c290e38ca4683"),
    ("p2", 18, 18, 40, ((1, 18),),
     "489283ba6833a6af6695988000ea4ea4b878395cef1be2d28176f7076a5815e5"),
    ("p2", 19, 19, 43, ((1, 19),),
     "90eccdb03cc0c9d1e762277f2a0e5e0acfe9359c3a2400340a401cabd16f81e2"),
    ("p2", 20, 20, 46, ((1, 20),),
     "f7367e3dc33169a722bff91d45d328e66455a9232d00a5fd2826f05ffedfbfb6"),
    ("p2", 120, 120, 326, ((1, 120),),
     "234d97db38ae65b949bf070c3cc613714df3374ac34b997676d4ddbdb821e591"),
    ("p2", 300, 300, 848, ((1, 300),),
     "0c87a5aa45a117f995dbfca3c733faf4f14bf1d244313c992fbaab632715f1b3"),
    ("p2", 500, 500, 1434, ((1, 500),),
     "ab86b9f9bd4e89d65a317b84654b5278466d5347df012e136b54087509291a50"),
    ("p2", 10_000, 10000, 29716, ((1, 10000),),
     "c81fa44ff1c337b037ba0039a685fc8ce76bc58cf80c25d9755f2acceec65f65"),
    ("quadric", 1, 1, 1, ((1, 2),),
     "f71998fe363b9c29116c80b5eecf33a2fedca3b6159724384485804b71651029"),
    ("quadric", 2, 2, 1, ((1, 2),),
     "f71998fe363b9c29116c80b5eecf33a2fedca3b6159724384485804b71651029"),
    ("quadric", 17, 17, 25, ((1, 17),),
     "176122127db36302c92c67ac7e3f4cd9bc6c99517e0be8e5ca551660fe788971"),
    ("quadric", 18, 18, 27, ((1, 18),),
     "47f5c10b9c98923e8b8d7b3d3392fdf6e93d9af4f7b9781e61a6dddceeca8be7"),
    ("quadric", 19, 19, 29, ((1, 19),),
     "88a9d397fb61dd21f0c2b3eaded7c1de22490119244eea04653e34345a8c1783"),
    ("quadric", 20, 20, 30, ((1, 20),),
     "64a2ac2c9af03c9c2d2036526942c582b03d54ef08f59714d1edafaa1a93a244"),
    ("quadric", 120, 120, 218, ((1, 120),),
     "617126e24b80a06386e12920a4489ef72562ddff890a1f3a2dbca48ab82ab85e"),
    ("quadric", 300, 300, 565, ((1, 300),),
     "600c7bfba6a7194c75cfb7048407bb0bcef6e3b40c7c03eb6c8c5d117eaaacd9"),
    ("quadric", 500, 500, 955, ((1, 500),),
     "480f683367931b3ea70fc50cc67e2ab6d6b0ab1372e4a9253d32f2ce96d959ef"),
    ("quadric", 10_000, 10000, 19799, ((1, 10000),),
     "20cc20dd69fd851edf2c0d3e558bd86bba3b545eb16b362e609eb9dfc2049e60"),
    ("cubic-surface", 1, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 2, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 17, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 18, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 19, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 20, 29, 37, ((1, 29),),
     "c894418f60b331b49c96ca5e28339493092554812b0fb3b9702d15678ddd38f6"),
    ("cubic-surface", 120, 134, 186, ((1, 134),),
     "e811bdcea44b43dda63abb98d419f2eda1cd3f55a2b7b71f3e6775ab3f5516a1"),
    ("cubic-surface", 300, 314, 447, ((1, 314),),
     "a2361f7bb4f192a27f5e4e3be54f270ca1f32b50a85eb997cc058f4eb01bead4"),
    ("cubic-surface", 500, 512, 737, ((1, 512),),
     "82a1337c8f36d10fa7eee512718a08442c986a7fab68b6672fc5dba329a331e2"),
    ("cubic-surface", 10_000, 10208, 15169, ((1, 10208),),
     "50665a7e467e653783e09428efe356c14d4ca404bcead83e9fb72328717dbb4b"),
    ("p3", 1, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 2, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 17, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 18, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 19, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 20, 20, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 120, 120, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 300, 300, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 500, 500, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
    ("p3", 10_000, 10000, 47, ((1, 19),),
     "940e6fff9bbdf8afe189b63ded607592124de9da7f10e68c4f28c0719c3d4a2b"),
)

# p3_descending_moves(n) for 2 <= n <= 19; it is empty for n = 1 and for
# 20 <= n <= 39.
P3_DESCENDING = {
    2: [(BILIAISON, 1, (1, 0), 1), (LIAISON, 1, (1, 0), 1)],
    3: [(BILIAISON, 1, (2, 0), 1), (LIAISON, 1, (2, 0), 1), (LIAISON, 1, (3, 0), 2),
        (LIAISON, 1, (4, 1), 1)],
    4: [(BILIAISON, 1, (3, 0), 1), (LIAISON, 1, (3, 0), 1)],
    5: [(BILIAISON, 1, (3, 0), 2), (LIAISON, 2, (3, 0), 3), (BILIAISON, 1, (4, 1), 1),
        (LIAISON, 2, (4, 1), 3), (LIAISON, 2, (5, 2), 3), (LIAISON, 2, (6, 3), 3)],
    6: [(BILIAISON, 1, (3, 0), 3), (LIAISON, 2, (3, 0), 2), (LIAISON, 3, (3, 0), 5),
        (BILIAISON, 1, (4, 1), 2), (LIAISON, 2, (4, 1), 2), (LIAISON, 2, (5, 2), 2)],
    7: [(BILIAISON, 1, (4, 1), 3), (LIAISON, 2, (4, 1), 1), (LIAISON, 3, (4, 1), 5),
        (BILIAISON, 1, (5, 2), 2), (LIAISON, 3, (5, 2), 6), (LIAISON, 3, (7, 5), 6)],
    8: [(BILIAISON, 1, (4, 1), 4), (LIAISON, 3, (4, 1), 4), (BILIAISON, 1, (5, 2), 3),
        (LIAISON, 3, (5, 2), 5), (LIAISON, 3, (6, 3), 6), (LIAISON, 3, (7, 5), 5)],
    9: [(BILIAISON, 1, (5, 2), 4), (LIAISON, 3, (5, 2), 4), (BILIAISON, 1, (6, 3), 3),
        (LIAISON, 3, (6, 3), 5)],
    10: [(BILIAISON, 1, (6, 3), 4), (LIAISON, 3, (6, 3), 4)],
    11: [(BILIAISON, 1, (6, 3), 5), (LIAISON, 3, (6, 3), 3), (LIAISON, 4, (6, 3), 9),
        (LIAISON, 4, (7, 5), 9), (LIAISON, 4, (8, 7), 9), (LIAISON, 4, (9, 9), 9)],
    12: [(BILIAISON, 1, (6, 3), 6), (LIAISON, 4, (6, 3), 8), (BILIAISON, 1, (7, 5), 5),
        (LIAISON, 4, (7, 5), 8), (LIAISON, 4, (8, 7), 8)],
    13: [(BILIAISON, 1, (7, 5), 6), (LIAISON, 4, (7, 5), 7), (LIAISON, 4, (8, 7), 7)],
    14: [(BILIAISON, 1, (7, 5), 7), (LIAISON, 4, (7, 5), 6), (LIAISON, 5, (7, 5), 13)],
    15: [(BILIAISON, 1, (8, 7), 7), (LIAISON, 5, (8, 7), 13), (LIAISON, 5, (9, 9), 14)],
    16: [(BILIAISON, 1, (8, 7), 8), (LIAISON, 5, (8, 7), 12), (LIAISON, 5, (9, 9), 13),
        (LIAISON, 5, (10, 11), 14)],
    17: [(LIAISON, 5, (9, 9), 12), (LIAISON, 5, (10, 11), 13)],
    18: [(BILIAISON, 1, (9, 9), 9), (LIAISON, 5, (9, 9), 11), (LIAISON, 5, (10, 11), 12)],
    19: [(LIAISON, 5, (10, 11), 11)],
}


def _runs(counts):
    runs = []
    for v in sorted(counts):
        if runs and runs[-1][1] == v - 1:
            runs[-1] = (runs[-1][0], v)
        else:
            runs.append((v, v))
    return tuple(runs)


@pytest.mark.parametrize("space, n_max, cap, count, reachable, digest", ORACLES)
def test_oracle_matches_the_recorded_graph(space, n_max, cap, count, reachable, digest):
    oracle = build_oracle(space, n_max)
    edges = sorted(tuple(sorted(edge)) for edge in oracle.edges)
    assert oracle.cap == cap
    assert len(edges) == count
    assert _runs(oracle.reachable) == reachable
    text = "\n".join(f"{u} {v}" for u, v in edges)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_descending_moves_match_the_recorded_table():
    for n in range(1, 40):
        assert p3_descending_moves(n) == P3_DESCENDING.get(n, [])


@pytest.mark.parametrize("space, n_max", [
    *((space, n_max) for space in ("p2", "quadric") for n_max in (1, 2, 17, 20, 41, 60)),
    ("cubic-surface", 1), ("cubic-surface", 29), ("cubic-surface", 30), ("cubic-surface", 44),
    ("p3", 1), ("p3", 20), ("p3", 39), ("p3", 60),
])
def test_oracle_keeps_every_move_validate_chain_admits(space, n_max):
    oracle = build_oracle(space, n_max)
    assert oracle.cap <= 60
    expected = move_graph_edges(space, oracle.cap)
    if space == "quadric":
        # The declared edge: 2 -> 1 on a ruling line after a height-0
        # slide, outside the containment count for general points.
        expected.add(frozenset((2, 1)))
    assert oracle.edges == expected


# SHA-256 of the sorted edges "u v", one per line, then the line
# "reachable" followed by every reachable count, at the caps of the
# acceptance suite.
ACCEPTANCE_DIGESTS = (
    ("cubic-surface", 500, "e280b424d0814439df35e0368e69b1e8b16be0f821a1bcccfdf398a6aae63ded"),
    ("p2", 300, "f9985d5c001889d6bea34ae1b9cece4441a5b939fcf96efefda7cf958a763ce4"),
    ("quadric", 300, "e26778758cb2c49f7ae3c47c609fdab3074fed478dc9579daf9b44f0cd7a9d8b"),
    ("p3", 19, "91ed93fe95dd20ff436ec5c2292662b0745c22867a43dfc2e7993a259e9fd524"),
    ("p3", 39, "91ed93fe95dd20ff436ec5c2292662b0745c22867a43dfc2e7993a259e9fd524"),
)


@pytest.mark.parametrize("space, n_max, digest", ACCEPTANCE_DIGESTS)
def test_oracle_digest_at_the_acceptance_caps(space, n_max, digest):
    oracle = build_oracle(space, n_max)
    lines = [f"{u} {v}" for u, v in sorted(tuple(sorted(edge)) for edge in oracle.edges)]
    lines.append("reachable " + " ".join(map(str, sorted(oracle.reachable))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_descending_moves_digest():
    text = "\n".join(f"{n} {p3_descending_moves(n)!r}" for n in range(1, 40))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a7732218e1e299f1d6f24b9f41e4909396b79a52a13c88a1c30ff9fb69d847bc")


def _count_builds(monkeypatch, carriers=False):
    """Record each record built from now on: ``LinkMove`` (in ``__new__``,
    or unchecked through ``moves._move``), ``Chain`` (in ``__init__``)
    and, with ``carriers``, every carrier the catalog builds or hands out
    (all go through ``_trusted``, a space's through ``_carrier``, which
    ``moves`` calls by its own name)."""
    built = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            built.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LinkMove, "__new__", counted("LinkMove", LinkMove.__new__))
    monkeypatch.setattr(moves, "_move", counted("_move", moves._move))
    monkeypatch.setattr(Chain, "__init__", counted("Chain", Chain.__init__))
    if carriers:
        monkeypatch.setattr(catalog, "_trusted", counted("_trusted", catalog._trusted))
        carrier = counted("_carrier", catalog._carrier)
        monkeypatch.setattr(catalog, "_carrier", carrier)
        monkeypatch.setattr(moves, "_carrier", carrier)
    return built


def test_candidates_are_tested_without_building_records(monkeypatch):
    # The oracle reads each carrier's numbers from its key: it builds no
    # move, no chain and no carrier, not even one the cache holds.
    built = _count_builds(monkeypatch, carriers=True)
    for space in SPACES:
        build_oracle(space, 60)
    p3_descending_moves(12)
    assert built == []
    # A plan keeps its steps as ints and builds a move when one is read.
    chain = plan("p2", 5)
    assert built == []
    chain.steps[0]
    assert built[0] == "_carrier" and built[-1] == "_move"
    assert set(built) <= {"_carrier", "_trusted", "_move"}


@pytest.mark.parametrize("space, n", [("p2", 300), ("quadric", 300), ("cubic-surface", 500),
                                      ("p3", 19)])
def test_counts_are_read_without_building_records(monkeypatch, space, n):
    # A planned chain's counts, and its text and JSON, come from its
    # columns: no LinkMove and no carrier is built, not even from the cache.
    oracle = build_oracle(space, n)
    chain = plan(space, n)
    built = _count_builds(monkeypatch, carriers=True)
    assert chain.terminal == 1
    assert chain.point_sequence()[0] == n
    assert oracle.confirms(chain)
    str(chain), chain.to_json(), list(chain._lines())
    assert built == []
    chain.steps[-1]
    assert "_move" in built and "_carrier" in built


def _planner_step(space, kind):
    return next(step for n in range(2, 20) for step in plan(space, n).steps
                if step.kind == kind and step.n_from != step.n_to)


@pytest.mark.parametrize("space, kind", [
    (space, kind) for space in sorted(_RULES) for kind in sorted(_RULES[space])
])
def test_every_rule_admits_a_planner_step_and_rejects_its_neighbours(space, kind):
    step = _planner_step(space, kind)
    param = step.m if kind == LIAISON else step.h
    c = step.carrier
    assert _broken(space, kind, step.n_from, step.n_to, c.d, c.g, c.linsys_dim, param,
                   step.note, c) is None
    for n_to in (step.n_to - 1, step.n_to + 1):
        broken = _broken(space, kind, step.n_from, n_to, c.d, c.g, c.linsys_dim, param,
                         step.note, c)
        assert type(broken) is str and broken


def test_every_space_declares_its_move_kinds():
    assert set(_RULES) == set(SPACES)
    assert all(rules and set(rules) <= {BILIAISON, LIAISON} for rules in _RULES.values())


@pytest.mark.parametrize("space, kind", [
    (space, kind) for space in sorted(_RULES) for kind in (BILIAISON, LIAISON)
    if kind not in _RULES[space]
])
def test_kinds_outside_the_table_are_never_admitted(space, kind):
    # The enumerator lists only the kinds in _RULES, so the table may
    # only prune moves validate_chain rejects: every move of another
    # kind, at any count, parameter and note on any carrier, fails.
    for carrier in _carriers(space, 12):
        for n in range(1, 31):
            for param in range(-2, 7):
                for note in ("", "repositioned"):
                    if kind == LIAISON:
                        n_to = param * carrier.d - (2 * carrier.g - 2) - n
                        move = LinkMove(LIAISON, n, n_to, carrier, param, note=note)
                    else:
                        n_to = n - param * carrier.d
                        move = LinkMove(BILIAISON, n, n_to, carrier, None, param, note)
                    assert not _accepts(space, n, move), move


def _message(space, kind, frm, to, carrier, param, note):
    """What validate_chain says of the one-step chain: None or its text."""
    twist = {"m": param} if kind == LIAISON else {"h": param}
    try:
        validate_chain(Chain(space, frm, (LinkMove(kind, frm, to, carrier, note=note, **twist),)))
    except InvalidMove as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("space, n_max", [(space, n_max) for space, n_max, _ in ACCEPTANCE_DIGESTS])
def test_rule_text_is_the_verdict_and_the_message(space, n_max):
    # Every candidate move of the oracle at the acceptance caps, and its
    # neighbours: either end and the parameter one off (both ends one
    # off keeps a drop or a total and moves only the window), the
    # heights 0 and -1, each with and without a repositioning note.  The
    # rule's text (see ``moves._broken``) is None where the oracle admits
    # the move, and otherwise validate_chain's message.  The same move on
    # the carrier without its linear-system dimension reaches no rule:
    # the chain refuses it when it is built.
    # The carriers are the public constructors' (with the quadric's
    # ruling line, which the oracle leaves to its declared edge).
    _, cap_of, *_ = _BY_SPACE[space]
    cap = cap_of(n_max)
    verdicts = {True: 0, False: 0}
    for carrier in _carriers(space, cap):
        if carrier.g > cap:
            continue
        bare = _trusted(carrier.ambient, carrier.d, carrier.g, None, carrier.divisor,
                        carrier.surface, carrier.label)
        lacks = f"carrier {carrier} lacks its linear-system dimension"
        holds = perrin_m(*carrier.dg) if space == "p3" else carrier.linsys_dim
        lo, hi = max(carrier.g, 1), min(holds, cap)
        for n in range(lo, hi + 1):
            for kind, param, n_to in _candidates(space, carrier.d, carrier.g, n, lo, hi):
                params = {param - 1, param, param + 1}
                if kind == BILIAISON:
                    params |= {0, -1}
                for frm, to in product((n - 1, n, n + 1), (n_to - 1, n_to, n_to + 1)):
                    for p in params:
                        for note in ("", "repositioned"):
                            broken = _broken(space, kind, frm, to, carrier.d, carrier.g,
                                             carrier.linsys_dim, p, note, carrier)
                            assert broken is None or (type(broken) is str and broken)
                            if note == "":
                                assert _admits(space, kind, frm, to, carrier.d, carrier.g,
                                               carrier.linsys_dim, p) == (broken is None)
                            if frm >= 1:
                                assert _message(space, kind, frm, to, carrier, p, note) == broken
                                if bare != carrier:
                                    assert _message(space, kind, frm, to, bare, p, note) == lacks
                            verdicts[broken is None] += 1
    assert min(verdicts.values()) > (10 if space == "p3" else 1000), verdicts
