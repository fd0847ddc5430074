"""Machine-checked derivations of the catalog's numeric claims.

Every recorded value about the registered surfaces and curve families
(degrees, genera, self-intersections, descent identities, dimension
bounds, liaison complements) is recomputed here through the public
toolkit operations and compared, exactly, against its expected value.
Results come back as ClaimRecords with status pass, fail, or flagged;
flagged is reserved for the two documented discrepancies between the
recorded text and the lattice arithmetic (the complement index map on
the Bordiga surface and the displayed resolution of the degree-10
surface), and nothing else.

Claims are independent of each other and the suites only read immutable
registry data, so they can run concurrently; reports are merged in id
order either way.
"""

from __future__ import annotations

from ._record import Record
from .catalog import (
    bordiga_eleven_seven,
    bordiga_ten_six,
    small_degree_descents,
    surface,
)
from .hvector import min_genus
from .moves import decompose_biliaison
from .picard import DivisorClass

# Family dimensions quoted from the literature; everything derived from
# them is recomputed, the constants themselves are inputs.
BORDIGA_FAMILY_DIM = 36
DEG10_SURFACE_FAMILY_DIM = 60
DEG10_SPECIAL_SURFACE_FAMILY_DIM = 59
DETERMINANTAL_2026_FAMILY_BOUND = 69


class ClaimRecord(Record):
    __slots__ = _fields = ("id", "location", "computed", "expected", "status")

    def __init__(self, id: str, location: str, computed: str, expected: str, status: str):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "computed", computed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "status", status)


def _claim(cid: str, location: str, computed, expected, flagged: bool = False) -> ClaimRecord:
    computed, expected = str(computed), str(expected)
    if flagged:
        status = "flagged"
    else:
        status = "pass" if computed == expected else "fail"
    return ClaimRecord(cid, location, computed, expected, status)


def _dg(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def euler_char_twist(t: int) -> int:
    """Euler characteristic of O(t) on 4-space: the signed binomial
    binom(t+4, 4), extended to negative t by the polynomial formula."""
    return (t + 1) * (t + 2) * (t + 3) * (t + 4) // 24


def _effective_word(flag: bool) -> str:
    return "effective" if flag else "not effective"


# ---------------------------------------------------------------------------
# Suite: the descent catalog for ACM curves of degree <= 9.

def verify_catalog() -> list[ClaimRecord]:
    """Each catalog entry: recompute (d, g) from the class, recompute the
    descent C - h*H, and check the descent is the stated smaller curve
    and passes the effectiveness heuristic."""
    records = []
    for idx, entry in enumerate(small_degree_descents(), start=1):
        fam = entry.family
        model = surface(fam.surface)
        dg = (model.degree_of(fam.divisor), model.genus_of(fam.divisor))
        records.append(
            _claim(
                f"catalog.{idx:02d}a.dg",
                f"{fam.label} on the {fam.surface}",
                _dg(dg),
                _dg((fam.d, fam.g)),
            )
        )
        descent = model.subtract_hyperplanes(fam.divisor, entry.height)
        ddg = (model.degree_of(descent), model.genus_of(descent))
        computed = (
            f"C-{entry.height}H = {descent.compact()} {_dg(ddg)} "
            f"{_effective_word(model.is_effective_general(descent))}"
        )
        expected = (
            f"C-{entry.height}H = {entry.descent.compact()} "
            f"{_dg((entry.descent_d, entry.descent_g))} effective"
        )
        records.append(
            _claim(
                f"catalog.{idx:02d}b.descent",
                f"{fam.label}: descent to a {entry.descent_label}",
                computed,
                expected,
            )
        )
    return records


# ---------------------------------------------------------------------------
# Suite: (10,6) and (11,7) curves on the Bordiga surface.

def _l1_min_genus(d: int) -> int | None:
    # Minimal genus of degree-d curves with one-dimensional Rao module in
    # degree 1; recorded for degrees 4..7, absent elsewhere.
    return {4: 0, 5: 0, 6: 1, 7: 2}.get(d)


def verify_bordiga() -> list[ClaimRecord]:
    model = surface("bordiga")
    classes = bordiga_ten_six()
    records = []

    for i, cls in enumerate(classes, start=1):
        dg = (model.degree_of(cls), model.genus_of(cls))
        records.append(
            _claim(
                f"bordiga.{i:02d}.D{i}-dg",
                f"D{i} = {cls.compact()} on the Bordiga surface",
                _dg(dg),
                "(10,6)",
            )
        )

    descent_identities = {1: "1;0^10", 2: "2;1^4,0^6", 4: "3;2,1^6,0^3"}
    for i in (1, 2, 4):
        down = model.subtract_hyperplanes(classes[i - 1])
        computed = f"{down.compact()} {_effective_word(model.is_effective_general(down))}"
        records.append(
            _claim(
                f"bordiga.1{i}.D{i}-H",
                f"D{i} - H on the Bordiga surface",
                computed,
                f"{descent_identities[i]} effective",
            )
        )
    for i in (5, 7, 8):
        down = model.subtract_hyperplanes(classes[i - 1])
        records.append(
            _claim(
                f"bordiga.1{i}.D{i}-H",
                f"D{i} - H on the Bordiga surface",
                _effective_word(model.is_effective_general(down)),
                "not effective",
            )
        )

    d3_down = model.subtract_hyperplanes(classes[2])
    records.append(
        _claim(
            "bordiga.20.D3-H",
            "D3 - H splits as a plane cubic plus a line",
            f"{d3_down.compact()} degree {model.degree_of(d3_down)}",
            "3;1^9,-1 degree 4",
        )
    )

    ag = model.ag_class(3)
    records.append(
        _claim(
            "bordiga.21.ag-divisor",
            "the arithmetically Gorenstein divisor 3H - K",
            f"{ag.compact()} degree {model.degree_of(ag)}",
            "15;4^10 degree 20",
        )
    )

    canon = [model.canonical(c) for c in classes]
    pairs = []
    all_in_list = True
    for i, cls in enumerate(classes, start=1):
        comp = model.canonical(ag - cls)
        if comp in canon:
            pairs.append((i, canon.index(comp) + 1))
        else:
            all_in_list = False
    records.append(
        _claim(
            "bordiga.22.complement-in-list",
            "complements (3H-K) - D_i stay within the eight classes",
            "all eight complements are listed classes" if all_in_list else f"missing: {pairs}",
            "all eight complements are listed classes",
        )
    )
    rule = "D_i ~ D_(9-i)" if all(i + j == 9 for i, j in pairs) else str(pairs)
    records.append(
        _claim(
            "bordiga.23.complement-indexing",
            "induced index map of the 3H - K complement pairing "
            "(lattice arithmetic disagrees with the recorded index map)",
            rule,
            "D_i ~ D_(8-i)",
            flagged=True,
        )
    )

    eleven = DivisorClass.parse("6;2^3,1^7")
    dg = (model.degree_of(eleven), model.genus_of(eleven))
    c2 = model.self_intersection(eleven)
    records.append(
        _claim(
            "bordiga.30.eleven-seven-dg",
            "the (11,7) curve (6;2^3,1^7)",
            _dg(dg),
            "(11,7)",
        )
    )
    records.append(
        _claim(
            "bordiga.31.C2",
            "self-intersection of (6;2^3,1^7)",
            c2,
            17,
        )
    )
    records.append(
        _claim(
            "bordiga.32.h0-bound",
            "h0 of the normal system, C^2 + 1 - g",
            c2 + 1 - dg[1],
            11,
        )
    )
    records.append(
        _claim(
            "bordiga.33.hilbert-dim",
            "dimension of the Hilbert scheme of (11,7) curves, 5d + 1 - g",
            5 * dg[0] + 1 - dg[1],
            49,
        )
    )
    family = BORDIGA_FAMILY_DIM + (c2 + 1 - dg[1])
    records.append(
        _claim(
            "bordiga.34.family-bound",
            "curves of this type on all Bordiga surfaces: 36 + 11, short of 49",
            f"{family} < 49" if family < 49 else f"{family} >= 49",
            "47 < 49",
        )
    )

    ok = []
    for cls in bordiga_eleven_seven():
        a = cls.coeffs[0]
        ok.append(
            (model.degree_of(cls), model.genus_of(cls)) == (11, 7)
            and model.self_intersection(cls) == 23 - a
            and a >= 6
        )
    records.append(
        _claim(
            "bordiga.35.C2-identity",
            "C^2 = 23 - a with a >= 6 for the stored (11,7) classes",
            f"holds for {sum(ok)} of {len(ok)} classes",
            f"holds for {len(ok)} of {len(ok)} classes",
        )
    )

    def p3_min(d: int) -> int | None:
        return min_genus(d, 2, nondegenerate=False)[0]

    routes = decompose_biliaison(11, 7, _l1_min_genus, p3_min)
    records.append(
        _claim(
            "bordiga.36.biliaison-route",
            "the only height-1 biliaison source of an (11,7) curve",
            routes,
            [((5, 0), (6, 3))],
        )
    )
    return records


# ---------------------------------------------------------------------------
# Suite: the degree-20 genus-26 study on the determinantal surface.

def verify_deg20() -> list[ClaimRecord]:
    model = surface("det10")
    H, K = model.H, model.K
    records = []

    genus, witness = min_genus(20, 3, nondegenerate=True)
    records.append(
        _claim(
            "deg20.01.min-genus",
            "minimal genus of a nondegenerate ACM curve of degree 20 in 4-space",
            f"{genus} {witness}",
            "26 (1,3,6,10)",
        )
    )

    # chi(O_S) from the resolution of the surface ideal,
    # 0 -> O(-5)^4 -> O(-4)^5 -> I_S -> 0.
    chi_ideal = 5 * euler_char_twist(-4) - 4 * euler_char_twist(-5)
    chi = euler_char_twist(0) - chi_ideal
    records.append(
        _claim(
            "deg20.02.chi",
            "Euler characteristic of the degree-10 surface from its resolution",
            chi,
            5,
        )
    )
    records.append(
        _claim(
            "deg20.03.resolution-display",
            "the sequence as displayed resolves the structure sheaf directly, "
            "which contradicts chi = 5; the ideal-sheaf reading is used instead",
            chi_ideal,
            5,
            flagged=True,
        )
    )

    section_genus = min_genus(10, 2, nondegenerate=True)[0]
    records.append(
        _claim(
            "deg20.04.section-genus",
            "sectional genus of the degree-10 surface, minimal for its degree",
            section_genus,
            11,
        )
    )
    hk = 2 * section_genus - 2 - model.pair(H, H)
    records.append(
        _claim(
            "deg20.05.HK",
            "H.K by adjunction on the (10,11) hyperplane section",
            hk,
            10,
        )
    )

    # Double-point identity for a surface in 4-space:
    # d^2 - 10d - 5 H.K - 2 K^2 + 12 chi = 0.
    d = model.pair(H, H)
    k2_formula = (d * d - 10 * d - 5 * hk + 12 * chi) // 2
    records.append(
        _claim(
            "deg20.06.K2",
            "K^2 from the double-point identity",
            k2_formula,
            5,
        )
    )
    records.append(
        _claim(
            "deg20.07.K2-lattice",
            "K^2 read off the declared intersection lattice",
            model.pair(K, K),
            5,
        )
    )

    C = H + K
    records.append(
        _claim(
            "deg20.08.C-dg",
            "C = H + K is a (20,26) curve",
            _dg((model.degree_of(C), model.genus_of(C))),
            "(20,26)",
        )
    )
    c2 = model.self_intersection(C)
    records.append(_claim("deg20.09.C2", "self-intersection of C = H + K", c2, 35))

    pg = chi - 1  # irregularity 0, so h^2(O_S) = chi - 1
    dim_c = c2 + 1 - model.genus_of(C) + pg
    records.append(
        _claim(
            "deg20.10.dimC",
            "dim |C| = C^2 + 1 - g + h1, with h1 = h2(O_S) = 4",
            dim_c,
            14,
        )
    )

    hilbert_lower = 5 * model.degree_of(C) + 1 - model.genus_of(C)
    records.append(
        _claim(
            "deg20.11.hilbert-lower",
            "every component of the Hilbert scheme of (20,26) curves has dim >= 5d + 1 - g",
            hilbert_lower,
            75,
        )
    )
    records.append(
        _claim(
            "deg20.12.determinantal-bound",
            "determinantal (20,26) curves form a family of dim <= 69, below 75",
            f"{DETERMINANTAL_2026_FAMILY_BOUND} < {hilbert_lower}",
            "69 < 75",
        )
    )
    via_s = DEG10_SURFACE_FAMILY_DIM + dim_c
    records.append(
        _claim(
            "deg20.13.family-via-surface",
            "curves linearly equivalent to C on some degree-10 surface: 60 + 14, below 75",
            f"{via_s} < {hilbert_lower}" if via_s < hilbert_lower else f"{via_s} >= {hilbert_lower}",
            "74 < 75",
        )
    )

    Cp = 4 * H - 2 * K
    records.append(
        _claim(
            "deg20.14.Cprime-dg",
            "C' = 4H - 2K is the other (20,26) class on a general degree-10 surface",
            _dg((model.degree_of(Cp), model.genus_of(Cp))),
            "(20,26)",
        )
    )
    cp2 = model.self_intersection(Cp)
    records.append(_claim("deg20.15.Cprime2", "self-intersection of C'", cp2, 20))
    clifford_dim = cp2 // 2 + 1
    records.append(
        _claim(
            "deg20.16.Cprime-clifford",
            "Clifford bound dim |C'| <= C'^2/2 + 1",
            clifford_dim,
            11,
        )
    )
    records.append(
        _claim(
            "deg20.17.Cprime-family",
            "curves of type C' across all general degree-10 surfaces: 60 + 11, below 75",
            f"{DEG10_SURFACE_FAMILY_DIM + clifford_dim} < {hilbert_lower}",
            "71 < 75",
        )
    )

    # dim |D| = D^2 + 1 - g + a = 25 + a - b with b = D.K, under the
    # Clifford-index hypothesis b >= 2a + 6 and the section bound a >= 4.
    a_min = 4
    dim_bound = max(25 + a - (2 * a + 6) for a in range(a_min, 26))
    records.append(
        _claim(
            "deg20.18.clifford-chain",
            "dim |D| = 25 + a - b <= 19 - a <= 15 given b >= 2a + 6 and a >= 4",
            dim_bound,
            15,
        )
    )
    records.append(
        _claim(
            "deg20.19.special-family",
            "curves on non-general degree-10 surfaces: 59 + 15, below 75",
            f"{DEG10_SPECIAL_SURFACE_FAMILY_DIM + dim_bound} < {hilbert_lower}",
            "74 < 75",
        )
    )

    def p4_min(deg: int) -> int | None:
        return min_genus(deg, 3, nondegenerate=False)[0]

    def p3_min(deg: int) -> int | None:
        return min_genus(deg, 2, nondegenerate=False)[0]

    sources = decompose_biliaison(20, 26, p4_min, p3_min)
    records.append(
        _claim(
            "deg20.20.biliaison-source",
            "the only height-1 biliaison source of a (20,26) curve",
            sources,
            [((10, 6), (10, 11))],
        )
    )
    return records


# ---------------------------------------------------------------------------
# Suite: curves with one-dimensional Rao module, lattice checks.

def verify_rao() -> list[ClaimRecord]:
    scroll = surface("scroll")
    delpezzo = surface("delpezzo")
    castelnuovo = surface("castelnuovo")
    bordiga = surface("bordiga")
    records = []

    def dg_claim(cid, model, text, expected, location):
        cls = DivisorClass.parse(text)
        records.append(
            _claim(
                cid,
                location,
                _dg((model.degree_of(cls), model.genus_of(cls))),
                expected,
            )
        )
        return cls

    quintic = dg_claim("rao.01.scroll-45", scroll, "4;3", "(5,0)",
                       "the rational quintic (4;3) on the scroll")
    down = scroll.subtract_hyperplanes(quintic)
    ruling = DivisorClass.parse("1;1")
    records.append(
        _claim(
            "rao.02.scroll-45-descent",
            "C - H = (2;2) holds two disjoint rulings",
            f"{down.compact()} = 2 x (1;1), ruling degree {scroll.degree_of(ruling)}, "
            f"meeting {scroll.pair(ruling, ruling)}",
            "2;2 = 2 x (1;1), ruling degree 1, meeting 0",
        )
    )

    sextic = dg_claim("rao.03.scroll-61", scroll, "3;0", "(6,1)",
                      "the (6,1) curve (3;0) on the scroll")
    down = scroll.subtract_hyperplanes(sextic)
    core, excess = scroll.exceptional_split(down)
    line = DivisorClass.parse("0;-1")
    records.append(
        _claim(
            "rao.04.scroll-61-descent",
            "C - H = (1;-1) splits as a disjoint conic and line",
            f"{down.compact()} = {core.compact()} + E1, degrees "
            f"{scroll.degree_of(core)}+{scroll.degree_of(line)}, meeting "
            f"{scroll.pair(core, line)}",
            "1;-1 = 1;0 + E1, degrees 2+1, meeting 0",
        )
    )

    dp61 = dg_claim("rao.05.delpezzo-61", delpezzo, "3;1^3,0^2", "(6,1)",
                    "the (6,1) curve with two trisecants on the Del Pezzo surface")
    down = delpezzo.subtract_hyperplanes(dp61)
    e4, e5 = DivisorClass.parse("0;0^3,-1,0"), DivisorClass.parse("0;0^4,-1")
    records.append(
        _claim(
            "rao.06.delpezzo-61-descent",
            "C - H = (0;0^3,-1^2) is two disjoint lines",
            f"{down.compact()}, line degrees {delpezzo.degree_of(e4)},"
            f"{delpezzo.degree_of(e5)}, meeting {delpezzo.pair(e4, e5)}",
            "0;0^3,-1^2, line degrees 1,1, meeting 0",
        )
    )

    dp72 = dg_claim("rao.07.delpezzo-72", delpezzo, "4;2,1^3,0", "(7,2)",
                    "the (7,2) curve on the Del Pezzo surface")
    down = delpezzo.subtract_hyperplanes(dp72)
    core, excess = delpezzo.exceptional_split(down)
    records.append(
        _claim(
            "rao.08.delpezzo-72-descent",
            "C - H = (1;1,0^3,-1) is a disjoint conic and line",
            f"{down.compact()} = {core.compact()} + E5, degrees "
            f"{delpezzo.degree_of(core)}+1, meeting "
            f"{delpezzo.pair(core, DivisorClass.parse('0;0^4,-1'))}",
            "1;1,0^3,-1 = 1;1,0^4 + E5, degrees 2+1, meeting 0",
        )
    )

    c1 = dg_claim("rao.09.castelnuovo-C1", castelnuovo, "4;2,1^5,0^2", "(7,2)",
                  "the first (7,2) class on the Castelnuovo surface")
    c2 = dg_claim("rao.10.castelnuovo-C2", castelnuovo, "5;2^4,1^3,0", "(7,2)",
                  "the second (7,2) class on the Castelnuovo surface")
    c3 = dg_claim("rao.11.castelnuovo-C3", castelnuovo, "5;1^4,2^4", "(7,2)",
                  "the third (7,2) class on the Castelnuovo surface")
    records.append(
        _claim(
            "rao.12.castelnuovo-squares",
            "self-intersections of the three (7,2) classes",
            f"{castelnuovo.self_intersection(c1)}, {castelnuovo.self_intersection(c2)}, "
            f"{castelnuovo.self_intersection(c3)}",
            "7, 6, 5",
        )
    )
    records.append(
        _claim(
            "rao.13.castelnuovo-C1-H",
            "C1 - H is effective (two skew lines)",
            f"{castelnuovo.subtract_hyperplanes(c1).compact()} "
            f"{_effective_word(castelnuovo.is_effective_general(castelnuovo.subtract_hyperplanes(c1)))}",
            "0;0^6,-1^2 effective",
        )
    )
    records.append(
        _claim(
            "rao.14.castelnuovo-C2C3-H",
            "C2 - H and C3 - H are not effective",
            f"{_effective_word(castelnuovo.is_effective_general(castelnuovo.subtract_hyperplanes(c2)))}, "
            f"{_effective_word(castelnuovo.is_effective_general(castelnuovo.subtract_hyperplanes(c3)))}",
            "not effective, not effective",
        )
    )

    for cid, text, down_expected in (
        ("rao.15.castelnuovo-106a", "6;3,2,1^6", "2;1^2,0^6"),
        ("rao.16.castelnuovo-106b", "6;2^4,1^4", "2;0,1^3,0^4"),
    ):
        cls = dg_claim(cid, castelnuovo, text, "(10,6)",
                       f"the (10,6) curve ({text}) on the Castelnuovo surface")
        down = castelnuovo.subtract_hyperplanes(cls)
        records.append(
            _claim(
                cid + "-descent",
                f"({text}) - H is a (5,0) curve",
                f"{down.compact()} "
                f"{_dg((castelnuovo.degree_of(down), castelnuovo.genus_of(down)))}",
                f"{down_expected} (5,0)",
            )
        )

    dg_claim("rao.17.bordiga-canonical", bordiga, "7;2^9,0", "(10,6)",
             "the canonical-curve class D3 on the Bordiga surface")
    return records


# ---------------------------------------------------------------------------
# Reporting.

SUITES = {
    "catalog": verify_catalog,
    "bordiga": verify_bordiga,
    "deg20": verify_deg20,
    "rao": verify_rao,
}


def verify_all() -> list[ClaimRecord]:
    records = []
    for suite in SUITES.values():
        records.extend(suite())
    return sorted(records, key=lambda r: r.id)


def run_suite(name: str) -> list[ClaimRecord]:
    if name == "all":
        return verify_all()
    try:
        return sorted(SUITES[name](), key=lambda r: r.id)
    except KeyError:
        raise ValueError(
            f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all"
        ) from None


def summarize(records) -> tuple[int, int, int]:
    """(passes, fails, flagged)."""
    statuses = [r.status for r in records]
    return statuses.count("pass"), statuses.count("fail"), statuses.count("flagged")


def render_text(records) -> str:
    lines = []
    for rec in records:
        label = rec.id.rsplit(".", 1)[-1]
        lines.append(f"{rec.id}: {label} = {rec.computed} (expected {rec.expected}) {rec.status}")
    npass, nfail, nflag = summarize(records)
    lines.append(f"{len(records)} claims: {npass} pass, {nfail} fail, {nflag} flagged")
    return "\n".join(lines)


def records_as_dicts(records) -> list[dict]:
    return [{name: getattr(rec, name) for name in rec._fields} for rec in records]
