import hashlib
import json

import pytest

import glicci.claims as claims
from glicci.catalog import small_degree_descents
from glicci.claims import (
    euler_char_twist,
    records_as_dicts,
    render_text,
    run_suite,
    summarize,
    verify_all,
    verify_bordiga,
    verify_catalog,
    verify_deg20,
    verify_rao,
)
from glicci.picard import SurfaceModel


def by_id(records):
    return {rec.id: rec for rec in records}


class TestSuiteHealth:
    @pytest.mark.parametrize(
        "suite,flagged",
        [(verify_catalog, 0), (verify_bordiga, 1), (verify_deg20, 1), (verify_rao, 0)],
    )
    def test_no_failures_expected_flags(self, suite, flagged):
        records = suite()
        npass, nfail, nflag = summarize(records)
        assert nfail == 0
        assert nflag == flagged
        assert npass == len(records) - flagged

    def test_all_suites_total(self):
        records = verify_all()
        assert len(records) >= 40
        ids = [rec.id for rec in records]
        assert len(set(ids)) == len(ids)
        assert ids == sorted(ids)

    def test_exactly_two_flagged(self):
        flagged = [rec.id for rec in verify_all() if rec.status == "flagged"]
        assert flagged == [
            "bordiga.23.complement-indexing",
            "deg20.03.resolution-display",
        ]

    def test_run_suite_dispatch(self):
        assert len(run_suite("deg20")) == len(verify_deg20())
        assert len(run_suite("all")) == len(verify_all())
        with pytest.raises(ValueError):
            run_suite("nope")


class TestSpotValues:
    def test_deg20_records(self):
        recs = by_id(verify_deg20())
        assert recs["deg20.06.K2"].computed == "5"
        assert recs["deg20.09.C2"].computed == "35"
        assert recs["deg20.10.dimC"].computed == "14"
        assert recs["deg20.15.Cprime2"].computed == "20"
        assert recs["deg20.11.hilbert-lower"].computed == "75"
        assert recs["deg20.12.determinantal-bound"].computed == "69 < 75"
        assert recs["deg20.13.family-via-surface"].computed == "74 < 75"
        assert recs["deg20.18.clifford-chain"].computed == "15"
        assert recs["deg20.20.biliaison-source"].computed == "[((10, 6), (10, 11))]"

    def test_bordiga_records(self):
        recs = by_id(verify_bordiga())
        assert recs["bordiga.31.C2"].computed == "17"
        assert recs["bordiga.33.hilbert-dim"].computed == "49"
        assert recs["bordiga.34.family-bound"].computed == "47 < 49"
        for i in range(1, 9):
            assert recs[f"bordiga.{i:02d}.D{i}-dg"].computed == "(10,6)"

    def test_flagged_complement_map(self):
        rec = by_id(verify_bordiga())["bordiga.23.complement-indexing"]
        assert rec.computed == "D_i ~ D_(9-i)"
        assert rec.expected == "D_i ~ D_(8-i)"

    def test_catalog_descents_all_pass(self):
        for rec in verify_catalog():
            assert rec.status == "pass", rec

    def test_rao_squares(self):
        rec = by_id(verify_rao())["rao.12.castelnuovo-squares"]
        assert rec.computed == "7, 6, 5"


class TestEulerCharacteristic:
    def test_twists(self):
        assert euler_char_twist(0) == 1
        assert euler_char_twist(-4) == 0
        assert euler_char_twist(-5) == 1
        assert euler_char_twist(2) == 15

    def test_polynomial_in_negative_range(self):
        for t in range(-4, 0):
            assert euler_char_twist(t) == 0


class TestReporting:
    def test_render_contains_cli_expected_line(self):
        text = render_text(verify_deg20())
        assert "K2 = 5 (expected 5) pass" in text
        assert "claims:" in text.splitlines()[-1]

    def test_records_serialize(self):
        payload = json.dumps(records_as_dicts(verify_all()))
        parsed = json.loads(payload)
        assert all(
            set(rec) == {"id", "location", "computed", "expected", "status"}
            for rec in parsed
        )

    def test_computed_strings_everywhere(self):
        for rec in verify_all():
            assert isinstance(rec.computed, str)
            assert isinstance(rec.expected, str)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestPinnedOutput:
    """SHA-256 of the 86 records, taken before the suites became tables of
    rows: any change to an id, location, computed or expected string, a
    status or the order shows here."""

    def test_repr(self):
        assert sha256(repr(verify_all())) == (
            "f16af142400306995299ec0e201737e625588c8c06f512ee98609e0b3a037f26"
        )

    def test_json(self):
        assert sha256(json.dumps(records_as_dicts(verify_all()))) == (
            "b50e2987fbe06b92cc4050cd923ff35b795d66b9162552df0641d9b701c8c64d"
        )

    def test_text(self):
        assert sha256(render_text(verify_all())) == (
            "b77c9b5bd6103ce7f4a94cc64f0fd380d58bc0c159b6d28ddcab2af94cf670c7"
        )


# For each public operation, the claims whose computed value moves when
# that operation alone is perturbed.  Taken before the suites became
# tables of rows; a claim whose value became a literal, or that stopped
# going through the operation, drops out of its set.
SENSITIVE = {
    "degree_of": """
        bordiga.01.D1-dg bordiga.02.D2-dg bordiga.03.D3-dg bordiga.04.D4-dg
        bordiga.05.D5-dg bordiga.06.D6-dg bordiga.07.D7-dg bordiga.08.D8-dg
        bordiga.20.D3-H bordiga.21.ag-divisor bordiga.30.eleven-seven-dg
        bordiga.33.hilbert-dim bordiga.35.C2-identity catalog.01a.dg
        catalog.01b.descent catalog.02a.dg catalog.02b.descent
        catalog.03a.dg catalog.03b.descent catalog.04a.dg
        catalog.04b.descent catalog.05a.dg catalog.05b.descent
        catalog.06a.dg catalog.06b.descent catalog.07a.dg
        catalog.07b.descent catalog.08a.dg catalog.08b.descent
        catalog.09a.dg catalog.09b.descent catalog.10a.dg
        catalog.10b.descent catalog.11a.dg catalog.11b.descent deg20.08.C-dg
        deg20.11.hilbert-lower deg20.12.determinantal-bound
        deg20.13.family-via-surface deg20.14.Cprime-dg
        deg20.17.Cprime-family deg20.19.special-family rao.01.scroll-45
        rao.02.scroll-45-descent rao.03.scroll-61 rao.04.scroll-61-descent
        rao.05.delpezzo-61 rao.06.delpezzo-61-descent rao.07.delpezzo-72
        rao.08.delpezzo-72-descent rao.09.castelnuovo-C1
        rao.10.castelnuovo-C2 rao.11.castelnuovo-C3 rao.15.castelnuovo-106a
        rao.15.castelnuovo-106a-descent rao.16.castelnuovo-106b
        rao.16.castelnuovo-106b-descent rao.17.bordiga-canonical
    """,
    "genus_of": """
        bordiga.01.D1-dg bordiga.02.D2-dg bordiga.03.D3-dg bordiga.04.D4-dg
        bordiga.05.D5-dg bordiga.06.D6-dg bordiga.07.D7-dg bordiga.08.D8-dg
        bordiga.30.eleven-seven-dg bordiga.32.h0-bound
        bordiga.33.hilbert-dim bordiga.34.family-bound
        bordiga.35.C2-identity catalog.01a.dg catalog.01b.descent
        catalog.02a.dg catalog.02b.descent catalog.03a.dg
        catalog.03b.descent catalog.04a.dg catalog.04b.descent
        catalog.05a.dg catalog.05b.descent catalog.06a.dg
        catalog.06b.descent catalog.07a.dg catalog.07b.descent
        catalog.08a.dg catalog.08b.descent catalog.09a.dg
        catalog.09b.descent catalog.10a.dg catalog.10b.descent
        catalog.11a.dg catalog.11b.descent deg20.08.C-dg deg20.10.dimC
        deg20.11.hilbert-lower deg20.12.determinantal-bound
        deg20.13.family-via-surface deg20.14.Cprime-dg
        deg20.17.Cprime-family deg20.19.special-family rao.01.scroll-45
        rao.03.scroll-61 rao.05.delpezzo-61 rao.07.delpezzo-72
        rao.09.castelnuovo-C1 rao.10.castelnuovo-C2 rao.11.castelnuovo-C3
        rao.15.castelnuovo-106a rao.15.castelnuovo-106a-descent
        rao.16.castelnuovo-106b rao.16.castelnuovo-106b-descent
        rao.17.bordiga-canonical
    """,
    "pair": """
        bordiga.01.D1-dg bordiga.02.D2-dg bordiga.03.D3-dg bordiga.04.D4-dg
        bordiga.05.D5-dg bordiga.06.D6-dg bordiga.07.D7-dg bordiga.08.D8-dg
        bordiga.20.D3-H bordiga.21.ag-divisor
        bordiga.30.eleven-seven-dg bordiga.31.C2 bordiga.32.h0-bound
        bordiga.33.hilbert-dim bordiga.34.family-bound
        bordiga.35.C2-identity catalog.01a.dg catalog.01b.descent
        catalog.02a.dg catalog.02b.descent catalog.03a.dg
        catalog.03b.descent catalog.04a.dg catalog.04b.descent
        catalog.05a.dg catalog.05b.descent catalog.06a.dg
        catalog.06b.descent catalog.07a.dg catalog.07b.descent
        catalog.08a.dg catalog.08b.descent catalog.09a.dg
        catalog.09b.descent catalog.10a.dg catalog.10b.descent
        catalog.11a.dg catalog.11b.descent deg20.05.HK deg20.06.K2
        deg20.07.K2-lattice deg20.08.C-dg deg20.09.C2 deg20.10.dimC
        deg20.11.hilbert-lower deg20.12.determinantal-bound
        deg20.13.family-via-surface deg20.14.Cprime-dg deg20.15.Cprime2
        deg20.16.Cprime-clifford deg20.17.Cprime-family
        deg20.19.special-family rao.01.scroll-45 rao.02.scroll-45-descent
        rao.03.scroll-61 rao.04.scroll-61-descent rao.05.delpezzo-61
        rao.06.delpezzo-61-descent rao.07.delpezzo-72
        rao.08.delpezzo-72-descent rao.09.castelnuovo-C1
        rao.10.castelnuovo-C2 rao.11.castelnuovo-C3
        rao.12.castelnuovo-squares rao.15.castelnuovo-106a
        rao.15.castelnuovo-106a-descent rao.16.castelnuovo-106b
        rao.16.castelnuovo-106b-descent rao.17.bordiga-canonical
    """,
    "is_effective_general": """
        bordiga.11.D1-H bordiga.12.D2-H bordiga.14.D4-H bordiga.15.D5-H
        bordiga.17.D7-H bordiga.18.D8-H catalog.01b.descent
        catalog.02b.descent catalog.03b.descent catalog.04b.descent
        catalog.05b.descent catalog.06b.descent catalog.07b.descent
        catalog.08b.descent catalog.09b.descent catalog.10b.descent
        catalog.11b.descent rao.13.castelnuovo-C1-H
        rao.14.castelnuovo-C2C3-H
    """,
    "subtract_hyperplanes": """
        bordiga.11.D1-H bordiga.12.D2-H bordiga.14.D4-H bordiga.20.D3-H
        catalog.01b.descent catalog.02b.descent catalog.03b.descent
        catalog.04b.descent catalog.05b.descent catalog.06b.descent
        catalog.07b.descent catalog.08b.descent catalog.09b.descent
        catalog.10b.descent catalog.11b.descent rao.02.scroll-45-descent
        rao.04.scroll-61-descent rao.06.delpezzo-61-descent
        rao.08.delpezzo-72-descent rao.13.castelnuovo-C1-H
        rao.15.castelnuovo-106a-descent rao.16.castelnuovo-106b-descent
    """,
    "canonical": """
        bordiga.22.complement-in-list
    """,
    "min_genus": """
        bordiga.36.biliaison-route deg20.01.min-genus deg20.04.section-genus
        deg20.05.HK deg20.06.K2 deg20.20.biliaison-source
    """,
}

PERTURBATIONS = {
    "degree_of": lambda orig: lambda self, c: orig(self, c) + 1000,
    "genus_of": lambda orig: lambda self, c: orig(self, c) + 1000,
    # Not a constant shift: one would cancel in C^2 + 1 - g, now that the
    # genus comes from the pairing too.
    "pair": lambda orig: lambda self, c, d: 2 * orig(self, c, d) + 2000,
    "is_effective_general": lambda orig: lambda self, c: not orig(self, c),
    "subtract_hyperplanes": lambda orig: lambda self, c, h=1: orig(self, c, h + 1),
    "canonical": lambda orig: lambda self, c: c,
}


def shifted_min_genus(orig):
    def perturbed(*args, **kwargs):
        genus, witness = orig(*args, **kwargs)
        return (None if genus is None else genus + 1000), witness
    return perturbed


class TestSensitivity:
    """Every claim is recomputed: perturbing one operation, where the
    claims look it up, moves exactly the claims that derive through it."""

    @pytest.mark.parametrize("name", sorted(SENSITIVE))
    def test_perturbed_operation_moves_its_claims(self, name, monkeypatch):
        before = {rec.id: rec.computed for rec in verify_all()}
        # Built before the perturbation, so that the catalog's own
        # lattice cross-check of each entry does not fire.
        descents = small_degree_descents()
        monkeypatch.setattr(claims, "small_degree_descents", lambda: descents)
        if name == "min_genus":
            monkeypatch.setattr(claims, "min_genus", shifted_min_genus(claims.min_genus))
        else:
            monkeypatch.setattr(
                SurfaceModel, name, PERTURBATIONS[name](getattr(SurfaceModel, name))
            )
        after = {rec.id: rec.computed for rec in verify_all()}
        assert after.keys() == before.keys()
        moved = {cid for cid in before if after[cid] != before[cid]}
        assert moved == set(SENSITIVE[name].split())
