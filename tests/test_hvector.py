import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glicci.errors import DegreeTooLarge, DegreeTooSmall, InvalidHVector
from glicci.hvector import (
    HVector,
    dg_of,
    entry_bound,
    enumerate_hvectors,
    formula_s,
    min_genus,
    min_genus_formula,
    s_zero,
)
from oracles import count_hvectors, min_genus_search


class TestHVectorValidation:
    def test_accepts_valid(self):
        h = HVector((1, 3, 6, 10), 3)
        assert len(h) == 4

    def test_first_entry_must_be_one(self):
        with pytest.raises(InvalidHVector):
            HVector((2, 3), 3)

    def test_entries_positive(self):
        with pytest.raises(InvalidHVector):
            HVector((1, 3, 0, 2), 3)

    def test_entry_bounds(self):
        with pytest.raises(InvalidHVector):
            HVector((1, 4), 3)
        with pytest.raises(InvalidHVector):
            HVector((1, 2, 4), 2)

    @pytest.mark.parametrize("entries", [(1, 3.0), (1.0,), ("1", "2")])
    def test_non_integer_entries_are_a_type_error(self, entries):
        with pytest.raises(TypeError):
            HVector(entries, 3)

    @pytest.mark.parametrize("entries, message", [
        ((True, 2, 1), "entry 0 must be int, got bool"),
        ((1, 2, True), "entry 2 must be int, got bool"),
        ((1, 3.0), "entry 1 must be int, got float"),
        (("1", "2"), "entry 0 must be int, got str"),
    ])
    def test_a_bad_entry_is_named_by_position(self, entries, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            HVector(entries, 2)

    def test_codim_guard(self):
        with pytest.raises(InvalidHVector):
            HVector((1, 1), 4)

    def test_bounds_table(self):
        assert [entry_bound(i, 3) for i in range(5)] == [1, 3, 6, 10, 15]
        assert [entry_bound(i, 2) for i in range(5)] == [1, 2, 3, 4, 5]


class TestDegreeGenus:
    def test_degree20(self):
        assert dg_of(HVector((1, 3, 6, 10), 3)) == (20, 26)

    def test_linear_tail(self):
        # (1, 3, d-4) has degree d and genus d - 4; at d = 9 that is (9, 5).
        assert dg_of(HVector((1, 3, 5), 3)) == (9, 5)

    def test_codim2(self):
        assert dg_of(HVector((1, 2, 3, 4), 2)) == (10, 11)

    @given(st.data())
    def test_tail_additivity(self, data):
        codim = data.draw(st.sampled_from([2, 3]))
        entries = [1]
        for i in range(1, data.draw(st.integers(1, 8))):
            entries.append(data.draw(st.integers(1, entry_bound(i, codim))))
        i = len(entries)
        c = data.draw(st.integers(1, entry_bound(i, codim)))
        d0, g0 = dg_of(HVector(tuple(entries), codim))
        d1, g1 = dg_of(HVector(tuple(entries + [c]), codim))
        assert (d1 - d0, g1 - g0) == (c, (i - 1) * c)


class TestSZero:
    def test_full_vector(self):
        assert s_zero(HVector((1, 3, 6, 10), 3)) == 4

    def test_early_deficit(self):
        assert s_zero(HVector((1, 3, 1), 3)) == 2

    def test_codim2(self):
        assert s_zero(HVector((1, 2, 2), 2)) == 2

    def test_witness_matches_formula_s(self):
        for d in range(4, 121):
            _, witness = min_genus(d, 3, nondegenerate=True)
            assert s_zero(witness) == formula_s(d)


class TestMinGenus:
    def test_degree20(self):
        genus, witness = min_genus(20, 3, nondegenerate=True)
        assert genus == 26
        assert witness.entries == (1, 3, 6, 10)

    def test_degree10(self):
        assert min_genus(10, 3, nondegenerate=True)[0] == 6

    def test_codim2_degree7(self):
        genus, witness = min_genus(7, 2, nondegenerate=True)
        assert genus == 5
        assert witness.entries == (1, 2, 3, 1)

    def test_piecewise_small_ranges(self):
        for d in range(4, 10):
            assert min_genus(d, 3, nondegenerate=True)[0] == d - 4
        for d in range(10, 20):
            assert min_genus(d, 3, nondegenerate=True)[0] == 2 * d - 14

    def test_formula_agrees_with_greedy(self):
        for d in range(4, 121):
            assert min_genus(d, 3, nondegenerate=True)[0] == min_genus_formula(d)

    def test_search_oracle_agrees_codim3(self):
        for d in range(4, 121):
            assert min_genus(d, 3, nondegenerate=True)[0] == min_genus_search(d, 3)

    def test_search_oracle_agrees_codim2(self):
        for d in range(3, 121):
            assert min_genus(d, 2, nondegenerate=True)[0] == min_genus_search(d, 2)

    def test_search_oracle_agrees_degenerate(self):
        for codim in (2, 3):
            for d in range(1, 61):
                assert (
                    min_genus(d, codim, nondegenerate=False)[0]
                    == min_genus_search(d, codim, nondegenerate=False)
                )

    def test_witness_is_greedy(self):
        for d in range(4, 121):
            _, witness = min_genus(d, 3, nondegenerate=True)
            for i, c in enumerate(witness.entries[:-1]):
                assert c == entry_bound(i, 3)

    def test_degree_guards(self):
        with pytest.raises(DegreeTooSmall):
            min_genus(3, 3, nondegenerate=True)
        with pytest.raises(DegreeTooSmall):
            min_genus(2, 2, nondegenerate=True)
        with pytest.raises(DegreeTooSmall):
            min_genus(0, 3, nondegenerate=False)
        with pytest.raises(DegreeTooSmall):
            min_genus_formula(3)

    def test_degenerate_small_degrees(self):
        assert min_genus(1, 3, nondegenerate=False) == (0, HVector((1,), 3))
        assert min_genus(2, 3, nondegenerate=False)[1].entries == (1, 1)
        assert min_genus(3, 3, nondegenerate=False)[1].entries == (1, 2)


class TestEnumeration:
    def test_forced_case(self):
        assert [h.entries for h in enumerate_hvectors(2, 2)] == [(1, 1)]

    def test_degree4_nondegenerate_subset(self):
        vectors = enumerate_hvectors(4, 3)
        nondeg = [h for h in vectors if h.entries[1:2] == (3,)]
        assert [h.entries for h in nondeg] == [(1, 3)]
        assert dg_of(nondeg[0]) == (4, 0)

    def test_lexicographic_and_unique(self):
        vectors = [h.entries for h in enumerate_hvectors(8, 3)]
        assert vectors == sorted(vectors)
        assert len(set(vectors)) == len(vectors)

    @pytest.mark.parametrize("codim", [2, 3])
    def test_count_against_independent_recursion(self, codim):
        for d in (1, 2, 5, 10, 13):
            assert len(enumerate_hvectors(d, codim)) == count_hvectors(d, codim)

    def test_enumeration_minimum_matches_greedy(self):
        for codim in (2, 3):
            for d in range(1, 15):
                vectors = enumerate_hvectors(d, codim)
                assert min(dg_of(h)[1] for h in vectors) == min_genus(
                    d, codim, nondegenerate=False
                )[0]

    def test_guards(self):
        with pytest.raises(DegreeTooLarge):
            enumerate_hvectors(201, 3)
        with pytest.raises(DegreeTooSmall):
            enumerate_hvectors(0, 3)

    @settings(max_examples=30)
    @given(st.integers(1, 12), st.sampled_from([2, 3]))
    def test_all_enumerated_have_right_degree(self, d, codim):
        assert all(dg_of(h)[0] == d for h in enumerate_hvectors(d, codim))
