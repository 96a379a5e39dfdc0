"""The numpy inversion-counting kernel against brute force."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degdep import kernels
from degdep.correlations import PairTable

from helpers import inversions_brute
from oracles import kendall_naive


def _inversions_vectorized(arr) -> int:
    """O(m^2) count in numpy, one row at a time; fast enough for m of a few
    thousand, where the pure-Python brute force is too slow."""
    return sum(int(np.count_nonzero(arr[i + 1:] < arr[i])) for i in range(arr.size))


class TestCountInversions:
    def test_trivial_lengths(self):
        assert kernels.count_inversions(np.array([], dtype=np.int64)) == 0
        assert kernels.count_inversions(np.array([5])) == 0

    def test_sorted_and_reversed(self):
        assert kernels.count_inversions(np.arange(100)) == 0
        assert kernels.count_inversions(np.arange(100)[::-1]) == 100 * 99 // 2

    def test_all_ties(self):
        assert kernels.count_inversions(np.zeros(50, dtype=np.int64)) == 0

    @given(st.lists(st.integers(min_value=-5, max_value=5), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_matches_brute_force_tie_heavy(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert kernels.count_inversions(arr) == inversions_brute(values)

    def test_random_large_agreement(self):
        rng = np.random.default_rng(0)
        for m in (257, 1024, 4097):
            arr = rng.integers(0, 40, m)
            got = kernels.count_inversions(arr)
            assert got == _inversions_vectorized(arr)
            if m == 257:
                assert got == inversions_brute(arr.tolist())

    def test_negative_values(self):
        arr = np.array([3, -1, -1, 2, -5])
        assert kernels.count_inversions(arr) == inversions_brute(arr.tolist())

    @given(st.lists(st.integers(min_value=-10**12, max_value=10**12), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_no_weights_matches_brute_force(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert kernels.count_inversions(arr, weights=None) == inversions_brute(values)


def _weighted_brute(values, weights):
    """Sum of w_i * w_j over i < j with values[i] > values[j], in exact
    arithmetic (Python ints, or Fractions of the float weights)."""
    return sum(
        weights[i] * weights[j]
        for i in range(len(values))
        for j in range(i + 1, len(values))
        if values[i] > values[j]
    )


def _sequences_with_weights(weight):
    return st.integers(min_value=0, max_value=40).flatmap(
        lambda m: st.tuples(
            st.lists(st.one_of(st.integers(-4, 4), st.integers(-10**15, 10**15)),
                     min_size=m, max_size=m),
            st.lists(weight, min_size=m, max_size=m),
        )
    )


class TestWeightedCountInversions:
    @given(_sequences_with_weights(st.integers(min_value=-20, max_value=10**6)))
    @settings(max_examples=200, deadline=None)
    def test_integer_weights_exact(self, case):
        values, weights = case
        got = kernels.count_inversions(np.array(values, dtype=np.int64),
                                       np.array(weights, dtype=np.int64))
        assert type(got) is int
        assert got == _weighted_brute(values, weights)

    @given(_sequences_with_weights(st.floats(min_value=0.0, max_value=1.0)))
    @settings(max_examples=200, deadline=None)
    def test_float_weights_near_exact_sum(self, case):
        values, weights = case
        got = kernels.count_inversions(np.array(values, dtype=np.int64),
                                       np.array(weights, dtype=np.float64))
        assert type(got) is float
        exact = _weighted_brute(values, [Fraction(w) for w in weights])
        assert abs(Fraction(got) - exact) <= Fraction(1, 10**12)

    def test_unit_weights_equal_plain_count(self):
        arr = np.random.default_rng(5).integers(0, 30, 3001)
        ones = np.ones(arr.size, dtype=np.int64)
        assert kernels.count_inversions(arr, ones) == kernels.count_inversions(arr)

    def test_repeated_entries_equal_integer_weights(self):
        # an entry of weight w counts like w adjacent copies of it
        rng = np.random.default_rng(6)
        values = rng.integers(-50, 50, 500)
        weights = rng.integers(1, 6, 500)
        assert (kernels.count_inversions(values, weights)
                == kernels.count_inversions(np.repeat(values, weights)))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="weights must match"):
            kernels.count_inversions([3, 1, 2], [1, 2])

    def test_rejects_integer_weights_past_int64(self):
        with pytest.raises(ValueError, match="too large"):
            kernels.count_inversions([1, 0], np.array([2**31, 2**31], dtype=np.int64))


class TestConcordanceCounts:
    def test_worked_example(self):
        assert PairTable([2, 2, 1], [1, 2, 2]).concordance() == (0, 1)

    def test_perfectly_concordant(self):
        assert PairTable([1, 2, 3], [1, 2, 3]).concordance() == (3, 0)

    def test_all_tied(self):
        assert PairTable([1, 1, 1], [2, 2, 2]).concordance() == (0, 0)

    def test_matches_naive_on_random_lists(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            m = int(rng.integers(2, 200))
            x = rng.integers(0, 12, m)
            y = rng.integers(0, 12, m)
            assert PairTable(x, y).concordance() == kendall_naive(x, y)

    def test_counts_bounded_by_total_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(2, 120))
            x = rng.integers(0, 6, m)
            y = rng.integers(0, 6, m)
            n_c, n_d = PairTable(x, y).concordance()
            assert n_c >= 0 and n_d >= 0
            assert n_c + n_d <= m * (m - 1) // 2

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=50,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_property_matches_naive(self, pairs):
        x = np.array([a for a, _ in pairs])
        y = np.array([b for _, b in pairs])
        assert PairTable(x, y).concordance() == kendall_naive(x, y)
