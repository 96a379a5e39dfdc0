"""The per-pair count table against independent oracles.

Kendall's counts are checked against the O(m^2) definition and, on graphs,
against the dense-grid distribution form; average-rank Spearman, the exact
tie-break mean of the uniform-rank Spearman and Pearson against
per-occurrence Python-integer sums with the documented final rounding, and,
past two million pairs, against values derived in `Fraction` arithmetic.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degdep import (
    ALL_PAIRS,
    DirectedMultigraph,
    average_ranks,
    kendall_naive,
    kendall_xy,
    pearson_xy,
    spearman_average_xy,
    kernels,
    uniform_ranks,
)
from degdep.correlations import PairTable, _exact_dot, kendall_from_distributions

from helpers import NON_INT64_FLOATS


def _rounded(num: int, var_a: int, var_b: int):
    """The documented rounding of num / sqrt(var_a var_b)."""
    if var_a == 0 or var_b == 0:
        return None
    prod = var_a * var_b
    root = math.isqrt(prod)
    denom = root if root * root == prod else math.sqrt(prod)
    return min(1.0, max(-1.0, num / denom))


def _pearson_reference(x, y):
    m = len(x)
    sx, sy = sum(x), sum(y)
    sxx = sum(a * a for a in x)
    syy = sum(b * b for b in y)
    sxy = sum(a * b for a, b in zip(x, y))
    return _rounded(m * sxy - sx * sy, m * sxx - sx * sx, m * syy - sy * sy)


def _centered(values):
    # doubled average rank, centered: 2 * (#greater + (#equal + 1) / 2) - (m + 1)
    return [2 * sum(w > v for w in values) + sum(w == v for w in values) - len(values)
            for v in values]


def _spearman_average_reference(x, y):
    da, db = _centered(x), _centered(y)
    return _rounded(sum(a * b for a, b in zip(da, db)),
                    sum(a * a for a in da), sum(b * b for b in db))


def _spearman_uniform_mean_reference(x, y):
    # 3 sum(da db) / (m^3 - m) in rational arithmetic, rounded once
    m = len(x)
    return float(Fraction(3 * sum(a * b for a, b in zip(_centered(x), _centered(y))),
                          m**3 - m))


pair_lists = st.lists(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=2, max_size=60
)


class TestInput:
    def test_rejects_non_integer_values(self):
        for bad in NON_INT64_FLOATS:
            with pytest.raises(ValueError, match="integer"):
                PairTable([bad, 1.0, 2.0], [1, 2, 3])
            with pytest.raises(ValueError, match="integer"):
                PairTable([1, 2, 3], [1.0, 2.0, bad])

    def test_rejects_empty_and_unequal_sides(self):
        with pytest.raises(ValueError, match="nonempty"):
            PairTable([], [])
        with pytest.raises(ValueError, match="same length"):
            PairTable([1, 2], [1])


class TestConcordance:
    @given(pair_lists, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_concordance_matches_naive(self, pairs, constant_x):
        x = np.array([0 if constant_x else a for a, _ in pairs])
        y = np.array([b for _, b in pairs])
        assert PairTable(x, y).concordance() == kendall_naive(x, y)

    @given(st.lists(st.tuples(st.integers(-10**12, 10**12), st.integers(-3, 3)),
                    min_size=2, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_wide_values_take_the_merge_path(self, pairs):
        x = np.array([a for a, _ in pairs])
        y = np.array([b for _, b in pairs])
        table = PairTable(x, y)
        n_c, n_d = kendall_naive(x, y)
        assert table.concordance() == (n_c, n_d)
        m = len(pairs)
        assert kendall_xy(x, y) == float(Fraction(2 * (n_c - n_d), m * (m - 1)))

    def test_merge_counts_distinct_cells(self, monkeypatch):
        # 60 distinct (x, y) cells repeated over 800 pairs: the kernel sees
        # the cells, not the occurrences
        rng = np.random.default_rng(4)
        cell_x = rng.permutation(60) * 10**9
        cell_y = rng.permutation(60) - 30
        pick = rng.integers(0, 60, 800)
        x, y = cell_x[pick], cell_y[pick]
        lengths = []
        count_inversions = kernels.count_inversions

        def spy(seq, weights=None):
            lengths.append(len(seq))
            return count_inversions(seq, weights)

        monkeypatch.setattr(kernels, "count_inversions", spy)
        table = PairTable(x, y)
        assert table.concordance() == kendall_naive(x, y)
        assert lengths and max(lengths) <= np.unique(pick).size

    def test_two_pairs(self):
        assert PairTable([1, 2], [5, 4]).concordance() == (0, 1)
        assert PairTable([1, 1], [5, 4]).concordance() == (0, 0)
        assert kendall_xy([1, 2], [4, 5]) == 1.0

    @pytest.mark.parametrize("k, m, sorted_tally", [(10, 50, False), (9, 40, True)])
    def test_cell_tally_on_each_side_of_the_bincount_rule(self, monkeypatch, k, m,
                                                          sorted_tally):
        # k values a side give cell keys in 0..k^2-1: a range up to 2m
        # (100 = 2 * 50) is tallied by bincount, past it (81 = 2 * 40 + 1)
        # by sorting
        rng = np.random.default_rng(m)
        x = np.concatenate((np.arange(k), rng.integers(0, k, m - k)))
        y = np.concatenate((np.arange(k), rng.integers(0, k, m - k)))
        unique_calls = []
        unique = np.unique

        def spy(values, **kwargs):
            unique_calls.append(kwargs)
            return unique(values, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        table = PairTable(x, y)
        monkeypatch.undo()
        assert unique_calls == ([{"return_counts": True}] if sorted_tally else [])
        tally = Counter(zip(x.tolist(), y.tolist()))
        cells = list(zip(table.ux[table.cell_x].tolist(), table.uy[table.cell_y].tolist(),
                         table.cell_counts.tolist()))
        assert cells == [(a, b, tally[a, b]) for a, b in sorted(tally)]
        assert table.concordance() == kendall_naive(x, y)
        assert table.cross_sum(table.ux, table.uy) == int(np.dot(x, y))

    def test_degree_views_match_naive_and_distribution_form(self):
        rng = np.random.default_rng(3)
        k = 60  # node i has out- and in-degree i + 1: the most distinct degrees per edge
        tight = np.repeat(np.arange(k), np.arange(1, k + 1))
        graphs = [DirectedMultigraph(k, tight, rng.permutation(tight))]
        for n, m in ((3, 2), (50, 400), (2000, 3000)):
            src = np.minimum(rng.zipf(1.3, m) - 1, n - 1)
            graphs.append(DirectedMultigraph(n, src, rng.integers(0, n, m)))
        for g in graphs:
            m = g.edge_count
            for pair in ALL_PAIRS:
                view = g.edge_degree_view(pair)
                n_c, n_d = PairTable.of_graph(g, pair).concordance()
                assert (n_c, n_d) == kendall_naive(view.source_degrees, view.target_degrees)
                assert kendall_from_distributions(g, pair) == float(
                    Fraction(2 * (n_c - n_d), m * m))


class TestExactSums:
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-2**62, 2**62)),
                    min_size=2, max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_pearson_exact_at_any_value_size(self, pairs):
        # few x values, so the row sums of the huge y values exceed int64
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assert pearson_xy(np.array(x), np.array(y)) == _pearson_reference(x, y)
        assert pearson_xy(np.array(y), np.array(x)) == _pearson_reference(y, x)

    @given(pair_lists)
    @settings(max_examples=150, deadline=None)
    def test_spearman_average_and_pearson_match_references(self, pairs):
        x = [a for a, _ in pairs]
        y = [b for _, b in pairs]
        assert spearman_average_xy(x, y) == _spearman_average_reference(x, y)
        assert pearson_xy(x, y) == _pearson_reference(x, y)

    def test_exact_dot_does_not_wrap(self):
        a = np.full(5, 3 * 10**9, dtype=np.int64)
        assert _exact_dot(a, a, 9 * 10**18) == 5 * 9 * 10**18

    def test_exact_past_two_million_pairs(self):
        # symmetric counts, so both sides share one marginal and every
        # correlation is an exact rational: cov / var
        values = [-3, 0, 5, 2**21]
        counts = [[400_000, 150_000, 50_000, 25_000],
                  [150_000, 300_000, 100_000, 75_000],
                  [50_000, 100_000, 350_000, 125_000],
                  [25_000, 75_000, 125_000, 400_000]]
        cells = [(values[i], values[j], counts[i][j]) for i in range(4) for j in range(4)]
        x = np.repeat([a for a, _, _ in cells], [c for _, _, c in cells])
        y = np.repeat([b for _, b, _ in cells], [c for _, _, c in cells])
        m = x.size
        assert m == 2_500_000

        def sign(v):
            return (v > 0) - (v < 0)

        net = sum(cp * cq * sign(xp - xq) * sign(yp - yq)
                  for xp, yp, cp in cells for xq, yq, cq in cells) // 2
        tau = Fraction(2 * net, m * (m - 1))

        marginal = [sum(row) for row in counts]
        rank = {v: sum(marginal[k + 1:]) + Fraction(marginal[k] + 1, 2)
                for k, v in enumerate(values)}
        mid = Fraction(m + 1, 2)
        rho = (sum(c * (rank[a] - mid) * (rank[b] - mid) for a, b, c in cells)
               / sum(n * (rank[v] - mid) ** 2 for v, n in zip(values, marginal)))
        mean = Fraction(sum(n * v for v, n in zip(values, marginal)), m)
        r = (sum(c * (a - mean) * (b - mean) for a, b, c in cells)
             / sum(n * (v - mean) ** 2 for v, n in zip(values, marginal)))

        assert kendall_xy(x, y) == float(tau)
        assert spearman_average_xy(x, y) == float(rho)
        assert pearson_xy(x, y) == float(r)

        table = PairTable(x, y)
        draw = table.spearman_uniform(11)
        draw_mean = 12 * sum(c * (rank[a] - mid) * (rank[b] - mid) for a, b, c in cells)
        draw_mean /= m**3 - m
        assert abs(draw - float(draw_mean)) <= 8 / math.sqrt(m)


class TestUniformDraws:
    def test_ranks_are_a_tie_broken_permutation(self):
        rng = np.random.default_rng(5)
        for m in (1, 2, 17, 500):
            values = rng.integers(-2, 3, m)
            ranks = uniform_ranks(values, rng)
            assert sorted(ranks.tolist()) == list(range(1, m + 1))
            greater = values[:, None] > values[None, :]
            assert np.all((ranks[:, None] < ranks[None, :])[greater])

    def test_distinct_values_draw_equals_average_rank_rho(self):
        rng = np.random.default_rng(6)
        x = rng.permutation(300)
        y = x + rng.integers(0, 40, 300) * 1000
        table = PairTable(x, y)
        assert table.spearman_uniform(0) == table.spearman_average()

    @pytest.mark.parametrize("shift", [0, 1])
    def test_mean_matches_average_rank_identity(self, shift):
        # E over tie-breaks of the draw is 3 sum(da db) / (m^3 - m) on centered
        # doubled average ranks; with y == x, ties broken alike on both sides
        # would give 1 every time
        rng = np.random.default_rng(7)
        x = rng.integers(0, 4, 60)
        y = x + shift * rng.integers(0, 2, 60)
        m = x.size
        da = 2 * average_ranks(x) - (m + 1)
        db = 2 * average_ranks(y) - (m + 1)
        expected = 3 * float(np.dot(da, db)) / (m**3 - m)
        table = PairTable(x, y)
        draws = np.array([table.spearman_uniform(seed) for seed in range(4000)])
        standard_error = draws.std(ddof=1) / math.sqrt(draws.size)
        assert expected < 0.97
        assert abs(draws.mean() - expected) <= 4 * standard_error

    @given(pair_lists, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_exact_mean_matches_fraction_formula(self, pairs, constant_x):
        x = [0 if constant_x else a for a, _ in pairs]
        y = [b for _, b in pairs]
        assert PairTable(x, y).spearman_uniform_mean() == _spearman_uniform_mean_reference(x, y)

    @given(st.integers(2, 300), st.integers(0, 2**32), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_exact_mean_without_ties_is_every_draw(self, m, data_seed, draw_seed):
        rng = np.random.default_rng(data_seed)
        table = PairTable(rng.permutation(m) * 3 - m, rng.permutation(m))
        assert table.spearman_uniform_mean() == table.spearman_uniform(draw_seed)

    def test_exact_mean_of_a_fully_tied_side_is_zero(self):
        y = np.random.default_rng(8).integers(0, 50, 400)
        assert PairTable(np.full(400, 7), y).spearman_uniform_mean() == 0.0
        assert PairTable(y, np.full(400, 7)).spearman_uniform_mean() == 0.0

    @given(st.lists(st.tuples(st.integers(-3, 3), st.sampled_from([0.0, 0.25, 0.5, 0.75])),
                    min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_explicit_noise_ranks_by_lexsort(self, entries):
        values = np.array([v for v, _ in entries])
        noise = np.array([u for _, u in entries])
        expected = np.empty(values.size, dtype=np.int64)
        expected[np.lexsort((noise, values))] = np.arange(values.size, 0, -1)
        assert np.array_equal(uniform_ranks(values, noise=noise), expected)
