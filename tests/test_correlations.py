"""Estimators, rank identities, and distribution-form equivalences."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degdep import (
    ALL_PAIRS,
    DegreeTypePair,
    DirectedMultigraph,
    JointPmf,
    full_report,
    kendall_population,
    kendall_xy,
    pearson_xy,
    spearman_average_xy,
    spearman_population,
    spearman_uniform_xy,
)
from degdep.correlations import PairTable
from degdep.seeding import child_seed

from helpers import random_multigraph
from oracles import (
    average_ranks,
    average_ranks_doubled,
    empirical_tie_aware_int,
    endpoint_law,
    kendall_from_distributions,
    spearman_from_distributions,
    uniform_mean_rank_numerator,
    uniform_ranks,
)

EXACT = 1e-12
OUT_IN = DegreeTypePair("out", "in")


def three_edge_graph() -> DirectedMultigraph:
    return DirectedMultigraph.from_edge_list([(0, 1), (0, 2), (1, 2)])


def three_cycle() -> DirectedMultigraph:
    return DirectedMultigraph.from_edge_list([(0, 1), (1, 2), (2, 0)])


class TestUniformRanks:
    def test_distinct_values_any_seed(self):
        for seed in (0, 1, 99):
            assert uniform_ranks([3, 1, 2], seed).tolist() == [1, 3, 2]

    def test_permutation_property(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            m = int(rng.integers(1, 200))
            values = rng.integers(0, 5, m)
            ranks = uniform_ranks(values, rng)
            assert sorted(ranks.tolist()) == list(range(1, m + 1))

    def test_tie_break_is_uniform(self):
        hits = 0
        trials = 4000
        for seed in range(trials):
            hits += uniform_ranks([5, 5], seed).tolist() == [1, 2]
        assert hits / trials == pytest.approx(0.5, abs=0.05)

    def test_deterministic_given_seed(self):
        a = uniform_ranks([1, 1, 2, 2, 3], 7)
        b = uniform_ranks([1, 1, 2, 2, 3], 7)
        assert a.tolist() == b.tolist()

    def test_explicit_noise_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 4, 40)
        noise = rng.random(40)
        perm = rng.permutation(40)
        base = uniform_ranks(values, noise=noise)
        permuted = uniform_ranks(values[perm], noise=noise[perm])
        assert permuted.tolist() == base[perm].tolist()


class TestAverageRanks:
    def test_worked_example(self):
        assert average_ranks([2, 2, 1]).tolist() == [1.5, 1.5, 3.0]

    def test_full_tie(self):
        assert average_ranks([7] * 5).tolist() == [3.0] * 5

    def test_distinct_matches_uniform(self):
        values = [10, 2, 5, 8, 1]
        assert average_ranks(values).tolist() == uniform_ranks(values, 3).tolist()

    @given(st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_sum_identity(self, values):
        m = len(values)
        assert float(average_ranks(values).sum()) == m * (m + 1) / 2

    def test_doubled_ranks_are_integers(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 3, 50)
        doubled = average_ranks_doubled(values)
        assert np.array_equal(doubled, (2 * average_ranks(values)).astype(np.int64))


class TestRankIdentities:
    """Exact links between average ranks and the empirical tie-aware cdf."""

    def test_doubled_rank_equals_tie_aware_complement(self):
        # 2*Rbar(v) == 2m + 1 - m*sF(v) with sF the edge-empirical tie-aware cdf
        rng = np.random.default_rng(3)
        for _ in range(100):
            g = random_multigraph(rng, max_nodes=15, max_edges=40)
            for pair in (OUT_IN, DegreeTypePair("in", "in")):
                for values in g.edge_degree_view(pair):
                    m = values.size
                    doubled = average_ranks_doubled(values)
                    sf_int = empirical_tie_aware_int(values)
                    assert np.array_equal(doubled, 2 * m + 1 - sf_int)

    def test_per_edge_identity_via_graph_marginals(self):
        # Rbar/m == 1 + 1/(2m) - sF_G(degree)/2 with sF_G of the endpoint law
        rng = np.random.default_rng(4)
        for _ in range(40):
            g = random_multigraph(rng)
            m = g.edge_count
            x, _ = g.edge_degree_view(OUT_IN)
            source_law = endpoint_law(g, "source", "out")
            rbar = average_ranks(x)
            sf = source_law.tie_aware_cdf(x)
            lhs = rbar / m
            rhs = 1 + 1 / (2 * m) - sf / 2
            assert np.max(np.abs(lhs - rhs)) <= EXACT

    def test_mean_tie_aware_cdf_is_one_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            g = random_multigraph(rng)
            for values in g.edge_degree_view(OUT_IN):
                assert int(empirical_tie_aware_int(values).sum()) == values.size**2

    def test_rank_product_sum_integer_identity(self):
        # sum (2Rbar_a)(2Rbar_b) == 2m^2 + m + sum sFa_int sFb_int, exactly
        rng = np.random.default_rng(6)
        for _ in range(60):
            g = random_multigraph(rng)
            m = g.edge_count
            x, y = g.edge_degree_view(OUT_IN)
            r2a = average_ranks_doubled(x)
            r2b = average_ranks_doubled(y)
            sfa = empirical_tie_aware_int(x)
            sfb = empirical_tie_aware_int(y)
            assert int(np.dot(r2a, r2b)) == 2 * m * m + m + int(np.dot(sfa, sfb))


class TestSpearmanUniform:
    def test_perfectly_concordant_distinct(self):
        x = [1, 2, 3, 4, 5]
        assert spearman_uniform_xy(x, x, 0) == 1.0

    def test_three_cycle_mean_near_zero(self):
        g = three_cycle()
        table = PairTable.of_graph(g, OUT_IN)
        vals = [table.spearman_uniform(seed) for seed in range(10_000)]
        assert np.mean(vals) == pytest.approx(0.0, abs=0.02)

    def test_mean_matches_average_rank_products(self):
        # E over tie noise of 12*sum(Ra Rb) equals 12*sum(Rbar_a Rbar_b), so
        # E[rho] == (12 sum Rbar_a Rbar_b - 3m(m+1)^2) / (m^3 - m)
        g = three_edge_graph()
        x, y = g.edge_degree_view(OUT_IN)
        m = g.edge_count
        rbar_a = average_ranks(x)
        rbar_b = average_ranks(y)
        expected = (12 * float(np.dot(rbar_a, rbar_b)) - 3 * m * (m + 1) ** 2) / (
            m**3 - m
        )
        assert expected == pytest.approx(-0.375, abs=EXACT)
        table = PairTable.of_graph(g, OUT_IN)
        vals = [table.spearman_uniform(seed) for seed in range(20_000)]
        assert np.mean(vals) == pytest.approx(expected, abs=0.02)
        # and the mean agrees with the tie-aware cdf form up to O(1/m)
        assert abs(np.mean(vals) - spearman_from_distributions(g, OUT_IN)) <= 1.0 / m

    def test_requires_two_edges(self):
        g = DirectedMultigraph.from_edge_list([(0, 1)])
        with pytest.raises(ValueError, match="at least 2"):
            PairTable.of_graph(g, OUT_IN).spearman_uniform(0)

    def test_bounded_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for seed in range(30):
            g = random_multigraph(rng)
            v = PairTable.of_graph(g, OUT_IN).spearman_uniform(seed)
            assert -1.0 <= v <= 1.0


class TestSpearmanAverage:
    def test_worked_example(self):
        assert PairTable.of_graph(three_edge_graph(), OUT_IN).spearman_average() == -0.5

    def test_three_cycle_undefined(self):
        assert PairTable.of_graph(three_cycle(), OUT_IN).spearman_average() is None

    def test_perfectly_concordant_distinct(self):
        x = [4, 1, 3, 2]
        assert spearman_average_xy(x, x) == 1.0

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        g = random_multigraph(rng)
        assert (PairTable.of_graph(g, OUT_IN).spearman_average()
                == PairTable.of_graph(g, OUT_IN).spearman_average())

    def test_bounded(self):
        rng = np.random.default_rng(9)
        for _ in range(40):
            g = random_multigraph(rng)
            v = PairTable.of_graph(g, OUT_IN).spearman_average()
            if v is not None:
                assert -1.0 <= v <= 1.0


class TestKendall:
    def test_worked_example(self):
        value = PairTable.of_graph(three_edge_graph(), OUT_IN).kendall()
        assert value == pytest.approx(-1 / 3, abs=0)

    def test_three_cycle_zero(self):
        assert PairTable.of_graph(three_cycle(), OUT_IN).kendall() == 0.0

    def test_perfectly_concordant(self):
        assert kendall_xy([1, 2, 3, 4], [2, 3, 5, 9]) == 1.0

    def test_concordance_example(self):
        assert PairTable([2, 2, 1], [1, 2, 2]).concordance() == (0, 1)

    def test_matches_distribution_form_denominator(self):
        # kendall_from_distributions == 2 (N_C - N_D) / m^2 exactly
        rng = np.random.default_rng(10)
        for _ in range(40):
            g = random_multigraph(rng)
            m = g.edge_count
            n_c, n_d = PairTable(*g.edge_degree_view(OUT_IN)).concordance()
            assert kendall_from_distributions(g, OUT_IN) == 2 * (n_c - n_d) / m**2

    def test_pair_vs_occurrence_gap(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            g = random_multigraph(rng)
            tau = PairTable.of_graph(g, OUT_IN).kendall()
            gap = abs(tau - kendall_from_distributions(g, OUT_IN))
            assert gap <= 2 / g.edge_count


class TestPearson:
    def test_worked_example_exact(self):
        # exact rational value of the sample correlation on this graph; the
        # covariance is -1/9 and both variances 2/9, giving exactly -1/2
        assert PairTable.of_graph(three_edge_graph(), OUT_IN).pearson() == -0.5

    def test_three_cycle_undefined(self):
        assert PairTable.of_graph(three_cycle(), OUT_IN).pearson() is None

    def test_perfectly_linear(self):
        assert pearson_xy([1, 2, 3], [10, 20, 30]) == 1.0

    def test_exact_and_float_paths_agree(self):
        rng = np.random.default_rng(12)
        x = rng.integers(0, 50, 500)
        y = (x + rng.integers(-3, 4, 500)).clip(min=0)
        exact = pearson_xy(x, y)
        dx = x - x.mean()
        dy = y - y.mean()
        two_pass = float(np.dot(dx, dy) / np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
        assert exact == pytest.approx(two_pass, abs=1e-12)


class TestInvarianceProperties:
    def test_rank_measures_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(13)
        x = rng.integers(0, 6, 80)
        y = rng.integers(0, 6, 80)
        fx = {v: 5 * v + 2 for v in range(6)}
        x2 = np.array([fx[v] for v in x])
        assert kendall_xy(x2, y) == kendall_xy(x, y)
        assert spearman_average_xy(x2, y) == spearman_average_xy(x, y)
        # uniform ranks: equal in distribution, and bit-equal given the noise
        u = rng.random(80)
        assert np.array_equal(uniform_ranks(x2, noise=u), uniform_ranks(x, noise=u))

    def test_pearson_not_invariant_witness(self):
        # a strictly increasing transform changes Pearson but not tau
        x = np.array([1, 2, 3, 1, 2, 3, 3, 2])
        y = np.array([1, 1, 2, 2, 3, 3, 2, 1])
        x2 = np.array([1, 2, 10, 1, 2, 10, 10, 2])  # monotone image of x
        assert kendall_xy(x2, y) == kendall_xy(x, y)
        assert pearson_xy(x2, y) != pearson_xy(x, y)

    def test_edge_order_permutation_invariance(self):
        rng = np.random.default_rng(14)
        x = rng.integers(0, 5, 60)
        y = rng.integers(0, 5, 60)
        perm = rng.permutation(60)
        assert kendall_xy(x[perm], y[perm]) == kendall_xy(x, y)
        assert spearman_average_xy(x[perm], y[perm]) == spearman_average_xy(x, y)
        assert pearson_xy(x[perm], y[perm]) == pearson_xy(x, y)
        # uniform-rank version: same per-edge tie-break values, permuted along
        u = rng.random(60)
        w = rng.random(60)
        m = 60

        def rho_with_noise(xv, yv, uv, wv):
            ra = uniform_ranks(xv, noise=uv)
            rb = uniform_ranks(yv, noise=wv)
            return (12 * float(np.dot(ra, rb)) - 3 * m * (m + 1) ** 2) / (m**3 - m)

        assert rho_with_noise(x[perm], y[perm], u[perm], w[perm]) == pytest.approx(
            rho_with_noise(x, y, u, w), abs=EXACT
        )


class TestDistributionForms:
    def test_three_cycle_values(self):
        g = three_cycle()
        assert spearman_from_distributions(g, OUT_IN) == 0.0
        assert kendall_from_distributions(g, OUT_IN) == 0.0

    def test_matches_population_on_empirical_joint(self):
        rng = np.random.default_rng(15)
        for _ in range(40):
            g = random_multigraph(rng)
            for pair in (OUT_IN, DegreeTypePair("out", "out")):
                t = PairTable.of_graph(g, pair)
                joint = JointPmf(t.ux[t.cell_x], t.uy[t.cell_y], t.cell_counts / t.m)
                assert kendall_from_distributions(g, pair) == pytest.approx(
                    kendall_population(joint), abs=EXACT
                )
                x = joint.marginal_x()
                y = joint.marginal_y()
                if not x.is_point_mass and not y.is_point_mass:
                    assert spearman_from_distributions(g, pair) == pytest.approx(
                        spearman_population(joint), abs=EXACT
                    )

    def test_concordant_pairs_finite_size_bias(self):
        # perfectly concordant distinct values: the tie-aware cdf form gives
        # exactly 1 - 1/m^2, i.e. 1 - O(1/m) finite-size bias
        for m in (10, 100, 1000):
            values = np.arange(1, m + 1)
            sf = empirical_tie_aware_int(values)
            v = 3 * int(np.dot(sf, sf)) / m**3 - 3
            assert v == pytest.approx(1.0 - 1.0 / m**2, abs=EXACT)
            assert v < 1.0

    def test_uniform_rank_products_match_average_rank_products(self):
        # tie noise averages out exactly: E[sum Ra Rb] == sum Rbar_a Rbar_b
        g = DirectedMultigraph.from_edge_list(
            [(0, 1), (0, 2), (1, 2), (1, 3), (3, 3), (2, 1), (0, 3), (3, 1)]
        )
        x, y = g.edge_degree_view(OUT_IN)
        m = g.edge_count
        exact = float(
            np.dot(average_ranks(x), average_ranks(y))
        )
        rng = np.random.default_rng(16)
        draws = []
        for _ in range(6000):
            ra = uniform_ranks(x, rng)
            rb = uniform_ranks(y, rng)
            draws.append(float(np.dot(ra, rb)))
        assert np.mean(draws) / exact == pytest.approx(1.0, abs=1.0 / m)


class TestSamplingConsistency:
    """Estimators on iid samples converge to the exact population values."""

    def test_diagonal_bernoulli(self):
        from degdep import JointPmf, spearman_average_limit

        joint = JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})
        x, y = joint.sample(17, 30_000)
        assert spearman_uniform_xy(x, y, 18) == pytest.approx(0.75, abs=0.03)
        assert kendall_xy(x, y) == pytest.approx(0.5, abs=0.03)
        assert spearman_average_xy(x, y) == pytest.approx(
            spearman_average_limit(joint), abs=0.03
        )

    def test_product_joint_near_zero(self):
        from degdep import JointPmf

        joint = JointPmf.from_entries(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
        )
        x, y = joint.sample(19, 30_000)
        assert spearman_uniform_xy(x, y, 20) == pytest.approx(0.0, abs=0.03)
        assert kendall_xy(x, y) == pytest.approx(0.0, abs=0.03)
        assert spearman_average_xy(x, y) == pytest.approx(0.0, abs=0.03)


class TestFullReport:
    def test_worked_graph_values(self):
        report = full_report(three_edge_graph(), seed=5)
        entry = report["pairs"]["out-in"]
        assert entry["kendall"] == pytest.approx(-1 / 3, abs=0)
        assert entry["spearman_average"] == -0.5
        assert entry["pearson"] == -0.5
        assert not entry["degenerate_source"] and not entry["degenerate_target"]

    def test_three_cycle_degenerate(self):
        report = full_report(three_cycle(), seed=5)
        for label in ("out-in", "in-out", "out-out", "in-in"):
            entry = report["pairs"][label]
            assert entry["kendall"] == 0.0
            assert entry["spearman_average"] is None
            assert entry["pearson"] is None
            assert entry["degenerate_source"] and entry["degenerate_target"]
            assert -1.0 <= entry["spearman_uniform"] <= 1.0

    def test_default_is_the_exact_tie_break_mean(self):
        rng = np.random.default_rng(23)
        for g in (three_edge_graph(), random_multigraph(rng), random_multigraph(rng)):
            m = g.edge_count
            report = full_report(g, seed=9)
            for pair in ALL_PAIRS:
                num = uniform_mean_rank_numerator(g, pair)
                assert report["pairs"][pair.label]["spearman_uniform"] == float(
                    Fraction(3 * num, m**3 - m))
        report = full_report(three_edge_graph(), seed=9)
        assert report["pairs"]["out-in"]["spearman_uniform"] == -0.375

    def test_one_replica_is_one_seeded_draw(self):
        g = random_multigraph(np.random.default_rng(24), max_edges=200)
        report = full_report(g, seed=9, tie_break_replicas=1)
        for pair_index, pair in enumerate(ALL_PAIRS):
            draw = PairTable(*g.edge_degree_view(pair)).spearman_uniform(
                child_seed(9, pair_index, 0, "tie-break"))
            assert report["pairs"][pair.label]["spearman_uniform"] == draw

    def test_deterministic_and_replica_mean(self):
        rng = np.random.default_rng(21)
        g = random_multigraph(rng)
        r1 = full_report(g, seed=9, tie_break_replicas=8)
        r2 = full_report(g, seed=9, tie_break_replicas=8)
        assert r1 == r2
        r3 = full_report(g, seed=10, tie_break_replicas=8)
        assert r3 != r1 or g.edge_count < 4

    def test_report_dict_schema(self):
        payload = full_report(three_edge_graph(), seed=5, tie_break_replicas=4)
        assert list(payload) == ["n", "edges", "seed", "pairs"]
        assert (payload["n"], payload["edges"], payload["seed"]) == (3, 3, 5)
        assert list(payload["pairs"]) == ["out-in", "in-out", "out-out", "in-in"]
        assert list(payload["pairs"]["out-in"]) == [
            "spearman_uniform",
            "spearman_average",
            "kendall",
            "pearson",
            "degenerate_source",
            "degenerate_target",
        ]

    def test_entries_hold_only_the_requested_measures(self):
        # asked for out of order: the entry keeps MEASURES order
        report = full_report(three_edge_graph(), 0, pairs=("in-in", "out-in"),
                             measures=("pearson", "kendall"))
        assert list(report["pairs"]) == ["out-in", "in-in"]
        for entry in report["pairs"].values():
            assert list(entry) == ["kendall", "pearson", "degenerate_source", "degenerate_target"]
        full = full_report(three_edge_graph(), 0)
        assert report["pairs"]["out-in"]["kendall"] == full["pairs"]["out-in"]["kendall"]

    def test_requires_two_edges(self):
        with pytest.raises(ValueError):
            full_report(DirectedMultigraph.from_edge_list([(0, 1)]), seed=0)
