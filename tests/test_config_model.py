"""Configuration-model generators: balancing, pairing, erasure, endpoint laws."""

import tracemalloc

import numpy as np
import pytest

from degdep import (
    DegenerateLawError,
    DegreeTypePair,
    DirectedMultigraph,
    GenerationError,
    Pmf,
    endpoint_degree_laws,
    erase_multigraph,
    generate_cm,
    generate_ecm,
    generate_rcm,
    pair_stubs_cm,
    sample_bidegree,
    parse_law,
    tv_distance,
)
from degdep.config_model import BiDegreeRealization
from degdep.digraph import edges_are_simple

from helpers import zeta_law
from oracles import endpoint_law


def point_mass(k: int) -> Pmf:
    return Pmf(np.array([k]), np.array([1.0]))


class TestSampleBidegree:
    def test_point_mass_one_already_balanced(self):
        b = sample_bidegree(5, point_mass(1), point_mass(1), rng=0)
        assert b.out_stubs.tolist() == [1] * 5
        assert b.in_stubs.tolist() == [1] * 5
        assert b.balance_added == 0

    def test_totals_balance(self):
        rng = np.random.default_rng(1)
        law = parse_law("poisson:3")
        for _ in range(10):
            b = sample_bidegree(200, law, law, rng)
            assert b.out_stubs.sum() == b.in_stubs.sum() == b.total_stubs

    def test_balance_addition_is_small(self):
        law = parse_law("poisson:3")
        b = sample_bidegree(10_000, law, law, rng=2)
        assert b.balance_added / 10_000 < 0.05

    def test_preserves_law_in_total_variation(self):
        law = parse_law("poisson:3")
        b = sample_bidegree(10_000, law, law, rng=3)
        uniq, counts = np.unique(b.out_stubs, return_counts=True)
        emp = Pmf(uniq, counts / counts.sum())
        assert tv_distance(emp, law) < 0.05

    def test_reproducible_given_seed(self):
        law = parse_law("geometric:0.4")
        b1 = sample_bidegree(100, law, law, rng=7)
        b2 = sample_bidegree(100, law, law, rng=7)
        assert b1.out_stubs.tolist() == b2.out_stubs.tolist()
        assert b1.in_stubs.tolist() == b2.in_stubs.tolist()

    def test_unequal_means_warn(self):
        with pytest.warns(UserWarning, match="unequal means"):
            sample_bidegree(50, point_mass(1), point_mass(2), rng=0)

    def test_all_zero_sample_rejected(self):
        with pytest.raises(ValueError, match="zero stubs"):
            sample_bidegree(4, point_mass(0), point_mass(0), rng=0)

    def test_small_sample_allocates_nothing_of_the_laws_size(self):
        # the 1e6-point law's support is 8 MB; a 100-node sample reads its
        # mean and its least value without a temporary of that size
        law = parse_law("zeta:2.5")
        tracemalloc.start()
        try:
            sample_bidegree(100, law, law, rng=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_negative_support_rejected(self):
        law = Pmf(np.array([-1, 1]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            sample_bidegree(4, law, point_mass(1), rng=0)


class TestPairStubs:
    def test_single_node_self_loop(self):
        b = BiDegreeRealization(np.array([1]), np.array([1]), 0)
        result = pair_stubs_cm(b, rng=0)
        assert result.graph.src.tolist() == [0]
        assert result.graph.dst.tolist() == [0]

    def test_forced_single_edge(self):
        b = BiDegreeRealization(np.array([1, 0]), np.array([0, 1]), 0)
        result = pair_stubs_cm(b, rng=0)
        assert (result.graph.src[0], result.graph.dst[0]) == (0, 1)

    def test_two_stub_source_hits_both_targets(self):
        b = BiDegreeRealization(np.array([2, 0]), np.array([1, 1]), 0)
        for seed in range(20):
            result = pair_stubs_cm(b, seed)
            edges = sorted(zip(result.graph.src.tolist(), result.graph.dst.tolist()))
            assert edges == [(0, 0), (0, 1)]

    def test_matchings_uniform(self):
        # out=[1,1], in=[1,1]: the two matchings are equally likely
        b = BiDegreeRealization(np.array([1, 1]), np.array([1, 1]), 0)
        diagonal = 0
        trials = 4000
        for seed in range(trials):
            result = pair_stubs_cm(b, seed)
            diagonal += result.graph.dst.tolist() == [0, 1]
        assert diagonal / trials == pytest.approx(0.5, abs=0.05)

    def test_degrees_equal_stubs_exactly(self):
        law = parse_law("poisson:2")
        rng = np.random.default_rng(4)
        for _ in range(10):
            b = sample_bidegree(300, law, law, rng)
            result = pair_stubs_cm(b, rng)
            g = result.graph
            assert g.out_deg.tolist() == b.out_stubs.tolist()
            assert g.in_deg.tolist() == b.in_stubs.tolist()
            assert g.edge_count == b.total_stubs
            # the adopted stub counts are the degrees of the edges
            assert g.out_deg.tolist() == np.bincount(g.src, minlength=g.n).tolist()
            assert g.in_deg.tolist() == np.bincount(g.dst, minlength=g.n).tolist()


class TestRepeatedModel:
    def test_two_node_unit_degrees(self):
        # the only simple outcome is the 2-cycle; per-attempt success is 1/2
        result = generate_rcm(2, point_mass(1), point_mass(1), rng=3, max_attempts=100)
        edges = sorted(zip(result.graph.src.tolist(), result.graph.dst.tolist()))
        assert edges == [(0, 1), (1, 0)]
        assert edges_are_simple(result.graph.src, result.graph.dst, result.graph.n)

    def test_attempt_counts_are_plausibly_geometric(self):
        attempts = [
            generate_rcm(2, point_mass(1), point_mass(1), rng=seed, max_attempts=200).attempts
            for seed in range(300)
        ]
        assert np.mean(attempts) == pytest.approx(2.0, abs=0.35)

    def test_forced_failure_single_node(self):
        with pytest.raises(GenerationError) as excinfo:
            generate_rcm(1, point_mass(1), point_mass(1), rng=0, max_attempts=1)
        assert excinfo.value.attempts == 1

    def test_degrees_equal_stubs_and_simple(self):
        law = parse_law("poisson:1")
        result = generate_rcm(60, law, law, rng=5, max_attempts=5000)
        g = result.graph
        assert edges_are_simple(g.src, g.dst, g.n)
        assert g.out_deg.tolist() == result.bidegree.out_stubs.tolist()
        assert g.in_deg.tolist() == result.bidegree.in_stubs.tolist()
        assert g.out_deg.tolist() == np.bincount(g.src, minlength=g.n).tolist()
        assert g.in_deg.tolist() == np.bincount(g.dst, minlength=g.n).tolist()

    def test_rejects_bad_max_attempts(self):
        with pytest.raises(ValueError):
            generate_rcm(2, point_mass(1), point_mass(1), rng=0, max_attempts=0)


class TestErasedModel:
    def test_self_loop_erasure_ledger(self):
        g = DirectedMultigraph.from_edge_list([(0, 0), (0, 1)])
        simple, ledger = erase_multigraph(g)
        assert sorted(zip(simple.src.tolist(), simple.dst.tolist())) == [(0, 1)]
        assert (g.out_deg - simple.out_deg).tolist() == [1, 0]
        assert (g.in_deg - simple.in_deg).tolist() == [1, 0]
        assert ledger.self_loops_removed == 1
        assert ledger.multi_edges_merged == 0

    def test_multi_edge_merge_ledger(self):
        g = DirectedMultigraph.from_edge_list([(0, 1), (0, 1)])
        simple, ledger = erase_multigraph(g)
        assert sorted(zip(simple.src.tolist(), simple.dst.tolist())) == [(0, 1)]
        assert ledger.multi_edges_merged == 1
        assert (g.out_deg - simple.out_deg).tolist() == [1, 0]
        assert (g.in_deg - simple.in_deg).tolist() == [0, 1]

    def test_triple_edge_erases_two(self):
        g = DirectedMultigraph.from_edge_list([(2, 1)] * 3 + [(1, 2)])
        simple, ledger = erase_multigraph(g)
        assert simple.edge_count == 2
        assert ledger.multi_edges_merged == 2
        assert (g.out_deg - simple.out_deg).tolist() == [0, 0, 2]

    def test_ledger_balance_on_random_multigraphs(self):
        law = zeta_law(2.5, 10_000)
        for seed in range(10):
            result = generate_ecm(400, law, law, seed)
            stub_edges = result.bidegree.total_stubs
            edges = result.graph.edge_count
            assert result.ledger.total_erased == stub_edges - edges
            assert edges_are_simple(result.graph.src, result.graph.dst, result.graph.n)
            # degrees can only shrink, and each side's losses sum to the total
            for erased in (result.bidegree.out_stubs - result.graph.out_deg,
                           result.bidegree.in_stubs - result.graph.in_deg):
                assert np.all(erased >= 0)
                assert erased.sum() == result.ledger.total_erased

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("law_name, n", [("zeta", 500), ("uniform:2..12", 100)])
    def test_per_node_erasure_matches_multiplicity_tally(self, law_name, n, seed):
        # the cm graph of the same seed is the multigraph that ecm erases, so
        # its self-loops and repeated pairs, tallied without erasure, give
        # each node's lost stubs; the uniform law makes self-loops likely
        law = zeta_law(2.5, 10_000) if law_name == "zeta" else parse_law(law_name)
        multigraph = generate_cm(n, law, law, seed).graph
        result = generate_ecm(n, law, law, seed)
        pairs, multiplicity = np.unique(
            np.stack([multigraph.src, multigraph.dst], axis=1), axis=0, return_counts=True)
        loop = pairs[:, 0] == pairs[:, 1]
        removed = np.where(loop, multiplicity, multiplicity - 1)
        lost_out = np.bincount(np.repeat(pairs[:, 0], removed), minlength=n)
        lost_in = np.bincount(np.repeat(pairs[:, 1], removed), minlength=n)
        assert lost_out.tolist() == (result.bidegree.out_stubs - result.graph.out_deg).tolist()
        assert lost_in.tolist() == (result.bidegree.in_stubs - result.graph.in_deg).tolist()
        assert result.ledger.self_loops_removed == multiplicity[loop].sum()
        assert result.ledger.multi_edges_merged == (multiplicity[~loop] - 1).sum()
        assert removed.sum() > 0
        if law_name != "zeta":
            assert loop.any() and (multiplicity[~loop] > 1).any()

    def test_erased_fraction_decreases_with_size(self):
        law = zeta_law(2.5, 100_000)
        fractions = []
        for n in (500, 5000):
            per_replica = [
                generate_ecm(n, law, law, seed).ledger.total_erased / n
                for seed in range(5)
            ]
            fractions.append(np.median(per_replica))
        assert fractions[1] < fractions[0]

    def test_edge_density_approaches_mean_degree(self):
        law = parse_law("poisson:3")
        result = generate_ecm(10_000, law, law, rng=8)
        assert result.graph.edge_count / 10_000 == pytest.approx(3.0, abs=0.25)


def graph_arrays(g: DirectedMultigraph) -> tuple:
    return g.src, g.dst, g.out_deg, g.in_deg


class TestGraphsAdoptTheirArrays:
    """The generators hand their fresh arrays to the graph without a copy."""

    def test_erased_graph_shares_no_memory_with_its_input(self):
        law = parse_law("uniform:2..12")
        multigraph = generate_cm(100, law, law, 2).graph
        simple, ledger = erase_multigraph(multigraph)
        assert ledger.total_erased > 0
        for ours in graph_arrays(simple):
            for theirs in graph_arrays(multigraph):
                assert not np.shares_memory(ours, theirs)

    def test_every_graph_array_is_read_only(self):
        law = parse_law("poisson:1")
        graphs = [generate_cm(100, law, law, 3).graph,
                  generate_rcm(60, law, law, 5, max_attempts=5000).graph,
                  generate_ecm(100, law, law, 4).graph]
        for g in graphs:
            for array in graph_arrays(g):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[:1] = 0

    @pytest.mark.parametrize("text", ["poisson:3", "zeta:2.5"])
    def test_ecm_peak_is_at_most_five_words_per_node_and_stub(self, text):
        # the peak is about 4.2 words, and 6.8-6.9 when each graph copies
        # its edge arrays
        n = 100_000
        law = parse_law(text)
        total_stubs = sample_bidegree(n, law, law, 7).total_stubs
        tracemalloc.start()
        try:
            generate_ecm(n, law, law, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * 8 * (n + total_stubs)


class TestEndpointLaws:
    def test_size_biased_source_for_out_in(self):
        out_law = Pmf(np.array([1, 2]), np.array([0.5, 0.5]))
        in_law = parse_law("poisson:1.5")
        source, target = endpoint_degree_laws(DegreeTypePair("out", "in"), out_law, in_law)
        assert source.support.tolist() == [1, 2]
        assert source.probs == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        # target is the size-biased in-law
        assert target.support[0] >= 1

    def test_in_out_pair_unchanged(self):
        out_law = parse_law("poisson:2")
        in_law = parse_law("geometric:0.5")
        source, target = endpoint_degree_laws(DegreeTypePair("in", "out"), out_law, in_law)
        assert source.support.tolist() == in_law.support.tolist()
        assert np.allclose(source.probs, in_law.probs)
        assert target.support.tolist() == out_law.support.tolist()
        assert np.allclose(target.probs, out_law.probs)

    def test_point_masses_fixed(self):
        one = point_mass(1)
        for pair in (DegreeTypePair("out", "in"), DegreeTypePair("out", "out")):
            source, target = endpoint_degree_laws(pair, one, one)
            assert source.support.tolist() == [1] and target.support.tolist() == [1]

    def test_zero_mean_law_rejected(self):
        zero = point_mass(0)
        with pytest.raises(DegenerateLawError):
            endpoint_degree_laws(DegreeTypePair("out", "in"), zero, zero)

    def test_cm_endpoint_marginals_match(self):
        law = parse_law("poisson:3")
        result = generate_cm(4000, law, law, rng=9)
        for pair in (DegreeTypePair("out", "in"), DegreeTypePair("in", "out")):
            source_law, target_law = endpoint_degree_laws(pair, law, law)
            tv_s = tv_distance(endpoint_law(result.graph, "source", pair.alpha), source_law)
            tv_t = tv_distance(endpoint_law(result.graph, "target", pair.beta), target_law)
            assert tv_s < 0.08 and tv_t < 0.08


class TestDeterminism:
    def test_same_seed_same_graph(self):
        law = zeta_law(2.5, 1000)
        a = generate_ecm(200, law, law, rng=11)
        b = generate_ecm(200, law, law, rng=11)
        assert a.graph.src.tolist() == b.graph.src.tolist()
        assert a.graph.dst.tolist() == b.graph.dst.tolist()
        assert a.ledger.total_erased == b.ledger.total_erased
