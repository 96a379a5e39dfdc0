"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Budgets are wall-clock upper bounds and are asserted.

Criterion 4 note: on the worked 3-edge graph the sample Pearson correlation
is exactly -1/2 (covariance -1/9, both variances 2/9).  It is derived in the
test with `Fraction` arithmetic from the out-in pairs, independently of
degdep.  -1/3 is Kendall's tau-a of the same pairs, not their Pearson value.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from degdep import (
    DegreeTypePair,
    DirectedMultigraph,
    JointPmf,
    Pmf,
    endpoint_degree_laws,
    generate_cm,
    generate_ecm,
    kendall_population,
    kendall_xy,
    parse_law,
    pearson_xy,
    spearman_average_limit,
    spearman_average_xy,
    spearman_population,
    spearman_uniform_xy,
    tv_distance,
)
from degdep.cli import main as cli_main
from degdep.correlations import PairTable
from degdep.experiments import ExperimentConfig, run_null_model, summarize_null_model

from helpers import random_joint, random_multigraph, random_pmf
from oracles import (
    average_ranks,
    continuized_joint_cdf_mean,
    continuized_moment,
    discrete_moment_sum,
    endpoint_law,
    joint_continuized_product,
    kendall_naive,
    tie_aware_joint_cdf,
)

EXACT = 1e-12


@contextmanager
def criterion(num: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {num:2d}: FAIL ({elapsed:6.1f}s / {budget_s:g}s) {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {num:2d}: PASS ({elapsed:6.1f}s / {budget_s:g}s) {description}")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def test_criterion_01_exact_identity_suite():
    with criterion(1, 1.0, "continuization identities exact on random laws"):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = random_pmf(rng, max_atoms=8)
            # moment identity for orders 1..4
            for m in (1, 2, 3, 4):
                assert abs(continuized_moment(p, m) - discrete_moment_sum(p, m)) <= EXACT
            # mean identities: E[F~(X~)] = 1/2 and E[F(X)+F(X-1)] = 1
            assert abs(continuized_moment(p, 1) - 0.5) <= EXACT
            mean_sf = float(np.dot(p.probs, p.tie_aware_cdf(p.support)))
            assert abs(mean_sf - 1.0) <= EXACT
        for _ in range(100):
            j = random_joint(rng, max_side=8)
            mx, my = j.marginal_x(), j.marginal_y()
            sf_prod = float(np.dot(j.probs, mx.tie_aware_cdf(j.xs) * my.tie_aware_cdf(j.ys)))
            assert abs(joint_continuized_product(j) - sf_prod / 4) <= EXACT
            sh_mean = float(np.dot(j.probs, tie_aware_joint_cdf(j, j.xs, j.ys)))
            assert abs(continuized_joint_cdf_mean(j) - sh_mean / 4) <= EXACT


def test_criterion_02_rank_identities():
    with criterion(2, 5.0, "average-rank sum and per-edge tie-aware cdf identity"):
        rng = np.random.default_rng(102)
        for _ in range(100):
            g = random_multigraph(rng, max_nodes=60, max_edges=1000)
            m = g.edge_count
            for pair in (DegreeTypePair("out", "in"), DegreeTypePair("in", "out")):
                x, y = g.edge_degree_view(pair)
                for side, values, kind in (("source", x, pair.alpha), ("target", y, pair.beta)):
                    rbar = average_ranks(values)
                    assert float(rbar.sum()) == m * (m + 1) / 2
                    law = endpoint_law(g, side, kind)
                    rhs = 1 + 1 / (2 * m) - law.tie_aware_cdf(values) / 2
                    assert np.max(np.abs(rbar / m - rhs)) <= EXACT


def test_criterion_03_concordance_oracle_equivalence():
    with criterion(3, 10.0, "fast pair counting equals quadratic oracle"):
        rng = np.random.default_rng(103)
        for trial in range(200):
            m = int(rng.integers(2, 501))
            span = int(rng.choice([3, 10, 50, 1000]))
            x = rng.integers(0, span, m)
            y = rng.integers(0, span, m)
            assert PairTable(x, y).concordance() == kendall_naive(x, y)


def _fraction_pearson(pairs):
    """Exact sample Pearson correlation of integer pairs whose variance
    product is the square of a rational."""
    m = len(pairs)
    mean_x = Fraction(sum(a for a, _ in pairs), m)
    mean_y = Fraction(sum(b for _, b in pairs), m)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in pairs) / m
    var_x = sum((a - mean_x) ** 2 for a, _ in pairs) / m
    var_y = sum((b - mean_y) ** 2 for _, b in pairs) / m
    product = var_x * var_y
    num, den = math.isqrt(product.numerator), math.isqrt(product.denominator)
    assert Fraction(num, den) ** 2 == product, "variance product is not a rational square"
    return cov / Fraction(num, den)


def test_criterion_04_worked_small_graph_values():
    with criterion(4, 5.0, "worked 3-edge graph: tau, avg-rank Spearman, Pearson"):
        g = DirectedMultigraph.from_edge_list([(0, 1), (0, 2), (1, 2)])
        pair = DegreeTypePair("out", "in")
        x, y = g.edge_degree_view(pair)

        n_c, n_d = PairTable(x, y).concordance()
        assert (n_c, n_d) == (0, 1)
        assert Fraction(2 * (n_c - n_d), 3 * 2) == Fraction(-1, 3)
        assert kendall_xy(x, y) == -1 / 3

        assert spearman_average_xy(x, y) == -0.5

        pairs = list(zip(x.tolist(), y.tolist()))
        assert sorted(pairs) == [(1, 2), (2, 1), (2, 2)]
        expected = _fraction_pearson(pairs)
        assert expected == Fraction(-1, 2)
        pearson = pearson_xy(x, y)
        assert pearson == float(expected), (
            f"sample Pearson of pairs {pairs} is {pearson}; in rational "
            "arithmetic it is exactly -1/2 (covariance -1/9, variances 2/9)"
        )


def test_criterion_05_sampling_consistency():
    with criterion(5, 30.0, "estimators at n=1e5 match exact population targets"):
        n = 100_000
        equal = JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})
        x, y = equal.sample(105, n)
        assert spearman_uniform_xy(x, y, 1105) == pytest.approx(0.75, abs=0.02)
        assert kendall_xy(x, y) == pytest.approx(0.5, abs=0.02)
        assert spearman_average_xy(x, y) == pytest.approx(1.0, abs=0.02)
        assert spearman_population(equal) == pytest.approx(0.75, abs=EXACT)
        assert kendall_population(equal) == pytest.approx(0.5, abs=EXACT)
        assert spearman_average_limit(equal) == pytest.approx(1.0, abs=EXACT)

        product = JointPmf.from_entries(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
        )
        x, y = product.sample(106, n)
        assert spearman_uniform_xy(x, y, 1106) == pytest.approx(0.0, abs=0.02)
        assert kendall_xy(x, y) == pytest.approx(0.0, abs=0.02)
        assert spearman_average_xy(x, y) == pytest.approx(0.0, abs=0.02)


def _assert_null_model_means(summary, n, bound):
    for entry in summary:
        if entry["n"] != n:
            continue
        assert entry["defined"] == entry["replicas"], (
            f"undefined cells at n={n}: {entry}"
        )
        assert abs(entry["mean"]) <= bound, f"null-model mean out of bound: {entry}"


def test_criterion_06_null_model_repeated_finite_variance():
    with criterion(6, 300.0, "repeated model, poisson(3), n=1e4, 20 replicas"):
        config = ExperimentConfig(
            model="rcm", sizes=(10_000,), replicas=20,
            out_law="poisson:3", in_law="poisson:3", seed=1006,
            tie_break_replicas=32, max_attempts=30_000,
        )
        summary = summarize_null_model(run_null_model(config))
        assert len(summary) == 4 * 3
        _assert_null_model_means(summary, 10_000, 0.05)


def test_criterion_07_null_model_erased_infinite_variance():
    with criterion(7, 600.0, "erased model, zeta(2.5), n in {1e3,1e4}, 20 replicas"):
        config = ExperimentConfig(
            model="ecm", sizes=(1000, 10_000), replicas=20,
            out_law="zeta:2.5", in_law="zeta:2.5", seed=1007,
            tie_break_replicas=32,
        )
        summary = summarize_null_model(run_null_model(config))
        _assert_null_model_means(summary, 10_000, 0.05)
        mean_abs = {
            (e["n"], e["pair"], e["measure"]): e["mean_abs"] for e in summary
        }
        for pair in ("out-in", "in-out", "out-out", "in-in"):
            for measure in ("spearman_uniform", "spearman_average", "kendall"):
                small = mean_abs[(1000, pair, measure)]
                large = mean_abs[(10_000, pair, measure)]
                assert large <= small, (
                    f"mean |{measure}| grew from n=1e3 ({small:.4f}) to "
                    f"n=1e4 ({large:.4f}) for pair {pair}"
                )


def test_criterion_08_endpoint_and_node_degree_laws():
    with criterion(8, 120.0, "endpoint-degree and node-degree laws within TV 0.05"):
        law = parse_law("poisson:3")
        cm = generate_cm(10_000, law, law, rng=108)
        for pair in (
            DegreeTypePair("out", "in"), DegreeTypePair("in", "out"),
            DegreeTypePair("out", "out"), DegreeTypePair("in", "in"),
        ):
            source_law, target_law = endpoint_degree_laws(pair, law, law)
            tv_s = tv_distance(endpoint_law(cm.graph, "source", pair.alpha), source_law)
            tv_t = tv_distance(endpoint_law(cm.graph, "target", pair.beta), target_law)
            assert tv_s <= 0.05 and tv_t <= 0.05, (pair.label, tv_s, tv_t)

        heavy = parse_law("zeta:2.5")
        for node_law, seed in ((law, 118), (heavy, 128)):
            g = generate_ecm(10_000, node_law, node_law, rng=seed).graph
            for degrees in (g.out_deg, g.in_deg):
                # the node-degree law: every node weighted 1/n
                values, counts = np.unique(degrees, return_counts=True)
                assert tv_distance(Pmf(values, counts / g.n), node_law) <= 0.05


def test_criterion_09_erased_stub_fraction_vanishes():
    with criterion(9, 300.0, "erased-stub fraction falls from n=1e3 to n=1e4"):
        law = parse_law("zeta:2.5")
        medians = []
        for size_index, n in enumerate((1000, 10_000)):
            fractions = [
                generate_ecm(n, law, law, rng=1009 + 97 * size_index + r).ledger.total_erased / n
                for r in range(10)
            ]
            medians.append(float(np.median(fractions)))
        assert medians[1] < medians[0], medians


def test_criterion_10_byte_reproducibility(tmp_path):
    with criterion(10, 120.0, "generate and sweeps byte-identical under a fixed seed"):
        gen_args = (
            "generate", "--model", "ecm", "--n", "1000",
            "--out-law", "zeta:2.5", "--in-law", "zeta:2.5", "--seed", "7",
        )
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert cli_main([*gen_args, "-o", str(a)]) == 0
        assert cli_main([*gen_args, "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (
            (tmp_path / "a.tsv.meta.json").read_bytes()
            == (tmp_path / "b.tsv.meta.json").read_bytes()
        )

        sweep_args = (
            "experiment", "null-model", "--model", "ecm",
            "--sizes", "100,200", "--replicas", "2",
            "--out-law", "zeta:2.5", "--in-law", "zeta:2.5",
            "--seed", "17", "--tie-break-replicas", "4", "--jobs", "2",
        )
        rows_a, rows_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
        assert cli_main([*sweep_args, "-o", str(rows_a)]) == 0
        assert cli_main([*sweep_args, "-o", str(rows_b)]) == 0
        assert rows_a.read_bytes() == rows_b.read_bytes()
        assert (
            (tmp_path / "ra.csv.summary.csv").read_bytes()
            == (tmp_path / "rb.csv.summary.csv").read_bytes()
        )
