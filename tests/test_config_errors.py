"""Argument checks: every library check on a caller-supplied value raises
ConfigError (a ValueError), while bad data read from a file stays a plain
ValueError."""

import numpy as np
import pytest

from degdep import (
    BiDegreeRealization,
    ConfigError,
    DegreeTypePair,
    DirectedMultigraph,
    JointPmf,
    Pmf,
    full_report,
    generate_cm,
    generate_ecm,
    generate_rcm,
    pair_stubs_cm,
    parse_law,
    sample_bidegree,
    size_biased,
    spearman_uniform_xy,
)
from degdep.correlations import PairTable, measure_table
from degdep.experiments import (
    ExperimentConfig,
    builtin_joint,
    generate_graph,
    run_consistency,
    run_endpoint_laws,
    write_rows_csv,
)
from degdep.pmf import read_joint_pmf, read_pmf

POISSON = parse_law("poisson:2")
CONSTANT_X = JointPmf.from_entries({(0, 0): 0.5, (0, 1): 0.5})
GRAPH = DirectedMultigraph.from_edge_list([(0, 1), (0, 2), (1, 2)])


def config(**overrides) -> ExperimentConfig:
    base = dict(model="cm", sizes=(10,), replicas=1, out_law="poisson:2",
                in_law="poisson:2", seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


def consistency(**overrides):
    base = dict(joint=builtin_joint("bernoulli-equal"), sizes=(10,), replicas=1, seed=0)
    base.update(overrides)
    return run_consistency(**base)


# each call and a pattern its message must match
CHECKS = {
    "parse_law-unknown": (lambda: parse_law("cauchy:1"), "invalid law 'cauchy:1'"),
    "parse_law-no-params": (lambda: parse_law("poisson"), "'poisson' must look like"),
    "parse_law-uniform-one-bound": (lambda: parse_law("uniform:3"),
                                    "uniform law needs 'uniform:a..b'"),
    "degree-law-negative-support": (
        lambda: sample_bidegree(10, parse_law("uniform:-2..3"), POISSON, 0),
        "out_law must be supported on non-negative integers, got support from -2"),
    "sample_bidegree-n": (lambda: sample_bidegree(0, POISSON, POISSON, 0),
                          "n must be >= 1, got 0"),
    "sample_bidegree-zero-laws": (
        lambda: sample_bidegree(10, parse_law("uniform:0..0"), parse_law("uniform:0..0"), 0),
        "out_law and in_law are both point masses at 0"),
    "generate_rcm-max_attempts": (
        lambda: generate_rcm(10, POISSON, POISSON, 0, max_attempts=0),
        "max_attempts must be >= 1, got 0"),
    "generate_graph-model": (lambda: generate_graph("erdos", 10, POISSON, POISSON, 0),
                             "model must be one of"),
    "generate_graph-negative-seed": (lambda: generate_graph("cm", 10, POISSON, POISSON, -1),
                                     "seed must be >= 0, got -1"),
    # numpy refuses a negative seed with a plain ValueError; the library
    # checks it first wherever it seeds a generator
    "generate_cm-negative-seed": (lambda: generate_cm(10, POISSON, POISSON, -1),
                                  "seed must be >= 0, got -1"),
    "generate_rcm-negative-seed": (lambda: generate_rcm(10, POISSON, POISSON, -1),
                                   "seed must be >= 0, got -1"),
    "generate_ecm-negative-seed": (lambda: generate_ecm(10, POISSON, POISSON, -1),
                                   "seed must be >= 0, got -1"),
    "generate_ecm-numpy-negative-seed": (
        lambda: generate_ecm(10, POISSON, POISSON, np.int64(-2)), "seed must be >= 0, got -2"),
    "sample_bidegree-negative-seed": (lambda: sample_bidegree(10, POISSON, POISSON, -1),
                                      "seed must be >= 0, got -1"),
    "pair_stubs_cm-negative-seed": (
        lambda: pair_stubs_cm(sample_bidegree(10, POISSON, POISSON, 0), -1),
        "seed must be >= 0, got -1"),
    "pmf-sample-negative-seed": (lambda: POISSON.sample(-1, 3), "seed must be >= 0, got -1"),
    "joint-sample-negative-seed": (lambda: CONSTANT_X.sample(-1, 3),
                                   "seed must be >= 0, got -1"),
    "spearman_uniform_xy-negative-seed": (lambda: spearman_uniform_xy([1, 2, 3], [3, 2, 1], -1),
                                          "seed must be >= 0, got -1"),
    "size_biased-negative-support": (
        lambda: size_biased(Pmf(np.array([-1, 3]), np.array([0.5, 0.5]))),
        "non-negative support"),
    "size_biased-zero-mean": (lambda: size_biased(parse_law("uniform:0..0")),
                              "positive mean"),
    "pair-label-shape": (lambda: DegreeTypePair.from_label("outin"), "'outin'"),
    "pair-label-type": (lambda: DegreeTypePair.from_label("up-in"),
                        "alpha must be 'out' or 'in', got 'up'"),
    "degrees-kind": (lambda: GRAPH.degrees("both"),
                     "degree kind must be 'out' or 'in', got 'both'"),
    "config-model": (lambda: config(model="erdos"), "model must be one of"),
    "config-sizes": (lambda: config(sizes=(0, 5)), r"sizes must all be >= 1, got \(0, 5\)"),
    "config-descending": (lambda: config(sizes=(5, 1)), "ascending"),
    "config-replicas": (lambda: config(replicas=0), "replicas must be >= 1, got 0"),
    "config-tie-break": (lambda: config(tie_break_replicas=0),
                         "tie_break_replicas must be >= 1, got 0"),
    "config-max-attempts": (lambda: config(max_attempts=0), "max_attempts must be >= 1, got 0"),
    "config-jobs": (lambda: config(jobs=-3), "jobs must be >= 1, got -3"),
    "config-empty-pairs": (lambda: config(pairs=()), "pairs must name at least one"),
    "config-unknown-pair": (lambda: config(pairs=("up-down",)), r"unknown pairs: \['up-down'\]"),
    "config-empty-measures": (lambda: config(measures=()), "measures must name at least one"),
    "config-unknown-measure": (lambda: config(measures=("tau",)), r"unknown measures: \['tau'\]"),
    "config-repeated-labels": (lambda: config(pairs=("out-in", "in-in", "out-in")),
                               r"repeated pairs: \['out-in'\]"),
    "config-bad-law": (lambda: config(in_law="cauchy:1"), "invalid law 'cauchy:1'"),
    "config-negative-support": (lambda: config(in_law="uniform:-1..1"),
                                "in_law must be supported on non-negative integers"),
    "consistency-sizes": (lambda: consistency(sizes=(1,)), r"sizes must all be >= 2, got \(1,\)"),
    "consistency-descending": (lambda: consistency(sizes=(1000, 100)),
                               r"sizes must be ascending, got \(1000, 100\)"),
    "consistency-replicas": (lambda: consistency(replicas=0), "replicas must be >= 1, got 0"),
    "consistency-tie-break": (lambda: consistency(tie_break_replicas=0),
                              "tie_break_replicas must be >= 1, got 0"),
    "consistency-jobs": (lambda: consistency(jobs=0), "jobs must be >= 1, got 0"),
    "consistency-degenerate-joint": (lambda: consistency(joint=CONSTANT_X), "point mass"),
    "endpoint-laws-model": (lambda: run_endpoint_laws(config(model="ecm")),
                            "requires model='cm', got 'ecm'"),
    "endpoint-laws-zero-law": (lambda: run_endpoint_laws(config(out_law="uniform:0..0")),
                               "positive mean"),
    "builtin_joint": (lambda: builtin_joint("cauchy"), "unknown builtin joint 'cauchy'"),
    "measure_table": (lambda: measure_table(PairTable([1, 2], [2, 1]), "tau", (0,), 1),
                      "unknown measure 'tau'"),
    # a count below 1 would average no draws
    "measure_table-tie-break": (
        lambda: measure_table(PairTable([1, 2], [2, 1]), "spearman_uniform", (0,), 0),
        "tie_break_replicas must be >= 1, got 0"),
    "measure_table-tie-break-negative": (
        lambda: measure_table(PairTable([1, 2], [2, 1]), "spearman_uniform", (0,), -2),
        "tie_break_replicas must be >= 1, got -2"),
    "full_report-tie-break": (lambda: full_report(GRAPH, 0, tie_break_replicas=0),
                              "tie_break_replicas must be >= 1, got 0"),
    "full_report-empty-pairs": (lambda: full_report(GRAPH, 0, pairs=()),
                                "pairs must name at least one"),
    "full_report-unknown-pair": (lambda: full_report(GRAPH, 0, pairs=("up-down",)),
                                 r"unknown pairs: \['up-down'\]"),
    "full_report-empty-measures": (lambda: full_report(GRAPH, 0, measures=()),
                                   "measures must name at least one"),
    "full_report-unknown-measure": (lambda: full_report(GRAPH, 0, measures=("tau",)),
                                    r"unknown measures: \['tau'\]"),
    # argument checks come before the edge-count check
    "full_report-before-edge-count": (
        lambda: full_report(DirectedMultigraph.from_edge_list([(0, 1)]), 0, measures=()),
        "measures must name at least one"),
}


@pytest.mark.parametrize("case", sorted(CHECKS))
def test_argument_check_raises_config_error(case):
    call, pattern = CHECKS[case]
    with pytest.raises(ConfigError, match=pattern) as excinfo:
        call()
    assert isinstance(excinfo.value, ValueError)


def text_file(path, text):
    path.write_text(text)
    return path


# a law of positive mean can still draw zero stubs on every node
ALMOST_ZERO = Pmf(np.array([0, 1]), np.array([1 - 1e-12, 1e-12]))

# each call, given a scratch directory, and a pattern its message must match.
# The graph, law and bi-degree containers hold what file readers and
# generators fill them with, so they check their contents as data
DATA_ERRORS = {
    "read_joint_pmf-not-a-number": (
        lambda tmp: read_joint_pmf(text_file(tmp / "joint.tsv", "0\t0\tnot-a-number\n")),
        r":1: malformed entry"),
    "read_pmf-repeated-value": (
        lambda tmp: read_pmf(text_file(tmp / "law.tsv", "1\t0.5\n1\t0.5\n")),
        "duplicate support values"),
    "full_report-one-edge": (
        lambda tmp: full_report(DirectedMultigraph.from_edge_list([(0, 1)]), 0),
        "requires at least 2 edge occurrences"),
    "sample_bidegree-zero-stubs": (lambda tmp: sample_bidegree(4, ALMOST_ZERO, ALMOST_ZERO, 0),
                                   "zero stubs on every node"),
    "graph-negative-n": (lambda tmp: DirectedMultigraph(-1, [], []),
                         "node count must be non-negative"),
    "graph-unequal-ends": (lambda tmp: DirectedMultigraph(3, [0, 1], [1]),
                           "source and target arrays differ in length"),
    "graph-triples": (lambda tmp: DirectedMultigraph.from_edge_list([(0, 1, 2)]),
                      r"sequence of \(source, target\) pairs"),
    "pmf-2d-support": (lambda tmp: Pmf(np.array([[1, 2]]), np.array([0.5, 0.5])),
                       "support must be one-dimensional"),
    "pmf-2d-probs": (lambda tmp: Pmf([1, 2], np.array([[0.5, 0.5]])),
                     "probs must be one-dimensional"),
    "pmf-empty": (lambda tmp: Pmf([], []), "support must be nonempty"),
    "pmf-lengths": (lambda tmp: Pmf([1, 2], [1.0]),
                    "support and probs must have the same length"),
    "joint-lengths": (lambda tmp: JointPmf([0, 1], [0], [1.0]),
                      "xs and ys must have the same length"),
    "joint-empty": (lambda tmp: JointPmf([], [], []), "joint support must be nonempty"),
    "joint-probs-length": (lambda tmp: JointPmf([0, 1], [0, 1], [1.0]),
                           "probs must match the support length"),
    "bidegree-unbalanced": (lambda tmp: BiDegreeRealization(np.array([1]), np.array([2]), 0),
                            "stub totals must balance"),
    # like a sweep that produced nothing to write
    "write_rows_csv-no-rows": (lambda tmp: write_rows_csv([], tmp / "rows.csv"),
                               "no rows to write"),
}


def test_data_errors_stay_plain_value_errors(tmp_path):
    for case, (call, pattern) in DATA_ERRORS.items():
        with pytest.raises(ValueError, match=pattern) as excinfo:
            call(tmp_path)
        assert not isinstance(excinfo.value, ConfigError), case
