"""Command-line interface: subcommands, formats, exit codes, determinism."""

import contextlib
import json
from unittest import mock

import numpy as np
import pytest

from degdep.cli import main
from degdep.correlations import PairTable


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_ecm_smoke_writes_graph_and_sidecar(self, tmp_path):
        out = tmp_path / "g.tsv"
        code = run_cli(
            "generate", "--model", "ecm", "--n", "1000",
            "--out-law", "zeta:2.5", "--in-law", "zeta:2.5",
            "--seed", "7", "-o", str(out),
        )
        assert code == 0
        assert out.exists()
        meta = json.loads((tmp_path / "g.tsv.meta.json").read_text())
        assert meta["model"] == "ecm"
        assert meta["edges"] + meta["ledger"]["total_erased"] == meta["bidegree"]["total_stubs"]
        from degdep import read_edge_list

        assert read_edge_list(out).is_simple()

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "generate", "--model", "cm", "--n", "300",
            "--out-law", "poisson:2", "--in-law", "poisson:2", "--seed", "11",
        )
        out1, out2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run_cli(*args, "-o", str(out1)) == 0
        assert run_cli(*args, "-o", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        meta1 = (tmp_path / "a.tsv.meta.json").read_text()
        meta2 = (tmp_path / "b.tsv.meta.json").read_text()
        assert meta1.replace("a.tsv", "") == meta2.replace("b.tsv", "")

    def test_rcm_failure_exit_code(self, tmp_path):
        code = run_cli(
            "generate", "--model", "rcm", "--n", "3000",
            "--out-law", "zeta:2.1", "--in-law", "zeta:2.1",
            "--seed", "1", "--max-attempts", "10", "-o", str(tmp_path / "g.tsv"),
        )
        assert code == 3

    def test_invalid_law_exit_code(self, tmp_path):
        code = run_cli(
            "generate", "--model", "cm", "--n", "10",
            "--out-law", "cauchy:1", "--in-law", "poisson:1",
            "--seed", "1", "-o", str(tmp_path / "g.tsv"),
        )
        assert code == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli("generate", "--model", "nope", "--n", "10")
        assert excinfo.value.code == 1


@pytest.fixture
def worked_graph(tmp_path):
    path = tmp_path / "worked.tsv"
    path.write_text("0\t1\n0\t2\n1\t2\n")
    return path


@pytest.fixture
def cycle_graph(tmp_path):
    path = tmp_path / "cycle.tsv"
    path.write_text("0\t1\n1\t2\n2\t0\n")
    return path


class TestMeasure:
    def test_worked_graph_values(self, worked_graph, capsys):
        assert run_cli("measure", str(worked_graph)) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["pairs"]["out-in"]
        assert entry["kendall"] == pytest.approx(-1 / 3)
        assert entry["spearman_average"] == -0.5
        assert entry["pearson"] == -0.5

    def test_cycle_graph_nulls_flagged(self, cycle_graph, capsys):
        assert run_cli("measure", str(cycle_graph)) == 0
        payload = json.loads(capsys.readouterr().out)
        for entry in payload["pairs"].values():
            assert entry["spearman_average"] is None
            assert entry["pearson"] is None
            assert entry["kendall"] == 0.0
            assert entry["degenerate_source"] and entry["degenerate_target"]

    def test_restricted_pairs_and_measures(self, worked_graph, capsys):
        assert (
            run_cli(
                "measure", str(worked_graph),
                "--pairs", "out-in", "--measures", "kendall",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert list(payload["pairs"]) == ["out-in"]
        entry = payload["pairs"]["out-in"]
        assert set(entry) == {"kendall", "degenerate_source", "degenerate_target"}

    def test_subset_computes_only_what_is_asked(self, tmp_path, capsys, monkeypatch):
        graph = tmp_path / "g.tsv"
        assert run_cli("generate", "--model", "ecm", "--n", "400", "--out-law", "zeta:2.5",
                       "--in-law", "zeta:2.5", "--seed", "3", "-o", str(graph)) == 0
        assert run_cli("measure", str(graph), "--seed", "5", "--tie-break-replicas", "3") == 0
        full = json.loads(capsys.readouterr().out)["pairs"]

        # a pair's draws are seeded by its own index, whatever else is asked
        assert run_cli("measure", str(graph), "--seed", "5", "--tie-break-replicas", "3",
                       "--pairs", "in-in", "--measures", "spearman_uniform") == 0
        entry = json.loads(capsys.readouterr().out)["pairs"]["in-in"]
        assert entry["spearman_uniform"] == full["in-in"]["spearman_uniform"]

        def no_draws(*args):
            raise AssertionError("a uniform-rank draw ran")

        monkeypatch.setattr(PairTable, "spearman_uniform", no_draws)
        assert run_cli("measure", str(graph), "--seed", "5", "--tie-break-replicas", "3",
                       "--pairs", "out-in", "--measures", "kendall") == 0
        payload = json.loads(capsys.readouterr().out)
        keys = ("kendall", "degenerate_source", "degenerate_target")
        assert payload["pairs"] == {"out-in": {k: full["out-in"][k] for k in keys}}

    def test_csv_format(self, worked_graph, tmp_path):
        out = tmp_path / "report.csv"
        assert run_cli("measure", str(worked_graph), "--format", "csv", "-o", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,measure,value,defined"
        assert any(line.startswith("out-in,kendall,") for line in lines)

    def test_missing_file_exit_code(self):
        assert run_cli("measure", "/nonexistent/graph.tsv") == 2

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\nbroken\n")
        assert run_cli("measure", str(bad)) == 2

    def test_single_edge_graph_exit_code(self, tmp_path):
        tiny = tmp_path / "tiny.tsv"
        tiny.write_text("0\t1\n")
        assert run_cli("measure", str(tiny)) == 2

    def test_unknown_pair_usage_error(self, worked_graph):
        assert run_cli("measure", str(worked_graph), "--pairs", "up-down") == 1


class TestExperimentCommands:
    def test_null_model_writes_rows_and_summary(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = run_cli(
            "experiment", "null-model", "--model", "ecm",
            "--sizes", "50,100", "--replicas", "2",
            "--out-law", "poisson:2", "--in-law", "poisson:2",
            "--seed", "3", "--tie-break-replicas", "2", "-o", str(out),
        )
        assert code == 0
        assert out.exists() and (tmp_path / "rows.csv.summary.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "n,replica,pair,measure,value,defined,runtime_ms,attempts,erased_fraction"

    def test_null_model_determinism_modulo_runtime(self, tmp_path):
        args = (
            "experiment", "null-model", "--model", "cm",
            "--sizes", "60", "--replicas", "2",
            "--out-law", "poisson:2", "--in-law", "poisson:2",
            "--seed", "9", "--tie-break-replicas", "2",
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0

        def strip_runtime(path):
            lines = path.read_text().splitlines()
            idx = lines[0].split(",").index("runtime_ms")
            return [
                ",".join(cell for i, cell in enumerate(line.split(",")) if i != idx)
                for line in lines
            ]

        assert strip_runtime(a) == strip_runtime(b)

    def test_consistency_builtin(self, tmp_path):
        out = tmp_path / "cons.csv"
        code = run_cli(
            "experiment", "consistency", "--joint", "bernoulli-equal",
            "--sizes", "500", "--replicas", "2", "--seed", "4",
            "--tie-break-replicas", "2", "-o", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("n,replica,measure,value,target,abs_error")

    def test_consistency_joint_file(self, tmp_path):
        joint_path = tmp_path / "joint.tsv"
        joint_path.write_text("0\t0\t0.5\n1\t1\t0.5\n")
        out = tmp_path / "cons.csv"
        code = run_cli(
            "experiment", "consistency", "--joint", str(joint_path),
            "--sizes", "200", "--replicas", "1", "--seed", "4", "-o", str(out),
        )
        assert code == 0

    def test_consistency_unknown_joint_usage(self, tmp_path):
        code = run_cli(
            "experiment", "consistency", "--joint", "no-such-joint",
            "--sizes", "100", "--replicas", "1", "--seed", "1",
            "-o", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_table1_smoke(self, tmp_path):
        out = tmp_path / "tv.csv"
        code = run_cli(
            "experiment", "table1", "--sizes", "200", "--replicas", "1",
            "--out-law", "poisson:2", "--in-law", "poisson:2",
            "--seed", "5", "-o", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("n,replica,pair,side,tv_distance")

    def test_descending_sizes_usage_error(self, tmp_path):
        code = run_cli(
            "experiment", "null-model", "--model", "cm",
            "--sizes", "100,50", "--replicas", "1",
            "--out-law", "poisson:2", "--in-law", "poisson:2",
            "--seed", "1", "-o", str(tmp_path / "x.csv"),
        )
        assert code == 1


_LAWS = ("--out-law", "poisson:2", "--in-law", "poisson:2")
_NULL = ("experiment", "null-model", "--model", "cm", "--sizes", "50", *_LAWS, "--seed", "1")
_CONS = ("experiment", "consistency", "--joint", "bernoulli-equal", "--seed", "1")
_TAB1 = ("experiment", "table1", "--sizes", "50", *_LAWS, "--seed", "1")

# argv with {graph}, {bad} and {missing} placeholders, and the exit code
EXIT_CODES = {
    "generate-n-0": (["generate", "--model", "cm", "--n", "0", *_LAWS, "--seed", "1"], 1),
    "generate-negative-support": (
        ["generate", "--model", "cm", "--n", "10", "--out-law", "uniform:-2..3",
         "--in-law", "poisson:1", "--seed", "1"], 1),
    "generate-bad-law": (
        ["generate", "--model", "cm", "--n", "10", "--out-law", "cauchy:1",
         "--in-law", "poisson:1", "--seed", "1"], 1),
    # two point masses at 0 are refused before any stub is drawn
    "generate-zero-laws": (
        ["generate", "--model", "cm", "--n", "10", "--out-law", "uniform:0..0",
         "--in-law", "uniform:0..0", "--seed", "1"], 1),
    "generate-max-attempts-0": (
        ["generate", "--model", "rcm", "--n", "10", *_LAWS, "--seed", "1",
         "--max-attempts", "0"], 1),
    "generate-rcm-exhausted": (
        ["generate", "--model", "rcm", "--n", "3000", "--out-law", "zeta:2.1",
         "--in-law", "zeta:2.1", "--seed", "1", "--max-attempts", "10"], 3),
    "generate-unwritable": (
        ["generate", "--model", "cm", "--n", "10", *_LAWS, "--seed", "1",
         "-o", "{missing}/g.tsv"], 2),
    "measure-tie-break-replicas-0": (["measure", "{graph}", "--tie-break-replicas", "0"], 1),
    "measure-unknown-measure": (["measure", "{graph}", "--measures", "tau"], 1),
    "measure-empty-pairs": (["measure", "{graph}", "--pairs", ","], 1),
    # the graph is read before the flags are checked
    "measure-bad-flag-missing-graph": (["measure", "{missing}/g.tsv", "--measures", "tau"], 2),
    "measure-missing-graph": (["measure", "{missing}/g.tsv"], 2),
    "measure-malformed-graph": (["measure", "{bad}"], 2),
    "measure-id-past-int64": (["measure", "{past_int64}"], 2),
    "measure-id-too-large-for-memory": (["measure", "{sparse}"], 2),
    "measure-id-past-address-space": (["measure", "{int64_max}"], 2),
    "null-model-replicas-0": ([*_NULL, "--replicas", "0"], 1),
    "null-model-tie-break-replicas-0": ([*_NULL, "--replicas", "1",
                                        "--tie-break-replicas", "0"], 1),
    "null-model-max-attempts-0": ([*_NULL, "--replicas", "1", "--max-attempts", "0"], 1),
    "null-model-empty-pairs": ([*_NULL, "--replicas", "1", "--pairs", ","], 1),
    "null-model-empty-measures": ([*_NULL, "--replicas", "1", "--measures", ","], 1),
    "null-model-unknown-measure": ([*_NULL, "--replicas", "1", "--measures", "tau"], 1),
    "null-model-bad-law": (
        ["experiment", "null-model", "--model", "cm", "--sizes", "50", "--replicas", "1",
         "--out-law", "cauchy:1", "--in-law", "poisson:2", "--seed", "1"], 1),
    "null-model-negative-support": (
        ["experiment", "null-model", "--model", "cm", "--sizes", "50", "--replicas", "1",
         "--out-law", "poisson:2", "--in-law", "uniform:-2..3", "--seed", "1"], 1),
    "null-model-negative-jobs": ([*_NULL, "--replicas", "1", "--jobs", "-3"], 1),
    "null-model-unwritable": ([*_NULL, "--replicas", "1", "-o", "{missing}/r.csv"], 2),
    "consistency-sizes-1": ([*_CONS, "--sizes", "1", "--replicas", "1"], 1),
    "consistency-replicas-0": ([*_CONS, "--sizes", "100", "--replicas", "0"], 1),
    "consistency-tie-break-replicas-0": (
        [*_CONS, "--sizes", "100", "--replicas", "1", "--tie-break-replicas", "0"], 1),
    "consistency-zero-jobs": ([*_CONS, "--sizes", "100", "--replicas", "1", "--jobs", "0"], 1),
    "consistency-degenerate-joint": (
        ["experiment", "consistency", "--joint", "{constant_x}", "--seed", "1",
         "--sizes", "100", "--replicas", "1"], 1),
    "consistency-malformed-joint": (
        ["experiment", "consistency", "--joint", "{bad}", "--seed", "1",
         "--sizes", "100", "--replicas", "1"], 2),
    "consistency-nan-joint": (
        ["experiment", "consistency", "--joint", "{nan_joint}", "--seed", "1",
         "--sizes", "100", "--replicas", "1"], 2),
    "consistency-joint-value-2**63": (
        ["experiment", "consistency", "--joint", "{joint_2_63}", "--seed", "1",
         "--sizes", "100", "--replicas", "1"], 2),
    "consistency-joint-value-2**64": (
        ["experiment", "consistency", "--joint", "{joint_2_64}", "--seed", "1",
         "--sizes", "100", "--replicas", "1"], 2),
    "table1-replicas-0": ([*_TAB1, "--replicas", "0"], 1),
    "table1-bad-law": (
        ["experiment", "table1", "--sizes", "50", "--replicas", "1",
         "--out-law", "cauchy:1", "--in-law", "poisson:2", "--seed", "1"], 1),
    # size-biasing a law of mean 0 fails before any graph is generated
    "table1-zero-law": (
        ["experiment", "table1", "--sizes", "50", "--replicas", "1",
         "--out-law", "uniform:0..0", "--in-law", "poisson:2", "--seed", "1"], 1),
    "table1-unwritable": ([*_TAB1, "--replicas", "1", "-o", "{missing}/t.csv"], 2),
}

# what stderr must contain, for the cases that check it
EXIT_MESSAGES = {
    "measure-id-past-int64": ":1: node id out of range",
    "measure-id-too-large-for-memory": "largest node id 1000000000000",
    "measure-id-past-address-space": "largest node id 9223372036854775807",
    "consistency-nan-joint": "probs must be finite",
    "consistency-joint-value-2**63": ":2: value out of range",
    "consistency-joint-value-2**64": ":1: value out of range",
}


@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_exit_codes(case, tmp_path, worked_graph, capsys):
    """1 for usage or config errors, which stop before any output is
    written; 2 for I/O or data errors; 3 when rcm generation runs out."""
    argv, code = EXIT_CODES[case]
    bad = tmp_path / "bad.tsv"
    bad.write_text("0\t1\nbroken\n")
    past_int64 = tmp_path / "past-int64.tsv"
    past_int64.write_text("9223372036854775808\t1\n")
    sparse = tmp_path / "sparse.tsv"
    sparse.write_text("0\t1000000000000\n")
    int64_max = tmp_path / "int64-max.tsv"
    int64_max.write_text("9223372036854775807\t0\n")
    constant_x = tmp_path / "constant-x.tsv"
    constant_x.write_text("0\t0\t0.5\n0\t1\t0.5\n")
    nan_joint = tmp_path / "nan-joint.tsv"
    nan_joint.write_text("0\t0\tnan\n1\t1\t1.0\n")
    joint_2_63 = tmp_path / "joint-2-63.tsv"
    joint_2_63.write_text("0\t0\t0.5\n9223372036854775808\t1\t0.5\n")
    joint_2_64 = tmp_path / "joint-2-64.tsv"
    joint_2_64.write_text("0\t18446744073709551616\t1\n")
    out = tmp_path / "out"
    places = {"graph": worked_graph, "bad": bad, "missing": tmp_path / "missing",
              "past_int64": past_int64, "sparse": sparse, "int64_max": int64_max,
              "constant_x": constant_x, "nan_joint": nan_joint, "joint_2_63": joint_2_63,
              "joint_2_64": joint_2_64}
    argv = [arg.format(**places) for arg in argv]
    if "-o" not in argv:
        argv += ["-o", str(out)]
    # 8 TB of degree arrays: a host that overcommits memory could grant them,
    # so the refusal is made certain
    refused = (mock.patch.object(np, "bincount", side_effect=MemoryError)
               if case == "measure-id-too-large-for-memory" else contextlib.nullcontext())
    with refused:
        assert run_cli(*argv) == code
    if code == 1:
        assert not out.exists()
    if case in EXIT_MESSAGES:
        assert EXIT_MESSAGES[case] in capsys.readouterr().err
