"""Tests of the benchmark itself: its oracle, its output and BENCHMARK.json.

Run from the repository root:  python -m pytest perfbench
"""

from __future__ import annotations

import itertools
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import layers
import oracle
import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _brute_force_counts(x, y):
    concordant = discordant = 0
    for (a, b), (c, d) in itertools.combinations(zip(x, y), 2):
        s = (a - c) * (b - d)
        concordant += s > 0
        discordant += s < 0
    return concordant, discordant


def test_exact_stats_match_brute_force():
    rng = np.random.default_rng(5)
    x = rng.integers(1, 6, 300)
    y = rng.integers(1, 9, 300) + x
    stats = oracle.exact_stats(x, y)
    assert (stats["concordant"], stats["discordant"]) == _brute_force_counts(x.tolist(), y.tolist())
    m = x.size
    # average ranks, rank 1 = largest, from their definition
    def avg_rank(v, values):
        return Fraction(2 * sum(w > v for w in values) + sum(w == v for w in values) + 1, 2)
    ra = [avg_rank(v, x.tolist()) for v in x.tolist()]
    rb = [avg_rank(v, y.tolist()) for v in y.tolist()]
    centre = Fraction(m + 1, 2)
    assert stats["rank_num"] == 4 * sum((a - centre) * (b - centre) for a, b in zip(ra, rb))
    assert stats["sxy"] == int(np.dot(x, y))


def test_population_values_match_brute_force():
    xs, ys, ws = [0, 0, 1, 2, 2], [1, 3, 0, 2, 3], [3, 1, 2, 5, 4]
    total = sum(ws)
    points = list(zip(xs, ys, ws))
    signed = sum(w1 * w2 * ((x1 - x2) * (y1 - y2) > 0) - w1 * w2 * ((x1 - x2) * (y1 - y2) < 0)
                 for x1, y1, w1 in points for x2, y2, w2 in points)
    tau = Fraction(signed, total * total)

    def tie_cdf(values, v):
        return Fraction(sum(w for u, w in zip(values, ws) if u <= v)
                        + sum(w for u, w in zip(values, ws) if u < v), total)

    rho = 3 * sum(Fraction(w, total) * tie_cdf(xs, x) * tie_cdf(ys, y)
                  for x, y, w in zip(xs, ys, ws)) - 3
    values = oracle.population_values(xs, ys, ws)
    assert values["kendall"] == float(tau)
    assert values["spearman_uniform"] == float(rho)


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A small ecm graph and its `measure` report, made by the program."""
    sys.path.insert(0, str(ROOT / "src"))
    from degdep.cli import main

    tmp = tmp_path_factory.mktemp("graph")
    graph, report = tmp / "g.tsv", tmp / "g.json"
    assert main(["generate", "--model", "ecm", "--n", "3000", "--out-law", "zeta:2.5",
                 "--in-law", "zeta:2.5", "--seed", "11", "-o", str(graph)]) == 0
    assert main(["measure", str(graph), "-o", str(report)]) == 0
    src, dst = oracle.read_edges(graph)
    return src, dst, json.loads(report.read_text())


def test_oracle_accepts_the_program_and_rejects_one_discordant_pair(small_report):
    src, dst, report = small_report
    for label in oracle.PAIRS:
        stats = oracle.exact_stats(*oracle.degree_pairs(src, dst, label))
        reported = report["pairs"][label]
        assert oracle.check_pair(label, reported, stats) == []
        m = stats["m"]
        one_more = Fraction(2 * (stats["concordant"] - stats["discordant"] - 1), m * (m - 1))
        assert oracle.check_pair(label, {**reported, "kendall": float(one_more)}, stats)
        nudged = math.nextafter(reported["spearman_average"], 2.0)
        assert oracle.check_pair(label, {**reported, "spearman_average": nudged}, stats)


def test_benchmark_json_matches_the_code():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in layers.PER_LAYER.items()}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1] if line.strip()}
    for m in spec:
        assert printed[m["name"]] == m["unit"]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip-zeta", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
