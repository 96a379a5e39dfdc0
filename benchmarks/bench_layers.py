#!/usr/bin/env python3
"""Time each stage of one group of degdep's layers, and the memory it allocates.

    PYTHONPATH=src python benchmarks/bench_layers.py GROUP [--sizes 10000,100000,1000000] \\
        [--repeats 3] [--seed 7] [-o BENCH_<GROUP>.json]

The groups, and what one size builds:

  generate    for the poisson:3 and zeta:2.5 laws, parse_law with a cold cache,
              sample_bidegree, pair_stubs_cm and erase_multigraph, each on the
              seeded output of the stage before, and generate_ecm for the whole
              chain; at sizes up to 10000 also one generate_rcm at poisson:3,
              with its attempt count.
  measures    one ecm zeta:2.5 graph; per degree-type pair, the PairTable
              build from the graph (PairTable.of_graph, its node-degree
              compression included), Kendall, average-rank Spearman, Pearson,
              one uniform-rank tie-break draw, 32 draws on shared buffers
              (spearman_uniform_draws) and the exact tie-break mean;
              then one row (pair "all") for the four tables built at once,
              sharing their edge-end sides (PairTable.of_graph_pairs).
  io          one ecm zeta:2.5 graph; write_edge_list and read_edge_list.
  population  the consistency-wide benchmark workload's joint law with SIZE
              distinct x values (default sizes 400,4000), written as a joint
              pmf file; read_joint_pmf, the three population values, and
              Kendall's tau of 25*SIZE pairs sampled from the law, with the
              PairTable build.

Every stage is timed as the best of --repeats calls and run once more under
tracemalloc for its peak of traced allocations (numpy buffers and Python
objects).  The script prints one line per row and stores the rows in the
output file under the revision of the checkout degdep was imported from
("unknown" outside a checkout), keeping the runs of other revisions already
in it.  Pointing PYTHONPATH at the src directory of another checkout adds
that tree's numbers next to these.
"""

import argparse
import json
import os
import platform
import subprocess
import tempfile
import time
import tracemalloc

import numpy as np

import degdep
from degdep import (
    ALL_PAIRS,
    erase_multigraph,
    generate_ecm,
    generate_rcm,
    pair_stubs_cm,
    parse_law,
    read_edge_list,
    sample_bidegree,
    write_edge_list,
)
from degdep.correlations import PairTable
from degdep.pmf import (
    _build_law,
    kendall_population,
    read_joint_pmf,
    spearman_average_limit,
    spearman_population,
)
from seeded_outputs import write_wide_joint

GENERATE_LAWS = ("poisson:3", "zeta:2.5")
GRAPH_LAW = "zeta:2.5"
RCM_LAW = "poisson:3"
# rcm is timed at sizes up to 1e4 only: every attempt shuffles and checks all
# m stubs, and one seed can take thousands of attempts (6,286 at n = 1e4,
# seed 8), each timed call repeating all of them
RCM_MAX_N = 10_000
RCM_MAX_ATTEMPTS = 30_000
PAIRS_PER_X = 25     # sampled pairs per x value for the wide Kendall
TIE_BREAK_DRAWS = 32  # draws per value, as --tie-break-replicas 32 makes


def best_of(repeats, fn):
    """Fastest wall-clock time of `repeats` calls of fn(), in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def traced_peak(fn):
    """Peak of the allocations tracemalloc traces during one call of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def source_revision():
    """Commit of the checkout degdep was imported from, with '-dirty' when
    its tracked files differ from that commit; None outside a checkout."""
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              cwd=os.path.dirname(degdep.__file__),
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


# Each group yields, for one size, (fixed fields, {stage: callable}) per row.
# The runner times a row's stages before the group resumes, so the callables
# may close over loop variables.

def generate_group(n, seed, tmp):
    for text in GENERATE_LAWS:
        law = parse_law(text)
        bidegree = sample_bidegree(n, law, law, seed)
        multigraph = pair_stubs_cm(bidegree, seed).graph
        graph, ledger = erase_multigraph(multigraph)
        yield ({"n": n, "law": text, "total_stubs": bidegree.total_stubs,
                "edges": graph.edge_count, "total_erased": ledger.total_erased},
               {"parse_law": lambda: (_build_law.cache_clear(), parse_law(text)),
                "sample_bidegree": lambda: sample_bidegree(n, law, law, seed),
                "pair_stubs_cm": lambda: pair_stubs_cm(bidegree, seed),
                "erase_multigraph": lambda: erase_multigraph(multigraph),
                "generate_ecm": lambda: generate_ecm(n, law, law, seed)})
    if n <= RCM_MAX_N:
        law = parse_law(RCM_LAW)
        attempts = generate_rcm(n, law, law, seed, max_attempts=RCM_MAX_ATTEMPTS).attempts
        yield ({"n": n, "law": RCM_LAW, "model": "rcm", "attempts": attempts},
               {"generate_rcm": lambda: generate_rcm(n, law, law, seed,
                                                     max_attempts=RCM_MAX_ATTEMPTS)})


def measures_group(n, seed, tmp):
    law = parse_law(GRAPH_LAW)
    graph = generate_ecm(n, law, law, rng=seed).graph
    for pair in ALL_PAIRS:
        table = PairTable.of_graph(graph, pair)
        yield ({"n": n, "law": GRAPH_LAW, "pair": pair.label, "edges": table.m,
                "distinct_x": int(table.ux.size), "distinct_y": int(table.uy.size)},
               {"table": lambda: PairTable.of_graph(graph, pair),
                "kendall": table.kendall,
                "spearman_average": table.spearman_average,
                "pearson": table.pearson,
                "spearman_uniform_draw": lambda: table.spearman_uniform(seed),
                "spearman_uniform_draws": lambda: table.spearman_uniform_draws(
                    range(seed, seed + TIE_BREAK_DRAWS)),
                "spearman_uniform_mean": table.spearman_uniform_mean})
    yield ({"n": n, "law": GRAPH_LAW, "pair": "all", "edges": graph.edge_count},
           {"tables": lambda: PairTable.of_graph_pairs(graph, ALL_PAIRS)})


def io_group(n, seed, tmp):
    law = parse_law(GRAPH_LAW)
    graph = generate_ecm(n, law, law, rng=seed).graph
    path = os.path.join(tmp, "graph.tsv")
    write_edge_list(graph, path)
    yield ({"n": n, "law": GRAPH_LAW, "edges": graph.edge_count,
            "file_bytes": os.path.getsize(path)},
           {"write": lambda: write_edge_list(graph, path),
            "read": lambda: read_edge_list(path)})


def population_group(width, seed, tmp):
    rng = np.random.default_rng([seed, width])
    path = os.path.join(tmp, "joint.tsv")
    write_wide_joint(path, width, 1, rng)
    joint = read_joint_pmf(path)
    x, y = joint.sample(rng, PAIRS_PER_X * width)
    yield ({"width": width, "atoms": int(joint.xs.size),
            "distinct_x": int(np.unique(joint.xs).size),
            "distinct_y": int(np.unique(joint.ys).size),
            "pairs": int(x.size), "cells": int(PairTable(x, y).cell_counts.size)},
           {"read_joint_pmf": lambda: read_joint_pmf(path),
            "spearman_population": lambda: spearman_population(joint),
            "spearman_average_limit": lambda: spearman_average_limit(joint),
            "kendall_population": lambda: kendall_population(joint),
            "wide_kendall": lambda: PairTable(x, y).kendall()})


GROUPS = {"generate": generate_group, "measures": measures_group, "io": io_group,
          "population": population_group}
DEFAULT_SIZES = {"population": "400,4000"}


def run(group, sizes, repeats, seed):
    """The rows of one group at the given sizes: each row's fixed fields,
    the best time of each stage and the traced peak of one more call."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            for fields, stages in GROUPS[group](n, seed, tmp):
                seconds = {name: best_of(repeats, call) for name, call in stages.items()}
                peak = {name: traced_peak(call) for name, call in stages.items()}
                row = {**fields, "seconds": seconds, "tracemalloc_peak_bytes": peak}
                if "attempts" in row:
                    row["seconds_per_attempt"] = seconds["generate_rcm"] / row["attempts"]
                rows.append(row)
                print("  ".join([*(f"{key} {value}" for key, value in fields.items()),
                                 *(f"{name} {seconds[name] * 1e3:.2f}ms "
                                   f"{peak[name] / 2**20:.1f}MB" for name in stages)]),
                      flush=True)
    return rows


def write_labelled_run(path, benchmark, label, entry):
    """Store `entry` (a dict with a "rows" list) under `label` in the JSON
    file at `path`, keeping the runs of other labels already in it, so that
    two source trees can be compared in one file."""
    runs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs[label] = entry
    # one row per line, so that diffs of the file stay readable
    parts = []
    for name, stored in runs.items():
        body = ",\n      ".join(json.dumps(row) for row in stored["rows"])
        meta = {key: value for key, value in stored.items() if key != "rows"}
        parts.append(f"    {json.dumps(name)}: {json.dumps(meta)[:-1]}, "
                     f'"rows": [\n      {body}\n    ]}}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"benchmark": {json.dumps(benchmark)}, "runs": {{\n'
                 + ",\n".join(parts) + "\n}}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("group", choices=GROUPS)
    parser.add_argument("--sizes", help="comma-separated node counts (population: widths)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-o", "--output", help="default BENCH_<group>.json")
    args = parser.parse_args()

    sizes = args.sizes or DEFAULT_SIZES.get(args.group, "10000,100000,1000000")
    revision = source_revision() or "unknown"
    rows = run(args.group, [int(s) for s in sizes.split(",")], args.repeats, args.seed)
    entry = {"source_revision": revision, "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": np.__version__,
             "seed": args.seed, "repeats": args.repeats, "rows": rows}
    write_labelled_run(args.output or f"BENCH_{args.group}.json", args.group, revision, entry)


if __name__ == "__main__":
    main()
