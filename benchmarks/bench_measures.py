#!/usr/bin/env python3
"""Time the per-pair count table and every measure read from it.

For each size, one ecm graph with zeta:2.5 out- and in-degree laws is
generated.  For each degree-type pair the script times the table build
(edge-degree view included), Kendall, average-rank Spearman, Pearson, one
uniform-rank tie-break draw and the exact tie-break mean, each the best of
--repeats runs.  It prints one line per (size, pair) and writes the same
rows, with the revision and machine, to a JSON file.  From the root of a
source checkout:

    PYTHONPATH=src python benchmarks/bench_measures.py [--sizes 10000,100000,1000000] \\
        [--repeats 3] [--seed 7] [-o BENCH_measures.json]
"""

import argparse
import json
import os
import platform

import numpy as np

from benchutil import best_of, source_revision
from degdep import ALL_PAIRS, generate_ecm, parse_law
from degdep.correlations import PairTable

LAW = "zeta:2.5"
STAGES = ("table", "kendall", "spearman_average", "pearson", "spearman_uniform_draw",
          "spearman_uniform_mean")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000,1000000",
                        help="comma-separated node counts")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("-o", "--output", default="BENCH_measures.json")
    args = parser.parse_args()

    law = parse_law(LAW)
    rows = []
    print(f"{'n':>8} {'edges':>8} {'pair':>8} {'K_x':>5} {'K_y':>5} "
          + "".join(f"{stage:>23}" for stage in STAGES))
    for n in (int(s) for s in args.sizes.split(",")):
        graph = generate_ecm(n, law, law, rng=args.seed).graph
        for pair in ALL_PAIRS:
            table = PairTable.of_graph(graph, pair)
            seconds = {
                "table": best_of(args.repeats, lambda: PairTable.of_graph(graph, pair)),
                "kendall": best_of(args.repeats, table.kendall),
                "spearman_average": best_of(args.repeats, table.spearman_average),
                "pearson": best_of(args.repeats, table.pearson),
                "spearman_uniform_draw": best_of(
                    args.repeats, lambda: table.spearman_uniform(args.seed)),
                "spearman_uniform_mean": best_of(args.repeats, table.spearman_uniform_mean),
            }
            rows.append({"n": n, "law": LAW, "pair": pair.label, "edges": table.m,
                         "distinct_x": int(table.ux.size),
                         "distinct_y": int(table.uy.size), "seconds": seconds})
            print(f"{n:>8} {table.m:>8} {pair.label:>8} {table.ux.size:>5} "
                  f"{table.uy.size:>5} "
                  + "".join(f"{seconds[stage] * 1e3:>21.2f}ms" for stage in STAGES))

    meta = {
        "benchmark": "measures",
        "source_revision": source_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    # one row per line, so that diffs of the file stay readable
    body = ",\n  ".join(json.dumps(row) for row in rows)
    with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(meta)[:-1] + f', "rows": [\n  {body}\n]}}\n')


if __name__ == "__main__":
    main()
