#!/usr/bin/env python3
"""Time edge-list writing and reading, and the memory each call allocates.

For each size, one ecm graph with zeta:2.5 out- and in-degree laws is
generated.  The script times write_edge_list and read_edge_list on it, each
the best of --repeats runs, records the file size, and runs each call once
more under tracemalloc to record its peak of traced allocations (numpy
buffers and Python objects).  It prints one line per size and stores the rows
under --label in a JSON file, keeping the rows of other labels already in it,
so that two source trees can be compared in one file.  From the root of a
source checkout:

    PYTHONPATH=src python benchmarks/bench_io.py [--sizes 10000,100000,1000000] \\
        [--repeats 3] [--seed 7] [--label change] [-o BENCH_io.json]

Pointing PYTHONPATH at the src directory of another checkout, with another
--label, adds that tree's numbers next to these.
"""

import argparse
import os
import platform
import tempfile

import numpy as np

from benchutil import best_of, source_revision, traced_peak, write_labelled_run
from degdep import generate_ecm, parse_law, read_edge_list, write_edge_list

LAW = "zeta:2.5"
STAGES = ("write", "read")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="10000,100000,1000000",
                        help="comma-separated node counts")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--label", default="change",
                        help="name of this source tree's entry in the output")
    parser.add_argument("-o", "--output", default="BENCH_io.json")
    args = parser.parse_args()

    law = parse_law(LAW)
    rows = []
    print(f"{'n':>8} {'edges':>8} {'bytes':>10} {'write':>10} {'read':>10} "
          f"{'write_peak':>11} {'read_peak':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graph.tsv")
        for n in (int(s) for s in args.sizes.split(",")):
            graph = generate_ecm(n, law, law, rng=args.seed).graph
            calls = {"write": lambda: write_edge_list(graph, path),
                     "read": lambda: read_edge_list(path)}
            seconds = {stage: best_of(args.repeats, calls[stage]) for stage in STAGES}
            peak = {stage: traced_peak(calls[stage]) for stage in STAGES}
            size = os.path.getsize(path)
            rows.append({"n": n, "law": LAW, "edges": graph.edge_count, "file_bytes": size,
                         "seconds": seconds, "tracemalloc_peak_bytes": peak})
            print(f"{n:>8} {graph.edge_count:>8} {size:>10} "
                  + "".join(f"{seconds[stage] * 1e3:>8.1f}ms" for stage in STAGES)
                  + "".join(f"{peak[stage] / 2**20:>9.1f}MB" for stage in STAGES))

    entry = {
        "source_revision": source_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "repeats": args.repeats,
        "rows": rows,
    }
    write_labelled_run(args.output, "io", args.label, entry)


if __name__ == "__main__":
    main()
