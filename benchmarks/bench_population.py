#!/usr/bin/env python3
"""Time reading a wide joint law, its population values and a wide Kendall.

For each width W the script builds the joint law of the consistency-wide
benchmark workload: x = 0..W-1, each with 8 y values x + s for distinct
shifts s drawn from 0..511, and integer weights 1..16, written as a joint
pmf text file.  It times read_joint_pmf on that file, each population value
(spearman_population, spearman_average_limit, kendall_population) of the
joint read once, and Kendall's tau of 25*W pairs sampled from the law, with
the PairTable build, each the best of --repeats runs.  It runs each call
once more under tracemalloc to record its peak of traced allocations.  It
prints one line per width and stores the rows under --label in a JSON file,
keeping the rows of other labels already in it.  From the root of a source
checkout:

    PYTHONPATH=src python benchmarks/bench_population.py [--widths 400,4000] \\
        [--repeats 3] [--seed 7] [--label change] [-o BENCH_population.json]

Pointing PYTHONPATH at the src directory of another checkout, with another
--label, adds that tree's numbers next to these.  A tree that builds the
dense joint-cdf grid on construction needs memory proportional to the
product of the distinct x and y counts: about 0.4 GB of traced allocations
at W = 4000, and gigabytes past it.
"""

import argparse
import os
import platform
import tempfile

import numpy as np

from benchutil import best_of, source_revision, traced_peak, write_labelled_run
from degdep.correlations import PairTable
from degdep.pmf import (
    kendall_population,
    read_joint_pmf,
    spearman_average_limit,
    spearman_population,
)

OFFSETS = 8          # y values per x
OFFSET_RANGE = 512   # y - x is drawn from 0..OFFSET_RANGE-1
PAIRS_PER_X = 25     # sampled pairs per x value for the wide Kendall
STAGES = ("read_joint_pmf", "spearman_population", "spearman_average_limit",
          "kendall_population", "wide_kendall")


def write_joint(path, width, rng):
    """Write the consistency-wide joint law of the given width to path."""
    xs = np.repeat(np.arange(width), OFFSETS)
    shifts = rng.permuted(np.tile(np.arange(OFFSET_RANGE), (width, 1)), axis=1)
    ys = xs + shifts[:, :OFFSETS].ravel()
    ws = rng.integers(1, 17, xs.size)
    total = int(ws.sum())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, w in zip(xs.tolist(), ys.tolist(), ws.tolist()):
            fh.write(f"{x}\t{y}\t{w / total!r}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--widths", default="400,4000",
                        help="comma-separated numbers of distinct x values")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--label", default="change",
                        help="name of this source tree's entry in the output")
    parser.add_argument("-o", "--output", default="BENCH_population.json")
    args = parser.parse_args()

    rows = []
    print(f"{'width':>6} {'atoms':>6} {'K_y':>5} {'pairs':>7} {'cells':>6} "
          + "".join(f"{stage:>24}" for stage in STAGES))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "joint.tsv")
        for width in (int(s) for s in args.widths.split(",")):
            rng = np.random.default_rng([args.seed, width])
            write_joint(path, width, rng)
            joint = read_joint_pmf(path)
            x, y = joint.sample(rng, PAIRS_PER_X * width)
            calls = {
                "read_joint_pmf": lambda: read_joint_pmf(path),
                "spearman_population": lambda: spearman_population(joint),
                "spearman_average_limit": lambda: spearman_average_limit(joint),
                "kendall_population": lambda: kendall_population(joint),
                "wide_kendall": lambda: PairTable(x, y).kendall(),
            }
            seconds = {stage: best_of(args.repeats, calls[stage]) for stage in STAGES}
            peak = {stage: traced_peak(calls[stage]) for stage in STAGES}
            cells = int(PairTable(x, y).cell_counts.size)
            row = {"width": width, "atoms": int(joint.xs.size),
                   "distinct_x": int(np.unique(joint.xs).size),
                   "distinct_y": int(np.unique(joint.ys).size),
                   "pairs": int(x.size), "cells": cells,
                   "seconds": seconds, "tracemalloc_peak_bytes": peak}
            rows.append(row)
            print(f"{width:>6} {row['atoms']:>6} {row['distinct_y']:>5} {x.size:>7} "
                  f"{cells:>6} "
                  + "".join(f"{seconds[stage] * 1e3:>10.1f}ms{peak[stage] / 2**20:>10.1f}MB"
                            for stage in STAGES))

    entry = {
        "source_revision": source_revision(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "repeats": args.repeats,
        "rows": rows,
    }
    write_labelled_run(args.output, "population", args.label, entry)


if __name__ == "__main__":
    main()
