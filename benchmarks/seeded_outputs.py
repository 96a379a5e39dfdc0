#!/usr/bin/env python3
"""Print a sha256 digest of every output of a fixed set of seeded CLI runs.

The runs cover `generate` for cm, rcm and ecm, `measure` with JSON and CSV
output (the exact tie-break mean, one seeded draw, and the mean of four), and
the null-model, consistency and table1 sweeps.  The null-model sweep runs
twice on the same graphs: once with the exact tie-break mean (no
--tie-break-replicas) and once averaging three seeded tie-break draws.  One
consistency sweep reads a wide joint law written by this script, whose
samples have values and (x, y) cells too spread out for a bincount tally, so
the sorting tallies run too.  Every command goes through `degdep.cli.main` in a
temporary directory.  The script prints one `sha256  file` line per output,
so two source trees that write the same bytes print the same lines.
From the root of a source checkout:

    PYTHONPATH=src python benchmarks/seeded_outputs.py > head.txt
    PYTHONPATH=/path/to/other/checkout/src python benchmarks/seeded_outputs.py > base.txt
    diff base.txt head.txt
"""

import hashlib
import os
import sys
import tempfile

import numpy as np

from degdep.cli import main as cli_main

ZETA = ("--out-law", "zeta:2.5", "--in-law", "zeta:2.5")
POISSON = ("--out-law", "poisson:2", "--in-law", "poisson:2")
OFFSETS = 8          # y values per x of the wide joint law
OFFSET_RANGE = 512   # y - x is drawn from 0..OFFSET_RANGE-1

# argv, with {wide} standing for the wide joint file; every output path is
# relative to the temporary directory
COMMANDS = (
    ("generate", "--model", "cm", "--n", "2000", *POISSON, "--seed", "1", "-o", "cm.tsv"),
    ("generate", "--model", "rcm", "--n", "2000", *POISSON, "--seed", "2", "-o", "rcm.tsv"),
    ("generate", "--model", "ecm", "--n", "5000", *ZETA, "--seed", "3", "-o", "ecm.tsv"),
    ("measure", "ecm.tsv", "--seed", "4", "--tie-break-replicas", "4", "-o", "ecm.json"),
    ("measure", "cm.tsv", "--seed", "5", "--format", "csv", "-o", "cm.csv"),
    ("measure", "cm.tsv", "--seed", "5", "--tie-break-replicas", "1", "--format", "csv",
     "-o", "cm-draw.csv"),
    ("experiment", "null-model", "--model", "ecm", "--sizes", "500,2000", "--replicas", "2",
     *ZETA, "--seed", "6", "-o", "null-model.csv"),
    ("experiment", "null-model", "--model", "ecm", "--sizes", "500,2000", "--replicas", "2",
     *ZETA, "--seed", "6", "--tie-break-replicas", "3", "-o", "null-model-draws.csv"),
    ("experiment", "consistency", "--joint", "bernoulli-product", "--sizes", "100,1000",
     "--replicas", "2", "--seed", "7", "-o", "consistency.csv"),
    ("experiment", "consistency", "--joint", "{wide}", "--sizes", "20000", "--replicas", "1",
     "--tie-break-replicas", "2", "--seed", "8", "-o", "consistency-wide.csv"),
    ("experiment", "table1", "--sizes", "500,2000", "--replicas", "2", *POISSON,
     "--seed", "9", "-o", "table1.csv"),
)


def write_wide_joint(path, width, spacing, rng):
    """Write the consistency-wide joint law to path: x = 0, spacing, ...,
    (width - 1) * spacing, each with OFFSETS y values x + s for distinct
    shifts s drawn from 0..OFFSET_RANGE-1, and integer weights 1..16.  The
    layer benchmark's population group writes it with spacing 1."""
    xs = np.repeat(np.arange(width) * spacing, OFFSETS)
    shifts = rng.permuted(np.tile(np.arange(OFFSET_RANGE), (width, 1)), axis=1)
    ys = xs + shifts[:, :OFFSETS].ravel()
    ws = rng.integers(1, 17, xs.size)
    total = int(ws.sum())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, w in zip(xs.tolist(), ys.tolist(), ws.tolist()):
            fh.write(f"{x}\t{y}\t{w / total!r}\n")


def run_commands(wide):
    for argv in COMMANDS:
        argv = [arg.format(wide=wide) for arg in argv]
        code = cli_main(argv)
        if code != 0:
            sys.exit(f"degdep {' '.join(argv)} exited {code}")


def digest_lines():
    """Run every command in a temporary directory and return one
    `sha256  file` line per output, sorted by file name."""
    cwd = os.getcwd()
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        wide = os.path.join(tmp, "wide-joint.tsv")
        # 400 x values 1000 apart
        write_wide_joint(wide, 400, 1000, np.random.default_rng(11))
        outputs = os.path.join(tmp, "out")
        os.mkdir(outputs)
        os.chdir(outputs)
        try:
            run_commands(wide)
        finally:
            os.chdir(cwd)
        for name in sorted(os.listdir(outputs)):
            with open(os.path.join(outputs, name), "rb") as fh:
                data = fh.read()
            lines.append(f"{hashlib.sha256(data).hexdigest()}  {name}")
    return lines


def main():
    for line in digest_lines():
        print(line)


if __name__ == "__main__":
    main()
