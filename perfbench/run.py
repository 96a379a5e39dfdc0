#!/usr/bin/env python3
"""Benchmark for degdep: end-to-end metrics per workload, or a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload roundtrip-zeta --seed 1 --seconds 25 --trace 0

The package is imported from ./src of the checkout, and every op goes through
`degdep.cli.main` in this process with --jobs 1.  Ops repeat, each with its
own seed derived from --seed, until --seconds have passed (at least one op).
Every op's outputs are checked against the benchmark's own oracle.

--trace 0 reports the end-to-end metrics:
  setup_s      median over fresh interpreters of importing degdep.cli and
               building the workload's laws (parse_law) or joint
               (read_joint_pmf plus the population targets)
  op_s_p50     median wall time of one op
  measure_s    median time of the op after the data the measures see exists:
               the `measure` call, or a sweep op minus its generator
  edges_per_s  edge occurrences (or sampled pairs) reaching the measures,
               per second of op time
  peak_rss_mb  peak resident memory of this process after the ops
  ok_ratio     ops that exited 0 and passed every check, over ops attempted
               (1 - fail_ratio; a metric must never read 0)
It also prints, outside the result, fail_ratio (0 when all is well, so not a
bounded metric) and generate_s, the median time of the rest of the op; over
ten seeds on a shared 2-core machine its spread reached 0.28 of its median,
more than any regression bound allows.

--trace 1 repeats each op seed three times: untraced, then traced twice.  It
reports the per-layer self times and counts of layers.PER_LAYER (median over
traced ops) and trace.overhead_ratio, and fails the ops whose counts differ
between the two traced repeats or whose outputs differ from the untraced op.

The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "setup_s": "s",
    "op_s_p50": "s",
    "measure_s": "s",
    "edges_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

SETUP_REPEATS = 5


def load_degdep():
    """Import degdep from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "degdep" / "__init__.py").is_file():
        sys.exit(f"perfbench: no degdep sources under {src}")
    sys.path.insert(0, str(src))
    import degdep
    import degdep.cli

    if Path(degdep.__file__).resolve().parent != (src / "degdep").resolve():
        sys.exit(f"perfbench: imported degdep from {degdep.__file__}, not {src}")
    return degdep


def op_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench {seed} {index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_metadata(degdep) -> dict:
    """Revision, machine and backend facts printed with every result."""
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        revision = done.stdout.strip() or None
    digest = hashlib.sha256()
    package = ROOT / "src" / "degdep"
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(package)).encode() + b"\0")
            digest.update(path.read_bytes())
    import numpy

    return {
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": degdep.kernels.BACKEND,
    }


def timed_run(workload, seed: int, seconds: float):
    setups = [workload.fresh_setup_seconds(ROOT) for _ in range(SETUP_REPEATS)]
    ops = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        ops.append(workload.run(op_seed(seed, len(ops)), f"op{len(ops)}", traced=False))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = 0
    for op in ops:
        problems = workload.check(op)
        failed += bool(problems)
        for problem in problems:
            print(f"problem: op seed {op.seed}: {problem}")
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(op.seconds for op in ops),
        "measure_s": statistics.median(op.measure_s for op in ops),
        "edges_per_s": sum(op.edges for op in ops) / sum(op.seconds for op in ops),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / len(ops),
    }
    print(f"samples: {len(setups)} set-ups, {len(ops)} ops")
    print(f"{'generate_s':<36} {statistics.median(op.generate_s for op in ops):>16.6g} s")
    return metrics, {name: END_TO_END[name] for name in metrics}, len(ops), failed


def traced_run(workload, seed: int, seconds: float):
    untraced, traced = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        index = len(untraced)
        s = op_seed(seed, index)
        base = workload.run(s, f"op{index}", traced=False)
        repeats = [workload.run(s, f"op{index}t{k}", traced=True) for k in (1, 2)]
        untraced.append(base)
        traced += repeats
        attempted += 3
        checked = [(base, workload.check(base))] + [(op, []) for op in repeats]
        if not checked[0][1]:
            want = workload.fingerprint(base)
            for op, problems in checked[1:]:
                if workload.fingerprint(op) != want:
                    problems.append("traced output differs from the untraced op")
        for name in layers.COUNTS:
            a, b = (op.layer_values.get(name, 0) for op in repeats)
            if a != b:
                checked[2][1].append(f"{name} did not repeat: {a} then {b}")
        for op, problems in checked:
            failed += bool(problems)
            for problem in problems:
                print(f"problem: op seed {op.seed}: {problem}")
            op.discard()
    metrics = {
        name: statistics.median(op.layer_values.get(name, 0.0) for op in traced)
        for name in layers.PER_LAYER
        if name != "trace.overhead_ratio"
    }
    metrics["trace.overhead_ratio"] = (statistics.median(op.seconds for op in traced)
                                       / statistics.median(op.seconds for op in untraced))
    print(f"samples: {len(untraced)} untraced ops, {len(traced)} traced ops")
    units = {name: layers.PER_LAYER[name][0] for name in metrics}
    return metrics, units, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    degdep = load_degdep()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    print("meta", json.dumps(run_metadata(degdep), sort_keys=True))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workload = WORKLOADS[args.workload](degdep, args.seed, Path(tmp), args.smoke)
        run = traced_run if args.trace else timed_run
        metrics, units, attempted, failed = run(workload, args.seed, args.seconds)
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6g} {units[name]}")
    print(f"{'fail_ratio':<36} {failed / attempted:>16.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
