"""Timing and provenance helpers shared by the benchmark scripts."""

import json
import os
import subprocess
import time
import tracemalloc

import degdep


def best_of(repeats, fn):
    """Fastest wall-clock time of `repeats` calls of fn(), in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


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


def traced_peak(fn):
    """Peak of the allocations tracemalloc traces (numpy buffers and Python
    objects) during one call of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def write_labelled_run(path, benchmark, label, entry):
    """Store `entry` (a dict with a "rows" list) under `label` in the JSON
    file at `path`, keeping the entries of other labels already in it, so
    that two source trees can be compared in one file."""
    runs = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs[label] = entry
    # one row per line, so that diffs of the file stay readable
    parts = []
    for name, run in runs.items():
        body = ",\n      ".join(json.dumps(row) for row in run["rows"])
        meta = {key: value for key, value in run.items() if key != "rows"}
        parts.append(f"    {json.dumps(name)}: {json.dumps(meta)[:-1]}, "
                     f'"rows": [\n      {body}\n    ]}}')
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f'{{"benchmark": {json.dumps(benchmark)}, "runs": {{\n'
                 + ",\n".join(parts) + "\n}}\n")
