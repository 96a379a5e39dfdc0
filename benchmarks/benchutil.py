"""Timing and provenance helpers shared by the benchmark scripts."""

import os
import subprocess
import time

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
