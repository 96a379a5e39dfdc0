"""Per-layer tracing for the traced benchmark run.

The package has no trace of its own yet, so the benchmark wraps the
package's public functions at the module (or class) attribute where their
callers look them up, and restores every attribute on exit.  Each wrapped
call is a span; a layer's time metric is its self time, the span's duration
minus the part of it that child spans cover.  Counters are taken at the same
call boundaries.  Everything runs in one thread (--jobs 1), so one span stack
suffices.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# name -> (unit, better, which end-to-end metric it should move, on which workload)
PER_LAYER = {
    "pmf.parse_law_s": ("s", "lower", "setup_s; small inside ops after the first"),
    "pmf.read_joint_pmf_s": ("s", "lower", "setup_s and op_s_p50 on consistency-wide"),
    "pmf.population_s": ("s", "lower", "setup_s and op_s_p50 on consistency-wide"),
    "pmf.sample_s": ("s", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "config_model.sample_bidegree_s": ("s", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "config_model.pair_stubs_cm_s": ("s", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "config_model.erase_multigraph_s": ("s", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "config_model.erased_stubs": ("count", "lower", "repeats exactly; a property of the seed"),
    "digraph.write_edge_list_s": ("s", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "digraph.write_bytes": ("bytes", "lower", "op_s_p50 (generate half) on roundtrip-zeta"),
    "digraph.read_edge_list_s": ("s", "lower", "measure_s and peak_rss_mb on roundtrip-zeta"),
    "digraph.read_bytes": ("bytes", "lower", "measure_s on roundtrip-zeta"),
    "digraph.edge_degree_view_s": ("s", "lower", "measure_s and peak_rss_mb on roundtrip-zeta"),
    "correlations.kendall_s": ("s", "lower", "measure_s on roundtrip-zeta; not consistency-wide"),
    "kernels.count_inversions_s": ("s", "lower",
                                   "measure_s on roundtrip-zeta; not consistency-wide"),
    "kernels.count_inversions_calls": ("count", "lower", "measure_s on roundtrip-zeta"),
    "kernels.elements": ("count", "lower", "measure_s on roundtrip-zeta"),
    "correlations.spearman_uniform_s": ("s", "lower", "op_s_p50 on both sweeps; measure_s"),
    "correlations.spearman_uniform_calls": ("count", "lower", "op_s_p50 on both sweeps"),
    "correlations.spearman_average_s": ("s", "lower", "small everywhere; guards exact values"),
    "correlations.pearson_s": ("s", "lower", "small everywhere; guards exact values"),
    "correlations.full_report_s": ("s", "lower", "small everywhere; measure_s on roundtrip-zeta"),
    "experiments.self_s": ("s", "lower", "op_s_p50 on both sweeps"),
    "experiments.write_rows_csv_s": ("s", "lower", "op_s_p50 on both sweeps"),
    "experiments.cells": ("count", "higher", "work done per sweep op"),
    "cli.self_s": ("s", "lower", "op_s_p50 everywhere; argument handling and output"),
    "seeding.child_seed_calls": ("count", "lower", "op_s_p50 on both sweeps"),
    "trace.overhead_ratio": ("ratio", "lower", "none; traced over untraced op_s_p50"),
}

# Counters that must repeat exactly when one op seed is traced twice.
COUNTS = tuple(name for name, (unit, _, _) in PER_LAYER.items() if unit in ("count", "bytes"))


class Tracer:
    """Span stack plus per-metric accumulators (self seconds or counts)."""

    def __init__(self):
        self.values: dict[str, float] = defaultdict(float)
        self._child_time: list[float] = []

    def span(self, metric: str | None, fn: Callable, count: Callable | None) -> Callable:
        """Wrap fn so its self time adds to `metric` and `count` sees each call.

        With metric None the call is only counted and its time stays with
        the enclosing span.
        """
        values = self.values
        stack = self._child_time

        if metric is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(values, args, result)
                return result

            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                values[metric] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                count(values, args, result)
            return result

        return timed


@dataclass(frozen=True)
class Site:
    """One lookup site: `owner.attr` is replaced by a span named `metric`."""

    owner: object
    attr: str
    metric: str | None
    count: Callable | None = None


@contextlib.contextmanager
def installed(tracer: Tracer, sites):
    """Patch every site for the duration of the block; always restore."""
    saved = []
    try:
        for site in sites:
            original = getattr(site.owner, site.attr)
            saved.append((site.owner, site.attr, original))
            setattr(site.owner, site.attr, tracer.span(site.metric, original, site.count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def add_count(name: str, amount: Callable) -> Callable:
    """A counter that adds amount(args, result) to `name` after each call."""
    def count(values, args, result):
        values[name] += amount(args, result)
    return count


def _cells(args, rows) -> int:
    return len({(row.n, row.replica) for row in rows})


def _inversions(values, args, result) -> None:
    values["kernels.count_inversions_calls"] += 1
    values["kernels.elements"] += len(args[0])


def all_sites(degdep) -> list[Site]:
    """Every lookup site of the traced layers, for the given package modules."""
    cli, pmf, cm = degdep.cli, degdep.pmf, degdep.config_model
    dg, corr, exp = degdep.digraph, degdep.correlations, degdep.experiments
    draws = add_count("correlations.spearman_uniform_calls", lambda a, r: 1)
    seed = add_count("seeding.child_seed_calls", lambda a, r: 1)
    cells = add_count("experiments.cells", _cells)
    sites = [
        Site(cli, "main", "cli.self_s"),
        Site(cli, "parse_law", "pmf.parse_law_s"),
        Site(exp, "parse_law", "pmf.parse_law_s"),
        Site(cli, "read_joint_pmf", "pmf.read_joint_pmf_s"),
        Site(pmf.Pmf, "sample", "pmf.sample_s"),
        Site(pmf.JointPmf, "sample", "pmf.sample_s"),
        Site(cm, "sample_bidegree", "config_model.sample_bidegree_s"),
        Site(cm, "pair_stubs_cm", "config_model.pair_stubs_cm_s"),
        Site(cm, "erase_multigraph", "config_model.erase_multigraph_s",
             add_count("config_model.erased_stubs", lambda a, r: r[1].total_erased)),
        Site(cli, "write_edge_list", "digraph.write_edge_list_s",
             add_count("digraph.write_bytes", lambda a, r: os.path.getsize(a[1]))),
        Site(cli, "read_edge_list", "digraph.read_edge_list_s",
             add_count("digraph.read_bytes", lambda a, r: os.path.getsize(a[0]))),
        Site(dg.DirectedMultigraph, "edge_degree_view", "digraph.edge_degree_view_s"),
        Site(degdep.kernels, "count_inversions", "kernels.count_inversions_s", _inversions),
        Site(cli, "full_report", "correlations.full_report_s"),
        Site(cli, "run_null_model", "experiments.self_s", cells),
        Site(cli, "run_consistency", "experiments.self_s", cells),
        Site(cli, "write_summary_csv", "experiments.self_s"),
        Site(cli, "write_rows_csv", "experiments.write_rows_csv_s"),
        Site(exp, "spearman_population", "pmf.population_s"),
        Site(exp, "spearman_average_limit", "pmf.population_s"),
        Site(exp, "kendall_population", "pmf.population_s"),
    ]
    for owner in (corr, exp):
        sites += [
            Site(owner, "kendall_xy", "correlations.kendall_s"),
            Site(owner, "spearman_uniform_xy", "correlations.spearman_uniform_s", draws),
            Site(owner, "spearman_average_xy", "correlations.spearman_average_s"),
            Site(owner, "pearson_xy", "correlations.pearson_s"),
            Site(owner, "child_seed", None, seed),
        ]
    return sites
