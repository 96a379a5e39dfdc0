"""Command-line front end: graph generation, measurement, and experiments.

Exit codes: 0 success, 1 usage error (argparse syntax, or a ConfigError from
the library's argument checks, raised before any output is written), 2 I/O
or input-data error, 3 graph generation failure (repeated-pairing cap
exhausted).  Argument ranges and names are checked by the library only.

Reproducibility contract: a fixed --seed makes `generate` and every
experiment sweep CSV byte-identical across runs.  Every command reports the
exact tie-break mean of the uniform-rank Spearman unless --tie-break-replicas
K asks for the mean of K seeded draws, so `measure` values depend on --seed
only with a count.  Sweep cells derive their RNG seeds as child_seed = first
8 little-endian bytes of SHA-256("degdep-seed" 0x1f master 0x1f part ...),
so results do not depend on execution order or --jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .config_model import DEFAULT_MAX_ATTEMPTS, GenerationError
from .correlations import MEASURES, full_report
from .digraph import PAIR_LABELS, read_edge_list, write_edge_list
from .experiments import (
    BUILTIN_JOINTS,
    RANK_MEASURES,
    ExperimentConfig,
    builtin_joint,
    generate_graph,
    run_consistency,
    run_endpoint_laws,
    run_null_model,
    write_csv,
    write_rows_csv,
    write_summary_csv,
)
from .pmf import ConfigError, parse_law, read_joint_pmf

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def _comma_ints(text: str) -> tuple[int, ...]:
    # a ValueError here is reported by argparse as an invalid value
    return tuple(int(part) for part in text.split(","))


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="degdep",
        description=(
            "Degree-degree dependency measures (two Spearman variants, "
            "Kendall's tau, Pearson) on directed multigraphs, and directed "
            "configuration-model generators usable as null models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a configuration-model graph")
    gen.add_argument("--model", choices=("cm", "rcm", "ecm"), required=True)
    gen.add_argument("--n", type=int, required=True, help="number of nodes")
    gen.add_argument("--out-law", required=True, help="out-degree law, e.g. zeta:2.5")
    gen.add_argument("--in-law", required=True, help="in-degree law, e.g. poisson:3")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS,
                     help="rcm only: pairing attempts before giving up")
    gen.add_argument("-o", "--output", required=True, help="edge-list output path")

    tie_break_help = ("uniform-rank Spearman: seeded tie-break draws to average; "
                      "omit for the exact tie-break mean")
    meas = sub.add_parser("measure", help="measure a graph given as an edge list")
    meas.add_argument("graph", help="edge-list file: 'src<TAB>dst' per occurrence")
    meas.add_argument("--pairs", type=_comma_list, default=PAIR_LABELS,
                      help=f"subset of {','.join(PAIR_LABELS)}")
    meas.add_argument("--measures", type=_comma_list, default=MEASURES,
                      help=f"subset of {','.join(MEASURES)}")
    meas.add_argument("--seed", type=int, default=0,
                      help="tie-break seed; used only with --tie-break-replicas")
    meas.add_argument("--tie-break-replicas", type=int, default=None,
                      help=tie_break_help)
    meas.add_argument("--format", choices=("json", "csv"), default="json")
    meas.add_argument("-o", "--output", default=None, help="default: stdout")

    exp = sub.add_parser("experiment", help="run a canned experiment sweep")
    exp_sub = exp.add_subparsers(dest="experiment", required=True)

    def add_sweep_args(p, with_laws=True):
        p.add_argument("--sizes", type=_comma_ints, required=True,
                       help="ascending comma-separated node counts")
        p.add_argument("--replicas", type=int, required=True)
        if with_laws:
            p.add_argument("--out-law", required=True)
            p.add_argument("--in-law", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--jobs", type=int, default=1,
                       help="concurrent sweep cells (default 1)")
        p.add_argument("-o", "--output", required=True, help="rows CSV path")

    null = exp_sub.add_parser("null-model",
                              help="measure generated graphs over a size/replica grid")
    null.add_argument("--model", choices=("cm", "rcm", "ecm"), required=True)
    add_sweep_args(null)
    null.add_argument("--pairs", type=_comma_list, default=PAIR_LABELS)
    null.add_argument("--measures", type=_comma_list, default=RANK_MEASURES)
    null.add_argument("--tie-break-replicas", type=int, default=None,
                      help=tie_break_help)
    null.add_argument("--max-attempts", type=int, default=DEFAULT_MAX_ATTEMPTS)

    cons = exp_sub.add_parser("consistency",
                              help="estimators on iid samples vs exact population targets")
    cons.add_argument("--joint", required=True,
                      help=f"builtin joint ({', '.join(BUILTIN_JOINTS)}) or a "
                           "'x<TAB>y<TAB>prob' file")
    add_sweep_args(cons, with_laws=False)
    cons.add_argument("--tie-break-replicas", type=int, default=None,
                      help=tie_break_help)

    tab = exp_sub.add_parser("table1",
                             help="empirical endpoint-degree laws of multigraphs vs "
                                  "their plain/size-biased limits")
    add_sweep_args(tab)
    tab.add_argument("--pairs", type=_comma_list, default=PAIR_LABELS)
    tab.set_defaults(model="cm")

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    result = generate_graph(args.model, args.n, parse_law(args.out_law),
                            parse_law(args.in_law), args.seed, args.max_attempts)
    write_edge_list(result.graph, args.output)
    meta = {
        "model": args.model,
        "n": args.n,
        "out_law": args.out_law,
        "in_law": args.in_law,
        "edges": result.graph.edge_count,
        "bidegree": {
            "total_stubs": result.bidegree.total_stubs,
            "balance_added": result.bidegree.balance_added,
        },
        "ledger": {
            "self_loops_removed": result.ledger.self_loops_removed,
            "multi_edges_merged": result.ledger.multi_edges_merged,
            "total_erased": result.ledger.total_erased,
        },
        "attempts": result.attempts,
        "seeds": {"master": args.seed},
    }
    with open(args.output + ".meta.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _cmd_measure(args) -> int:
    graph = read_edge_list(args.graph)
    report = full_report(graph, seed=args.seed, tie_break_replicas=args.tie_break_replicas,
                         pairs=args.pairs, measures=args.measures)
    out = (open(args.output, "w", encoding="utf-8", newline="\n") if args.output
           else contextlib.nullcontext(sys.stdout))
    with out as fh:
        if args.format == "json":
            fh.write(json.dumps(report, indent=2) + "\n")
        else:
            write_csv(fh, ("pair", "measure", "value", "defined"),
                      ((label, key, value, value is not None)
                       for label, entry in report["pairs"].items()
                       for key, value in entry.items() if not key.startswith("degenerate_")))
    return 0


def _resolve_joint(spec_text: str):
    if spec_text in BUILTIN_JOINTS:
        return builtin_joint(spec_text)
    if os.path.exists(spec_text):
        return read_joint_pmf(spec_text)
    raise ConfigError(
        f"--joint {spec_text!r} is neither a builtin ({', '.join(BUILTIN_JOINTS)}) "
        "nor an existing file"
    )


def _sweep_config(args, **extra) -> ExperimentConfig:
    return ExperimentConfig(
        model=args.model, sizes=args.sizes, replicas=args.replicas,
        out_law=args.out_law, in_law=args.in_law, seed=args.seed,
        pairs=args.pairs, jobs=args.jobs, **extra,
    )


def _cmd_experiment(args) -> int:
    if args.experiment == "null-model":
        config = _sweep_config(
            args,
            measures=args.measures,
            tie_break_replicas=args.tie_break_replicas,
            max_attempts=args.max_attempts,
        )
        rows = run_null_model(config)
        write_rows_csv(rows, args.output)
        write_summary_csv(rows, args.output + ".summary.csv")
        return 0
    if args.experiment == "consistency":
        rows = run_consistency(
            _resolve_joint(args.joint), sizes=args.sizes, replicas=args.replicas,
            seed=args.seed, tie_break_replicas=args.tie_break_replicas, jobs=args.jobs,
        )
        write_rows_csv(rows, args.output)
        return 0
    config = _sweep_config(args)
    rows = run_endpoint_laws(config)
    write_rows_csv(rows, args.output)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "measure":
            return _cmd_measure(args)
        return _cmd_experiment(args)
    except ConfigError as exc:
        sys.stderr.write(f"degdep: error: {exc}\n")
        return 1
    except GenerationError as exc:
        sys.stderr.write(f"degdep: generation failed: {exc}\n")
        return 3
    except MemoryError as exc:
        sys.stderr.write(f"degdep: error: not enough memory: {exc}\n")
        return 1
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"degdep: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
