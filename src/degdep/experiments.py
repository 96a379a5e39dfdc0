"""Seeded, reproducible experiment sweeps and their CSV row formats.

Three canned experiments drive the library end to end:

  - null-model: generate configuration-model graphs over a size/replica grid
    and record every dependency measure; the rank measures should shrink
    toward zero as graphs grow.
  - consistency: sample iid integer pairs from a known joint law, treat them
    as an edge multiset, and compare every estimator with its exact
    population target.
  - endpoint laws ("table1"): compare empirical endpoint-degree marginals of
    multigraphs against their predicted plain/size-biased limits.

Every cell (size index, replica index) owns RNGs seeded by
:func:`degdep.seeding.child_seed`, so results do not depend on execution
order and every byte of a sweep's CSV is reproducible.  Each (graph or
sample, pair) is tabulated once and every measure read from that table; a
graph's pairs are tabulated together, sharing their edge-end sides.  The
uniform-rank Spearman value is by default its exact mean over tie-breaks
(`PairTable.spearman_uniform_mean`), the limit of infinitely many draws; an
explicit `tie_break_replicas` count averages that many seeded draws
instead.  Cells may run concurrently; rows are sorted before writing.
"""

from __future__ import annotations

import csv
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .config_model import (
    DEFAULT_MAX_ATTEMPTS,
    GenerationError,
    GenerationResult,
    _require_degree_law,
    endpoint_degree_laws,
    generate_cm,
    generate_ecm,
    generate_rcm,
)
# kendall_xy, pearson_xy and the two Spearman estimators are not called here
# any more; they stay importable from this module, where outside code that
# wraps them looks them up
from .correlations import (
    MEASURES,
    PairTable,
    kendall_xy,
    measure_table,
    pearson_xy,
    require_tie_break_replicas,
    spearman_average_xy,
    spearman_uniform_xy,
)
from .digraph import PAIR_LABELS, DegreeTypePair
# run_consistency reuses its population rho through _average_limit;
# spearman_average_limit stays importable from this module, where outside
# code that wraps it looks it up
from .pmf import (
    ConfigError,
    JointPmf,
    Pmf,
    _average_limit,
    kendall_population,
    parse_law,
    require_at_least,
    require_known,
    spearman_average_limit,
    spearman_population,
    tv_distance,
)
from .seeding import child_seed

__all__ = [
    "ExperimentConfig",
    "ExperimentRow",
    "ConsistencyRow",
    "EndpointLawRow",
    "generate_graph",
    "run_null_model",
    "run_consistency",
    "run_endpoint_laws",
    "write_rows_csv",
    "read_rows_csv",
    "write_summary_csv",
    "builtin_joint",
    "BUILTIN_JOINTS",
    "summarize_null_model",
]

# the three rank measures: what the sweeps measure unless told otherwise
RANK_MEASURES = ("spearman_uniform", "spearman_average", "kendall")

_MODELS = ("cm", "rcm", "ecm")


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a generation sweep (null-model / endpoint laws).

    `tie_break_replicas` None (the default) gives the exact tie-break mean
    of the uniform-rank Spearman; a count of 1 or more averages that many
    seeded draws.
    """

    model: str
    sizes: tuple[int, ...]
    replicas: int
    out_law: str
    in_law: str
    seed: int
    pairs: tuple[str, ...] = PAIR_LABELS
    measures: tuple[str, ...] = RANK_MEASURES
    tie_break_replicas: int | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    jobs: int = 1

    def __post_init__(self):
        """Check every field (ConfigError), so a bad config fails before
        any graph is generated."""
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        sizes = _check_grid(self.sizes, 1, self.replicas, self.tie_break_replicas, self.jobs)
        require_at_least("max_attempts", self.max_attempts)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "pairs", require_known("pairs", self.pairs, PAIR_LABELS))
        object.__setattr__(self, "measures", require_known("measures", self.measures, MEASURES))
        for name, law in zip(("out_law", "in_law"), self.laws()):
            _require_degree_law(law, name)

    def laws(self) -> tuple[Pmf, Pmf]:
        return parse_law(self.out_law), parse_law(self.in_law)


def _check_grid(sizes, least: int, replicas: int, tie_break_replicas: int | None,
                jobs: int) -> tuple[int, ...]:
    """The sizes as a tuple of ints, once every sweep-grid argument has
    passed its check (ConfigError): sizes of at least `least`, ascending
    (repeats allowed), and the replica, tie-break and job counts."""
    sizes = tuple(int(s) for s in sizes)
    if not sizes or min(sizes) < least:
        raise ConfigError(f"sizes must all be >= {least}, got {sizes}")
    if list(sizes) != sorted(sizes):
        raise ConfigError(f"sizes must be ascending, got {sizes}")
    require_at_least("replicas", replicas)
    require_tie_break_replicas(tie_break_replicas)
    require_at_least("jobs", jobs)
    return sizes


@dataclass(frozen=True)
class ExperimentRow:
    """One measure on one generated graph: the null-model sweep row.

    `erased_fraction` is erasure's removed edge occurrences per node,
    `ledger.total_erased / n` (each one an out-stub and an in-stub), for
    ecm, and None for cm and rcm; it is not a fraction of the stubs.
    """

    n: int
    replica: int
    pair: str
    measure: str
    value: float | None
    defined: bool
    attempts: int
    erased_fraction: float | None


@dataclass(frozen=True)
class ConsistencyRow:
    """One estimator vs its population target on one iid sample."""

    n: int
    replica: int
    measure: str
    value: float | None
    target: float
    abs_error: float | None
    defined: bool


@dataclass(frozen=True)
class EndpointLawRow:
    """Total-variation gap of one empirical endpoint marginal to its limit."""

    n: int
    replica: int
    pair: str
    side: str
    tv_distance: float


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _cell_to_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _text_to_cell(text: str, hint):
    """The inverse of :func:`_cell_to_text` for a field annotated `hint`:
    bool, int, float or str, or one of them `| None`."""
    options = typing.get_args(hint) or (hint,)
    if text == "" and type(None) in options:
        return None
    kind = next(option for option in options if option is not type(None))
    if kind is bool and text not in ("true", "false"):
        raise ValueError(f"a bool cell must be true or false, got {text!r}")
    return text == "true" if kind is bool else kind(text)


def write_csv(fh, names, records) -> None:
    """Write a header of `names`, then one line of cells per record, to the
    open text handle `fh`."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(names)
    for record in records:
        writer.writerow([_cell_to_text(value) for value in record])


def write_rows_csv(rows, path) -> None:
    """Write dataclass rows as CSV; floats use repr so parsing is lossless."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to write")
    names = [f.name for f in fields(rows[0])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, names, ([getattr(row, name) for name in names] for row in rows))


def read_rows_csv(path, row_cls=ExperimentRow):
    """Parse a CSV written by :func:`write_rows_csv` back into row objects."""
    out = []
    hints = typing.get_type_hints(row_cls)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = [f.name for f in fields(row_cls)]
        if header != expected:
            raise ValueError(f"{path}: header {header} does not match {expected}")
        for record in reader:
            try:
                if len(record) != len(header):
                    raise ValueError(f"{len(record)} cells, the header has {len(header)}")
                out.append(row_cls(**{name: _text_to_cell(text, hints[name])
                                      for name, text in zip(header, record)}))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return out


# the columns of a summary entry, in the order the summary CSV writes them
_SUMMARY_COLUMNS = ("n", "pair", "measure", "replicas", "defined", "mean", "std", "mean_abs")


def summarize_null_model(rows) -> list[dict]:
    """Per (n, pair, measure): count of defined values, mean, std, mean |value|."""
    groups: dict[tuple, list[float]] = {}
    totals: dict[tuple, int] = {}
    for row in rows:
        key = (row.n, row.pair, row.measure)
        totals[key] = totals.get(key, 0) + 1
        if row.defined and row.value is not None:
            groups.setdefault(key, []).append(row.value)
    summary = []
    for key in sorted(totals):
        vals = groups.get(key, [])
        values = (
            *key,
            totals[key],
            len(vals),
            float(np.mean(vals)) if vals else None,
            float(np.std(vals)) if vals else None,
            float(np.mean(np.abs(vals))) if vals else None,
        )
        summary.append(dict(zip(_SUMMARY_COLUMNS, values)))
    return summary


def write_summary_csv(rows, path) -> None:
    """Write the per-cell summary block produced by :func:`summarize_null_model`."""
    summary = summarize_null_model(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_csv(fh, _SUMMARY_COLUMNS, (entry.values() for entry in summary))


# ---------------------------------------------------------------------------
# Sweep execution
# ---------------------------------------------------------------------------


def _sweep(sizes, replicas: int, jobs: int, cell_rows) -> list:
    """Every row of `cell_rows(size_index, n, replica)` over the size x
    replica grid, sorted.  The cells run in order with one job and on a
    pool of `jobs` threads otherwise; their rows do not depend on which."""
    cells = [(si, n, r) for si, n in enumerate(sizes) for r in range(replicas)]
    if jobs == 1:
        results = [cell_rows(*cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(lambda cell: cell_rows(*cell), cells))
    rows = [row for rows_of_cell in results for row in rows_of_cell]
    rows.sort(key=_row_sort_key)
    return rows


def _row_sort_key(row):
    key = [row.n, row.replica]
    for name in ("pair", "side", "measure"):
        if hasattr(row, name):
            key.append(getattr(row, name))
    return tuple(key)


def generate_graph(
    model: str,
    n: int,
    out_law: Pmf,
    in_law: Pmf,
    rng,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> GenerationResult:
    """One graph of the named configuration model; `max_attempts` is used
    by rcm only but must be at least 1 for every model.  `rng` is a
    Generator or a seed, which must be >= 0."""
    require_at_least("max_attempts", max_attempts)
    if model == "cm":
        return generate_cm(n, out_law, in_law, rng)
    if model == "rcm":
        return generate_rcm(n, out_law, in_law, rng, max_attempts=max_attempts)
    if model == "ecm":
        return generate_ecm(n, out_law, in_law, rng)
    raise ConfigError(f"model must be one of {_MODELS}, got {model!r}")


def _generate(config: ExperimentConfig, n: int, gen_seed: int) -> GenerationResult:
    return generate_graph(config.model, n, *config.laws(), gen_seed, config.max_attempts)


def run_null_model(config: ExperimentConfig) -> list[ExperimentRow]:
    """Measure every configured pair on a grid of generated graphs.

    Generation failures (the expected RCM outcome under heavy tails) become
    rows with defined=false rather than aborting the sweep.
    """
    pair_index = {label: i for i, label in enumerate(PAIR_LABELS)}

    def cell_rows(size_index, n, replica):
        gen_seed = child_seed(config.seed, size_index, replica, "generate")
        rows = []
        try:
            result = _generate(config, n, gen_seed)
        except GenerationError as exc:
            for label in config.pairs:
                for measure in config.measures:
                    rows.append(
                        ExperimentRow(
                            n=n, replica=replica, pair=label, measure=measure,
                            value=None, defined=False,
                            attempts=exc.attempts, erased_fraction=None,
                        )
                    )
            return rows
        erased = (
            result.ledger.total_erased / n if config.model == "ecm" else None
        )
        pairs = [DegreeTypePair.from_label(label) for label in config.pairs]
        tables = PairTable.of_graph_pairs(result.graph, pairs)
        for label, pair in zip(config.pairs, pairs):
            table = tables[pair]
            seed_parts = (config.seed, size_index, replica, pair_index[label])
            for measure in config.measures:
                value = measure_table(table, measure, seed_parts, config.tie_break_replicas)
                rows.append(
                    ExperimentRow(
                        n=n, replica=replica, pair=label, measure=measure,
                        value=value, defined=value is not None,
                        attempts=result.attempts, erased_fraction=erased,
                    )
                )
        return rows

    return _sweep(config.sizes, config.replicas, config.jobs, cell_rows)


# ---------------------------------------------------------------------------
# Consistency experiment
# ---------------------------------------------------------------------------

BUILTIN_JOINTS = ("bernoulli-equal", "bernoulli-opposite", "bernoulli-product")


def builtin_joint(name: str) -> JointPmf:
    """Small named joints used by the consistency experiment."""
    if name == "bernoulli-equal":
        return JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})
    if name == "bernoulli-opposite":
        return JointPmf.from_entries({(0, 1): 0.5, (1, 0): 0.5})
    if name == "bernoulli-product":
        return JointPmf.from_entries(
            {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}
        )
    raise ConfigError(f"unknown builtin joint {name!r}; known: {BUILTIN_JOINTS}")


def run_consistency(
    joint: JointPmf,
    sizes,
    replicas: int,
    seed: int,
    tie_break_replicas: int | None = None,
    jobs: int = 1,
) -> list[ConsistencyRow]:
    """Sample iid pairs from `joint` and compare estimators with exact targets.

    Rejects (ConfigError) a size below 2, sizes out of ascending order
    (repeats are allowed), a replica, tie-break or job count below 1, and
    joints with a point-mass marginal (every target is then degenerate).
    Targets: the population Spearman rho for uniform-rank ranks, its
    S-factor-rescaled version for average ranks, and the population Kendall
    tau.  The uniform-rank value is the exact tie-break mean when
    `tie_break_replicas` is None (the default), and otherwise the mean of
    that many seeded draws.
    """
    sizes = _check_grid(sizes, 2, replicas, tie_break_replicas, jobs)
    rho = spearman_population(joint)
    targets = {
        "spearman_uniform": rho,
        "spearman_average": _average_limit(joint, rho),
        "kendall": kendall_population(joint),
    }

    def cell_rows(size_index, n, replica):
        sample_rng = np.random.default_rng(
            child_seed(seed, size_index, replica, "consistency-sample")
        )
        table = PairTable(*joint.sample(sample_rng, n))
        rows = []
        for measure in RANK_MEASURES:
            value = measure_table(
                table, measure, (seed, size_index, replica), tie_break_replicas
            )
            target = targets[measure]
            rows.append(
                ConsistencyRow(
                    n=n, replica=replica, measure=measure,
                    value=value, target=target,
                    abs_error=None if value is None else abs(value - target),
                    defined=value is not None,
                )
            )
        return rows

    return _sweep(sizes, replicas, jobs, cell_rows)


# ---------------------------------------------------------------------------
# Endpoint-law (table1) experiment
# ---------------------------------------------------------------------------


def run_endpoint_laws(config: ExperimentConfig) -> list[EndpointLawRow]:
    """TV distance of multigraph endpoint-degree marginals to their limits.

    Only meaningful for the plain multigraph model (cm), whose endpoint laws
    are the tabulated plain/size-biased laws.  Those limits are computed
    before any graph, so a law that cannot be size-biased fails first.  A
    pair's empirical laws are the two sides of its table, each occurrence
    weighted 1/m.
    """
    if config.model != "cm":
        raise ConfigError(f"endpoint-law experiment requires model='cm', got {config.model!r}")
    out_law, in_law = config.laws()
    pairs = [DegreeTypePair.from_label(label) for label in config.pairs]
    limits = {pair: endpoint_degree_laws(pair, out_law, in_law) for pair in pairs}

    def cell_rows(size_index, n, replica):
        gen_seed = child_seed(config.seed, size_index, replica, "generate")
        result = _generate(config, n, gen_seed)
        tables = PairTable.of_graph_pairs(result.graph, pairs)
        rows = []
        for label, pair in zip(config.pairs, pairs):
            t = tables[pair]
            source_law, target_law = limits[pair]
            tv_source = tv_distance(Pmf(t.ux, t.wx / t.m), source_law)
            tv_target = tv_distance(Pmf(t.uy, t.wy / t.m), target_law)
            rows.append(EndpointLawRow(n=n, replica=replica, pair=label, side="source",
                                       tv_distance=tv_source))
            rows.append(EndpointLawRow(n=n, replica=replica, pair=label, side="target",
                                       tv_distance=tv_target))
        return rows

    return _sweep(config.sizes, config.replicas, config.jobs, cell_rows)
