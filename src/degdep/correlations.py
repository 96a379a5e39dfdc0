"""Degree-degree dependency estimators on directed multigraphs.

Four measures are computed per degree-type pair over the edge occurrences of
a graph: Spearman's rho with random tie-breaking (uniform ranks), Spearman's
rho with average ranks, Kendall's tau (tau-a: the denominator is m(m-1) and
tied pairs count in neither direction), and Pearson's correlation of the raw
degrees.

All estimators also accept raw integer pair data, which is how the sampling
consistency experiments drive them; m here always denotes the number of
edge occurrences (or data pairs).  Every measure is computed from one count
table of the distinct (x, y) value pairs (`PairTable`), so past its O(m)
build the work that does not depend on tie-breaking grows with the number
of distinct cells, not with m.  Counts, rank sums and moments are exact
integers at every m; each reported value is rounded to a float once, at the
end.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from . import kernels
from .digraph import ALL_PAIRS, PAIR_LABELS, DegreeTypePair, DirectedMultigraph
from .pmf import ConfigError, as_int_array, as_rng, require_at_least, require_known
from .seeding import child_seed

__all__ = [
    "PairTable",
    "measure_table",
    "spearman_uniform_xy",
    "spearman_average_xy",
    "kendall_xy",
    "pearson_xy",
    "full_report",
    "MEASURES",
]

MEASURES = ("spearman_uniform", "spearman_average", "kendall", "pearson")

_INT64_MAX = int(np.iinfo(np.int64).max)


def _compress(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values (ascending), their counts, and the index of each entry
    among them.

    The index has the smallest unsigned dtype that holds it, so a stable
    argsort of it is a linear-time radix sort for up to 65536 distinct
    values.  Values spanning at most twice their count are tallied with
    bincount instead of sorted.
    """
    lo = int(values.min())
    span = int(values.max()) - lo + 1
    if span <= 2 * values.size:
        shifted = values - lo
        tally = np.bincount(shifted, minlength=span)
        present = tally > 0
        uniq = np.flatnonzero(present) + lo
        index_of = (np.cumsum(present) - 1).astype(np.min_scalar_type(uniq.size - 1))
        return uniq, tally[present], index_of[shifted]
    uniq, codes, counts = np.unique(values, return_inverse=True, return_counts=True)
    return uniq, counts, codes.astype(np.min_scalar_type(uniq.size - 1))


def _exact_dot(a: np.ndarray, b: np.ndarray, bound: int) -> int:
    """Sum of a*b as a Python int, for int64 vectors whose products are at
    most `bound` in magnitude: summed in chunks whose int64 dot cannot wrap."""
    step = max(1, _INT64_MAX // max(bound, 1))
    return sum(int(np.dot(a[i:i + step], b[i:i + step])) for i in range(0, a.size, step))


def _moments(counts: np.ndarray, values: np.ndarray) -> tuple[int, int]:
    """(sum c*v, sum c*v^2) over distinct values, in Python integers."""
    pairs = list(zip(counts.tolist(), values.tolist()))
    return sum(c * v for c, v in pairs), sum(c * v * v for c, v in pairs)


def _correlation(num: int, var_a: int, var_b: int) -> float | None:
    """num / sqrt(var_a var_b) from exact integers; None on a zero variance.

    A perfect-square product divides exactly, so exact correlations such as
    +-1 or -1/2 come out exact.
    """
    if var_a == 0 or var_b == 0:
        return None
    prod = var_a * var_b
    root = math.isqrt(prod)
    denom = root if root * root == prod else math.sqrt(prod)
    return min(1.0, max(-1.0, num / denom))


def _pair_count(counts: np.ndarray) -> int:
    """Unordered pairs inside groups of the given sizes."""
    return int(np.sum(counts * (counts - 1) // 2))


def _doubled_ranks_by_value(counts: np.ndarray) -> np.ndarray:
    """2 * average rank per distinct value, given the counts in ascending
    value order: 1 + 2*(#greater) + (#equal).

    Rank 1 goes to the largest value, so the ranks descend as the values
    ascend.  Every caller ranks both sides this way; ranking both from the
    smallest value instead negates both centered ranks, which leaves every
    product, and so every measure, unchanged.
    """
    greater = counts.sum() - np.cumsum(counts)
    return 1 + 2 * greater + counts


# ---------------------------------------------------------------------------
# The per-pair count table
# ---------------------------------------------------------------------------


class PairTable:
    """Counts of the distinct (x, y) value pairs among m data pairs.

    Each side is compressed to its distinct values `ux`, `uy` (K_x and K_y
    of them, with occurrence counts `wx`, `wy`), and each occurrence to its
    value indices `cx`, `cy`, which the tie-break draws permute.  The
    distinct (x, y) cells are `cell_x`, `cell_y` (value indices, in x then y
    order) with their occurrence counts `cell_counts`.  Every measure but
    the tie-break draws is read from the cells: Kendall's counts by a
    weighted merge count over them, the rank and moment sums by their row
    sums.  Edge-degree data has few cells: the 1.94M edges of an ecm
    zeta:2.5 graph at n = 1e6 have 2k to 39k per degree-type pair.

    The table is built once per (graph, pair) and every measure is read from
    it; the four estimators need at least two data pairs.
    """

    def __init__(self, x, y):
        x = as_int_array(x, "x")
        y = as_int_array(y, "y")
        if x.size != y.size:
            raise ValueError("x and y must have the same length")
        if x.size == 0:
            raise ValueError("x and y must be nonempty")
        self._tabulate(_compress(x), _compress(y))

    def _tabulate(self, x_side: tuple, y_side: tuple) -> None:
        """Take each side's (ux, wx, cx) from `_compress` and count the cells."""
        self.ux, self.wx, self.cx = x_side
        self.uy, self.wy, self.cy = y_side
        self.m = int(self.cx.size)
        # the cells by _compress's rule, over the key range 0..K_x*K_y-1:
        # bincount when it is at most 2m, otherwise a sort
        kx, ky = self.ux.size, self.uy.size
        keys = self.cx.astype(np.int64) * ky + self.cy
        if kx * ky <= 2 * self.m:
            tally = np.bincount(keys, minlength=kx * ky)
            cells = np.flatnonzero(tally)
            self.cell_counts = tally[cells]
        else:
            cells, self.cell_counts = np.unique(keys, return_counts=True)
        self.cell_x, self.cell_y = np.divmod(cells, ky)

    @classmethod
    def of_graph(cls, g: DirectedMultigraph, pair: DegreeTypePair) -> "PairTable":
        """The table of a graph's endpoint degrees over its edge occurrences."""
        return cls.of_graph_pairs(g, (pair,))[pair]

    @classmethod
    def of_graph_pairs(cls, g: DirectedMultigraph, pairs) -> dict:
        """The tables of the given degree-type pairs of a graph, by pair.

        A table's x side depends only on (alpha, source end) and its y side
        on (beta, target end), so the four pairs read four sides, each
        built once.  Each degree array is compressed once over the n nodes;
        a side gathers the small node codes at its edge ends and drops the
        values no end carries.  Every table equals `PairTable` of the
        pair's edge-degree view.
        """
        g._require_edges()
        nodes: dict[str, tuple] = {}
        sides: dict[tuple, tuple] = {}

        def side(kind: str, ends: str) -> tuple:
            if (kind, ends) not in sides:
                if kind not in nodes:
                    uniq, _, codes = _compress(g.degrees(kind))
                    nodes[kind] = uniq, codes
                uniq, codes = nodes[kind]
                codes = codes[g.src if ends == "source" else g.dst]
                counts = np.bincount(codes, minlength=uniq.size)
                present = counts > 0
                if not present.all():
                    remap = np.cumsum(present) - 1
                    uniq, counts = uniq[present], counts[present]
                    codes = remap.astype(np.min_scalar_type(uniq.size - 1))[codes]
                sides[kind, ends] = uniq, counts, codes
            return sides[kind, ends]

        tables = {}
        for pair in pairs:
            table = cls.__new__(cls)
            table._tabulate(side(pair.alpha, "source"), side(pair.beta, "target"))
            tables[pair] = table
        return tables

    @property
    def degenerate_source(self) -> bool:
        return self.ux.size == 1

    @property
    def degenerate_target(self) -> bool:
        return self.uy.size == 1

    def _require_pairs(self) -> None:
        if self.m < 2:
            raise ValueError("need at least 2 data pairs (edge occurrences)")

    def cross_sum(self, a: np.ndarray, b: np.ndarray) -> int:
        """Exact sum over occurrences of a[x index] * b[y index].

        `a` and `b` are int64 vectors over the distinct x and y values.  The
        cells are summed by rows, one row per x value; each row sum of b is
        at most m * max|b|, and when that could wrap int64, b is split into
        32-bit halves whose row sums cannot.
        """
        # every x value has a cell, so each row starts where cell_x steps
        starts = np.flatnonzero(np.diff(self.cell_x, prepend=-1))

        def row_sums(v: np.ndarray) -> list[int]:
            return np.add.reduceat(self.cell_counts * v[self.cell_y], starts).tolist()

        if self.m * max(-int(b.min()), int(b.max())) <= _INT64_MAX:
            rows = row_sums(b)
        else:
            rows = [(h << 32) + l for h, l in zip(row_sums(b >> 32), row_sums(b & 0xFFFFFFFF))]
        return sum(map(operator.mul, a.tolist(), rows))

    def concordance(self) -> tuple[int, int]:
        """Exact (concordant, discordant) unordered pair counts.

        A pair is concordant iff (x_i - x_j)(y_i - y_j) > 0 and discordant
        iff < 0; pairs tied in either coordinate count in neither.  With the
        cells in (x, then y) order, the discordant count is the inversion
        count of their y sequence, each pair of cells weighted by the
        product of their occurrence counts; the tie groups are handled by
        exact pair-count arithmetic.
        """
        discordant = kernels.count_inversions(self.cell_y, self.cell_counts)
        total = self.m * (self.m - 1) // 2
        concordant = (total - _pair_count(self.wx) - _pair_count(self.wy)
                      + _pair_count(self.cell_counts) - discordant)
        return int(concordant), int(discordant)

    def kendall(self) -> float:
        """Kendall's tau-a: 2(N_C - N_D) / (m(m-1)), ties uncorrected."""
        self._require_pairs()
        n_c, n_d = self.concordance()
        return 2 * (n_c - n_d) / (self.m * (self.m - 1))

    def _centered_doubled_ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """2 * average rank - (m + 1) per distinct x and y value."""
        return (_doubled_ranks_by_value(self.wx) - (self.m + 1),
                _doubled_ranks_by_value(self.wy) - (self.m + 1))

    def spearman_average(self) -> float | None:
        """Spearman's rho on average ranks; None when a side is fully tied.

        Numerator and the two variance terms are the classical tie-corrected
        forms 4*sum(Ra Rb) - m(m+1)^2 and 4*sum(R^2) - m(m+1)^2, summed
        exactly over the table through centered doubled ranks.
        """
        self._require_pairs()
        da, db = self._centered_doubled_ranks()
        return _correlation(
            self.cross_sum(da, db), _moments(self.wx, da)[1], _moments(self.wy, db)[1]
        )

    def pearson(self) -> float | None:
        """Sample Pearson correlation of the raw pairs; None on zero variance.

        The sums of x, x^2, y^2 and xy are exact integers at any m and any
        value size.
        """
        self._require_pairs()
        m = self.m
        sx, sxx = _moments(self.wx, self.ux)
        sy, syy = _moments(self.wy, self.uy)
        num = m * self.cross_sum(self.ux, self.uy) - sx * sy
        return _correlation(num, m * sxx - sx * sx, m * syy - sy * sy)

    def spearman_uniform(self, rng) -> float:
        """Spearman's rho after random tie-breaking, one draw per call.

        Source and target ties are broken by two independent permutations
        drawn from the given RNG; sharing one would couple the orders of
        occurrences tied on both sides.  With both rank vectors permutations
        of 1..m, the classical closed form reduces to
        3 * sum((2Ra-(m+1))(2Rb-(m+1))) / (m^3 - m).
        """
        return self.spearman_uniform_draws([rng])[0]

    def spearman_uniform_draws(self, rngs) -> list[float]:
        """`spearman_uniform` of each RNG in turn, on buffers allocated once.

        A side's tie-break is the stable order of its value indices under a
        uniform permutation, drawn as `rng.permutation(m)` draws it (a
        shuffle of 0..m-1).  The order sorts the composite keys
        `index << bits | position`, position being the entry's place in the
        permutation: the keys are distinct, so any sort of them orders each
        run of ties by position, as a stable sort by index does.  The keys
        have the smallest unsigned dtype that holds them, 64 bits for m up
        to 2**32.
        """
        self._require_pairs()
        rngs = [as_rng(rng) for rng in rngs]
        m = self.m
        bits = (m - 1).bit_length()
        key_type = np.min_scalar_type((max(self.ux.size, self.uy.size) - 1) << bits | (m - 1))
        positions = np.arange(m, dtype=key_type)
        keys = np.empty(m, dtype=key_type)
        perm, at, order, da = (np.empty(m, dtype=np.int64) for _ in range(4))
        picked = {codes.dtype: np.empty(m, dtype=codes.dtype) for codes in (self.cx, self.cy)}
        # 2R - (m+1) for the occurrences in ascending value order, with rank
        # R = 1 at the largest value, as in _doubled_ranks_by_value
        centered = np.arange(m - 1, -m, -2)

        def tie_broken_order(codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
            """`order`, filled with the entries by ascending value, each run of
            ties in uniformly random order."""
            np.copyto(perm, positions)
            rng.shuffle(perm)
            # the indices are a permutation, so "clip" changes none; a "raise"
            # take would buffer its output
            np.take(codes, perm, out=picked[codes.dtype], mode="clip")
            np.left_shift(picked[codes.dtype], bits, out=keys, dtype=key_type)
            np.bitwise_or(keys, positions, out=keys)
            keys.sort()
            np.bitwise_and(keys, (1 << bits) - 1, out=at)
            return np.take(perm, at, out=order, mode="clip")

        values = []
        for rng in rngs:
            da[tie_broken_order(self.cx, rng)] = centered
            # the target side's ranks are `centered` in its own order, so the
            # sum pairs them with da gathered in that order
            np.take(da, tie_broken_order(self.cy, rng), out=at, mode="clip")
            value = 3 * _exact_dot(at, centered, (m - 1) ** 2) / (m**3 - m)
            values.append(min(1.0, max(-1.0, value)))
        return values

    def spearman_uniform_mean(self) -> float:
        """The exact mean of `spearman_uniform` over its tie-breaks.

        The two tie-breaks are independent, and within a tie group every
        occurrence's centered doubled rank has the group's average as its
        mean; so the mean of the draw's numerator is the numerator on
        average ranks, 3 * sum(da db) / (m^3 - m).  This is the
        Rao-Blackwellised form of the estimator: the same limit without
        the tie-break noise.  With no ties it equals every draw, and it is
        0 when a side is fully tied.
        """
        self._require_pairs()
        m = self.m
        value = 3 * self.cross_sum(*self._centered_doubled_ranks()) / (m**3 - m)
        return min(1.0, max(-1.0, value))


def require_tie_break_replicas(tie_break_replicas: int | None) -> None:
    """ConfigError unless the count is None (the exact mean) or at least 1."""
    if tie_break_replicas is not None:
        require_at_least("tie_break_replicas", tie_break_replicas)


def measure_table(
    table: PairTable, measure: str, seed_parts: tuple, tie_break_replicas: int | None
) -> float | None:
    """One measure read from a pair's table.

    The uniform-rank Spearman value is the exact tie-break mean
    (`PairTable.spearman_uniform_mean`) when `tie_break_replicas` is None,
    and otherwise the mean of that many draws; draw `rep` uses the RNG
    seeded by child_seed(*seed_parts, rep, "tie-break"), so each caller
    keeps its own seed layout.  A count below 1 is a ConfigError.
    """
    require_tie_break_replicas(tie_break_replicas)
    if measure == "spearman_uniform":
        if tie_break_replicas is None:
            return table.spearman_uniform_mean()
        draws = table.spearman_uniform_draws(
            child_seed(*seed_parts, rep, "tie-break") for rep in range(tie_break_replicas)
        )
        return float(np.mean(draws))
    if measure == "spearman_average":
        return table.spearman_average()
    if measure == "kendall":
        return table.kendall()
    if measure == "pearson":
        return table.pearson()
    raise ConfigError(f"unknown measure {measure!r}; known: {MEASURES}")


# ---------------------------------------------------------------------------
# Estimators on raw integer pairs
# ---------------------------------------------------------------------------


def spearman_uniform_xy(x, y, rng) -> float:
    """Spearman's rho after random tie-breaking, one draw per call; see
    `PairTable.spearman_uniform`."""
    return PairTable(x, y).spearman_uniform(rng)


def spearman_average_xy(x, y) -> float | None:
    """Spearman's rho on average ranks; None when a side is fully tied."""
    return PairTable(x, y).spearman_average()


def kendall_xy(x, y) -> float:
    """Kendall's tau-a: 2(N_C - N_D) / (m(m-1)), ties uncorrected."""
    return PairTable(x, y).kendall()


def pearson_xy(x, y) -> float | None:
    """Sample Pearson correlation of the raw pairs; None on zero variance.

    Exact integer moments at any size, so small graphs produce exact
    rationals.
    """
    return PairTable(x, y).pearson()


# ---------------------------------------------------------------------------
# Full report
# ---------------------------------------------------------------------------


def full_report(
    g: DirectedMultigraph,
    seed: int,
    tie_break_replicas: int | None = None,
    *,
    pairs=PAIR_LABELS,
    measures=MEASURES,
) -> dict:
    """The report document: the requested measures for the requested pairs
    (default: all of both).

    It is {"n", "edges", "seed", "pairs"}, with one entry per pair label in
    `PAIR_LABELS` order.  An entry holds the requested measures in
    `MEASURES` order, then `degenerate_source` and `degenerate_target`; a
    measure that was not asked for is absent, and an undefined one is None.
    The uniform-rank Spearman value is by default its exact tie-break mean
    (`PairTable.spearman_uniform_mean`), which does not depend on `seed`.
    A `tie_break_replicas` count averages that many tie-break draws instead
    (1 gives the paper's one-draw estimator); every draw gets its own child
    seed from (seed, pair index, replica), so identical (graph, seed,
    replicas) inputs give an identical report, and a pair's values do not
    depend on which other pairs or measures are asked for.  Degenerate
    sides are flagged and yield None for the average-rank and Pearson
    entries instead of an error.  The arguments are checked (ConfigError)
    before the graph's edge count (ValueError below 2).
    """
    require_tie_break_replicas(tie_break_replicas)
    pairs = require_known("pairs", pairs, PAIR_LABELS)
    measures = require_known("measures", measures, MEASURES)
    if g.edge_count < 2:
        raise ValueError("full report requires at least 2 edge occurrences")
    tables = PairTable.of_graph_pairs(g, [p for p in ALL_PAIRS if p.label in pairs])
    report = {}
    for pair_index, pair in enumerate(ALL_PAIRS):
        if pair not in tables:
            continue
        table = tables[pair]
        entry = {
            measure: measure_table(table, measure, (seed, pair_index), tie_break_replicas)
            for measure in MEASURES
            if measure in measures
        }
        entry["degenerate_source"] = table.degenerate_source
        entry["degenerate_target"] = table.degenerate_target
        report[pair.label] = entry
    return {"n": g.n, "edges": g.edge_count, "seed": int(seed), "pairs": report}
