"""Directed multigraph container with degree bookkeeping and edge sampling.

Edges are stored occurrence-expanded (one entry per edge occurrence, so a
k-fold multi-edge appears k times); all dependency measures are sums over
edge occurrences and the flat layout keeps those sums cache-friendly at
millions of edges.  Degrees are tallied once at construction.  Graphs are
immutable after construction; sampling takes a caller-owned RNG.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pmf import ConfigError, JointPmf, Pmf, as_int_array, load_table, table_lines

__all__ = [
    "DegreeTypePair",
    "ALL_PAIRS",
    "EdgeDegreeView",
    "DirectedMultigraph",
    "edges_are_simple",
    "read_edge_list",
    "write_edge_list",
]

_DEGREE_TYPES = ("out", "in")
_MAX_ID = 2**63 - 1
# most nodes whose int64 degree array numpy can address at all
_MAX_NODES = np.iinfo(np.intp).max // 8
# rows formatted per write: bounds the temporaries of write_edge_list
_WRITE_ROWS = 1 << 18


@dataclass(frozen=True)
class DegreeTypePair:
    """Which degree is read at each end of an edge.

    `alpha` applies to the source node, `beta` to the target node; each is
    "out" or "in", giving four combinations.
    """

    alpha: str
    beta: str

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            if value not in _DEGREE_TYPES:
                raise ConfigError(f"{name} must be 'out' or 'in', got {value!r}")

    @property
    def label(self) -> str:
        return f"{self.alpha}-{self.beta}"

    @classmethod
    def from_label(cls, label: str) -> "DegreeTypePair":
        alpha, sep, beta = label.partition("-")
        if not sep:
            raise ConfigError(f"pair label must look like 'out-in', got {label!r}")
        return cls(alpha, beta)


ALL_PAIRS = (
    DegreeTypePair("out", "in"),
    DegreeTypePair("in", "out"),
    DegreeTypePair("out", "out"),
    DegreeTypePair("in", "in"),
)


@dataclass(frozen=True)
class EdgeDegreeView:
    """Per-edge-occurrence degree pairs (source-side degree, target-side degree)."""

    pair: DegreeTypePair
    source_degrees: np.ndarray
    target_degrees: np.ndarray

    def __len__(self) -> int:
        return self.source_degrees.size


@dataclass(frozen=True, eq=False)
class DirectedMultigraph:
    """Directed multigraph over nodes 0..n-1 with self-loops and multi-edges.

    Invariants maintained by construction: sum(out_deg) == sum(in_deg) ==
    number of edge occurrences, and the degree arrays agree with recounting
    the edge list.
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    out_deg: np.ndarray = field(init=False, repr=False, compare=False)
    in_deg: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = int(self.n)
        if n < 0:
            raise ValueError("node count must be non-negative")
        # copies, so freezing them leaves the caller's arrays writable
        src = as_int_array(self.src, "source ids").copy()
        dst = as_int_array(self.dst, "target ids").copy()
        for what, ids in (("source", src), ("target", dst)):
            if ids.min(initial=0) < 0:
                raise ValueError(f"{what} ids must be non-negative")
        if src.size != dst.size:
            raise ValueError("source and target arrays differ in length")
        if src.size and max(int(src.max()), int(dst.max())) >= n:
            raise ValueError("node id out of range for the declared node count")
        try:
            if n > _MAX_NODES:
                raise MemoryError
            out_deg = np.bincount(src, minlength=n).astype(np.int64, copy=False)
            in_deg = np.bincount(dst, minlength=n).astype(np.int64, copy=False)
        except MemoryError:
            largest = max(int(src.max(initial=-1)), int(dst.max(initial=-1)))
            raise ValueError(
                f"degree arrays for {n} nodes do not fit in memory (largest node id {largest})"
            ) from None
        for attr, val in (("n", n),):
            object.__setattr__(self, attr, val)
        for attr, val in (
            ("src", src),
            ("dst", dst),
            ("out_deg", out_deg),
            ("in_deg", in_deg),
        ):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)

    @classmethod
    def from_edge_list(cls, pairs, n: int | None = None) -> "DirectedMultigraph":
        """Build from (source, target) pairs; duplicates become multi-edges."""
        arr = np.asarray(list(pairs) if not isinstance(pairs, np.ndarray) else pairs)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge list must be a sequence of (source, target) pairs")
        src = as_int_array(arr[:, 0], "source ids")
        dst = as_int_array(arr[:, 1], "target ids")
        if n is None:
            n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
        return cls(n, src, dst)

    @property
    def edge_count(self) -> int:
        return int(self.src.size)

    def degrees(self, kind: str) -> np.ndarray:
        if kind == "out":
            return self.out_deg
        if kind == "in":
            return self.in_deg
        raise ValueError(f"degree kind must be 'out' or 'in', got {kind!r}")

    def _require_edges(self) -> None:
        if self.edge_count == 0:
            raise ValueError("operation requires a graph with at least one edge")

    def sample_edge(self, rng) -> tuple[int, int]:
        """One edge occurrence uniformly at random (multiplicity-weighted)."""
        self._require_edges()
        rng = np.random.default_rng(rng)
        i = int(rng.integers(0, self.edge_count))
        return int(self.src[i]), int(self.dst[i])

    def edge_degree_view(self, pair: DegreeTypePair) -> EdgeDegreeView:
        """Degree pairs at the two ends of every edge occurrence."""
        return EdgeDegreeView(
            pair=pair,
            source_degrees=self.degrees(pair.alpha)[self.src],
            target_degrees=self.degrees(pair.beta)[self.dst],
        )

    def empirical_edge_joint(self, pair: DegreeTypePair) -> JointPmf:
        """Joint law of the endpoint degrees of a uniformly sampled edge.

        Mass at (k, l) is the fraction of edge occurrences whose source-side
        degree is k and target-side degree is l; built from integer counts
        and converted to probabilities at the end.
        """
        self._require_edges()
        view = self.edge_degree_view(pair)
        keys = np.stack([view.source_degrees, view.target_degrees], axis=1)
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
        return JointPmf(uniq[:, 0], uniq[:, 1], counts / self.edge_count)

    def empirical_marginal(self, side: str, degree_type: str) -> Pmf:
        """Law of one endpoint degree of a uniformly sampled edge.

        `side` is "source" or "target"; each edge occurrence carries weight
        1/|E|.
        """
        self._require_edges()
        if side == "source":
            nodes = self.src
        elif side == "target":
            nodes = self.dst
        else:
            raise ValueError(f"side must be 'source' or 'target', got {side!r}")
        values = self.degrees(degree_type)[nodes]
        uniq, counts = np.unique(values, return_counts=True)
        return Pmf(uniq, counts / self.edge_count)

    def node_degree_pmf(self, degree_type: str) -> Pmf:
        """Empirical law of the node degrees (every node weighted 1/n)."""
        if self.n == 0:
            raise ValueError("graph has no nodes")
        uniq, counts = np.unique(self.degrees(degree_type), return_counts=True)
        return Pmf(uniq, counts / self.n)

    def is_simple(self) -> bool:
        """True iff the graph has no self-loops and no repeated (v, w) edge."""
        return edges_are_simple(self.src, self.dst, self.n)


def edges_are_simple(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """True iff no edge is a self-loop and no (source, target) pair repeats.

    The edge keys are sorted and neighbours compared: a bare np.unique of
    them may take a hash path that is several times slower.
    """
    if np.any(src == dst):
        return False
    keys = np.sort(src * np.int64(n) + dst)
    return not np.any(keys[1:] == keys[:-1])


def read_edge_list(path, n: int | None = None) -> DirectedMultigraph:
    """Read a graph from text: one 'src<TAB>dst' occurrence per line.

    Ids are integers as Python's int() reads them, with 0 <= id < 2**63, and
    any whitespace separates the two.  Blank lines and '#' comments are
    ignored; repeated lines are multi-edges.  Malformed lines are rejected
    with their line number.
    """
    # numpy's C parser reads a subset of this language (ASCII digits with an
    # optional sign) to the same values, so a clean two-column, non-negative
    # result is the file's graph; the line parser decides anything else.
    with open(path, "r", encoding="utf-8") as fh:
        edges = load_table(fh, np.int64)
    if edges is None or edges.shape[1] != 2 or (edges.size and edges.min() < 0):
        edges = _parse_edge_lines(path)
    if n is None:
        n = int(edges.max(initial=-1)) + 1
    return DirectedMultigraph(n, edges[:, 0], edges[:, 1])


def _parse_edge_lines(path) -> np.ndarray:
    """Parse an edge list line by line into an (m, 2) int64 array."""
    edges: list[tuple[int, int]] = []
    for lineno, line, fields in table_lines(path, "src<TAB>dst"):
        try:
            s, d = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
        if s < 0 or d < 0:
            raise ValueError(f"{path}:{lineno}: negative node id in {line!r}")
        if s > _MAX_ID or d > _MAX_ID:
            raise ValueError(
                f"{path}:{lineno}: node id out of range (largest is 2**63 - 1) in {line!r}"
            )
        edges.append((s, d))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


def write_edge_list(g: DirectedMultigraph, path) -> None:
    """Write the edge occurrences as 'src<TAB>dst' lines (UTF-8, LF)."""
    with open(path, "wb") as fh:
        for start in range(0, g.edge_count, _WRITE_ROWS):
            stop = start + _WRITE_ROWS
            fh.write(_edge_lines(g.src[start:stop], g.dst[start:stop]))


def _edge_lines(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The bytes of 'src<TAB>dst<LF>' for each row, as a uint8 array."""
    src_digits, src_shown = _decimal_digits(src)
    dst_digits, dst_shown = _decimal_digits(dst)
    ws, wd = src_digits.shape[1], dst_digits.shape[1]
    line = np.empty((src.size, ws + wd + 2), dtype=np.uint8)
    keep = np.ones(line.shape, dtype=bool)
    line[:, :ws], keep[:, :ws] = src_digits, src_shown
    line[:, ws] = ord("\t")
    line[:, ws + 1 : -1], keep[:, ws + 1 : -1] = dst_digits, dst_shown
    line[:, -1] = ord("\n")
    return line[keep]


def _decimal_digits(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ASCII digits of non-negative ids, right-aligned in a (k, width) uint8
    matrix, and the mask of the digits printed (all but leading zeros)."""
    width = len(str(int(ids.max())))
    digits = np.empty((ids.size, width), dtype=np.uint8)
    shown = np.empty((ids.size, width), dtype=bool)
    for i in range(width):
        leading = ids // 10 ** (width - 1 - i)
        digits[:, i] = leading % 10
        shown[:, i] = leading > 0
    shown[:, -1] = True
    digits += ord("0")
    return digits, shown
