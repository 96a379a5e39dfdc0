"""Directed multigraph container with degree bookkeeping and edge-list I/O.

Edges are stored occurrence-expanded (one entry per edge occurrence, so a
k-fold multi-edge appears k times); all dependency measures are sums over
edge occurrences and the flat layout keeps those sums cache-friendly at
millions of edges.  Degrees are tallied once at construction.  Graphs are
immutable after construction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .pmf import ConfigError, as_int_array, table_lines

__all__ = [
    "DegreeTypePair",
    "ALL_PAIRS",
    "PAIR_LABELS",
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
# the writer formats ids in groups of this many values, 4 digits each
_GROUP = 10**4
# bytes.translate table of the plain-file check: a space counts as a tab
_SPACE_AS_TAB = bytes.maketrans(b" ", b"\t")


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
PAIR_LABELS = tuple(p.label for p in ALL_PAIRS)


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
        # copies, so freezing them leaves the caller's arrays writable
        self._own(as_int_array(self.src, "source ids").copy(),
                  as_int_array(self.dst, "target ids").copy())

    @classmethod
    def _adopt(cls, n: int, src, dst, degrees=None) -> "DirectedMultigraph":
        """The graph of arrays the caller hands over and will not touch again.

        It checks them as the constructor does, but freezes them in place
        instead of copying them.  `degrees`, when given, is the (out, in)
        pair the caller knows to equal the bincounts of `src` and `dst`;
        it is adopted too, and the bincounts are not run.
        """
        graph = cls.__new__(cls)
        object.__setattr__(graph, "n", n)
        graph._own(as_int_array(src, "source ids"), as_int_array(dst, "target ids"), degrees)
        return graph

    def _own(self, src: np.ndarray, dst: np.ndarray, degrees=None) -> None:
        """Check int64 edge arrays, count the degrees unless given, and freeze
        all four arrays as the graph's own."""
        n = int(self.n)
        if n < 0:
            raise ValueError("node count must be non-negative")
        for what, ids in (("source", src), ("target", dst)):
            if ids.min(initial=0) < 0:
                raise ValueError(f"{what} ids must be non-negative")
        if src.size != dst.size:
            raise ValueError("source and target arrays differ in length")
        if src.size and max(int(src.max()), int(dst.max())) >= n:
            raise ValueError("node id out of range for the declared node count")
        if degrees is None:
            degrees = _degree_arrays(n, src, dst)
        object.__setattr__(self, "n", n)
        for attr, val in zip(("src", "dst", "out_deg", "in_deg"), (src, dst, *degrees)):
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
        raise ConfigError(f"degree kind must be 'out' or 'in', got {kind!r}")

    def _require_edges(self) -> None:
        if self.edge_count == 0:
            raise ValueError("operation requires a graph with at least one edge")

    def edge_degree_view(self, pair: DegreeTypePair) -> tuple[np.ndarray, np.ndarray]:
        """The (source-side, target-side) degrees of every edge occurrence."""
        return self.degrees(pair.alpha)[self.src], self.degrees(pair.beta)[self.dst]


def _degree_arrays(n: int, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 out- and in-degree arrays of n nodes, by bincount."""
    try:
        if n > _MAX_NODES:
            raise MemoryError
        return (np.bincount(src, minlength=n).astype(np.int64, copy=False),
                np.bincount(dst, minlength=n).astype(np.int64, copy=False))
    except MemoryError:
        largest = max(int(src.max(initial=-1)), int(dst.max(initial=-1)))
        raise ValueError(
            f"degree arrays for {n} nodes do not fit in memory (largest node id {largest})"
        ) from None


def edges_are_simple(src: np.ndarray, dst: np.ndarray, n: int) -> bool:
    """True iff no edge is a self-loop and no (source, target) pair repeats.

    The edge keys are sorted and neighbours compared: a bare np.unique of
    them may take a hash path that is several times slower.
    """
    if np.any(src == dst):
        return False
    keys = np.sort(src * np.int64(n) + dst)
    return not np.any(keys[1:] == keys[:-1])


def read_edge_list(path) -> DirectedMultigraph:
    """Read a graph from text: one 'src<TAB>dst' occurrence per line.

    Ids are integers as Python's int() reads them, with 0 <= id < 2**63, and
    any whitespace separates the two.  Blank lines and '#' comments are
    ignored; repeated lines are multi-edges.  The node count is the largest
    id plus one.  Malformed lines are rejected with their line number.  A
    plain file is parsed as one buffer, any other line by line, more slowly.
    """
    with open(path, "rb") as fh:
        edges = _parse_plain_edges(fh.read())
    if edges is None:
        edges = _parse_edge_lines(path)
    n = int(edges.max(initial=-1)) + 1
    return DirectedMultigraph(n, edges[:, 0], edges[:, 1])


def _parse_plain_edges(data: bytes) -> np.ndarray | None:
    """The (m, 2) int64 edges of a file of plain 'digits<TAB or SPACE>digits'
    lines under any whole '#' lines, parsed as one buffer; None for any other.

    Every line ends in LF, or in CRLF if the first one does.  A CR left
    after that, or a CR or non-ASCII byte in a '#' line, refuses the file,
    so that the line parser splits and decodes it.  The separator check
    leaves digit runs between the separators, which may be empty; an empty
    run leaves fromstring short of two values a line.  An id past int64
    comes back as 2**63 - 1, so that value also refuses the file.
    """
    first = data.find(b"\n")
    if first > 0 and data[first - 1] == ord("\r"):
        data = data.replace(b"\r\n", b"\n")
    start = 0
    while data.startswith(b"#", start):
        end = data.find(b"\n", start) + 1
        header = data[start:end]
        if not end or b"\r" in header or not header.isascii():
            return None
        start = end
    data = data[start:]
    seps = data.translate(_SPACE_AS_TAB, b"0123456789")
    lines = len(seps) // 2
    if seps != b"\t\n" * lines:
        return None
    try:
        # older numpy reports unread data by a DeprecationWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = np.fromstring(data, np.int64, sep=" ")
    except (ValueError, Warning):
        return None
    if ids.size != 2 * lines or np.any(ids == _MAX_ID):
        return None
    return ids.reshape(lines, 2)


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
    """The bytes of 'src<TAB>dst<LF>' for each row, as a uint8 array.

    Each row is a line of uint32 words: one per base-10**4 group of each id,
    looked up in a table of ASCII words, then a TAB or LF word.  A NUL byte
    marks a leading zero or a word's unused bytes, and the line drops it.
    The tables are built as bytes and viewed as words, and the lines are
    read back through a uint8 view, so each word's bytes come out in the
    order they were built, on a machine of either byte order.
    """
    gs, gd = _group_count(src), _group_count(dst)
    words = np.empty((src.size, gs + gd + 2), dtype=np.uint32)
    _group_words(src, words[:, :gs])
    words[:, gs] = _TAB_WORD
    _group_words(dst, words[:, gs + 1 : -1])
    words[:, -1] = _LF_WORD
    raw = words.view(np.uint8)
    return raw[raw != 0]


def _group_count(ids: np.ndarray) -> int:
    """Base-10**4 groups of the largest of non-negative ids (at least 1)."""
    return -(-len(str(int(ids.max()))) // 4)


def _group_words(ids: np.ndarray, out: np.ndarray) -> None:
    """Fill the (k, g) columns of `out` with the words of each id's g groups,
    most significant first.

    A group after a non-zero one keeps its zeros: its index is shifted into
    the padded half of the table.  The shifted index is non-zero exactly
    when some group so far was, so it is the next group's `started` mask.
    """
    last_words, inner_words = _word_tables()
    rest, lows = ids, []
    for _ in range(out.shape[1] - 1):
        rest, low = np.divmod(rest, _GROUP)
        lows.append(low)
    table = inner_words if lows else last_words
    # the indices are in range, and mode "clip" writes to `out` unbuffered
    np.take(table, rest, out=out[:, 0], mode="clip")
    started = rest != 0
    for col, low in enumerate(reversed(lows), 1):
        np.add(low, _GROUP, out=low, where=started)
        table = inner_words if col < len(lows) else last_words
        np.take(table, low, out=out[:, col], mode="clip")
        started = low != 0


@cache
def _word_tables() -> tuple[np.ndarray, np.ndarray]:
    """The writer's tables of words for the last group of an id and for an
    inner group, each 2 * 10**4 long.

    A word holds the ASCII digits of a base-10**4 group, with NUL where a
    leading zero is dropped.  Index i is group i when no group before it
    was non-zero; index 10**4 + i is group i zero-padded.  The last group
    of an id shows its one zero, an inner group none.  They are built on
    the first write, so a process that writes no edge list never holds them.
    """
    groups = np.arange(_GROUP, dtype=np.uint16)[:, None]
    scales = np.array([1000, 100, 10, 1], dtype=np.uint16)
    padded = (groups // scales % 10).astype(np.uint8) + np.uint8(ord("0"))
    # the last digit shows at every value, the others from their scale on
    scales[-1] = 0
    unpadded = np.where(groups >= scales, padded, np.uint8(0))
    last = np.concatenate([unpadded, padded]).view(np.uint32).ravel()
    unpadded[0] = 0
    return last, np.concatenate([unpadded, padded]).view(np.uint32).ravel()


_TAB_WORD, _LF_WORD = np.frombuffer(b"\t\0\0\0\n\0\0\0", dtype=np.uint32)
