"""Directed configuration-model generators and their limiting endpoint laws.

Three variants share one pipeline: draw per-node out/in stub counts iid from
two target laws, balance the totals, then pair out-stubs to in-stubs by a
uniformly random matching.

  - cm:  keep the resulting multigraph (self-loops and multi-edges allowed);
  - rcm: redraw the pairing of the *same* stub sequence until the graph is
         simple (practical only when the laws have finite variance);
  - ecm: remove self-loops and merge multi-edges, recording how many edge
         occurrences of each kind it erased.

The endpoint-degree laws of a uniformly sampled edge in the large-graph
limit are plain or size-biased versions of the target laws, depending on the
degree-type pair; `endpoint_degree_laws` tabulates them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .digraph import DegreeTypePair, DirectedMultigraph, edges_are_simple
from .pmf import ConfigError, Pmf, as_rng, require_at_least, size_biased

__all__ = [
    "GenerationError",
    "BiDegreeRealization",
    "ErasureLedger",
    "GenerationResult",
    "sample_bidegree",
    "pair_stubs_cm",
    "generate_cm",
    "generate_rcm",
    "generate_ecm",
    "erase_multigraph",
    "endpoint_degree_laws",
    "DEFAULT_MAX_ATTEMPTS",
]

DEFAULT_MAX_ATTEMPTS = 1000

_MEAN_MISMATCH_WARN = 0.05


class GenerationError(RuntimeError):
    """Graph generation failed; carries the number of pairing attempts used."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True, eq=False)
class BiDegreeRealization:
    """Per-node stub counts with equal out/in totals.

    `balance_added` is the number of stubs appended by the balancing step
    (all on one side).
    """

    out_stubs: np.ndarray
    in_stubs: np.ndarray
    balance_added: int

    def __post_init__(self):
        if int(self.out_stubs.sum()) != int(self.in_stubs.sum()):
            raise ValueError("stub totals must balance")
        self.out_stubs.setflags(write=False)
        self.in_stubs.setflags(write=False)

    @property
    def total_stubs(self) -> int:
        return int(self.out_stubs.sum())


@dataclass(frozen=True)
class ErasureLedger:
    """Edge occurrences removed by the erased variant (zero for cm and rcm).

    A k-fold multi-edge contributes k - 1 to `multi_edges_merged`.  Each
    removal erases one out-stub of its source and one in-stub of its target,
    so node v lost `bidegree.out_stubs[v] - graph.out_deg[v]` out-stubs, and
    likewise for in-stubs.
    """

    self_loops_removed: int = 0
    multi_edges_merged: int = 0

    @property
    def total_erased(self) -> int:
        return self.self_loops_removed + self.multi_edges_merged


@dataclass(frozen=True, eq=False)
class GenerationResult:
    """A generated graph plus the stub sequence and erasure bookkeeping."""

    graph: DirectedMultigraph
    bidegree: BiDegreeRealization
    ledger: ErasureLedger
    attempts: int


def _require_degree_law(p: Pmf, name: str) -> None:
    # the support ascends, so its first value is its least
    if p.support[0] < 0:
        raise ConfigError(f"{name} must be supported on non-negative integers, "
                          f"got support from {int(p.support[0])}")


def sample_bidegree(n: int, out_law: Pmf, in_law: Pmf, rng) -> BiDegreeRealization:
    """Draw n iid stub counts from each law, then balance the totals.

    Balancing adds one stub at a time to a uniformly random node on the
    deficient side until the totals match; under equal means the addition is
    o(n), so the empirical laws are preserved asymptotically.  Laws whose
    means differ by more than 5% trigger a warning (the model presumes equal
    means).  Two point masses at 0 are rejected (ConfigError) before any
    draw; an all-zero sample of other laws is rejected (ValueError).
    """
    require_at_least("n", n)
    _require_degree_law(out_law, "out_law")
    _require_degree_law(in_law, "in_law")
    mean_out, mean_in = out_law.mean(), in_law.mean()
    if mean_out == 0 and mean_in == 0:
        raise ConfigError("out_law and in_law are both point masses at 0: "
                          "every node would have zero stubs")
    if abs(mean_out - mean_in) > _MEAN_MISMATCH_WARN * max(mean_out, mean_in):
        warnings.warn(
            f"stub laws have unequal means (out {mean_out:.6g}, in {mean_in:.6g}); "
            "the configuration model presumes equal means",
            stacklevel=2,
        )
    rng = as_rng(rng)
    # each sample is a fresh array (Pmf.sample indexes its support), so the
    # balancing below may add to it in place
    out_stubs = out_law.sample(rng, n)
    in_stubs = in_law.sample(rng, n)
    deficit = int(in_stubs.sum() - out_stubs.sum())
    if deficit > 0:
        np.add.at(out_stubs, rng.integers(0, n, deficit), 1)
    elif deficit < 0:
        np.add.at(in_stubs, rng.integers(0, n, -deficit), 1)
    if int(out_stubs.sum()) == 0:
        raise ValueError("degenerate stub sample: zero stubs on every node")
    return BiDegreeRealization(out_stubs, in_stubs, abs(deficit))


def _stub_endpoints(b: BiDegreeRealization) -> tuple[np.ndarray, np.ndarray]:
    n = b.out_stubs.size
    src = np.repeat(np.arange(n, dtype=np.int64), b.out_stubs)
    tgt = np.repeat(np.arange(n, dtype=np.int64), b.in_stubs)
    return src, tgt


def pair_stubs_cm(b: BiDegreeRealization, rng) -> GenerationResult:
    """Uniform random matching of out-stubs to in-stubs; keeps the multigraph.

    Every out-stub is equally likely to land on every in-stub, realized by a
    single random shuffle of the in-stub slots.  The resulting degrees equal
    the stub counts exactly, so the graph takes the stub counts as its
    degrees, and it takes the fresh endpoint arrays without a copy.
    """
    rng = as_rng(rng)
    src, tgt = _stub_endpoints(b)
    rng.shuffle(tgt)
    graph = DirectedMultigraph._adopt(b.out_stubs.size, src, tgt, (b.out_stubs, b.in_stubs))
    return GenerationResult(graph, b, ErasureLedger(), attempts=1)


def generate_cm(n: int, out_law: Pmf, in_law: Pmf, rng) -> GenerationResult:
    """Sample a bi-degree sequence and pair it once (multigraph variant)."""
    rng = as_rng(rng)
    return pair_stubs_cm(sample_bidegree(n, out_law, in_law, rng), rng)


def generate_rcm(
    n: int,
    out_law: Pmf,
    in_law: Pmf,
    rng,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> GenerationResult:
    """Repeat the pairing of one stub sequence until the graph is simple.

    The bi-degree realization is drawn once and reused across attempts; only
    the matching is redrawn.  Raises GenerationError (with the attempt count)
    when no simple pairing appears within `max_attempts`, which is the
    expected outcome for infinite-variance laws at large n.
    """
    require_at_least("max_attempts", max_attempts)
    rng = as_rng(rng)
    b = sample_bidegree(n, out_law, in_law, rng)
    src, tgt = _stub_endpoints(b)
    # one buffer for every attempt; the simple pairing's graph adopts it,
    # with the stub counts as its degrees
    dst = np.empty_like(tgt)
    for attempt in range(1, max_attempts + 1):
        np.copyto(dst, tgt)
        rng.shuffle(dst)
        if edges_are_simple(src, dst, n):
            graph = DirectedMultigraph._adopt(n, src, dst, (b.out_stubs, b.in_stubs))
            return GenerationResult(graph, b, ErasureLedger(), attempts=attempt)
    raise GenerationError(
        f"no simple pairing in {max_attempts} attempts "
        f"(n={n}, stub edges={b.total_stubs}); heavy-tailed degree laws make "
        "the simplicity probability vanish - use the erased variant instead",
        attempts=max_attempts,
    )


def erase_multigraph(g: DirectedMultigraph) -> tuple[DirectedMultigraph, ErasureLedger]:
    """Remove self-loops, then merge multi-edges; returns graph and ledger.

    Each removal erases one out-stub of its source and one in-stub of its
    target, so node v lost `g.out_deg[v] - graph.out_deg[v]` out-stubs (in
    ecm, g's degrees are the stub counts), and likewise for in-stubs.
    """
    n = g.n
    keep = g.src != g.dst
    # the loop-free edge keys, sorted in place (np.unique may take a slower
    # hash path); a key equal to its predecessor is an erased repeat
    keys = g.src[keep]
    keys *= n
    keys += g.dst[keep]
    keys.sort()
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    ledger = ErasureLedger(g.edge_count - keys.size, keys.size - int(first.sum()))
    # the merged keys become the graph's target ids in place
    keys = keys[first]
    src = keys // n
    keys %= n
    return DirectedMultigraph._adopt(n, src, keys), ledger


def generate_ecm(n: int, out_law: Pmf, in_law: Pmf, rng) -> GenerationResult:
    """Pair once, then make the graph simple by erasure (see erase_multigraph)."""
    rng = as_rng(rng)
    b = sample_bidegree(n, out_law, in_law, rng)
    cm = pair_stubs_cm(b, rng)
    graph, ledger = erase_multigraph(cm.graph)
    return GenerationResult(graph, b, ledger, attempts=1)


def endpoint_degree_laws(
    pair: DegreeTypePair, out_law: Pmf, in_law: Pmf
) -> tuple[Pmf, Pmf]:
    """Limiting laws of the endpoint degrees of a uniformly sampled edge.

    The degree whose stubs were followed to reach an endpoint is size-biased;
    the opposite degree at that endpoint keeps its plain law (out/in draws
    are independent per node).  Per (source-type, target-type) pair:

        (out, in)  -> (size-biased out, size-biased in)
        (in,  out) -> (plain in, plain out)
        (out, out) -> (size-biased out, plain out)
        (in,  in)  -> (plain in, size-biased in)
    """
    source = size_biased(out_law) if pair.alpha == "out" else in_law
    target = size_biased(in_law) if pair.beta == "in" else out_law
    return source, target
