"""Shared builders and brute-force oracles for the test suite."""

import itertools

import numpy as np

from degdep import DirectedMultigraph, JointPmf, Pmf


def random_pmf(rng, max_atoms=8, span=20, min_atoms=1) -> Pmf:
    """Random finite pmf with up to `max_atoms` integer atoms in [-span, span]."""
    k = int(rng.integers(min_atoms, max_atoms + 1))
    support = rng.choice(np.arange(-span, span + 1), size=k, replace=False)
    weights = rng.random(k) + 1e-3
    return Pmf(np.sort(support), weights / weights.sum())


def random_joint(rng, max_side=8, span=10) -> JointPmf:
    """Random joint pmf on up to max_side x max_side integer atoms."""
    kx = int(rng.integers(1, max_side + 1))
    ky = int(rng.integers(1, max_side + 1))
    xs = np.sort(rng.choice(np.arange(-span, span + 1), size=kx, replace=False))
    ys = np.sort(rng.choice(np.arange(-span, span + 1), size=ky, replace=False))
    cells = [(x, y) for x in xs for y in ys]
    keep = rng.random(len(cells)) < 0.7
    keep[int(rng.integers(0, len(cells)))] = True
    cells = [c for c, k in zip(cells, keep) if k]
    weights = rng.random(len(cells)) + 1e-3
    weights /= weights.sum()
    return JointPmf.from_entries({c: w for c, w in zip(cells, weights)})


def random_nondegenerate_joint(rng, max_side=8, span=10) -> JointPmf:
    while True:
        joint = random_joint(rng, max_side, span)
        if not joint.marginal_x().is_point_mass and not joint.marginal_y().is_point_mass:
            return joint


def random_multigraph(rng, max_nodes=20, max_edges=60) -> DirectedMultigraph:
    """Random multigraph with self-loops and repeats; at least 2 edges."""
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(2, max_edges + 1))
    src = rng.integers(0, n, m)
    dst = rng.integers(0, n, m)
    return DirectedMultigraph(n, src, dst)


def spearman_brute(joint: JointPmf) -> float:
    """Spearman's rho from its four-probability definition with independent copies.

    rho = 3 [P(X<X',Y<Y'') + P(X<=X',Y<Y'') + P(X<X',Y<=Y'') + P(X<=X',Y<=Y'') - 1]
    where X' and Y'' come from two independent copies of the pair, so they are
    independent of each other and of (X, Y).
    """
    mx, my = joint.marginal_x(), joint.marginal_y()
    total = 0.0
    for (x, y, q) in zip(joint.xs, joint.ys, joint.probs):
        for (xp, qx) in zip(mx.support, mx.probs):
            for (yp, qy) in zip(my.support, my.probs):
                w = float(q * qx * qy)
                lt_x, le_x = float(x < xp), float(x <= xp)
                lt_y, le_y = float(y < yp), float(y <= yp)
                total += w * (lt_x * lt_y + le_x * lt_y + lt_x * le_y + le_x * le_y)
    return 3.0 * (total - 1.0)


def kendall_brute(joint: JointPmf) -> float:
    """Kendall's tau as E[sign(X - X') sign(Y - Y')] over an independent copy."""
    total = 0.0
    for (x1, y1, q1), (x2, y2, q2) in itertools.product(
        zip(joint.xs, joint.ys, joint.probs), repeat=2
    ):
        total += q1 * q2 * np.sign(x1 - x2) * np.sign(y1 - y2)
    return float(total)


def inversions_brute(arr) -> int:
    arr = list(arr)
    return sum(
        1
        for i in range(len(arr))
        for j in range(i + 1, len(arr))
        if arr[i] > arr[j]
    )


def read_edge_list_reference(path, n=None) -> DirectedMultigraph:
    """The line-by-line edge-list reader that numpy parsing replaced.

    Kept verbatim as the reference for `degdep.read_edge_list`: both must
    build the same graph or raise the same error.  Ids of 2**63 and up reach
    `np.asarray` here and raise OverflowError; the library reports them as a
    ValueError with their line number instead.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'src<TAB>dst', got {line!r}")
            try:
                s, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-integer node id in {line!r}") from None
            if s < 0 or d < 0:
                raise ValueError(f"{path}:{lineno}: negative node id in {line!r}")
            srcs.append(s)
            dsts.append(d)
    if n is None:
        n = max(srcs + dsts, default=-1) + 1
    return DirectedMultigraph(n, np.asarray(srcs, dtype=np.int64), np.asarray(dsts, dtype=np.int64))


def read_joint_pmf_reference(path) -> JointPmf:
    """The line-by-line joint-pmf reader that the shared table reader replaced.

    Kept verbatim as the reference for `degdep.pmf.read_joint_pmf`: both
    must build the same law or raise a ValueError at the same line.  It
    accepts nan probabilities and values of 2**63 and up, which the library
    now rejects.
    """
    xs: list[int] = []
    ys: list[int] = []
    probs: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'x<TAB>y<TAB>probability'")
            try:
                xs.append(int(parts[0]))
                ys.append(int(parts[1]))
                probs.append(float(parts[2]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed entry {line!r}") from None
    if not xs:
        raise ValueError(f"{path}: no joint pmf entries found")
    return JointPmf(np.asarray(xs), np.asarray(ys), np.asarray(probs))


# Floats that are not integers int64 holds, for the constructors' checks.
NON_INT64_FLOATS = (0.5, np.inf, -np.inf, np.nan, 1e19)


def edge_lines_reference(src, dst) -> bytes:
    """The bytes `degdep.write_edge_list` must write: one f-string line per edge."""
    return "".join(f"{s}\t{d}\n" for s, d in zip(src.tolist(), dst.tolist())).encode("utf-8")
