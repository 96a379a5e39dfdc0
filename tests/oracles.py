"""The paper's definitional forms of the rank measures, as test oracles.

Spearman's rho and Kendall's tau are defined through tie-aware cdfs and
through the continuized values v + U (U uniform on [0, 1)); the library
computes both from its pair table and from the atoms of a joint law instead.
These plain functions compute the definitions directly, from the
edge-degree arrays with `np.unique` or from a law's cdf, and share no code
with the library's fast paths.
"""

import operator
from fractions import Fraction

import numpy as np

from degdep import DegreeTypePair, DirectedMultigraph, JointPmf, Pmf


# ---------------------------------------------------------------------------
# Ranks and the empirical tie-aware cdf
# ---------------------------------------------------------------------------


def uniform_ranks(values, rng=None, *, noise=None) -> np.ndarray:
    """Ranks with ties broken uniformly at random; rank 1 = largest.

    One uniform permutation of the entries, then a stable sort by value,
    orders every run of tied values.  An explicit per-entry `noise` vector
    breaks ties by ascending noise instead, which is ranking the continuized
    values v + U.
    """
    values = np.asarray(values, dtype=np.int64)
    if noise is None:
        perm = np.random.default_rng(rng).permutation(values.size)
        order = perm[np.argsort(values[perm], kind="stable")]
    else:
        order = np.lexsort((noise, values))  # ascending value, ties by noise
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(values.size, 0, -1)
    return ranks


def average_ranks_doubled(values) -> np.ndarray:
    """2 * average rank of every entry, as exact integers:
    1 + 2*(#greater) + (#equal)."""
    values = np.asarray(values, dtype=np.int64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    greater = values.size - np.cumsum(counts)
    return (1 + 2 * greater + counts)[inverse]


def average_ranks(values) -> np.ndarray:
    """Average ranks (ties share their mean rank); rank 1 = largest."""
    return average_ranks_doubled(values) / 2.0


def uniform_mean_rank_numerator(g: DirectedMultigraph, pair: DegreeTypePair) -> int:
    """sum (2Ra - (m+1))(2Rb - (m+1)) over the edge occurrences, with Ra, Rb
    the average ranks of their endpoint degrees: the exact tie-break mean of
    the uniform-rank Spearman is 3 times this over m^3 - m."""
    x, y = g.edge_degree_view(pair)
    m = x.size
    da = average_ranks_doubled(x) - (m + 1)
    db = average_ranks_doubled(y) - (m + 1)
    return sum(map(operator.mul, da.tolist(), db.tolist()))


def empirical_tie_aware_int(values) -> np.ndarray:
    """m * tie-aware empirical cdf at every entry: count(<= v) + count(< v)."""
    values = np.asarray(values, dtype=np.int64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    cum = np.cumsum(counts)
    return (cum + cum - counts)[inverse]


def kendall_naive(x, y) -> tuple[int, int]:
    """(concordant, discordant) pair counts by the O(m^2) definition.

    Compares every pair of rows directly; intended for m up to a few
    thousand.
    """
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    m = x.size
    concordant = discordant = 0
    block = 256
    for start in range(0, m, block):
        stop = min(start + block, m)
        dx = np.sign(x[start:stop, None] - x[None, :])
        dy = np.sign(y[start:stop, None] - y[None, :])
        prod = dx * dy
        concordant += int(np.count_nonzero(prod > 0))
        discordant += int(np.count_nonzero(prod < 0))
    return concordant // 2, discordant // 2


# ---------------------------------------------------------------------------
# Distribution forms on graphs
# ---------------------------------------------------------------------------


def endpoint_law(g: DirectedMultigraph, side: str, kind: str) -> Pmf:
    """The law of the `kind` degree at the `side` ("source" or "target")
    end of a uniformly sampled edge occurrence, tallied with np.unique."""
    values, counts = np.unique(g.degrees(kind)[g.src if side == "source" else g.dst],
                               return_counts=True)
    return Pmf(values, counts / g.edge_count)


def spearman_from_distributions(g: DirectedMultigraph, pair: DegreeTypePair) -> float:
    """Distribution form of Spearman's rho: 3 E[sF_a sF_b | G] - 3.

    sF_a, sF_b are the tie-aware cdfs of the empirical endpoint-degree
    marginals, evaluated at the sampled edge's degrees; integer counts and
    one exact rational division at the end.
    """
    x, y = g.edge_degree_view(pair)
    sfa = empirical_tie_aware_int(x)
    sfb = empirical_tie_aware_int(y)
    total = sum(map(operator.mul, sfa.tolist(), sfb.tolist()))
    return float(Fraction(3 * total, sfa.size**3) - 3)


def kendall_from_distributions(g: DirectedMultigraph, pair: DegreeTypePair) -> float:
    """Distribution form of Kendall's tau: E[sH(d_a, d_b) | G] - 1.

    sH is the tie-aware joint cdf of the empirical edge joint, evaluated at
    the sampled edge itself.  Exact integer counts; equals
    2 (N_C - N_D) / m^2, the pair estimator with an occurrence-squared
    denominator.
    """
    x, y = g.edge_degree_view(pair)
    ux, ix = np.unique(x, return_inverse=True)
    uy, iy = np.unique(y, return_inverse=True)
    grid = np.zeros((ux.size, uy.size), dtype=np.int64)
    np.add.at(grid, (ix, iy), 1)
    # below[i, j] counts the occurrences with x index < i and y index < j;
    # with integer data, count(<= v - 1) is count(< v)
    below = np.zeros((grid.shape[0] + 1, grid.shape[1] + 1), dtype=np.int64)
    np.cumsum(np.cumsum(grid, axis=0), axis=1, out=below[1:, 1:])
    tie_aware = below[1:, 1:] + below[:-1, 1:] + below[1:, :-1] + below[:-1, :-1]
    return float(Fraction(int(np.vdot(grid, tie_aware)), ix.size**2) - 1)


# ---------------------------------------------------------------------------
# Joint cdf and continuization identities of integer laws
# ---------------------------------------------------------------------------


def joint_cdf(joint: JointPmf, k, l):
    """H(k, l) = P(X <= k, Y <= l); scalars or broadcastable arrays.

    Read from a dense cumulative grid over the distinct x and y values, with
    a leading zero row and column.
    """
    ux, ix = np.unique(joint.xs, return_inverse=True)
    uy, iy = np.unique(joint.ys, return_inverse=True)
    grid = np.zeros((ux.size + 1, uy.size + 1))
    np.add.at(grid, (ix + 1, iy + 1), joint.probs)
    cum = grid.cumsum(axis=0).cumsum(axis=1)
    val = cum[np.searchsorted(ux, k, side="right"), np.searchsorted(uy, l, side="right")]
    return val.item() if np.ndim(val) == 0 else val


def tie_aware_joint_cdf(joint: JointPmf, k, l):
    """H(k,l) + H(k-1,l) + H(k,l-1) + H(k-1,l-1); ranges over [0, 4]."""
    k = np.asarray(k)
    l = np.asarray(l)
    val = (joint_cdf(joint, k, l) + joint_cdf(joint, k - 1, l)
           + joint_cdf(joint, k, l - 1) + joint_cdf(joint, k - 1, l - 1))
    return float(val) if np.ndim(val) == 0 else val


def continuized_cdf(p: Pmf, x):
    """Cdf of X + U: on [k, k+1) it is (x - k) F(k) + (k + 1 - x) F(k - 1),
    so it equals F(k - 1) at x = k and tends to F(k) as x approaches k + 1."""
    x = np.asarray(x, dtype=np.float64)
    k = np.floor(x).astype(np.int64)
    val = (x - k) * p.cdf(k) + (k + 1 - x) * p.cdf(k - 1)
    return val.item() if np.ndim(val) == 0 else val


def continuized_moment(p: Pmf, m: int) -> float:
    """E[F~(X~)^m] for the continuization X~ = X + U, by integration.

    On each interval [k, k+1) the cdf is linear and the continuized law has
    density P(X = k), so the contribution is the exact polynomial integral
    (F(k)^(m+1) - F(k-1)^(m+1)) / (m + 1).
    """
    hi = p.cdf(p.support) ** (m + 1)
    lo = p.cdf(p.support - 1) ** (m + 1)
    return float(np.sum(hi - lo)) / (m + 1)


def discrete_moment_sum(p: Pmf, m: int) -> float:
    """(1/(m+1)) sum_i E[F(X)^i F(X-1)^(m-i)], by direct summation; equals
    `continuized_moment` for every law."""
    cum = p.cdf(p.support)
    cum_prev = p.cdf(p.support - 1)
    total = 0.0
    for i in range(m + 1):
        total += float(np.dot(p.probs, cum**i * cum_prev ** (m - i)))
    return total / (m + 1)


def joint_continuized_product(joint: JointPmf) -> float:
    """E[F~_X(X~) F~_Y(Y~)] by exact per-cell integration of the linear cdfs;
    equals one quarter of E[sF_X(X) sF_Y(Y)]."""

    def cell_integrals(marg: Pmf, values: np.ndarray) -> np.ndarray:
        # integral over [k, k+1) of the linear cdf piece, per unit length:
        # (F(k)^2 - F(k-1)^2) / (2 P(k)), with P(k) > 0 on every joint cell
        hi = np.asarray(marg.cdf(values))
        lo = np.asarray(marg.cdf(values - 1))
        return (hi**2 - lo**2) / (2.0 * (hi - lo))

    ix = cell_integrals(joint.marginal_x(), joint.xs)
    iy = cell_integrals(joint.marginal_y(), joint.ys)
    return float(np.dot(joint.probs, ix * iy))


def continuized_joint_cdf_mean(joint: JointPmf) -> float:
    """E[H~(X~, Y~)] for the continuized pair, by exact per-cell integration
    of the bilinear joint-cdf piece; equals E[sH(X, Y)] / 4."""
    xs, ys = joint.xs, joint.ys
    h11 = np.asarray(joint_cdf(joint, xs, ys))
    h01 = np.asarray(joint_cdf(joint, xs - 1, ys))
    h10 = np.asarray(joint_cdf(joint, xs, ys - 1))
    h00 = np.asarray(joint_cdf(joint, xs - 1, ys - 1))
    # cell value = H(k-1,l-1) + (P(X<=k-1,Y=l) + P(X=k,Y<=l-1))/2 + P(X=k,Y=l)/4
    cell = h00 + 0.5 * ((h01 - h00) + (h10 - h00)) + 0.25 * (h11 - h10 - h01 + h00)
    return float(np.dot(joint.probs, cell))
