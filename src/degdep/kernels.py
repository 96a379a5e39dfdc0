"""Weighted inversion counting for merge counts of concordant pairs (pure numpy).

`count_inversions(seq, weights=None)` sums w_i * w_j over the inverted pairs
i < j with seq[i] > seq[j] (every weight 1 when none are given).  It has two
callers, each counting over distinct atoms or cells rather than occurrences:
`degdep.correlations.PairTable` (integer cell counts, exact) for every
sample Kendall's tau, and `degdep.pmf.kendall_population` (atom
probabilities).  Both look it up here at call time.

The algorithm is a bottom-up merge count (Knight 1966) where every level
merges all block pairs at once through one stable sort, so the Python-level
loop runs O(log m) times instead of O(m).
"""

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# 3e9^2 < 2^63, with room for the rounding of a float sum of the weights
_INT_WEIGHT_LIMIT = 3.0e9

# name of the implementation in use, for run reports; there is one
BACKEND = "python"


def _as_weights(weights, m: int) -> np.ndarray:
    w = np.asarray(weights)
    if w.shape != (m,):
        raise ValueError("weights must match seq in length")
    if np.issubdtype(w.dtype, np.integer):
        # every partial sum is at most (sum |w|)^2, which must fit int64
        if float(np.abs(w, dtype=np.float64).sum()) > _INT_WEIGHT_LIMIT:
            raise ValueError("integer weights too large: (sum |w|)^2 exceeds int64")
        return w.astype(np.int64, copy=False)
    return w.astype(np.float64, copy=False)


def count_inversions(seq, weights=None):
    """Weighted number of strict inversions in an integer sequence.

    Without weights every pair weighs 1, so the result is the plain
    inversion count.  Integer weights give an exact Python int, float
    weights a float.
    """
    cur = np.ascontiguousarray(seq, dtype=np.int64)
    m = cur.size
    w = np.ones(m, dtype=np.int64) if weights is None else _as_weights(weights, m)
    zero = w.dtype.type(0)
    if m < 2:
        return zero.item()
    # Only the order of the values matters: they are shifted to start at 0
    # and, when they span more than m, replaced by their dense ranks, so the
    # per-level sort key block * span + value stays below m * span <= m^2.
    lo = int(cur.min())
    span = int(cur.max()) - lo + 1
    if span > m:
        uniq, cur = np.unique(cur, return_inverse=True)
        span = uniq.size
    else:
        cur = cur - lo
    if m * span > _INT64_MAX:
        raise ValueError("sequence too long for int64 merge keys")
    pos = np.arange(m)
    total = zero.item()
    width = 1
    while width < m:
        block = pos // (2 * width)
        # Merge every (left, right) block pair at once.  The left block
        # precedes the right one, so a stable sort on (block, value) puts
        # equal values left first and ties never count.
        order = np.argsort(block * span + cur, kind="stable")
        cur, w = cur[order], w[order]
        right = ((order // width) & 1).astype(bool)
        left_w = np.where(right, zero, w)
        left_cum = np.concatenate(([zero], np.cumsum(left_w)))
        # A right element is inverted with every strictly greater element of
        # its left block, i.e. the left elements placed after it in the pair.
        block_end = np.minimum((block + 1) * (2 * width), m)
        greater = left_cum[block_end[right]] - left_cum[1:][right]
        # multiply and sum, not np.dot: a float dot of this length goes to a
        # threaded BLAS, whose start-up can cost more than the whole level
        total += np.sum(w[right] * greater).item()
        width *= 2
    return total
