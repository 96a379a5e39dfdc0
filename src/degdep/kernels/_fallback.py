"""Pure-numpy inversion counting: pairs i < j with seq[i] > seq[j].

The algorithm is a bottom-up merge count (Knight 1966) where every level
merges all block pairs at once through one lexsort, so the Python-level loop
runs O(log m) times instead of O(m).
"""

import numpy as np


def count_inversions(seq) -> int:
    """Number of strict inversions in an integer sequence."""
    cur = np.ascontiguousarray(seq, dtype=np.int64)
    m = cur.size
    if m < 2:
        return 0
    pos = np.arange(m)
    total = 0
    width = 1
    while width < m:
        pair = pos // (2 * width)
        side = (pos // width) & 1
        # Merge every (left, right) block pair at once: sort by pair id, then
        # value; equal values put the left block first so ties never count.
        order = np.lexsort((side, cur, pair))
        cur = cur[order]
        is_left = side[order] == 0
        pair_sorted = pair[order]

        starts = np.flatnonzero(np.r_[True, pair_sorted[1:] != pair_sorted[:-1]])
        counts = np.diff(np.r_[starts, m])
        excl_left = np.cumsum(is_left) - is_left
        left_before = excl_left - np.repeat(excl_left[starts], counts)
        lefts_in_pair = np.repeat(np.add.reduceat(is_left, starts), counts)
        # A right-block element is inverted with every strictly greater
        # element of its left block, i.e. the left elements placed after it.
        total += int(np.sum((lefts_in_pair - left_before)[~is_left]))
        width *= 2
    return total
