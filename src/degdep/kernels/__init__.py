"""Weighted inversion counting for merge counts of concordant pairs (pure numpy).

`count_inversions(seq, weights=None)` sums w_i * w_j over the inverted pairs
i < j with seq[i] > seq[j] (every weight 1 when none are given).  It has two
callers, each counting over distinct atoms or cells rather than occurrences:
`degdep.correlations.PairTable` for raw pair data too wide for a dense count
table (integer cell counts, exact), and `degdep.pmf.kendall_population`
(atom probabilities).  Both look it up here at call time.
"""

from ._fallback import count_inversions

# name of the implementation in use, for run reports; there is one
BACKEND = "python"
