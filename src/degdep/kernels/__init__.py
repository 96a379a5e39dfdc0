"""Inversion counting for the merge count of concordant pairs (pure numpy).

Only data too wide for a dense count table reaches it; see
`degdep.correlations.PairTable`.
"""

from ._fallback import count_inversions

# name of the implementation in use, for run reports; there is one
BACKEND = "python"
