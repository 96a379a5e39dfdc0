"""Independent reference values for the benchmark's correctness checks.

Nothing here imports degdep.  Measures of an edge list are computed from a
table of distinct (source-side degree, target-side degree) pairs with exact
Python integers; population values of a joint law given by integer weights
are exact rationals.  Only the last float rounding of each reported value
follows the program's documented recipe, so that results can be compared
for equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

PAIRS = {"out-in": ("out", "in"), "in-out": ("in", "out"),
         "out-out": ("out", "out"), "in-in": ("in", "in")}

# One tie-break draw of the uniform-rank Spearman scatters around its exact
# expectation with a standard deviation below 0.85 / sqrt(m) on ecm zeta:2.5
# graphs (200 draws at m = 3.7e4, 12 at m = 1.9e6); a draw is accepted
# within ten of those.
UNIFORM_DRAW_SPREAD = 8.0

# The program sums centered ranks exactly only up to this many edge
# occurrences, and Pearson moments only while m * max|v|^2 < 2^62; past them
# it uses float sums, which the checks accept to this relative tolerance.
EXACT_RANK_LIMIT = 2_000_000
FLOAT_PATH_RTOL = 1e-12


def read_edges(path) -> tuple[np.ndarray, np.ndarray]:
    """The 'src<TAB>dst' lines of a generated edge list as two arrays."""
    data = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    return data[:, 0], data[:, 1]


def degree_pairs(src, dst, label: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-occurrence endpoint degrees for a pair label such as 'out-in'."""
    n = int(max(src.max(), dst.max())) + 1
    degree = {"out": np.bincount(src, minlength=n), "in": np.bincount(dst, minlength=n)}
    alpha, beta = PAIRS[label]
    return degree[alpha][src], degree[beta][dst]


def _doubled_centered_ranks(values: np.ndarray, counts: np.ndarray, m: int) -> list[int]:
    """2 * average rank - (m + 1) per distinct value (rank 1 = largest)."""
    greater = m - np.cumsum(counts)
    return [int(v) for v in 1 + 2 * greater + counts - (m + 1)]


def exact_stats(x, y) -> dict:
    """Exact integer sums behind every measure of the pairs (x_i, y_i)."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    m = int(x.size)
    span = int(y.max()) + 1
    keys, cell = np.unique(x * span + y, return_counts=True)
    cx, cy = keys // span, keys % span
    ux, ix = np.unique(cx, return_inverse=True)
    uy, iy = np.unique(cy, return_inverse=True)
    wx = np.bincount(ix, weights=cell).astype(np.int64)
    wy = np.bincount(iy, weights=cell).astype(np.int64)

    # Kendall: every count and product below is at most m^2 < 2^63.
    if m * m >= 2**62:
        raise ValueError("edge list too large for the int64 pair table")
    grid = np.zeros((ux.size + 1, uy.size + 1), dtype=np.int64)
    grid[ix + 1, iy + 1] = cell
    cum = grid.cumsum(axis=0).cumsum(axis=1)
    lower_left = cum[ix, iy]                      # x' < x and y' < y
    upper_left = cum[ix, -1] - cum[ix, iy + 1]    # x' < x and y' > y
    concordant = int(np.dot(cell, lower_left))
    discordant = int(np.dot(cell, upper_left))

    dx = _doubled_centered_ranks(ux, wx, m)
    dy = _doubled_centered_ranks(uy, wy, m)
    cells = list(zip(ix.tolist(), iy.tolist(), cx.tolist(), cy.tolist(), cell.tolist()))
    return {
        "m": m,
        "concordant": concordant,
        "discordant": discordant,
        "rank_num": sum(c * dx[i] * dy[j] for i, j, _, _, c in cells),
        "rank_var_x": sum(int(c) * d * d for c, d in zip(wx.tolist(), dx)),
        "rank_var_y": sum(int(c) * d * d for c, d in zip(wy.tolist(), dy)),
        "sx": sum(c * a for _, _, a, _, c in cells),
        "sy": sum(c * b for _, _, _, b, c in cells),
        "sxx": sum(c * a * a for _, _, a, _, c in cells),
        "syy": sum(c * b * b for _, _, _, b, c in cells),
        "sxy": sum(c * a * b for _, _, a, b, c in cells),
        "max_abs": max(int(np.abs(x).max()), int(np.abs(y).max()), 1),
        "distinct_x": int(ux.size),
        "distinct_y": int(uy.size),
    }


def _correlation(num: int, var_a: int, var_b: int) -> float | None:
    """num / sqrt(var_a var_b), rounded as the program documents it."""
    if var_a == 0 or var_b == 0:
        return None
    prod = var_a * var_b
    root = math.isqrt(prod)
    denom = root if root * root == prod else math.sqrt(prod)
    return min(1.0, max(-1.0, num / denom))


def expected_measures(stats: dict) -> dict:
    """Reference values: exact Kendall, average-rank Spearman and Pearson,
    plus the exact tie-break expectation of the uniform-rank Spearman."""
    m = stats["m"]
    var_x = m * stats["sxx"] - stats["sx"] ** 2
    var_y = m * stats["syy"] - stats["sy"] ** 2
    return {
        "kendall": float(Fraction(2 * (stats["concordant"] - stats["discordant"]), m * (m - 1))),
        "spearman_average": _correlation(
            stats["rank_num"], stats["rank_var_x"], stats["rank_var_y"]),
        "pearson": _correlation(m * stats["sxy"] - stats["sx"] * stats["sy"], var_x, var_y),
        "spearman_uniform_mean": float(Fraction(3 * stats["rank_num"], m**3 - m)),
        "degenerate_source": stats["distinct_x"] == 1,
        "degenerate_target": stats["distinct_y"] == 1,
    }


def _float_path(stats: dict, measure: str) -> bool:
    if measure == "spearman_average":
        return stats["m"] > EXACT_RANK_LIMIT
    if measure == "pearson":
        return stats["m"] * stats["max_abs"] ** 2 >= 2**62
    return False


def check_pair(label: str, reported: dict, stats: dict) -> list[str]:
    """Problems with one pair of a `measure` report; empty when it is right."""
    want = expected_measures(stats)
    problems = []
    for measure in ("kendall", "spearman_average", "pearson"):
        got, ref = reported.get(measure), want[measure]
        if got == ref:
            continue
        if (_float_path(stats, measure) and got is not None and ref is not None
                and abs(got - ref) <= FLOAT_PATH_RTOL * abs(ref)):
            continue
        problems.append(f"{label} {measure}: reported {got!r}, exact {ref!r}")
    got = reported.get("spearman_uniform")
    mean = want["spearman_uniform_mean"]
    tol = UNIFORM_DRAW_SPREAD / math.sqrt(stats["m"])
    if got is None or abs(got - mean) > tol:
        problems.append(f"{label} spearman_uniform: {got!r} is not within "
                        f"{tol:.3g} of its tie-break mean {mean!r}")
    for flag in ("degenerate_source", "degenerate_target"):
        if reported.get(flag) != want[flag]:
            problems.append(f"{label} {flag}: reported {reported.get(flag)!r}")
    return problems


# ---------------------------------------------------------------------------
# Population values of a joint law given by positive integer weights
# ---------------------------------------------------------------------------


def _cumulative(values, weights) -> dict:
    """value -> (weight at value, weight strictly below, weight at or below)."""
    total: dict[int, int] = {}
    for v, w in zip(values, weights):
        total[v] = total.get(v, 0) + w
    out, below = {}, 0
    for v in sorted(total):
        out[v] = (total[v], below, below + total[v])
        below += total[v]
    return out


def _kendall_weighted(xs, ys, ws) -> Fraction:
    """P(concordant) - P(discordant) for two independent draws, by a Fenwick
    tree over y ranks with x-ties grouped (the tau of an integer pair)."""
    ranks = {v: i + 1 for i, v in enumerate(sorted(set(ys)))}
    tree = [0] * (len(ranks) + 1)

    def prefix(i):
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    order = sorted(range(len(xs)), key=lambda k: xs[k])
    concordant = discordant = seen = 0
    start = 0
    while start < len(order):
        stop = start
        while stop < len(order) and xs[order[stop]] == xs[order[start]]:
            stop += 1
        group = order[start:stop]
        for k in group:
            r = ranks[ys[k]]
            concordant += ws[k] * prefix(r - 1)
            discordant += ws[k] * (seen - prefix(r))
        for k in group:
            i = ranks[ys[k]]
            while i < len(tree):
                tree[i] += ws[k]
                i += i & -i
            seen += ws[k]
        start = stop
    total = sum(ws)
    return Fraction(2 * (concordant - discordant), total * total)


def population_values(xs, ys, ws) -> dict:
    """Exact population Spearman rho, its average-rank limit and Kendall tau."""
    total = sum(ws)
    fx = _cumulative(xs, ws)
    fy = _cumulative(ys, ws)
    # tie-aware cdf F(k) + F(k - 1), scaled by the total weight
    tie_x = {v: below + upto for v, (_, below, upto) in fx.items()}
    tie_y = {v: below + upto for v, (_, below, upto) in fy.items()}
    moment = sum(w * tie_x[x] * tie_y[y] for x, y, w in zip(xs, ys, ws))
    rho = Fraction(3 * moment, total**3) - 3

    def s_factor(cum):
        return Fraction(sum(w * below * upto for w, below, upto in cum.values()), total**3)

    return {
        "spearman_uniform": float(rho),
        "spearman_average": float(rho) / (3.0 * math.sqrt(s_factor(fx) * s_factor(fy))),
        "kendall": float(_kendall_weighted(xs, ys, ws)),
    }
