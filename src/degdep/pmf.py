"""Finite-support integer probability laws and exact rank-dependence functionals.

This module is the oracle layer of the package: every quantity is computed by
finite summation or closed-form piecewise-polynomial integration, never by
sampling.  The central objects are probability mass functions on the integers
(:class:`Pmf`, :class:`JointPmf`) together with the tie-aware cdf functionals

    tie_aware_cdf(k)          = F(k) + F(k - 1)
    tie_aware_joint_cdf(k, l) = H(k,l) + H(k-1,l) + H(k,l-1) + H(k-1,l-1)

that underlie Spearman and Kendall correlations for integer-valued data, and
the continuization X + U (U uniform on [0, 1)) that links the discrete and
continuous pictures.  The population correlation values computed here are the
limits that the graph estimators in :mod:`degdep.correlations` are tested
against.  They are sums over the atoms of a joint law: population Kendall's
tau is a probability-weighted merge count of the atoms (`degdep.kernels`),
and the dense joint-cdf grid over all distinct x and y values is built only
on the first `JointPmf.cdf` call.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import kernels

__all__ = [
    "ConfigError",
    "DegenerateLawError",
    "Pmf",
    "JointPmf",
    "ContinuizedCdf",
    "spearman_population",
    "kendall_population",
    "s_factor",
    "spearman_average_limit",
    "continuized_moment",
    "discrete_moment_sum",
    "joint_continuized_product",
    "continuized_joint_cdf_mean",
    "size_biased",
    "tv_distance",
    "parse_law",
    "read_pmf",
    "write_pmf",
    "DEFAULT_ZETA_KMAX",
]

# Input tolerance for sum-to-one; inputs inside it are renormalized exactly.
_SUM_TOL = 1e-9

# Named laws with unbounded support are truncated once the point mass drops
# below this threshold, then renormalized.
_LAW_MASS_EPS = 1e-12

DEFAULT_ZETA_KMAX = 1_000_000
_ZETA_KMAX_ENV = "DEGDEP_ZETA_KMAX"


class ConfigError(ValueError):
    """A value the caller supplied is out of range, unknown or malformed.

    Raised by every library check on an argument; malformed data read from a
    file raises a plain ValueError instead.  The command line maps it to
    exit code 1.
    """


class DegenerateLawError(ConfigError):
    """An operation required a marginal that is not a single point mass."""


def require_at_least(name: str, value: int, least: int = 1) -> None:
    """ConfigError unless value >= least."""
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def require_known(name: str, given, known) -> tuple:
    """The given labels as a tuple; ConfigError when there are none or one
    is not among `known`."""
    given = tuple(given)
    if not given:
        raise ConfigError(f"{name} must name at least one of {', '.join(known)}, got none")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name}: {unknown}; known: {', '.join(known)}")
    return given


def as_int_array(values, name: str) -> np.ndarray:
    """`values` as a one-dimensional int64 array, not copied if it is one.

    ValueError unless every entry is an integer int64 holds: a float must be
    whole and of magnitude below 2**63, which a cast would otherwise turn
    into -2**63 as it does nan and inf.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.can_cast(arr.dtype, np.int64) and not (
        arr.dtype.kind in "uf" and np.all((arr == np.rint(arr)) & (np.abs(arr) < 2.0**63))
    ):
        raise ValueError(f"{name} must be integers of magnitude below 2**63")
    return arr.astype(np.int64, copy=False)


def _normalize(probs, name: str) -> np.ndarray:
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all((p > 0) & (p < np.inf)):
        raise ValueError(f"{name} must be finite and strictly positive")
    total = float(p.sum())
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"{name} sum to {total}, not 1 within {_SUM_TOL}")
    return p / total


@dataclass(frozen=True, eq=False)
class Pmf:
    """Probability mass function with finite support on the integers.

    The support is strictly ascending and every atom carries positive mass.
    Probabilities are renormalized on construction (inputs must sum to one
    within 1e-9, which tolerates text-file round-off).  Instances are
    immutable and safe to share across threads.
    """

    support: np.ndarray
    probs: np.ndarray
    _cum_pad: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writable
        support = as_int_array(self.support, "support").copy()
        if support.size == 0:
            raise ValueError("support must be nonempty")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly ascending")
        probs = _normalize(self.probs, "probs")
        if probs.size != support.size:
            raise ValueError("support and probs must have the same length")
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        for attr, val in (
            ("support", support),
            ("probs", probs),
            ("_cum_pad", np.concatenate(([0.0], cum))),
        ):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)

    @classmethod
    def from_pairs(cls, pairs) -> "Pmf":
        """Build from an iterable of (value, probability) pairs or a dict."""
        items = sorted(pairs.items() if isinstance(pairs, dict) else pairs)
        values = [v for v, _ in items]
        if len(set(values)) != len(values):
            raise ValueError("duplicate support values")
        return cls(np.array(values), np.array([p for _, p in items]))

    @property
    def is_point_mass(self) -> bool:
        return self.support.size == 1

    def prob(self, k):
        """P(X = k); accepts a scalar or an integer array."""
        idx = np.searchsorted(self.support, k)
        idx_c = np.minimum(idx, self.support.size - 1)
        val = np.where(self.support[idx_c] == k, self.probs[idx_c], 0.0)
        return val.item() if np.ndim(val) == 0 else val

    def cdf(self, k):
        """P(X <= k); 0 below the support, 1 at and above its maximum."""
        val = self._cum_pad[np.searchsorted(self.support, k, side="right")]
        return val.item() if np.ndim(val) == 0 else val

    def tie_aware_cdf(self, k):
        """F(k) + F(k - 1), the tie-aware cdf weight; ranges over [0, 2]."""
        return self.cdf(k) + self.cdf(np.asarray(k) - 1 if np.ndim(k) else k - 1)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def continuize(self) -> "ContinuizedCdf":
        return ContinuizedCdf(self)

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw `size` iid values by inverse-cdf lookup; deterministic per rng."""
        rng = np.random.default_rng(rng)
        idx = np.searchsorted(self._cum_pad[1:], rng.random(size), side="right")
        return self.support[np.minimum(idx, self.support.size - 1)]


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint probability mass function of an integer pair (X, Y).

    Stored as parallel arrays (xs, ys, probs) sorted lexicographically.  The
    first `cdf` call builds a dense cumulative grid over the distinct values
    of each coordinate, for O(1) joint-cdf lookups after it; the population
    functionals read the atoms alone, so their memory grows with the number
    of atoms, not with the product of the distinct value counts.
    """

    xs: np.ndarray
    ys: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        xs = as_int_array(self.xs, "xs")
        ys = as_int_array(self.ys, "ys")
        if xs.size != ys.size:
            raise ValueError("xs and ys must have the same length")
        if xs.size == 0:
            raise ValueError("joint support must be nonempty")
        probs = _normalize(self.probs, "probs")
        if probs.size != xs.size:
            raise ValueError("probs must match the support length")
        order = np.lexsort((ys, xs))
        xs, ys, probs = xs[order], ys[order], probs[order]
        # sorted, so a repeated (x, y) entry sits next to its twin
        if np.any((xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])):
            raise ValueError("duplicate (x, y) entries")
        for attr, val in (("xs", xs), ("ys", ys), ("probs", probs)):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)

    @cached_property
    def _ux(self) -> np.ndarray:
        return np.unique(self.xs)

    @cached_property
    def _uy(self) -> np.ndarray:
        return np.unique(self.ys)

    @cached_property
    def _cum_grid(self) -> np.ndarray:
        """H over (distinct x, distinct y) with a leading zero row and
        column, so entry (i, j) is P(X <= ux[i-1], Y <= uy[j-1])."""
        ix = np.searchsorted(self._ux, self.xs)
        iy = np.searchsorted(self._uy, self.ys)
        grid = np.zeros((self._ux.size + 1, self._uy.size + 1))
        np.add.at(grid, (ix + 1, iy + 1), self.probs)
        cum = grid.cumsum(axis=0).cumsum(axis=1)
        cum.setflags(write=False)
        return cum

    @classmethod
    def from_entries(cls, entries) -> "JointPmf":
        """Build from a {(x, y): probability} mapping or iterable of pairs."""
        items = list(entries.items() if isinstance(entries, dict) else entries)
        xs = np.array([k for (k, _), _ in items])
        ys = np.array([l for (_, l), _ in items])
        probs = np.array([p for _, p in items])
        return cls(xs, ys, probs)

    @classmethod
    def product(cls, px: Pmf, py: Pmf) -> "JointPmf":
        """Independent product joint of two marginal laws."""
        xs = np.repeat(px.support, py.support.size)
        ys = np.tile(py.support, px.support.size)
        probs = np.outer(px.probs, py.probs).ravel()
        return cls(xs, ys, probs)

    def marginal_x(self) -> Pmf:
        ux, inv = np.unique(self.xs, return_inverse=True)
        return Pmf(ux, np.bincount(inv, weights=self.probs))

    def marginal_y(self) -> Pmf:
        uy, inv = np.unique(self.ys, return_inverse=True)
        return Pmf(uy, np.bincount(inv, weights=self.probs))

    def cdf(self, k, l):
        """H(k, l) = P(X <= k, Y <= l); scalars or broadcastable arrays."""
        i = np.searchsorted(self._ux, k, side="right")
        j = np.searchsorted(self._uy, l, side="right")
        val = self._cum_grid[i, j]
        return val.item() if np.ndim(val) == 0 else val

    def tie_aware_joint_cdf(self, k, l):
        """H(k,l) + H(k-1,l) + H(k,l-1) + H(k-1,l-1); ranges over [0, 4]."""
        k = np.asarray(k)
        l = np.asarray(l)
        val = (
            self.cdf(k, l)
            + self.cdf(k - 1, l)
            + self.cdf(k, l - 1)
            + self.cdf(k - 1, l - 1)
        )
        return float(val) if np.ndim(val) == 0 else val

    def sample(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw `size` iid (x, y) pairs; returns two aligned arrays."""
        rng = np.random.default_rng(rng)
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        idx = np.minimum(idx, self.probs.size - 1)
        return self.xs[idx], self.ys[idx]


@dataclass(frozen=True)
class ContinuizedCdf:
    """Cdf of X + U with U uniform on [0, 1): piecewise linear between integers.

    On [k, k+1) the value is (x - k) F(k) + (k + 1 - x) F(k - 1), so it equals
    F(k - 1) at x = k and tends to F(k) as x approaches k + 1.
    """

    base: Pmf

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        k = np.floor(x).astype(np.int64)
        val = (x - k) * self.base.cdf(k) + (k + 1 - x) * self.base.cdf(k - 1)
        return val.item() if np.ndim(val) == 0 else val


# ---------------------------------------------------------------------------
# Exact population functionals
# ---------------------------------------------------------------------------


def _require_nondegenerate(p: Pmf, what: str) -> None:
    if p.is_point_mass:
        raise DegenerateLawError(f"{what} is a point mass")


def spearman_population(joint: JointPmf) -> float:
    """Population Spearman's rho of an integer pair: 3 E[sF_X(X) sF_Y(Y)] - 3.

    sF is the tie-aware cdf F(k) + F(k-1).  Computed exactly by summation
    over the joint support; requires both marginals to be non-degenerate.
    """
    mx, my = joint.marginal_x(), joint.marginal_y()
    _require_nondegenerate(mx, "X marginal")
    _require_nondegenerate(my, "Y marginal")
    # multiply in place and sum, not np.dot: a float dot of a long vector
    # goes to a threaded BLAS, whose start-up can cost more than the sum
    weighted = mx.tie_aware_cdf(joint.xs)
    weighted *= my.tie_aware_cdf(joint.ys)
    weighted *= joint.probs
    return 3.0 * float(np.sum(weighted)) - 3.0


def kendall_population(joint: JointPmf) -> float:
    """Population Kendall's tau of an integer pair: P_C - P_D = E[sH(X, Y)] - 1.

    P_C and P_D are the probabilities that two independent draws are
    concordant and discordant.  With the atoms in (x, y) order, the
    discordant ordered pairs are the probability-weighted inversions of the
    y sequence, so P_D = 2 * inversions.  Every pair tied in neither
    coordinate is one or the other, and distinct atoms never tie in both:
    P_C + P_D = 1 - P(X = X') - P(Y = Y') + sum p^2.
    """
    discordant = 2.0 * kernels.count_inversions(joint.ys, joint.probs)
    px, py, p = joint.marginal_x().probs, joint.marginal_y().probs, joint.probs
    untied = 1.0 - float(np.sum(px * px)) - float(np.sum(py * py)) + float(np.sum(p * p))
    return untied - 2.0 * discordant


def s_factor(p: Pmf) -> float:
    """E[F(X) F(X - 1)], the tie-mass factor in the average-rank limit.

    Zero exactly for point masses, at most 1, and increasing toward 1 as the
    law spreads out (ties become negligible).
    """
    weighted = p._cum_pad[1:] * p._cum_pad[:-1]
    weighted *= p.probs
    return float(np.sum(weighted))


def spearman_average_limit(joint: JointPmf) -> float:
    """Limit of the average-rank Spearman estimator: rho / (3 sqrt(S_X S_Y))."""
    rho = spearman_population(joint)
    sx = s_factor(joint.marginal_x())
    sy = s_factor(joint.marginal_y())
    if sx <= 0.0 or sy <= 0.0:
        raise DegenerateLawError("average-rank limit undefined for point-mass marginal")
    return float(rho / (3.0 * np.sqrt(sx * sy)))


def continuized_moment(p: Pmf, m: int) -> float:
    """E[F~(X~)^m] for the continuization X~ = X + U, computed by integration.

    On each interval [k, k+1) the cdf is linear and the continuized law has
    density P(X = k), so the contribution is the exact polynomial integral
    (F(k)^(m+1) - F(k-1)^(m+1)) / (m + 1).
    """
    if m < 1:
        raise ValueError("moment order must be >= 1")
    hi = p._cum_pad[1:] ** (m + 1)
    lo = p._cum_pad[:-1] ** (m + 1)
    return float(np.sum(hi - lo)) / (m + 1)


def discrete_moment_sum(p: Pmf, m: int) -> float:
    """(1/(m+1)) sum_i E[F(X)^i F(X-1)^(m-i)], by direct summation.

    Equals :func:`continuized_moment` for every law; the two are kept as
    independent computations so the identity can be tested.
    """
    if m < 1:
        raise ValueError("moment order must be >= 1")
    cum = p._cum_pad[1:]
    cum_prev = p._cum_pad[:-1]
    total = 0.0
    for i in range(m + 1):
        total += float(np.dot(p.probs, cum**i * cum_prev ** (m - i)))
    return total / (m + 1)


def joint_continuized_product(joint: JointPmf) -> float:
    """E[F~_X(X~) F~_Y(Y~)] by exact per-cell integration of the linear cdfs.

    Equals one quarter of E[sF_X(X) sF_Y(Y)]; kept as an independent route so
    the quarter identity (and through it the Spearman representation) can be
    tested.
    """
    mx, my = joint.marginal_x(), joint.marginal_y()

    def cell_integrals(marg: Pmf, values: np.ndarray) -> np.ndarray:
        # integral over [k, k+1) of the linear cdf piece, per unit length:
        # (F(k)^2 - F(k-1)^2) / (2 P(k)), with P(k) > 0 on every joint cell
        hi = np.asarray(marg.cdf(values))
        lo = np.asarray(marg.cdf(values - 1))
        return (hi**2 - lo**2) / (2.0 * (hi - lo))

    ix = cell_integrals(mx, joint.xs)
    iy = cell_integrals(my, joint.ys)
    return float(np.dot(joint.probs, ix * iy))


def continuized_joint_cdf_mean(joint: JointPmf) -> float:
    """E[H~(X~, Y~)] for the continuized pair, by exact per-cell integration.

    Integrating the bilinear joint-cdf piece over each unit cell gives the
    probability-decomposition form below; equals E[sH(X, Y)] / 4.
    """
    xs, ys = joint.xs, joint.ys
    h11 = np.asarray(joint.cdf(xs, ys))
    h01 = np.asarray(joint.cdf(xs - 1, ys))
    h10 = np.asarray(joint.cdf(xs, ys - 1))
    h00 = np.asarray(joint.cdf(xs - 1, ys - 1))
    # cell value = H(k-1,l-1) + (P(X<=k-1,Y=l) + P(X=k,Y<=l-1))/2 + P(X=k,Y=l)/4
    cell = h00 + 0.5 * ((h01 - h00) + (h10 - h00)) + 0.25 * (h11 - h10 - h01 + h00)
    return float(np.dot(joint.probs, cell))


def size_biased(p: Pmf) -> Pmf:
    """Size-biased version of a law: P'(k) = k P(k) / E[X]; drops a zero atom."""
    mean = p.mean()
    if mean <= 0.0:
        raise DegenerateLawError("size-biasing requires a positive mean")
    if np.any(p.support < 0):
        raise ConfigError("size-biasing requires non-negative support")
    mask = p.support > 0
    return Pmf(p.support[mask], p.support[mask] * p.probs[mask] / mean)


def tv_distance(p: Pmf, q: Pmf) -> float:
    """Total-variation distance between two finite-support laws."""
    support = np.union1d(p.support, q.support)
    return 0.5 * float(np.sum(np.abs(p.prob(support) - q.prob(support))))


# ---------------------------------------------------------------------------
# Named laws and the text tables (laws here, edge lists in degdep.digraph)
# ---------------------------------------------------------------------------


def _zeta_kmax(explicit: int | None) -> int:
    if explicit is not None:
        kmax = int(explicit)
    else:
        kmax = int(os.environ.get(_ZETA_KMAX_ENV, DEFAULT_ZETA_KMAX))
    if kmax < 1:
        raise ValueError("zeta k_max must be >= 1")
    return kmax


def parse_law(text: str, *, zeta_kmax: int | None = None) -> Pmf:
    """Parse a named law string into a Pmf.

    Recognized forms:
      - "zeta:a"       P(k) proportional to k^(-a) for k >= 1, truncated at
                       k_max (default 10^6, overridable via the DEGDEP_ZETA_KMAX
                       environment variable or the zeta_kmax argument)
      - "poisson:lam"  truncated where the point mass falls below 1e-12
      - "geometric:p"  P(k) = p (1-p)^(k-1) for k >= 1, same truncation
      - "uniform:a..b" uniform on the integers {a, ..., b}
    """
    name, sep, arg = text.partition(":")
    name = name.strip().lower()
    if not sep:
        raise ConfigError(f"law {text!r} must look like 'name:params'")
    try:
        return _build_law(name, arg.strip(), _zeta_kmax(zeta_kmax) if name == "zeta" else 0)
    except ValueError as exc:
        raise ConfigError(f"invalid law {text!r}: {exc}") from None


@lru_cache(maxsize=8)
def _build_law(name: str, arg: str, zeta_kmax: int) -> Pmf:
    if name == "zeta":
        a = float(arg)
        if a <= 0:
            raise ValueError("zeta exponent must be positive")
        k = np.arange(1, zeta_kmax + 1, dtype=np.int64)
        w = k.astype(np.float64) ** (-a)
        return Pmf(k, w / w.sum())
    if name == "poisson":
        lam = float(arg)
        if lam <= 0:
            raise ValueError("poisson rate must be positive")
        # build the pmf relative to its mode so huge rates cannot underflow
        mode = int(lam)
        lo = hi = mode
        terms = {mode: 1.0}
        while lo > 0 and terms[lo] >= _LAW_MASS_EPS * 1e-4:
            terms[lo - 1] = terms[lo] * lo / lam
            lo -= 1
        while terms[hi] >= _LAW_MASS_EPS * 1e-4:
            terms[hi + 1] = terms[hi] * lam / (hi + 1)
            hi += 1
        support = np.arange(lo, hi + 1, dtype=np.int64)
        p = np.array([terms[k] for k in support.tolist()])
        p /= p.sum()
        mask = p >= _LAW_MASS_EPS
        return Pmf(support[mask], p[mask] / p[mask].sum())
    if name == "geometric":
        q = float(arg)
        if not 0 < q <= 1:
            raise ValueError("geometric parameter must be in (0, 1]")
        kmax = max(1, int(np.ceil(np.log(_LAW_MASS_EPS) / np.log1p(-q))) if q < 1 else 1)
        k = np.arange(1, kmax + 1, dtype=np.int64)
        p = q * (1 - q) ** (k - 1)
        mask = p >= _LAW_MASS_EPS
        if not mask.any():
            mask[0] = True
        return Pmf(k[mask], p[mask] / p[mask].sum())
    if name == "uniform":
        lo_s, sep2, hi_s = arg.partition("..")
        if not sep2:
            raise ValueError("uniform law needs 'uniform:a..b'")
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError("uniform law needs a <= b")
        k = np.arange(lo, hi + 1, dtype=np.int64)
        return Pmf(k, np.full(k.size, 1.0 / k.size))
    raise ValueError(f"unknown law name {name!r}")


def load_table(fh, dtype) -> np.ndarray | None:
    """numpy's parse of an open text table with '#' comments, at least 2-D.

    None on any failure or warning (an empty input; on older numpy, an
    integer parsed through a float): the caller then reads the file with
    :func:`table_lines`, which alone reports errors.  A handle, unlike a
    path, keeps numpy from reading a missing file's '.gz' sibling,
    decompressing '*.gz' names and fetching URLs.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(fh, dtype=dtype, comments="#", ndmin=2)
    except (ValueError, ArithmeticError, Warning):
        return None


def table_lines(path, layout: str):
    """Yield (lineno, line, fields) for each non-blank line of a text table.

    '#' starts a comment and any whitespace separates fields.  A line whose
    field count differs from `layout`'s (such as 'src<TAB>dst') is a
    ValueError that quotes the layout and the line.
    """
    width = len(layout.split("<TAB>"))
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) != width:
                raise ValueError(f"{path}:{lineno}: expected {layout!r}, got {line!r}")
            yield lineno, line, fields


def _read_law_table(path, layout: str) -> list[np.ndarray]:
    """The int64 value columns and the float64 probability column of a law file.

    Values are read by int(), of magnitude below 2**63, and probabilities by
    float().  numpy's parse reads a subset of this to the same numbers, but
    also takes -2**63, so a result holding it goes to the line loop.
    """
    *values, prob = layout.split("<TAB>")
    dtype = np.dtype([(name, np.int64) for name in values] + [(prob, np.float64)])
    with open(path, "r", encoding="utf-8") as fh:
        table = load_table(fh, dtype)
    if table is None or any(table[name].min(initial=0) == -(2**63) for name in values):
        rows = []
        for lineno, line, fields in table_lines(path, layout):
            try:
                row = tuple(map(int, fields[:-1])) + (float(fields[-1]),)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed entry {line!r}") from None
            if any(abs(v) >= 2**63 for v in row[:-1]):
                raise ValueError(f"{path}:{lineno}: value out of range (|v| < 2**63) in {line!r}")
            rows.append(row)
        table = np.array(rows, dtype=dtype)
    if table.size == 0:
        raise ValueError(f"{path}: no entries found")
    return [table[name].ravel() for name in dtype.names]


def read_pmf(path) -> Pmf:
    """Read a Pmf from text: one 'value<TAB>probability' per line, '#' comments."""
    values, probs = _read_law_table(path, "value<TAB>probability")
    if np.unique(values).size != values.size:
        raise ValueError(f"{path}: duplicate support values")
    order = np.argsort(values)
    return Pmf(values[order], probs[order])


def write_pmf(p: Pmf, path) -> None:
    """Write a Pmf in the text format read by :func:`read_pmf`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for value, prob in zip(p.support.tolist(), p.probs.tolist()):
            fh.write(f"{value}\t{prob!r}\n")


def read_joint_pmf(path) -> JointPmf:
    """Read a JointPmf from text: 'x<TAB>y<TAB>probability' lines, '#' comments."""
    return JointPmf(*_read_law_table(path, "x<TAB>y<TAB>probability"))
