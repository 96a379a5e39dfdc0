"""Finite-support integer probability laws and exact rank-dependence functionals.

This module is the oracle layer of the package: every quantity is computed by
finite summation, never by sampling.  The central objects are probability
mass functions on the integers (:class:`Pmf`, :class:`JointPmf`) and the
tie-aware cdf

    tie_aware_cdf(k) = F(k) + F(k - 1)

that underlies Spearman and Kendall correlations for integer-valued data.
The population correlation values computed here are the limits that the
graph estimators in :mod:`degdep.correlations` are tested against.  They are
sums over the atoms of a joint law: population Kendall's tau is a
probability-weighted merge count of the atoms (`degdep.kernels`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import kernels

__all__ = [
    "ConfigError",
    "DegenerateLawError",
    "Pmf",
    "JointPmf",
    "spearman_population",
    "kendall_population",
    "s_factor",
    "spearman_average_limit",
    "size_biased",
    "tv_distance",
    "parse_law",
    "read_pmf",
    "write_pmf",
]

# Input tolerance for sum-to-one; inputs inside it are renormalized exactly.
_SUM_TOL = 1e-9

# Named laws with unbounded support are truncated once the point mass drops
# below this threshold, then renormalized.
_LAW_MASS_EPS = 1e-12

_ZETA_KMAX = 1_000_000


class ConfigError(ValueError):
    """A value the caller supplied is out of range, unknown or malformed.

    Raised by the library's checks on settings: counts, seeds, law texts and
    model, pair and measure names.  Data raises a plain ValueError instead:
    malformed data read from a file, and the contents that the constructors
    of `DirectedMultigraph`, `Pmf`, `JointPmf` and `BiDegreeRealization`
    refuse, as `experiments.write_rows_csv` refuses an empty list of rows.
    The command line maps ConfigError to exit code 1 and a plain ValueError
    to exit code 2.
    """


class DegenerateLawError(ConfigError):
    """An operation required a marginal that is not a single point mass."""


def require_at_least(name: str, value: int, least: int = 1) -> None:
    """ConfigError unless value >= least."""
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")


def as_rng(rng) -> np.random.Generator:
    """np.random.default_rng(rng); ConfigError for an int seed below 0."""
    if isinstance(rng, (int, np.integer)):
        require_at_least("seed", rng, 0)
    return np.random.default_rng(rng)


def require_known(name: str, given, known) -> tuple:
    """The given labels as a tuple; ConfigError when there are none, one is
    not among `known`, or one is repeated."""
    given = tuple(given)
    if not given:
        raise ConfigError(f"{name} must name at least one of {', '.join(known)}, got none")
    unknown = sorted(set(given) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name}: {unknown}; known: {', '.join(known)}")
    repeated = sorted({label for label in given if given.count(label) > 1})
    if repeated:
        raise ConfigError(f"repeated {name}: {repeated}")
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


def _law_values(values, name: str) -> np.ndarray:
    """as_int_array of a law's values, which must also be above -2**63 (the
    rule |v| < 2**63 of the law files): the tie-aware cdf reads k - 1."""
    arr = as_int_array(values, name)
    if arr.min(initial=0) == -(2**63):
        raise ValueError(f"{name} out of range (|v| < 2**63)")
    return arr


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
    _mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writable
        support = _law_values(self.support, "support").copy()
        if support.size == 0:
            raise ValueError("support must be nonempty")
        # neighbours compared, not np.diff, which wraps past 2**63 apart
        if np.any(support[1:] <= support[:-1]):
            raise ValueError("support must be strictly ascending")
        probs = _normalize(self.probs, "probs")
        if probs.size != support.size:
            raise ValueError("support and probs must have the same length")
        # once per law, before the cdf is built: the dot casts the support
        # to a float temporary
        object.__setattr__(self, "_mean", float(np.dot(support, probs)))
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        for attr, val in (
            ("support", support),
            ("probs", probs),
            ("_cum_pad", np.concatenate(([0.0], cum))),
        ):
            val.setflags(write=False)
            object.__setattr__(self, attr, val)

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
        return self._mean

    def sample(self, rng, size: int) -> np.ndarray:
        """Draw `size` iid values by inverse-cdf lookup; deterministic per rng."""
        rng = as_rng(rng)
        idx = np.searchsorted(self._cum_pad[1:], rng.random(size), side="right")
        return self.support[np.minimum(idx, self.support.size - 1)]


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Joint probability mass function of an integer pair (X, Y).

    Stored as parallel arrays (xs, ys, probs) sorted lexicographically.  The
    population functionals read the atoms alone, so their memory grows with
    the number of atoms, not with the product of the distinct value counts.
    """

    xs: np.ndarray
    ys: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        xs = _law_values(self.xs, "xs")
        ys = _law_values(self.ys, "ys")
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

    @classmethod
    def from_entries(cls, entries) -> "JointPmf":
        """Build from a {(x, y): probability} mapping or iterable of pairs."""
        items = list(entries.items() if isinstance(entries, dict) else entries)
        xs = np.array([k for (k, _), _ in items])
        ys = np.array([l for (_, l), _ in items])
        probs = np.array([p for _, p in items])
        return cls(xs, ys, probs)

    def marginal_x(self) -> Pmf:
        ux, inv = np.unique(self.xs, return_inverse=True)
        return Pmf(ux, np.bincount(inv, weights=self.probs))

    def marginal_y(self) -> Pmf:
        uy, inv = np.unique(self.ys, return_inverse=True)
        return Pmf(uy, np.bincount(inv, weights=self.probs))

    def sample(self, rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw `size` iid (x, y) pairs; returns two aligned arrays."""
        rng = as_rng(rng)
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        idx = np.minimum(idx, self.probs.size - 1)
        return self.xs[idx], self.ys[idx]


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
    return _average_limit(joint, spearman_population(joint))


def _average_limit(joint: JointPmf, rho: float) -> float:
    """rho / (3 sqrt(S_X S_Y)) for the joint's population Spearman `rho`, so
    a caller that has rho already does not sum it again."""
    sx = s_factor(joint.marginal_x())
    sy = s_factor(joint.marginal_y())
    if sx <= 0.0 or sy <= 0.0:
        raise DegenerateLawError("average-rank limit undefined for point-mass marginal")
    return float(rho / (3.0 * np.sqrt(sx * sy)))


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


def parse_law(text: str) -> Pmf:
    """Parse a named law string into a Pmf.

    Recognized forms:
      - "zeta:a"       P(k) proportional to k^(-a) for 1 <= k <= 10^6
      - "poisson:lam"  truncated where the point mass falls below 1e-12
      - "geometric:p"  P(k) = p (1-p)^(k-1) for k >= 1, same truncation
      - "uniform:a..b" uniform on the integers {a, ..., b}
    """
    name, sep, arg = text.partition(":")
    name = name.strip().lower()
    if not sep:
        raise ConfigError(f"law {text!r} must look like 'name:params'")
    try:
        return _build_law(name, arg.strip())
    except ValueError as exc:
        raise ConfigError(f"invalid law {text!r}: {exc}") from None


@lru_cache(maxsize=8)
def _build_law(name: str, arg: str) -> Pmf:
    if name == "zeta":
        a = float(arg)
        if a <= 0:
            raise ValueError("zeta exponent must be positive")
        k = np.arange(1, _ZETA_KMAX + 1, dtype=np.int64)
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
    also takes -2**63, so a result holding it goes to the line loop.  So
    does any failure or warning of numpy's parse (an empty input; on older
    numpy, an integer parsed through a float): the line loop alone reports
    errors.  A handle, unlike a path, keeps numpy from reading a missing
    file's '.gz' sibling, decompressing '*.gz' names and fetching URLs.
    """
    *values, prob = layout.split("<TAB>")
    dtype = np.dtype([(name, np.int64) for name in values] + [(prob, np.float64)])
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table = np.loadtxt(fh, dtype=dtype, comments="#", ndmin=2)
        except (ValueError, ArithmeticError, Warning):
            table = None
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
