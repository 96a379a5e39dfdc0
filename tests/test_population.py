"""Exact population correlation functionals against independent brute-force oracles."""

from fractions import Fraction

import numpy as np
import pytest

from degdep import (
    DegenerateLawError,
    JointPmf,
    Pmf,
    kendall_population,
    s_factor,
    size_biased,
    spearman_average_limit,
    spearman_population,
)

from helpers import kendall_brute, random_joint, random_nondegenerate_joint, random_pmf, spearman_brute
from oracles import (
    continuized_joint_cdf_mean,
    continuized_moment,
    discrete_moment_sum,
    joint_continuized_product,
    tie_aware_joint_cdf,
)

EXACT = 1e-12


def diag_bernoulli() -> JointPmf:
    return JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})


def anti_bernoulli() -> JointPmf:
    return JointPmf.from_entries({(0, 1): 0.5, (1, 0): 0.5})


class TestSpearmanPopulation:
    def test_diagonal_bernoulli(self):
        assert spearman_population(diag_bernoulli()) == pytest.approx(0.75, abs=EXACT)

    def test_anti_diagonal_bernoulli(self):
        assert spearman_population(anti_bernoulli()) == pytest.approx(-0.75, abs=EXACT)

    def test_comonotone_bernoulli_with_x_values_past_int64_apart(self):
        j = JointPmf([-2**62 - 1, 2**62 + 1], [0, 1], [0.5, 0.5])
        assert spearman_population(j) == spearman_population(diag_bernoulli())

    def test_independent_pairs_are_zero(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            px, py = random_pmf(rng, 5, min_atoms=2), random_pmf(rng, 5, min_atoms=2)
            j = JointPmf.from_entries({
                (x, y): p * q
                for x, p in zip(px.support.tolist(), px.probs.tolist())
                for y, q in zip(py.support.tolist(), py.probs.tolist())
            })
            assert spearman_population(j) == pytest.approx(0.0, abs=EXACT)

    def test_degenerate_marginal_rejected(self):
        j = JointPmf.from_entries({(0, 0): 0.5, (0, 1): 0.5})
        with pytest.raises(DegenerateLawError):
            spearman_population(j)

    def test_matches_four_probability_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            j = random_nondegenerate_joint(rng, max_side=5)
            assert spearman_population(j) == pytest.approx(spearman_brute(j), abs=EXACT)

    def test_bounded(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            j = random_nondegenerate_joint(rng)
            assert -1.0 - EXACT <= spearman_population(j) <= 1.0 + EXACT


def _wide_atoms(width: int, seed: int):
    """The consistency-wide recipe: 8 y offsets per x, drawn from 512, and
    integer weights 1..16."""
    rng = np.random.default_rng(seed)
    xs = np.repeat(np.arange(width), 8)
    shifts = rng.permuted(np.tile(np.arange(512), (width, 1)), axis=1)
    return xs, xs + shifts[:, :8].ravel(), rng.integers(1, 17, xs.size)


def _value_weights(values, ws):
    """Total weight at each distinct value (ascending), and each atom's
    value index."""
    uniq, index = np.unique(values, return_inverse=True)
    at = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(at, index, ws)
    return at, index


class TestWideJointExactRationals:
    """Float sums over 32k atoms stay within 1e-12 of the exact rationals of
    the integer weights."""

    XS, YS, WS = _wide_atoms(4000, 27)
    TOTAL = int(WS.sum())
    JOINT = JointPmf(XS, YS, WS / TOTAL)

    def test_spearman_population(self):
        def scaled_tie_aware(values):
            # total * sF(v) = 2 * weight below v + weight at v
            at, index = _value_weights(values, self.WS)
            return (2 * np.cumsum(at) - at)[index].tolist()

        s = sum(w * a * b for w, a, b in zip(self.WS.tolist(), scaled_tie_aware(self.XS),
                                             scaled_tie_aware(self.YS)))
        exact = 3 * Fraction(s, self.TOTAL**3) - 3
        assert abs(Fraction(spearman_population(self.JOINT)) - exact) <= Fraction(1, 10**12)

    def test_s_factor(self):
        for values, marginal in ((self.XS, self.JOINT.marginal_x()),
                                 (self.YS, self.JOINT.marginal_y())):
            at, _ = _value_weights(values, self.WS)
            # total^3 * P(v) F(v) F(v - 1)
            s = sum(w * c * (c - w) for w, c in zip(at.tolist(), np.cumsum(at).tolist()))
            exact = Fraction(s, self.TOTAL**3)
            assert abs(Fraction(s_factor(marginal)) - exact) <= Fraction(1, 10**12)


class TestKendallPopulation:
    def test_diagonal_bernoulli(self):
        assert kendall_population(diag_bernoulli()) == pytest.approx(0.5, abs=EXACT)

    def test_anti_diagonal_bernoulli(self):
        assert kendall_population(anti_bernoulli()) == pytest.approx(-0.5, abs=EXACT)

    def test_independent_pairs_are_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            px, py = random_pmf(rng, 5), random_pmf(rng, 5)
            j = JointPmf.from_entries({
                (x, y): p * q
                for x, p in zip(px.support.tolist(), px.probs.tolist())
                for y, q in zip(py.support.tolist(), py.probs.tolist())
            })
            assert kendall_population(j) == pytest.approx(0.0, abs=EXACT)

    def test_matches_sign_product_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(40):
            j = random_joint(rng, max_side=6)
            assert kendall_population(j) == pytest.approx(kendall_brute(j), abs=EXACT)

    def test_bounded(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            j = random_joint(rng)
            assert -1.0 - EXACT <= kendall_population(j) <= 1.0 + EXACT

    def test_wide_joint_matches_exact_rational(self):
        xs, ys, ws = _wide_atoms(300, 26)
        total = int(ws.sum())
        # sum over ordered atom pairs of w_i w_j sign(x_i - x_j) sign(y_i - y_j)
        signed = 0
        for start in range(0, xs.size, 256):
            sx = np.sign(xs[start:start + 256, None] - xs[None, :])
            sy = np.sign(ys[start:start + 256, None] - ys[None, :])
            signed += int(np.sum(ws[start:start + 256, None] * ws[None, :] * sx * sy))
        exact = Fraction(signed, total * total)
        joint = JointPmf(xs, ys, ws / total)
        assert abs(Fraction(kendall_population(joint)) - exact) <= Fraction(1, 10**13)


class TestRelabelingInvariance:
    """Rank functionals depend only on the ordering of the support values."""

    @staticmethod
    def _relabel(j: JointPmf) -> JointPmf:
        # strictly increasing integer maps on both margins
        fx = {k: 3 * k + 7 for k in np.unique(j.xs)}
        fy = {l: int(l**3) for l in np.unique(j.ys)}  # monotone on integers
        xs = np.array([fx[k] for k in j.xs])
        ys = np.array([fy[l] for l in j.ys])
        return JointPmf(xs, ys, j.probs)

    def test_spearman_and_kendall_invariant(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            j = random_nondegenerate_joint(rng, max_side=6)
            k = self._relabel(j)
            assert spearman_population(k) == pytest.approx(spearman_population(j), abs=EXACT)
            assert kendall_population(k) == pytest.approx(kendall_population(j), abs=EXACT)


class TestSFactor:
    def test_bernoulli(self):
        assert s_factor(Pmf(np.array([0, 1]), np.array([0.5, 0.5]))) == pytest.approx(
            0.25, abs=EXACT
        )

    def test_point_mass_is_zero(self):
        assert s_factor(Pmf(np.array([4]), np.array([1.0]))) == 0.0

    def test_uniform_three(self):
        p = Pmf(np.array([0, 1, 2]), np.full(3, 1 / 3))
        assert s_factor(p) == pytest.approx(8 / 27, abs=EXACT)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            assert 0.0 <= s_factor(random_pmf(rng)) <= 1.0


class TestSpearmanAverageLimit:
    def test_diagonal_bernoulli_is_one(self):
        assert spearman_average_limit(diag_bernoulli()) == pytest.approx(1.0, abs=EXACT)

    def test_anti_diagonal_is_minus_one(self):
        assert spearman_average_limit(anti_bernoulli()) == pytest.approx(-1.0, abs=EXACT)

    def test_independent_is_zero(self):
        rng = np.random.default_rng(18)
        px, py = random_pmf(rng, 4, min_atoms=2), random_pmf(rng, 4, min_atoms=2)
        j = JointPmf.from_entries({
            (x, y): p * q
            for x, p in zip(px.support.tolist(), px.probs.tolist())
            for y, q in zip(py.support.tolist(), py.probs.tolist())
        })
        assert spearman_average_limit(j) == pytest.approx(0.0, abs=EXACT)

    def test_degenerate_rejected(self):
        j = JointPmf.from_entries({(0, 0): 0.5, (0, 1): 0.5})
        with pytest.raises(DegenerateLawError):
            spearman_average_limit(j)


class TestContinuizedMoments:
    def test_first_moment_is_half_for_any_law(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            p = random_pmf(rng)
            assert continuized_moment(p, 1) == pytest.approx(0.5, abs=EXACT)
            assert discrete_moment_sum(p, 1) == pytest.approx(0.5, abs=EXACT)

    def test_bernoulli_second_moment(self):
        p = Pmf(np.array([0, 1]), np.array([0.5, 0.5]))
        assert continuized_moment(p, 2) == pytest.approx(1 / 3, abs=EXACT)

    def test_point_mass_second_moment(self):
        p = Pmf(np.array([9]), np.array([1.0]))
        assert continuized_moment(p, 2) == pytest.approx(1 / 3, abs=EXACT)

    def test_moment_identity_orders_one_to_four(self):
        rng = np.random.default_rng(20)
        for _ in range(60):
            p = random_pmf(rng)
            for m in (1, 2, 3, 4):
                assert continuized_moment(p, m) == pytest.approx(
                    discrete_moment_sum(p, m), abs=EXACT
                )

    def test_mean_tie_aware_cdf_is_one(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            p = random_pmf(rng)
            mean_sf = float(np.dot(p.probs, p.tie_aware_cdf(p.support)))
            assert mean_sf == pytest.approx(1.0, abs=EXACT)


class TestJointContinuizedIdentities:
    def test_quarter_identity_for_products(self):
        rng = np.random.default_rng(22)
        px, py = random_pmf(rng, 4), random_pmf(rng, 4)
        j = JointPmf.from_entries({
            (x, y): p * q
            for x, p in zip(px.support.tolist(), px.probs.tolist())
            for y, q in zip(py.support.tolist(), py.probs.tolist())
        })
        assert joint_continuized_product(j) == pytest.approx(0.25, abs=EXACT)

    def test_diagonal_bernoulli_value(self):
        assert joint_continuized_product(diag_bernoulli()) == pytest.approx(
            0.3125, abs=EXACT
        )

    def test_quarter_of_tie_aware_product(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            j = random_joint(rng)
            mx, my = j.marginal_x(), j.marginal_y()
            sf_prod = float(
                np.dot(j.probs, mx.tie_aware_cdf(j.xs) * my.tie_aware_cdf(j.ys))
            )
            assert joint_continuized_product(j) == pytest.approx(sf_prod / 4, abs=EXACT)

    def test_quarter_of_tie_aware_joint_cdf(self):
        rng = np.random.default_rng(24)
        for _ in range(40):
            j = random_joint(rng)
            sh_mean = float(np.dot(j.probs, tie_aware_joint_cdf(j, j.xs, j.ys)))
            assert continuized_joint_cdf_mean(j) == pytest.approx(sh_mean / 4, abs=EXACT)

    def test_chains_to_spearman(self):
        rng = np.random.default_rng(25)
        for _ in range(25):
            j = random_nondegenerate_joint(rng)
            assert 3 * (4 * joint_continuized_product(j)) - 3 == pytest.approx(
                spearman_population(j), abs=EXACT
            )


class TestSizeBiased:
    def test_uniform_two_atoms(self):
        p = Pmf(np.array([1, 2]), np.array([0.5, 0.5]))
        b = size_biased(p)
        assert b.support.tolist() == [1, 2]
        assert b.probs == pytest.approx([1 / 3, 2 / 3], abs=EXACT)

    def test_point_mass_fixed(self):
        p = Pmf(np.array([5]), np.array([1.0]))
        b = size_biased(p)
        assert b.support.tolist() == [5] and b.probs.tolist() == [1.0]

    def test_drops_zero_atom(self):
        p = Pmf(np.array([0, 2]), np.array([0.5, 0.5]))
        assert size_biased(p).support.tolist() == [2]

    def test_zero_mean_rejected(self):
        p = Pmf(np.array([0]), np.array([1.0]))
        with pytest.raises(DegenerateLawError):
            size_biased(p)
