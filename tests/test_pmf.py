"""Pmf / JointPmf construction, cdf functionals, named laws, and text I/O."""

import numpy as np
import pytest

from degdep import (
    ContinuizedCdf,
    JointPmf,
    Pmf,
    kendall_population,
    parse_law,
    read_pmf,
    tv_distance,
    write_pmf,
)
from degdep.pmf import read_joint_pmf

from helpers import random_joint, random_pmf


def bernoulli_half() -> Pmf:
    return Pmf(np.array([0, 1]), np.array([0.5, 0.5]))


class TestPmfConstruction:
    def test_renormalizes_within_tolerance(self):
        p = Pmf(np.array([0, 1]), np.array([0.5, 0.5 + 4e-10]))
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="sum"):
            Pmf(np.array([0, 1]), np.array([0.5, 0.6]))

    def test_rejects_nonpositive_probability(self):
        with pytest.raises(ValueError):
            Pmf(np.array([0, 1, 2]), np.array([0.5, 0.0, 0.5]))

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError, match="ascending"):
            Pmf(np.array([1, 0]), np.array([0.5, 0.5]))

    def test_rejects_non_integer_support(self):
        with pytest.raises(ValueError, match="integer"):
            Pmf(np.array([0.5, 1.0]), np.array([0.5, 0.5]))

    def test_from_pairs_dict(self):
        p = Pmf.from_pairs({3: 0.25, 1: 0.75})
        assert p.support.tolist() == [1, 3]
        assert p.probs.tolist() == [0.75, 0.25]

    def test_immutable(self):
        p = bernoulli_half()
        with pytest.raises(ValueError):
            p.probs[0] = 0.3


class TestCdf:
    def test_bernoulli_at_zero(self):
        assert bernoulli_half().cdf(0) == 0.5

    def test_below_support(self):
        assert bernoulli_half().cdf(-1) == 0.0

    def test_uniform_three_atoms(self):
        p = Pmf(np.array([1, 2, 3]), np.full(3, 1 / 3))
        assert p.cdf(2) == pytest.approx(2 / 3, abs=1e-15)

    def test_at_and_above_max(self):
        p = bernoulli_half()
        assert p.cdf(1) == 1.0
        assert p.cdf(99) == 1.0

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        p = random_pmf(rng)
        ks = np.arange(-25, 25)
        vec = p.cdf(ks)
        assert vec.tolist() == [p.cdf(int(k)) for k in ks]


class TestTieAwareCdf:
    def test_bernoulli_values(self):
        p = bernoulli_half()
        assert p.tie_aware_cdf(0) == 0.5
        assert p.tie_aware_cdf(1) == 1.5

    def test_saturates_at_two_minus_top_mass(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_pmf(rng)
            top = int(p.support[-1])
            expected = 2.0 - float(p.probs[-1])
            assert p.tie_aware_cdf(top) == pytest.approx(expected, abs=1e-12)
            assert p.tie_aware_cdf(top + 7) == pytest.approx(2.0, abs=1e-12)

    def test_consistent_with_cdf(self):
        rng = np.random.default_rng(2)
        p = random_pmf(rng)
        for k in range(-25, 25):
            assert p.tie_aware_cdf(k) == p.cdf(k) + p.cdf(k - 1)


class TestJointPmf:
    def test_marginals_are_valid(self):
        j = JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})
        assert j.marginal_x().probs.sum() == pytest.approx(1.0)
        assert j.marginal_y().support.tolist() == [0, 1]

    def test_diagonal_tie_aware_values(self):
        j = JointPmf.from_entries({(0, 0): 0.5, (1, 1): 0.5})
        assert j.tie_aware_joint_cdf(0, 0) == 0.5
        assert j.tie_aware_joint_cdf(1, 1) == 2.5

    def test_product_joint_factorizes(self):
        rng = np.random.default_rng(3)
        px, py = random_pmf(rng, 5), random_pmf(rng, 5)
        j = JointPmf.product(px, py)
        for k in range(-12, 12, 3):
            for l in range(-12, 12, 3):
                assert j.tie_aware_joint_cdf(k, l) == pytest.approx(
                    px.tie_aware_cdf(k) * py.tie_aware_cdf(l), abs=1e-12
                )

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            JointPmf(np.array([0, 0]), np.array([1, 1]), np.array([0.5, 0.5]))

    def test_rejects_duplicates_among_many_atoms(self):
        xs = np.repeat(np.arange(50), 3)
        ys = np.tile([4, 7, 4], 50)
        with pytest.raises(ValueError, match="duplicate"):
            JointPmf(xs, ys, np.full(xs.size, 1 / xs.size))

    def test_wide_joint_builds_no_grid(self):
        # 4000 x values with 8 y offsets each: a dense grid over the distinct
        # values would take 4001 x 4386 floats
        rng = np.random.default_rng(8)
        xs = np.repeat(np.arange(4000), 8)
        shifts = rng.permuted(np.tile(np.arange(512), (4000, 1)), axis=1)
        ys = xs + shifts[:, :8].ravel()
        j = JointPmf(xs, ys, np.full(xs.size, 1 / xs.size))
        assert np.unique(j.ys).size > 4000
        assert "_cum_grid" not in vars(j)
        kendall_population(j)
        assert "_cum_grid" not in vars(j)

    def test_cdf_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            j = random_joint(rng)
            for k in range(-12, 13, 3):
                for l in range(-12, 13, 3):
                    brute = sum(float(p) for x, y, p in zip(j.xs, j.ys, j.probs)
                                if x <= k and y <= l)
                    assert j.cdf(k, l) == pytest.approx(brute, abs=1e-12)
            ks = rng.integers(-12, 13, 20)
            ls = rng.integers(-12, 13, 20)
            brute = [sum(float(p) for x, y, p in zip(j.xs, j.ys, j.probs) if x <= k and y <= l)
                     for k, l in zip(ks, ls)]
            assert j.cdf(ks, ls) == pytest.approx(brute, abs=1e-12)
            assert "_cum_grid" in vars(j)

    def test_sampling_deterministic(self):
        j = JointPmf.from_entries({(0, 1): 0.25, (2, 3): 0.75})
        x1, y1 = j.sample(123, 50)
        x2, y2 = j.sample(123, 50)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestContinuizedCdf:
    def test_bernoulli_midpoint(self):
        c = ContinuizedCdf(bernoulli_half())
        assert c(0.5) == pytest.approx(0.25, abs=1e-15)

    def test_integer_endpoints(self):
        rng = np.random.default_rng(4)
        p = random_pmf(rng)
        c = p.continuize()
        for k in range(-22, 22):
            assert c(float(k)) == pytest.approx(p.cdf(k - 1), abs=1e-12)
            assert c(k + 1 - 1e-9) == pytest.approx(p.cdf(k), abs=1e-6)

    def test_boundaries(self):
        p = bernoulli_half()
        c = p.continuize()
        assert c(-3.2) == 0.0
        assert c(2.0) == 1.0
        assert c(7.5) == 1.0


class TestNamedLaws:
    def test_zeta_shape_and_truncation(self):
        p = parse_law("zeta:2.5", zeta_kmax=1000)
        assert p.support[0] == 1 and p.support[-1] == 1000
        ratio = p.probs[7] / p.probs[0]
        assert ratio == pytest.approx(8.0 ** -2.5, rel=1e-12)

    def test_zeta_kmax_env_override(self, monkeypatch):
        monkeypatch.setenv("DEGDEP_ZETA_KMAX", "50")
        p = parse_law("zeta:2.0")
        assert p.support[-1] == 50

    def test_poisson_mean(self):
        p = parse_law("poisson:3")
        assert p.mean() == pytest.approx(3.0, abs=1e-9)
        assert p.probs.min() >= 1e-12 * 0.5

    def test_geometric_mean(self):
        p = parse_law("geometric:0.25")
        assert p.support[0] == 1
        assert p.mean() == pytest.approx(4.0, abs=1e-9)

    def test_uniform_range(self):
        p = parse_law("uniform:2..5")
        assert p.support.tolist() == [2, 3, 4, 5]
        assert np.allclose(p.probs, 0.25)

    def test_point_mass_via_uniform(self):
        p = parse_law("uniform:1..1")
        assert p.is_point_mass and p.support.tolist() == [1]

    @pytest.mark.parametrize(
        "bad", ["zeta", "zeta:0", "poisson:-1", "geometric:1.5", "uniform:5..2", "cauchy:1"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_law(bad)

    def test_sampling_matches_law(self):
        p = parse_law("poisson:3")
        draws = p.sample(7, 200_000)
        emp = np.bincount(draws) / draws.size
        law = np.zeros(emp.size)
        for k, q in zip(p.support.tolist(), p.probs.tolist()):
            if k < law.size:
                law[k] = q
        assert 0.5 * np.abs(emp - law).sum() < 0.01


class TestTextFormats:
    def test_pmf_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        p = random_pmf(rng)
        path = tmp_path / "law.tsv"
        write_pmf(p, path)
        q = read_pmf(path)
        assert q.support.tolist() == p.support.tolist()
        assert np.allclose(q.probs, p.probs, atol=1e-15)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "law.tsv"
        path.write_text("# a comment\n\n0\t0.5\n1\t0.5  # trailing\n")
        p = read_pmf(path)
        assert p.support.tolist() == [0, 1]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "law.tsv"
        path.write_text("0\t0.5\nnot-a-number\t0.5\n")
        with pytest.raises(ValueError, match=":2:"):
            read_pmf(path)

    def test_joint_round_trip(self, tmp_path):
        path = tmp_path / "joint.tsv"
        path.write_text("0\t0\t0.5\n1\t1\t0.5\n")
        j = read_joint_pmf(path)
        assert j.xs.tolist() == [0, 1]
        assert j.probs.tolist() == [0.5, 0.5]


class TestTvDistance:
    def test_identical_laws(self):
        p = parse_law("poisson:2")
        assert tv_distance(p, p) == 0.0

    def test_disjoint_supports(self):
        p = Pmf(np.array([0]), np.array([1.0]))
        q = Pmf(np.array([1]), np.array([1.0]))
        assert tv_distance(p, q) == 1.0

    def test_symmetric(self):
        rng = np.random.default_rng(6)
        p, q = random_pmf(rng), random_pmf(rng)
        assert tv_distance(p, q) == pytest.approx(tv_distance(q, p), abs=1e-15)
