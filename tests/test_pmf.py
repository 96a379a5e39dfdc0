"""Pmf / JointPmf construction, cdf functionals, named laws, and text I/O."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degdep import (
    JointPmf,
    Pmf,
    parse_law,
    read_pmf,
    tv_distance,
    write_pmf,
)
from degdep.pmf import read_joint_pmf

from helpers import NON_INT64_FLOATS, random_joint, random_pmf, read_joint_pmf_reference
from oracles import continuized_cdf, joint_cdf, tie_aware_joint_cdf


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
        for bad in NON_INT64_FLOATS:
            with pytest.raises(ValueError, match="integer"):
                Pmf(np.array([bad, 1.0]), np.array([0.5, 0.5]))
            with pytest.raises(ValueError, match="integer"):
                JointPmf(np.array([1.0, bad]), np.array([0, 1]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Pmf(np.array([0, 1]), np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="finite"):
            JointPmf(np.array([0, 1]), np.array([0, 1]), np.array([1.0, bad]))

    def test_accepts_a_support_more_than_2_63_wide(self):
        p = Pmf([-2**62 - 1, 2**62 + 1], [0.5, 0.5])
        assert p.tie_aware_cdf(2**62 + 1) == 1.5

    def test_rejects_minus_2_63(self):
        with pytest.raises(ValueError, match=r"support out of range \(\|v\| < 2\*\*63\)"):
            Pmf([-2**63, 0], [0.5, 0.5])
        for xs, ys in (([-2**63, 0], [0, 1]), ([0, 1], [0, -2**63])):
            with pytest.raises(ValueError, match=r"out of range \(\|v\| < 2\*\*63\)"):
                JointPmf(xs, ys, [0.5, 0.5])

    def test_copies_the_callers_arrays(self):
        support, probs = np.array([0, 1]), np.array([0.5, 0.5])
        Pmf(support, probs)
        support[0] = probs[0] = -1

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
        assert tie_aware_joint_cdf(j, 0, 0) == 0.5
        assert tie_aware_joint_cdf(j, 1, 1) == 2.5

    def test_product_joint_factorizes(self):
        rng = np.random.default_rng(3)
        px, py = random_pmf(rng, 5), random_pmf(rng, 5)
        j = JointPmf.from_entries({
            (x, y): p * q
            for x, p in zip(px.support.tolist(), px.probs.tolist())
            for y, q in zip(py.support.tolist(), py.probs.tolist())
        })
        for k in range(-12, 12, 3):
            for l in range(-12, 12, 3):
                assert tie_aware_joint_cdf(j, k, l) == pytest.approx(
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

    def test_cdf_matches_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            j = random_joint(rng)
            for k in range(-12, 13, 3):
                for l in range(-12, 13, 3):
                    brute = sum(float(p) for x, y, p in zip(j.xs, j.ys, j.probs)
                                if x <= k and y <= l)
                    assert joint_cdf(j, k, l) == pytest.approx(brute, abs=1e-12)
            ks = rng.integers(-12, 13, 20)
            ls = rng.integers(-12, 13, 20)
            brute = [sum(float(p) for x, y, p in zip(j.xs, j.ys, j.probs) if x <= k and y <= l)
                     for k, l in zip(ks, ls)]
            assert joint_cdf(j, ks, ls) == pytest.approx(brute, abs=1e-12)

    def test_sampling_deterministic(self):
        j = JointPmf.from_entries({(0, 1): 0.25, (2, 3): 0.75})
        x1, y1 = j.sample(123, 50)
        x2, y2 = j.sample(123, 50)
        assert np.array_equal(x1, x2) and np.array_equal(y1, y2)


class TestContinuizedCdf:
    def test_bernoulli_midpoint(self):
        assert continuized_cdf(bernoulli_half(), 0.5) == pytest.approx(0.25, abs=1e-15)

    def test_integer_endpoints(self):
        rng = np.random.default_rng(4)
        p = random_pmf(rng)
        for k in range(-22, 22):
            assert continuized_cdf(p, float(k)) == pytest.approx(p.cdf(k - 1), abs=1e-12)
            assert continuized_cdf(p, k + 1 - 1e-9) == pytest.approx(p.cdf(k), abs=1e-6)

    def test_boundaries(self):
        p = bernoulli_half()
        assert continuized_cdf(p, -3.2) == 0.0
        assert continuized_cdf(p, 2.0) == 1.0
        assert continuized_cdf(p, 7.5) == 1.0


class TestNamedLaws:
    def test_zeta_shape_and_truncation(self):
        p = parse_law("zeta:2.5")
        assert p.support[0] == 1 and p.support[-1] == 10**6
        ratio = p.probs[7] / p.probs[0]
        assert ratio == pytest.approx(8.0 ** -2.5, rel=1e-12)

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

    def test_ragged_line_quotes_layout_and_line(self, tmp_path):
        path = tmp_path / "law.tsv"
        path.write_text("0\t0.5\n1\n")
        with pytest.raises(ValueError, match=r":2: expected 'value<TAB>probability', got '1'$"):
            read_pmf(path)

    @pytest.mark.parametrize("text, message", [
        ("0\tnan\n1\t1.0\n", "finite"),
        ("9223372036854775808\t1.0\n", ":1: value out of range"),
        ("-9223372036854775808\t1.0\n", ":1: value out of range"),
    ], ids=["nan", "2**63", "-2**63"])
    def test_pmf_file_rejects_nan_and_values_past_int64(self, tmp_path, text, message):
        path = tmp_path / "law.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_pmf(path)


def law_outcome(reader, path):
    """The (xs, ys, probs) of reader(path), or the ValueError it raises; it
    must emit no warning."""
    with warnings.catch_warnings(record=True) as caught:
        # recorded, not raised: a warning raised as an error inside loadtxt
        # would only send the file to the line loop and so go unseen
        warnings.simplefilter("always")
        try:
            joint = reader(path)
            return joint.xs, joint.ys, joint.probs
        except ValueError as exc:
            return exc
        finally:
            assert not caught, [str(w.message) for w in caught]


def error_line(exc: ValueError, path):
    """The line number that a reader's error names, or None."""
    found = re.match(re.escape(str(path)) + r":(\d+):", str(exc))
    return found and int(found.group(1))


def assert_law_reads_like_reference(path):
    """read_joint_pmf builds the line loop's law bit for bit, or raises a
    ValueError at the same line."""
    got = law_outcome(read_joint_pmf, path)
    want = law_outcome(read_joint_pmf_reference, path)
    if isinstance(want, Exception):
        assert type(got) is ValueError, got
        assert error_line(got, path) == error_line(want, path)
    else:
        assert isinstance(got, tuple), got
        for ours, theirs in zip(got, want):
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()


LAW_READER_CASES = {
    "two-atoms": "0\t0\t0.5\n1\t1\t0.5\n",
    "one-atom": "3\t-2\t1\n",
    "overflowing-probability": "0\t0\t1e400\n",
    "infinite-probability": "0\t0\tinf\n1\t1\t0.5\n",
    "underscore-probability": "0\t0\t1_0.5\n",
    "underscore-value": "1_0\t0\t0.5\n1\t1\t0.5\n",
    "hex-probability": "0\t0\t0x1p3\n",
    "float-value": "1.0\t0\t1\n",
    "spelled-probabilities": "0\t0\t+.5\n1\t1\t5E-1\n",
    "signs-and-zeros": "+007\t-0\t0.5\n-3\t0001\t0.5\n",
    "arabic-indic-digits": "\u0663\t1\t\u0661\n",
    "fullwidth-digit": "\uff15\t1\t1\n",
    "bom": "\ufeff0\t0\t1\n",
    "nul": "0\t0\t1\x00\n",
    "cr": "0\t0\t0.5\r1\t1\t0.5\r",
    "crlf": "0\t0\t0.5\r\n1\t1\t0.5\r\n",
    "ragged-short": "0\t0\t0.5\n1\t1\n",
    "ragged-long": "0\t0\t0.5\t7\n",
    "comments-only": "# header\n\n   # indented\n",
    "empty": "",
    "trailing-comment": "0\t0\t0.5# c\n1 1 0.5  #\n",
    "unicode-spaces": "0\xa00\t0.5\n1\u30001\x850.5\n",
    "vertical-tab-and-form-feed": "0\x0b0\x0c0.5\n1\t1\t0.5\n",
    "duplicate-atom": "0\t0\t0.5\n0\t0\t0.5\n",
    "bad-sum": "0\t0\t0.5\n1\t1\t0.6\n",
    "largest-value": "9223372036854775807\t-9223372036854775807\t1\n",
}

# Files the line loop accepted, or failed on without naming the line, and
# that the library now rejects: nan probabilities, and values of magnitude
# 2**63 and up, which a cast would wrap.
NEWLY_REJECTED = {
    "nan-probability": ("0\t0\tnan\n1\t1\t1.0\n", "probs must be finite"),
    "value-2**63": ("0\t0\t0.5\n9223372036854775808\t1\t0.5\n", ":2: value out of range"),
    "value-2**64": ("0\t18446744073709551616\t1\n", ":1: value out of range"),
    "value--2**63": ("-9223372036854775808\t0\t0.5\n1\t1\t0.5\n", ":1: value out of range"),
}


@pytest.mark.filterwarnings("error")
class TestLawReaderMatchesLineLoop:
    """numpy's parse of a law file is taken only where it agrees with the
    line loop."""

    @pytest.mark.parametrize("case", sorted(LAW_READER_CASES))
    def test_named_case(self, case, tmp_path):
        path = tmp_path / "joint.tsv"
        path.write_bytes(LAW_READER_CASES[case].encode("utf-8"))
        assert_law_reads_like_reference(path)

    @pytest.mark.parametrize("case", sorted(NEWLY_REJECTED))
    def test_newly_rejected(self, case, tmp_path):
        text, message = NEWLY_REJECTED[case]
        path = tmp_path / "joint.tsv"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_joint_pmf(path)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_lines(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "random-joint.tsv"
        path.write_bytes(data.draw(joint_pmf_texts()).encode("utf-8"))
        assert_law_reads_like_reference(path)


# spellings of the probability 1/k of each of k atoms
_SHARES = {1: ["1", "1.0", "+1.", "1e0", "10E-1"], 2: ["0.5", ".5", "5e-1", "0.50"],
           4: ["0.25", ".25", "2.5e-1", "25E-2"]}


@st.composite
def joint_pmf_texts(draw):
    """Joint-pmf text of k lines of probability 1/k, mostly three fields a
    line.  Half the files also mix signs, punctuation, CR, non-ASCII digits,
    a BOM and NUL into the fields.  Values have at most 4 characters, so none
    reaches 2**63, and no field spells nan; named cases cover both."""
    alphabet = list("0123456789")
    noisy = draw(st.booleans())
    if noisy:
        alphabet = alphabet * 4 + list("+-._ex#\r") + ["\u0663", "\uff15", "\ufeff", "\x00"]
    value = st.text(st.sampled_from(alphabet), min_size=1, max_size=4)
    space = st.text(st.sampled_from(" \t\x0b\x0c"), min_size=1, max_size=2)
    sign = st.sampled_from([""] * 10 + ["+", "-"])
    k = draw(st.sampled_from([0, 1, 2, 4]))
    lines = []
    for _ in range(k):
        fields = [draw(sign) + draw(value) for _ in range(draw(st.sampled_from([2] * 20 + [1, 3])))]
        share = draw(st.sampled_from(_SHARES[k]))
        if noisy and draw(st.booleans()):
            cut = draw(st.integers(0, len(share)))
            share = share[:cut] + draw(st.sampled_from(alphabet)) + share[cut:]
        line = "".join(draw(space) + field for field in fields + [share])
        lines.append(line + draw(st.sampled_from(["", " ", "#", " # 0 1 0.5"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


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
