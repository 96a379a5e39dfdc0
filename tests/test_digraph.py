"""Directed multigraph container: degrees, endpoint-degree tables, file I/O."""

import gzip
import re
import warnings
from collections import namedtuple
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from degdep import DegreeTypePair, DirectedMultigraph, digraph, read_edge_list, write_edge_list
from degdep.correlations import PairTable
from degdep.digraph import edges_are_simple

from helpers import (
    NON_INT64_FLOATS,
    edge_lines_reference,
    random_multigraph,
    read_edge_list_reference,
)
from oracles import endpoint_law

OUT_IN = DegreeTypePair("out", "in")
IN_OUT = DegreeTypePair("in", "out")


def three_edge_graph() -> DirectedMultigraph:
    return DirectedMultigraph.from_edge_list([(0, 1), (0, 2), (1, 2)])


def three_cycle() -> DirectedMultigraph:
    return DirectedMultigraph.from_edge_list([(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_degrees_from_edge_list(self):
        g = three_edge_graph()
        assert g.out_deg.tolist() == [2, 1, 0]
        assert g.in_deg.tolist() == [0, 1, 2]
        assert g.edge_count == 3

    def test_self_loop(self):
        g = DirectedMultigraph.from_edge_list([(0, 0)])
        assert g.out_deg.tolist() == [1] and g.in_deg.tolist() == [1]

    def test_multi_edge_preserved(self):
        g = DirectedMultigraph.from_edge_list([(0, 1), (0, 1)])
        assert g.edge_count == 2
        assert g.out_deg.tolist() == [2, 0]

    def test_degree_totals_balance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = random_multigraph(rng)
            assert g.out_deg.sum() == g.in_deg.sum() == g.edge_count
            # recount from scratch
            assert g.out_deg.tolist() == np.bincount(g.src, minlength=g.n).tolist()
            assert g.in_deg.tolist() == np.bincount(g.dst, minlength=g.n).tolist()

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError, match="non-negative"):
            DirectedMultigraph.from_edge_list([(0, -1)])

    def test_rejects_non_integer_ids(self):
        for bad in NON_INT64_FLOATS:
            with pytest.raises(ValueError, match="integer"):
                DirectedMultigraph.from_edge_list([(bad, 1)])
            with pytest.raises(ValueError, match="integer"):
                DirectedMultigraph(2, [0, 1], [1.0, bad])

    def test_copies_the_callers_arrays(self):
        src, dst = np.array([0, 1]), np.array([1, 0])
        g = DirectedMultigraph(2, src, dst)
        assert not np.shares_memory(g.src, src) and not np.shares_memory(g.dst, dst)
        src[0] = dst[0] = 1
        assert g.src.tolist() == [0, 1] and g.dst.tolist() == [1, 0]
        for array in (g.src, g.dst, g.out_deg, g.in_deg):
            assert not array.flags.writeable

    def test_rejects_id_beyond_declared_n(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedMultigraph.from_edge_list([(0, 3)], n=2)

    def test_explicit_n_adds_isolated_nodes(self):
        g = DirectedMultigraph.from_edge_list([(0, 1)], n=5)
        assert g.n == 5 and g.out_deg.tolist() == [1, 0, 0, 0, 0]


def cells(t: PairTable) -> list[tuple[int, int, int]]:
    """The (x, y, occurrences) cells of a table, in (x, y) order."""
    return list(zip(t.ux[t.cell_x].tolist(), t.uy[t.cell_y].tolist(), t.cell_counts.tolist()))


class TestEmpiricalDistributions:
    def test_edge_joint_out_in(self):
        t = PairTable.of_graph(three_edge_graph(), OUT_IN)
        assert cells(t) == [(1, 2, 1), (2, 1, 1), (2, 2, 1)]

    def test_edge_joint_in_out(self):
        t = PairTable.of_graph(three_edge_graph(), IN_OUT)
        assert cells(t) == [(0, 0, 1), (0, 1, 1), (1, 0, 1)]

    def test_cycle_is_point_mass(self):
        g = three_cycle()
        for pair in (OUT_IN, IN_OUT, DegreeTypePair("out", "out")):
            assert cells(PairTable.of_graph(g, pair)) == [(1, 1, 3)]

    def test_marginal_source_out(self):
        t = PairTable.of_graph(three_edge_graph(), OUT_IN)
        assert dict(zip(t.ux.tolist(), (t.wx / t.m).tolist())) == {
            2: pytest.approx(2 / 3),
            1: pytest.approx(1 / 3),
        }

    def test_marginal_target_in(self):
        t = PairTable.of_graph(three_edge_graph(), OUT_IN)
        assert dict(zip(t.uy.tolist(), (t.wy / t.m).tolist())) == {
            1: pytest.approx(1 / 3),
            2: pytest.approx(2 / 3),
        }

    def test_joint_marginalizes_to_marginal(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            g = random_multigraph(rng)
            for pair in (OUT_IN, IN_OUT):
                t = PairTable.of_graph(g, pair)
                for values, counts, law in (
                    (t.ux, t.wx, endpoint_law(g, "source", pair.alpha)),
                    (t.uy, t.wy, endpoint_law(g, "target", pair.beta)),
                ):
                    assert values.tolist() == law.support.tolist()
                    assert np.allclose(counts / t.m, law.probs, atol=1e-12)

    def test_joint_counts_sum_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            g = random_multigraph(rng)
            x, y = g.edge_degree_view(OUT_IN)
            assert x.size == y.size == g.edge_count
            assert int(PairTable.of_graph(g, OUT_IN).cell_counts.sum()) == g.edge_count

    def test_relabeling_leaves_empiricals_unchanged(self):
        g = three_edge_graph()
        # strictly increasing relabeling of node ids: 0->2, 1->5, 2->9
        relabel = {0: 2, 1: 5, 2: 9}
        h = DirectedMultigraph.from_edge_list(
            [(relabel[int(s)], relabel[int(d)]) for s, d in zip(g.src, g.dst)]
        )
        for pair in (OUT_IN, IN_OUT):
            assert cells(PairTable.of_graph(g, pair)) == cells(PairTable.of_graph(h, pair))


class TestIsSimple:
    def test_opposite_directions_allowed(self):
        assert edges_are_simple(np.array([0, 1]), np.array([1, 0]), 2)

    def test_self_loop_not_simple(self):
        assert not edges_are_simple(np.array([0]), np.array([0]), 1)

    def test_multi_edge_not_simple(self):
        assert not edges_are_simple(np.array([0, 0]), np.array([1, 1]), 2)

    def test_empty_graph_simple(self):
        g = DirectedMultigraph.from_edge_list([], n=3)
        assert edges_are_simple(g.src, g.dst, g.n)


class TestEdgeListFiles:
    def test_round_trip_preserves_occurrences(self, tmp_path):
        rng = np.random.default_rng(3)
        g = random_multigraph(rng)
        path = tmp_path / "graph.tsv"
        write_edge_list(g, path)
        h = read_edge_list(path)
        pairs_g = sorted(zip(g.src.tolist(), g.dst.tolist()))
        pairs_h = sorted(zip(h.src.tolist(), h.dst.tolist()))
        assert pairs_g == pairs_h

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("# header\n0\t1\n\n1\t2  # trailing comment\n")
        g = read_edge_list(path)
        assert g.edge_count == 2

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("0\t1\nx\ty\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_list(path)

    def test_negative_id_reports_number(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("0\t1\n2\t-3\n")
        with pytest.raises(ValueError, match=":2:"):
            read_edge_list(path)

    def test_id_past_int64_reports_number(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("9223372036854775808\t1\n")
        with pytest.raises(ValueError, match=":1: node id out of range"):
            read_edge_list(path)

    def test_id_too_large_for_memory_names_it(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("0\t1000000000000\n")
        # a host that overcommits memory could grant the 8 TB of degree
        # arrays, so the refusal is made certain
        with mock.patch.object(np, "bincount", side_effect=MemoryError), \
                pytest.raises(ValueError, match="largest node id 1000000000000"):
            read_edge_list(path)

    def test_id_past_address_space_names_it(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_text("9223372036854775807\t0\n")
        with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount, \
                pytest.raises(ValueError, match="largest node id 9223372036854775807"):
            read_edge_list(path)
        bincount.assert_not_called()

    def test_missing_file_is_not_read_from_compressed_sibling(self, tmp_path):
        path = tmp_path / "graph.tsv"
        with gzip.open(tmp_path / "graph.tsv.gz", "wt") as fh:
            fh.write("0\t1\n")
        with pytest.raises(FileNotFoundError):
            read_edge_list(path)

    def test_missing_absolute_path_is_not_read_from_cwd(self, tmp_path, monkeypatch):
        path = tmp_path / "elsewhere" / "graph.tsv"
        cwd = tmp_path / "cwd"
        copy = cwd / str(path).lstrip("/")
        copy.parent.mkdir(parents=True)
        copy.write_text("0\t1\n")
        monkeypatch.chdir(cwd)
        with pytest.raises(FileNotFoundError):
            read_edge_list(path)

    def test_gz_name_is_read_as_text(self, tmp_path):
        path = tmp_path / "graph.tsv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("0\t1\n")
        with pytest.raises(UnicodeDecodeError):
            read_edge_list(path)

    def test_header_that_is_not_utf8_fails_to_decode(self, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_bytes(b"# \xff\n0\t1\n")
        with pytest.raises(UnicodeDecodeError):
            read_edge_list(path)

    def test_round_trip_keeps_order(self, tmp_path):
        g = DirectedMultigraph(12, [11, 0, 3, 3, 7, 0, 11], [0, 11, 3, 2, 7, 0, 5])
        path = tmp_path / "graph.tsv"
        write_edge_list(g, path)
        h = read_edge_list(path)
        assert h.n == g.n
        assert h.src.tolist() == g.src.tolist()
        assert h.dst.tolist() == g.dst.tolist()


# What the graph constructor was given.  Recording it in place of the real
# constructor lets ids up to 2**63 - 1 be compared without allocating degree
# arrays of that length.
Parsed = namedtuple("Parsed", "n src dst")


def read_outcome(reader, path):
    """What reader(path) builds or raises; it must emit no warning."""
    with mock.patch.object(digraph, "DirectedMultigraph", Parsed), \
            mock.patch.object(helpers, "DirectedMultigraph", Parsed), \
            warnings.catch_warnings(record=True) as caught:
        # recorded, not raised: a warning raised as an error inside the
        # numpy parse would only send the file to the line parser and so go
        # unseen
        warnings.simplefilter("always")
        try:
            return reader(path)
        except (ValueError, OverflowError) as exc:
            return exc
        finally:
            assert not caught, [str(w.message) for w in caught]


def assert_reads_like_reference(path):
    """read_edge_list gives the line loop's (n, src, dst), or its error."""
    got = read_outcome(read_edge_list, path)
    want = read_outcome(read_edge_list_reference, path)
    if isinstance(want, OverflowError):
        # the reference fails past int64 only once the whole file is read
        assert isinstance(got, ValueError)
        assert re.search(r":\d+: node id out of range", str(got))
    elif isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
    else:
        assert isinstance(got, Parsed)
        assert got.n == want.n
        for ours, theirs in ((got.src, want.src), (got.dst, want.dst)):
            assert ours.dtype == theirs.dtype == np.int64
            assert ours.tolist() == theirs.tolist()


READER_CASES = {
    "one-column": "0\n1\n",
    "three-columns": "0\t1\t2\n",
    "ragged": "0\t1\n2\n",
    "negative-id": "0\t1\n2\t-3\n",
    "negative-zero": "-0\t1\n",
    "empty": "",
    "comments-only": "# header\n\n   # indented\n",
    "crlf": "0\t1\r\n1\t2\r\n",
    "cr": "0\t1\r1\t2\r",
    "plus": "+5\t1\n",
    "leading-zeros": "007\t0001\n",
    "float": "1.0\t2\n",
    "exponent": "1e3\t2\n",
    "underscore": "1_0\t2\n",
    "arabic-indic-digit": "\u0663\t1\n",
    "fullwidth-digit": "\uff15\t1\n",
    "bom": "\ufeff0\t1\n",
    "nul": "0\t1\x00\n",
    "vertical-tab-and-form-feed": "0\x0b1\n2\x0c3\n",
    "unicode-spaces": "0\xa01\n2\u30003\n4\x855\n",
    "largest-id": "9223372036854775807\t0\n",
    "largest-id-padded": "000000000009223372036854775807\t0\n",
    "past-int64": "0\t1\n9223372036854775808\t1\n",
    "past-int64-negative": "-9223372036854775809\t1\n",
    "past-uint64": "18446744073709551616\t1\n",
    "trailing-comment": "0\t1# c\n1 2  #\n",
    # at the edge of the whole-buffer parse: the plain cases take it, the
    # near-plain ones miss it by a byte or a line
    "plain": "0\t1\n1 2\n",
    "plain-space-separator": "0 1\n",
    "plain-long-leading-zeros": "0000000000000000000001\t2\n",
    "plain-header": "# Directed graph\n#\n# FromNodeId\tToNodeId\n0\t1\n1 2\n2\t0\n",
    "plain-crlf": "# FromNodeId\tToNodeId\r\n0\t1\r\n1 2\r\n",
    "near-plain-header-with-cr": "# header\r0\t1\n1\t2\n",
    "near-plain-crlf-then-cr": "0\t1\r\n1\t2\r2\t3\r\n",
    "near-plain-inner-comment": "0\t1\n# c\n1\t2\n",
    "near-plain-no-final-newline": "0\t1\n1\t2",
    "near-plain-empty-target": "1\t\n",
    "near-plain-leading-tab": "\t1\n2\t3\n",
    "near-plain-double-tab": "1\t\t2\n",
}


@pytest.mark.filterwarnings("error")
class TestReaderMatchesLineLoop:
    """numpy's parse is taken only where it agrees with the line loop."""

    @pytest.mark.parametrize("case", sorted(READER_CASES))
    def test_named_case(self, case, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        assert_reads_like_reference(path)

    @pytest.mark.parametrize("case", sorted(c for c in READER_CASES if c.startswith("plain")))
    def test_plain_files_skip_the_slower_readers(self, case, tmp_path):
        path = tmp_path / "graph.tsv"
        path.write_bytes(READER_CASES[case].encode("utf-8"))
        with mock.patch.object(digraph, "_parse_edge_lines", side_effect=AssertionError):
            assert_reads_like_reference(path)

    @pytest.mark.parametrize("case", sorted(c for c in READER_CASES if c.startswith("near-plain")))
    def test_near_plain_files_are_refused(self, case):
        assert digraph._parse_plain_edges(READER_CASES[case].encode("utf-8")) is None

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_lines(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "random-lines.tsv"
        path.write_bytes(data.draw(edge_list_texts()).encode("utf-8"))
        assert_reads_like_reference(path)


@st.composite
def edge_list_texts(draw):
    """Edge-list text, mostly two ids a line.  A third of the files are plain
    'id<TAB or SPACE>id' lines under up to two '#' lines, all ending in LF or
    all in CRLF, most often with a final line end, as the whole-buffer parse
    takes them.  Of the rest, half also mix signs, punctuation, CR, non-ASCII
    digits, a BOM and NUL into the ids.  Ids have at most 5 characters, so
    every id stays below 2**63, past which the two readers stop at different
    lines; named cases cover that boundary."""
    alphabet = list("0123456789")
    if draw(st.integers(0, 2)) == 0:
        ident = st.text(st.sampled_from(alphabet), min_size=1, max_size=5)
        header = st.sampled_from(["#", "# FromNodeId\tToNodeId", "#0 1"])
        lines = [draw(header) for _ in range(draw(st.integers(0, 2)))]
        lines += [draw(ident) + draw(st.sampled_from("\t ")) + draw(ident)
                  for _ in range(draw(st.integers(0, 5)))]
        end = draw(st.sampled_from(["\n", "\r\n"]))
        return end.join(lines) + draw(st.sampled_from([end] * 4 + [""]))
    if draw(st.booleans()):
        alphabet = alphabet * 4 + list("+-._x#\r") + ["\u0663", "\uff15", "\ufeff", "\x00"]
    ident = st.text(st.sampled_from(alphabet), min_size=1, max_size=5)
    space = st.text(st.sampled_from(" \t\x0b\x0c"), min_size=1, max_size=2)
    lines = []
    sign = st.sampled_from([""] * 20 + ["+", "-"])
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.sampled_from([2] * 20 + [0, 1, 3]))
        line = "".join(draw(space) + draw(sign) + draw(ident) for _ in range(count))
        lines.append(line + draw(st.sampled_from(["", " ", "#", " # 0 1"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


class TestWriterMatchesFormat:
    # A graph with ids near 2**63 cannot hold its degree arrays, so the
    # writer gets a stand-in carrying only the edge arrays it reads.
    @staticmethod
    def edges(src, dst):
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        return SimpleNamespace(src=src, dst=dst, edge_count=src.size)

    def test_every_decimal_width(self, tmp_path):
        ids = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)]
        # 4-digit groups that keep their leading zeros after a non-zero group
        ids += [10**4 + 5, 12_0034, 10**8 + 10**4 + 1, 1_0000_0000_0000_0005,
                90_0000_5000_0000_0600, 2**63 - 1]
        src = np.array(ids, dtype=np.int64)
        path = tmp_path / "graph.tsv"
        for s, d in ((src, src[::-1]), (src, np.zeros_like(src)), (src[:1], src[-1:])):
            write_edge_list(self.edges(s, d), path)
            assert path.read_bytes() == edge_lines_reference(s, d)

    def test_empty_graph(self, tmp_path):
        path = tmp_path / "graph.tsv"
        write_edge_list(DirectedMultigraph(3, [], []), path)
        assert path.read_bytes() == b""

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunk_boundaries(self, offset, tmp_path):
        m = digraph._WRITE_ROWS + offset
        rng = np.random.default_rng(offset + 5)
        src = rng.integers(0, 1000, m)
        dst = rng.integers(0, 1000, m)
        # the last row is wider than the others
        src[-1], dst[-1] = 12345, 123456
        g = DirectedMultigraph(123457, src, dst)
        path = tmp_path / "graph.tsv"
        write_edge_list(g, path)
        assert path.read_bytes() == edge_lines_reference(g.src, g.dst)
        h = read_edge_list(path)
        assert np.array_equal(h.src, g.src) and np.array_equal(h.dst, g.dst)


class TestDegreeTypePair:
    def test_labels(self):
        assert OUT_IN.label == "out-in"
        assert DegreeTypePair.from_label("in-in") == DegreeTypePair("in", "in")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            DegreeTypePair("up", "in")
