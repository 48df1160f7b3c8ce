"""Tests for edge-list IO."""

import pytest

from repro.graph.graph import Graph
from repro.graph.io import read_edge_list, read_snap_file, write_edge_list


def read_text(tmp_path, text, name="g.txt"):
    """``read_edge_list`` over a file holding ``text``."""
    path = tmp_path / name
    path.write_text(text)
    return read_edge_list(path)


class TestParsing:
    def test_basic_lines(self, tmp_path):
        g = read_text(tmp_path, "0 1\n1 2\n")
        assert g.num_edges == 2

    def test_comments_and_blanks(self, tmp_path):
        g = read_text(tmp_path, "# header\n\n0 1\n  \n# more\n1 2\n")
        assert g.num_edges == 2

    def test_self_loops_skipped(self, tmp_path):
        g = read_text(tmp_path, "0 0\n0 1\n")
        assert g.num_edges == 1

    def test_duplicate_and_reverse_edges_merged(self, tmp_path):
        g = read_text(tmp_path, "0 1\n1 0\n0 1\n")
        assert g.num_edges == 1

    def test_malformed_raises(self, tmp_path):
        with pytest.raises(ValueError, match="malformed edge line"):
            read_text(tmp_path, "justonetoken\n")

    def test_string_vertices(self, tmp_path):
        g = read_text(tmp_path, "alice bob\n")
        assert g.has_edge("alice", "bob")

    def test_mixed_tokens_normalize_to_strings(self, tmp_path):
        """A file mixing numeric and alphanumeric ids yields all-str
        labels, so downstream ``sorted()`` cannot raise TypeError."""
        g = read_text(tmp_path, "1 2\n2 x\n")
        assert g.has_edge("1", "2")
        assert g.has_edge("2", "x")
        assert sorted(g.vertices()) == ["1", "2", "x"]

    def test_all_int_tokens_stay_ints(self, tmp_path):
        g = read_text(tmp_path, "1 2\n2 3\n")
        assert sorted(g.vertices()) == [1, 2, 3]

    def test_mixed_labels_sortable_downstream(self, tmp_path):
        """Regression: enumeration leaves over a mixed-id file must be
        sortable (previously sorted() over int+str labels raised)."""
        from repro.core.kvcc import kvcc_vertex_sets

        g = read_text(tmp_path, "a 1\na 2\n1 2\na 3\n1 3\n2 3\nb 1\nb 2\n")
        for comp in kvcc_vertex_sets(g, 2):
            sorted(comp)  # must not raise TypeError
        assert all(isinstance(v, str) for v in g.vertices())

    def test_tab_separated(self, tmp_path):
        g = read_text(tmp_path, "0\t1\n1\t2\n")
        assert g.num_edges == 2

    @pytest.mark.parametrize(
        "text",
        ["source,target\n1,2\n2,3\n3,1\n", "1, 2\n2, 3\n3, 1\n"],
        ids=["header-row", "spaces-after-commas"],
    )
    def test_csv_reads_like_the_csr_reader(self, tmp_path, text):
        """CSV goes through the shared tokenizer: the header row is
        skipped and the tokens lose their padding."""
        from repro.graph.io import read_edge_list_csr

        g = read_text(tmp_path, text, name="g.csv")
        assert g == Graph([(1, 2), (2, 3), (3, 1)])
        csr, _ = read_edge_list_csr(tmp_path / "g.csv")
        assert g == csr.to_graph()


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        g = Graph([(0, 1), (1, 2), (2, 0), (2, 3)])
        path = tmp_path / "graph.txt"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g

    def test_header_is_comment(self, tmp_path):
        g = Graph([(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header=True)
        text = path.read_text()
        assert text.startswith("#")

    def test_no_header(self, tmp_path):
        g = Graph([(0, 1)])
        path = tmp_path / "g.txt"
        write_edge_list(g, path, header=False)
        assert not path.read_text().startswith("#")

    def test_snap_format(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text(
            "# Directed graph\n# Nodes: 3 Edges: 3\n0\t1\n1\t2\n2\t0\n"
        )
        g = read_snap_file(path)
        assert g.num_vertices == 3
        assert g.num_edges == 3
