import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loader_oracle

from seedclust import (
    DiffusionConfig,
    EdgeListParseError,
    EmptyGraphError,
    component_of,
    from_edges,
    load_edge_list,
    run_diffusion,
)
from seedclust.datasets import ring_of_cliques
from seedclust.graph import _code_points, _edge_tokens, _position_type

from conftest import dense, dense_transition_matrix, random_graphs

ONE_STEP = DiffusionConfig(alpha=0.0, max_iterations=1, convergence_epsilon=0.0)


def one_step(g, x) -> np.ndarray:
    """Column x of the lazy transition rule, as one untruncated ``run_diffusion`` step from x."""
    mass, _ = run_diffusion(g, x, ONE_STEP)
    return dense(mass, g.vertex_count)


def test_load_path_of_three():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.vertex_count == 3
    assert g.edge_count == 2
    assert g.degrees.tolist() == [1, 2, 1]


def test_load_collapses_symmetric_duplicate():
    g = load_edge_list(io.StringIO("a b\nb a\n"))
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.load_report.duplicate_edges == 1


def test_load_drops_self_loops_and_skips_comments():
    g = load_edge_list(io.StringIO("# comment\n% also comment\n\n0 0\n0 1\n"))
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert g.load_report.self_loops == 1


def test_load_reads_a_str_as_a_path(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("a b\nb c\n")
    assert load_edge_list(str(path)).labels == load_edge_list(path).labels == ("a", "b", "c")
    # edge-list text is read from a stream, never from a str
    with pytest.raises(OSError):
        load_edge_list("a b\nb c\n")


def test_load_karate(karate):
    assert karate.vertex_count == 34
    assert karate.edge_count == 78


def test_malformed_line_reports_number():
    with pytest.raises(EdgeListParseError) as err:
        load_edge_list(io.StringIO("0 1\n0 1 2\n"))
    assert err.value.line_no == 2


def test_empty_source_is_distinct_error():
    with pytest.raises(EmptyGraphError):
        load_edge_list(io.StringIO("# nothing\n"))


def test_load_is_deterministic(karate):
    text = "\n".join(f"{u} {v}" for u in range(34) for v in karate.neighbors(u) if u < v)
    g1 = load_edge_list(io.StringIO(text))
    g2 = load_edge_list(io.StringIO(text))
    assert g1.labels == g2.labels
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)


def test_adjacency_symmetry(karate):
    for u in range(karate.vertex_count):
        for v in karate.neighbors(u):
            assert u in karate.neighbors(int(v))


def test_degree_sum_is_twice_edges(karate):
    assert int(karate.degrees.sum()) == 2 * karate.edge_count


def test_transition_prob_values():
    g = from_edges([(0, 1), (0, 2)])  # vertex 0 has degree 2
    # stay 1/2, each neighbour 1/(2 d), non-neighbours 0
    assert one_step(g, 0).tolist() == [0.5, 0.25, 0.25]
    assert one_step(g, 1).tolist() == [0.5, 0.5, 0.0]


def test_transition_prob_errors():
    g = load_edge_list(io.StringIO("0 1\n2 3\n"))
    with pytest.raises(IndexError):
        run_diffusion(g, 99)
    from seedclust.graph import Graph

    with pytest.raises(ValueError, match="vertex 0 \\('x'\\) has no edge"):
        Graph(
            indptr=np.array([0, 0], dtype=np.int64),
            indices=np.array([], dtype=np.int64),
            labels=("x",),
        )


def test_graph_refuses_labels_that_are_not_one_per_row(karate):
    # unrefused, a label short leaves vertex 33 outside a 33-vertex graph
    # that diffusions still reach, and a label too many lets seed 34 index
    # past indptr
    from seedclust.graph import Graph

    for labels, count in [(karate.labels[:-1], 33), (karate.labels + ("extra",), 35), ((), 0)]:
        refused = f"^labels must be one per row of indptr: {count} for 34$"
        with pytest.raises(ValueError, match=refused):
            Graph(indptr=karate.indptr, indices=karate.indices, labels=labels)
    same = Graph(karate.indptr, karate.indices, karate.labels)
    # degrees are the row lengths, whether the graph is loaded, generated or built by hand
    for g in (karate, same, ring_of_cliques(4, 3), from_edges([(0, 1), (1, 2)])):
        assert g.degrees.dtype == np.int64
        np.testing.assert_array_equal(g.degrees, np.diff(g.indptr))


@pytest.mark.parametrize(
    "indptr, indices, refused",
    [
        # numpy's unnamed "repeats may not contain negative values" in a diffusion
        ([0, 2, 1, 3], [1, 2, 0], r"^indptr must be strictly increasing: vertex 1 \('b'\) has no"),
        # an unsigned indptr wraps where it falls, so its degrees read positive
        (np.array([0, 2, 1, 3], dtype=np.uint64), [1, 2, 0], "^indptr must be a 1-D array"),
        # a cluster of conductance 0.0 on a graph whose last row reads past indices
        ([0, 1, 2, 4], [1, 0, 1], r"^indptr must end at indices.size 3, got 4$"),
        ([0, 1, 2, 2], [1, 0, 1], r"^indptr must be strictly increasing: vertex 2 \('c'\) has no"),
        # ran silently, row 0 empty
        ([1, 2, 3, 4], [1, 0, 1], "^indptr must start at 0"),
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64), "^indptr must start at 0"),
        # bare IndexErrors, or a silent wrap to the last vertex
        ([0, 1, 2, 3], [1, 5, 1], r"^indices must lie in \[0, 3\), got 1..5$"),
        ([0, 1, 2, 3], [1, -1, 1], r"^indices must lie in \[0, 3\), got -1..1$"),
        ([0.0, 1.0, 2.0, 3.0], [1, 0, 1], "^indptr must be a 1-D array of signed integers"),
        ([0, 1, 2, 3], [[1], [0], [1]], "^indices must be a 1-D array of signed integers"),
        ([0, 1, 2, 3], [1.0, 0.0, 1.0], "^indices must be a 1-D array of signed integers"),
    ],
)
def test_graph_refuses_a_spoilt_csr_shape(indptr, indices, refused):
    from seedclust.graph import Graph

    labels = ("a", "b", "c")[: max(len(indptr) - 1, 0)]
    with pytest.raises(ValueError, match=refused):
        Graph(np.asarray(indptr), np.asarray(indices), labels)


def test_graph_refuses_csr_arrays_that_are_not_arrays(karate):
    from seedclust.graph import Graph

    with pytest.raises(ValueError, match="^indptr must be a 1-D array of signed integers"):
        Graph(karate.indptr.tolist(), karate.indices, karate.labels)
    with pytest.raises(ValueError, match="^indices must be a 1-D array of signed integers"):
        Graph(karate.indptr, None, karate.labels)
    # int32 arrays are integers too
    g = Graph(karate.indptr.astype(np.int32), karate.indices.astype(np.int32), karate.labels)
    assert g.degrees.tolist() == karate.degrees.tolist()


def test_transition_rows_sum_to_one():
    for g in random_graphs(6, n_max=40):
        dense = dense_transition_matrix(g)
        for u in range(g.vertex_count):
            column = one_step(g, u)
            assert abs(column.sum() - 1.0) < 1e-12
            assert np.array_equal(column, dense[:, u])


def test_ring_of_cliques_needs_three_cliques():
    assert ring_of_cliques(3, 2).edge_count == 6
    with pytest.raises(ValueError, match="need at least 3 cliques"):
        ring_of_cliques(2, 5)


def test_component_of_connected(karate):
    assert component_of(karate, 0).size == 34


def test_component_of_disjoint_triangles(two_triangles):
    assert component_of(two_triangles, 0).tolist() == [0, 1, 2]
    assert component_of(two_triangles, 4).tolist() == [3, 4, 5]


def test_labels_interned_in_first_appearance_order():
    g = load_edge_list(io.StringIO("b a\nc a\n"))
    assert g.labels == ("b", "a", "c")


def test_labels_roundtrip(path4):
    for u in range(path4.vertex_count):
        assert path4.index_of(path4.label_of(u)) == u
    with pytest.raises(KeyError, match="unknown vertex label 'zz'"):
        path4.index_of("zz")


def test_label_index_is_built_on_first_lookup():
    g = from_edges([("p", "q"), ("q", "r")])
    assert "_label_index" not in vars(g)
    assert g.index_of("r") == 2
    assert g._label_index == {"p": 0, "q": 1, "r": 2}
    with pytest.raises(KeyError, match="unknown vertex label 'x'"):
        g.index_of("x")


@pytest.mark.parametrize(
    "pairs, labels, edges",
    [
        ([("%p", "q"), ("q", "r")], ("%p", "q", "r"), 2),
        ([("#a", "b")], ("#a", "b"), 1),
        ([("x y", "z")], ("x y", "z"), 1),
    ],
)
def test_from_edges_keeps_labels_the_parser_would_reject(pairs, labels, edges):
    g = from_edges(pairs)
    assert g.labels == labels
    assert g.edge_count == edges


def test_from_edges_matches_loader_on_the_same_text():
    pairs = [(3, 1), ("a", 3), (1, 3), (2, 2), (1, "a")]
    g = from_edges(pairs)
    h = load_edge_list(io.StringIO("".join(f"{u} {v}\n" for u, v in pairs)))
    assert g.labels == h.labels == ("3", "1", "a")  # "2" only loops on itself
    assert np.array_equal(g.indptr, h.indptr)
    assert np.array_equal(g.indices, h.indices)
    assert g.load_report == h.load_report
    assert g.load_report.isolated_labels == 1


def test_token_positions_are_int32_while_they_fit_and_graph_arrays_int64():
    # the type is chosen from the text's length, so no such text is built
    assert _position_type(2**31 - 1) == np.int32
    assert _position_type(2**31) == np.int64
    text = "a b\nb c\n"
    starts, lens = _edge_tokens(text, *_code_points(text))
    assert starts.dtype == lens.dtype == np.int32
    for g in (load_edge_list(io.StringIO(text)), from_edges([("a", "b"), ("b", "c")])):
        assert g.indptr.dtype == g.indices.dtype == g.degrees.dtype == np.int64


def test_load_peak_memory_is_a_bounded_multiple_of_the_text():
    """The arrays a load allocates, traced by tracemalloc, stay below 10 times
    the text: 100k random edges between 20k labels, about 1.29 MB of text.
    Each stage frees its arrays before the next allocates; a loader that
    holds int64 token positions and keeps the text, its codes and the
    positions through the CSR build reads 12.5 times."""
    rng = np.random.default_rng(0)
    text = "".join(f"v{u} v{v}\n" for u, v in rng.integers(0, 20000, (100_000, 2)).tolist())
    load_edge_list(io.StringIO(text))  # warm up imports and caches
    source = io.StringIO(text)  # the stream's own buffer is not the loader's
    tracemalloc.start()
    try:
        load_edge_list(source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * len(text)


# 1,324 distinct labels, of lengths 1 to 12
MANY_LABELS = [f"{i:x}".rjust(1 + i % 12, "v") for i in range(1324)]

# Characters of labels: none is whitespace; "#"/"%" and NUL occur inside labels.
LABEL_CHARS = "ab01#%\x00\u00e9\u00df\u4e2d\U0001f600"
# str.split separators that do not end a line, and every str.splitlines break
GAPS = [" ", "\t", "  ", "\xa0", "\x1f", "\u3000"]
BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@st.composite
def edge_list_texts(draw):
    pool = draw(st.lists(st.text(LABEL_CHARS, min_size=1, max_size=10), min_size=1, max_size=6))
    # twins differing only by a trailing NUL, which fixed-width numpy strings drop
    pool += [label + "\x00" for label in pool[:2]]
    label = st.sampled_from(pool)
    gap = st.sampled_from(GAPS)
    lines = []
    for kind in draw(st.lists(st.sampled_from("eeeeslbcx"), max_size=12)):
        lead = draw(st.sampled_from(["", "", " ", "\t\xa0"]))
        if kind == "e":  # edge
            line = draw(label) + draw(gap) + draw(label)
        elif kind == "s":  # self-loop
            x = draw(label)
            line = x + draw(gap) + x
        elif kind == "l":  # blank
            line = draw(st.sampled_from(["", " ", "\t\xa0"]))
        elif kind == "c":  # comment, possibly indented
            line = draw(st.sampled_from("#%")) + draw(st.text(LABEL_CHARS + " ", max_size=6))
        elif kind == "b":  # one or three tokens
            line = draw(gap).join(draw(label) for _ in range(draw(st.sampled_from([1, 3]))))
        else:  # trailing whitespace after an edge
            line = draw(label) + draw(gap) + draw(label) + draw(gap)
        lines.append(lead + line)
    text = "".join(line + draw(st.sampled_from(BREAKS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("".join(BREAKS))


def load_outcome(load, source):
    """Everything a load yields: arrays with dtypes, labels and report, or the error."""
    try:
        g = load(source)
    except EdgeListParseError as err:
        return ("parse error", err.line_no, str(err))
    except EmptyGraphError as err:
        return ("empty", str(err))
    arrays = [(a.dtype.str, a.tolist()) for a in (g.indptr, g.indices, g.degrees)]
    return arrays, g.labels, g.load_report


@settings(max_examples=300, deadline=None)
@given(text=edge_list_texts())
@example(text="# only\n  % comments\n\n")
@example(text="a a\r\nb b\n")
@example(text="a b\na\x00 b\x00\n")
@example(text="x y\n\u2028p q r\n")
# 128 and 129 non-ASCII characters: 256 character ranks fit a byte, 257 do not
@example(text="".join(f"{chr(0x100 + i)} \x00\n" for i in range(128)))
@example(text="".join(f"{chr(0x100 + i)} \x00\n" for i in range(129)))
@example(text="".join(f"{a} {b}\n" for a, b in zip(MANY_LABELS, MANY_LABELS[1:])))
def test_loader_matches_per_line_oracle(text):
    got = load_outcome(load_edge_list, io.StringIO(text))
    assert got == load_outcome(loader_oracle.load_edge_list, text)


END = st.text(LABEL_CHARS + " \n", max_size=10) | st.integers(-3, 3)


@settings(max_examples=200, deadline=None)
@given(pairs=st.lists(st.tuples(END, END)))
@example(pairs=[("a", "a\x00"), ("a\x00\x00", "")])
@example(pairs=list(zip(MANY_LABELS, MANY_LABELS[1:])))
def test_from_edges_matches_per_pair_oracle(pairs):
    assert load_outcome(from_edges, pairs) == load_outcome(loader_oracle.from_edges, pairs)
