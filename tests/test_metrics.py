import numpy as np
import pytest

from seedclust import Partition, from_edges, modularity
from seedclust.datasets import random_connected_graph, two_clique_bridge

from conftest import brute_conductance, min_conductance_bruteforce


def two_triangles_bridge():
    return from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)])


def test_conductance_path():
    g = from_edges([("a", "b"), ("b", "c"), ("c", "d")])
    assert brute_conductance(g, [0, 1]) == pytest.approx(1 / 3)


def test_conductance_k5_side(two_k5):
    assert brute_conductance(two_k5, range(5)) == pytest.approx(1 / 21)


def test_conductance_singleton_is_one(karate):
    assert brute_conductance(karate, [5]) == 1.0


def test_conductance_symmetry(karate):
    rng = np.random.default_rng(1)
    for _ in range(20):
        size = int(rng.integers(1, 33))
        s = rng.choice(34, size=size, replace=False)
        rest = np.setdiff1d(np.arange(34), s)
        assert brute_conductance(karate, s) == pytest.approx(brute_conductance(karate, rest))


def test_conductance_bounds_and_component_zero(two_triangles):
    assert brute_conductance(two_triangles, [0, 1, 2]) == 0.0
    for g in (two_triangles,):
        rng = np.random.default_rng(2)
        for _ in range(20):
            size = int(rng.integers(1, g.vertex_count))
            s = rng.choice(g.vertex_count, size=size, replace=False)
            assert 0.0 <= brute_conductance(g, s) <= 1.0


def test_bruteforce_two_triangles():
    g = two_triangles_bridge()
    members, phi = min_conductance_bruteforce(g)
    assert phi == pytest.approx(1 / 7)
    assert sorted(members.tolist()) in ([0, 1, 2], [3, 4, 5])


def test_bruteforce_k4():
    k4 = from_edges([(a, b) for a in range(4) for b in range(a + 1, 4)])
    _, phi = min_conductance_bruteforce(k4)
    assert phi == pytest.approx(2 / 3)


def test_bruteforce_single_edge():
    g = from_edges([("a", "b")])
    members, phi = min_conductance_bruteforce(g)
    assert phi == 1.0
    assert members.size == 1


def test_bruteforce_refuses_large_graphs():
    g = random_connected_graph(24, 10, rng_seed=0)
    with pytest.raises(ValueError):
        min_conductance_bruteforce(g)


def test_bruteforce_matches_direct_scan():
    for seed in range(5):
        g = random_connected_graph(9, 6, rng_seed=seed)
        members, phi = min_conductance_bruteforce(g)
        assert phi == pytest.approx(brute_conductance(g, members))


def test_modularity_single_block_zero(karate):
    assert modularity(karate, Partition(np.zeros(34, dtype=np.int64))) == pytest.approx(0.0)


def test_modularity_two_triangles(two_triangles):
    p = Partition(np.array([0, 0, 0, 1, 1, 1]))
    assert modularity(two_triangles, p) == pytest.approx(0.5)


def test_modularity_two_k5(two_k5):
    p = Partition(np.array([0] * 5 + [1] * 5))
    expect = 2 * (10 / 21 - 0.25)
    assert modularity(two_k5, p) == pytest.approx(expect)


def test_modularity_singletons_negative(karate):
    p = Partition(np.arange(34))
    assert modularity(karate, p) < 0.0


def test_modularity_relabel_invariant(karate):
    rng = np.random.default_rng(3)
    base = rng.integers(0, 4, size=34)
    _, dense = np.unique(base, return_inverse=True)
    p1 = Partition(dense)
    perm = rng.permutation(p1.block_count)
    p2 = Partition(perm[dense])
    assert modularity(karate, p1) == pytest.approx(modularity(karate, p2))


def test_partition_validation(karate):
    with pytest.raises(ValueError):
        Partition(np.array([0, 2]))  # gap -> empty block 1
    with pytest.raises(ValueError):
        Partition(np.array([-1, 0]))
    with pytest.raises(ValueError, match="empty vertex set"):
        Partition([])
    with pytest.raises(ValueError, match="partition size does not match graph"):
        modularity(karate, Partition(np.zeros(33, dtype=np.int64)))


@pytest.mark.parametrize("ids", [[2**64, 0], [2**70, 0], [None, 0]])
def test_partition_refuses_block_ids_that_do_not_cast(ids):
    # an object array's int beyond int64 raised a bare OverflowError
    with pytest.raises(ValueError, match="^block ids must be integers$"):
        Partition(np.array(ids, dtype=object))


def test_partition_refuses_a_block_id_beyond_its_size_before_counting():
    # a count array up to 2**62 would not fit in memory
    with pytest.raises(ValueError, match="^block ids must be dense"):
        Partition(np.array([0, 2**62]))


@pytest.mark.parametrize("ids", [[0, 1.5, 1], [0, np.nan, 1], [0, np.inf, 1]])
def test_partition_rejects_non_integer_block_ids(ids):
    # an int64 cast would make 1.5 block 1
    with pytest.raises(ValueError, match="^block ids must be integers$"):
        Partition(np.array(ids))


def test_partition_refuses_bool_block_ids():
    # an int64 cast made [True, False] blocks [1, 0]
    with pytest.raises(ValueError, match="^block ids must be integers$"):
        Partition(np.array([True, False]))


@pytest.mark.parametrize(
    "ids",
    [[0, True], [np.True_, 0], (0, False, 1), np.array([0, True], dtype=object)],
    ids=["list", "numpy bool in a list", "tuple", "object array"],
)
def test_partition_refuses_a_bool_among_integer_block_ids(ids):
    # np.asarray makes a list's True the int 1: [0, True] would be blocks [0, 1]
    with pytest.raises(ValueError, match="^block ids must be integers$"):
        Partition(ids)
    assert Partition([0, 1, 1]).assignments.tolist() == [0, 1, 1]
    assert Partition(np.array([1, 0], dtype=object)).assignments.tolist() == [1, 0]


def test_partition_rejects_2d_block_ids():
    with pytest.raises(ValueError, match=r"^block ids must be one per vertex.*got shape \(17, 2\)$"):
        Partition(np.zeros((17, 2), dtype=np.int64))


def test_partition_csv_roundtrip(karate):
    p = Partition(np.array([0] * 17 + [1] * 17))
    text = p.to_csv(karate)
    back = Partition.from_csv(text, karate)
    assert np.array_equal(back.assignments, p.assignments)


def test_partition_csv_renumbers_in_sorted_block_order():
    g = from_edges([("a", "b"), ("b", "c")])
    p = Partition.from_csv("vertex,block\na,5\nb,2\nc,5\n", g)
    assert p.assignments.tolist() == [1, 0, 1]


def test_partition_csv_missing_vertex(karate):
    with pytest.raises(ValueError):
        Partition.from_csv("vertex,block\n0,0\n", karate)


def test_partition_csv_negative_block_names_label_and_id(karate):
    with pytest.raises(ValueError, match="vertex '0' negative block id -3"):
        Partition.from_csv("vertex,block\n0,-3\n", karate)


# a block id is ASCII digits: not digit groups, not other scripts' digits
@pytest.mark.parametrize("row", ["0", "0,a", "0,", "0,1_0", "0,\u0661"])
def test_partition_csv_malformed_row_names_line_and_text(karate, row):
    with pytest.raises(ValueError, match=f"line 3 is '{row}', not vertex,block"):
        Partition.from_csv(f"vertex,block\n1,0\n{row}\n", karate)


@pytest.mark.parametrize(
    "row, fault",
    [
        ("0,9223372036854775808", "block id beyond int64"),
        ("0,99999999999999999999999", "block id beyond int64"),
        # past int()'s 4,300-digit limit
        pytest.param("0," + "9" * 5000, "block id beyond int64", id="0,9*5000-beyond"),
        ("0,00009223372036854775808", "block id beyond int64"),
        ("0,1,2", "unknown vertex label '0,1'"),
        ("0 ,1", "unknown vertex label '0 '"),
    ],
)
def test_partition_csv_oversized_block_or_unknown_label_names_line_and_text(karate, row, fault):
    with pytest.raises(ValueError, match=f"^partition CSV line 3 is '{row}': {fault}$"):
        Partition.from_csv(f"vertex,block\n1,0\n{row}\n", karate)


def test_partition_csv_names_both_lines_of_a_repeated_vertex():
    g = from_edges([("a", "b"), ("b", "c")])
    with pytest.raises(ValueError, match="vertex 'a' on lines 2 and 4"):
        Partition.from_csv("vertex,block\na,0\nb,0\na,1\nc,1\n", g)


@pytest.mark.parametrize("header", ["", "vertex,block\n", "Vertex,Block\n", "VERTEX , block\n"])
def test_partition_csv_header_is_a_vertex_cell_of_vertex(header):
    g = from_edges([("vertexA", "b"), ("b", "c")])
    p = Partition.from_csv(header + "vertexA,1\nb,0\nc,1\n", g)
    assert p.assignments.tolist() == [1, 0, 1]
