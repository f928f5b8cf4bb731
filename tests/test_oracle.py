import pytest

from conftest import random_dedup_hypergraph
from hglattice import (
    SizeLimitError,
    build_lattice_naive,
    from_edge_list,
    intersection_complex_bruteforce,
    oracle_components,
    oracle_shortest_s_path,
    s_line_graph,
)


class TestSLineGraph:
    def test_seven_groups_s2_adjacency(self, seven_groups):
        g = s_line_graph(seven_groups, 2)
        e = seven_groups.edge_index
        assert set(g.nodes) == {e[n] for n in "123456"}  # edge 7 too small
        assert g.adjacency == {
            e["1"]: (e["2"],),
            e["2"]: tuple(sorted((e["1"], e["3"], e["4"]))),
            e["3"]: (e["2"],),
            e["4"]: (e["2"],),
            e["5"]: (e["6"],),
            e["6"]: (e["5"],),
        }

    def test_seven_groups_s1_connected(self, seven_groups):
        g = s_line_graph(seven_groups, 1)
        assert len(g.nodes) == 7
        assert len(oracle_components(seven_groups, 1)) == 1

    def test_s_above_max_edge_size(self, seven_groups):
        g = s_line_graph(seven_groups, 5)
        assert g.nodes == ()
        assert g.adjacency == {}

    def test_s_below_one(self, seven_groups):
        with pytest.raises(ValueError, match="^s must be a positive integer, got 0$"):
            s_line_graph(seven_groups, 0)

    def test_adjacency_symmetric_irreflexive(self):
        for seed in range(30):
            h = random_dedup_hypergraph(seed)
            for s in (1, 2):
                g = s_line_graph(h, s)
                for i in g.nodes:
                    assert i not in g.adjacency[i]
                    for j in g.adjacency[i]:
                        assert i in g.adjacency[j]


class TestOraclePath:
    def test_seven_groups_s1(self, seven_groups):
        e = seven_groups.edge_index
        got = oracle_shortest_s_path(seven_groups, 1, e["3"], e["7"])
        assert got is not None
        assert got[0] == 4

    def test_seven_groups_s2_unreachable(self, seven_groups):
        e = seven_groups.edge_index
        assert oracle_shortest_s_path(seven_groups, 2, e["3"], e["7"]) is None

    def test_self_distance_zero(self, seven_groups):
        e = seven_groups.edge_index
        assert oracle_shortest_s_path(seven_groups, 1, e["3"], e["3"]) == (0, [e["3"]])


class TestOracleComponents:
    def test_seven_groups_s2(self, seven_groups):
        assert oracle_components(seven_groups, 2) == [("1", "2", "3", "4"), ("5", "6")]

    def test_seven_groups_s1(self, seven_groups):
        assert len(oracle_components(seven_groups, 1)) == 1

    def test_empty(self):
        assert oracle_components(from_edge_list([]), 1) == []


class TestIntersectionComplex:
    def test_seven_groups_matches_lattice_extents(self, seven_groups, seven_groups_lattice):
        family = intersection_complex_bruteforce(seven_groups)
        assert len(family) == 13
        assert family == set(seven_groups_lattice.extent_bits)

    def test_two_singletons_topped(self):
        h = from_edge_list([("1", ["a"]), ("2", ["b"])])
        family = intersection_complex_bruteforce(h)
        assert family == {0b00, 0b01, 0b10, 0b11}

    def test_size_guard(self):
        h = from_edge_list([(f"e{j}", [f"v{j}"]) for j in range(21)])
        with pytest.raises(SizeLimitError, match="20"):
            intersection_complex_bruteforce(h)

    def test_random_matches_lattice(self):
        for seed in range(60):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            family = intersection_complex_bruteforce(h)
            assert family == set(lat.extent_bits), seed
