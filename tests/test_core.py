import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_GROUPS_EDGE_MEMBERS, random_hypergraph
from hglattice import (
    BitVec,
    DimensionError,
    IngestionError,
    closure,
    dedup_edges,
    extent_prime,
    from_edge_list,
    intent_prime,
    is_bottomed,
    is_topped,
    overlap_size,
)
from hglattice.core import Hypergraph, IncidenceMatrix


class TestFromEdgeList:
    def test_seven_groups(self, seven_groups):
        built = from_edge_list(
            [(name, sorted(SEVEN_GROUPS_EDGE_MEMBERS[name])) for name in "1234567"]
        )
        assert built.n_vertices == 7
        assert built.n_edges == 7
        for name, members in SEVEN_GROUPS_EDGE_MEMBERS.items():
            j = built.edge_index[name]
            assert set(built.vertex_names_of(built.edge_column(j))) == members
            # and the CSV ingestion agrees cell for cell
            k = seven_groups.edge_index[name]
            assert set(seven_groups.vertex_names_of(seven_groups.edge_column(k))) == members

    def test_empty(self):
        h = from_edge_list([])
        assert h.n_vertices == 0
        assert h.n_edges == 0

    def test_single_edge(self):
        h = from_edge_list([("e1", ["a", "b"])])
        assert h.n_vertices == 2
        assert h.n_edges == 1
        assert h.edge_column(0) == h.vertex_subset(["a", "b"])

    def test_first_appearance_order(self):
        h = from_edge_list([("x", ["q", "p"]), ("y", ["a", "q"])])
        assert h.vertex_names == ("q", "p", "a")

    def test_duplicate_edge_name(self):
        with pytest.raises(IngestionError, match="dup"):
            from_edge_list([("dup", ["a"]), ("dup", ["b"])])


class TestPrimes:
    def test_intent_of_g(self, seven_groups):
        a = seven_groups.vertex_subset(["g"])
        assert set(seven_groups.edge_names_of(intent_prime(seven_groups, a))) == {"5", "6", "7"}

    def test_intent_of_empty_is_all_edges(self, seven_groups):
        a = BitVec.empty(7)
        assert intent_prime(seven_groups, a) == BitVec.full(7)

    def test_intent_of_ab(self, seven_groups):
        a = seven_groups.vertex_subset(["a", "b"])
        assert set(seven_groups.edge_names_of(intent_prime(seven_groups, a))) == {"2", "4"}

    def test_extent_of_234(self, seven_groups):
        b = seven_groups.edge_subset(["2", "3", "4"])
        assert set(seven_groups.vertex_names_of(extent_prime(seven_groups, b))) == {"a"}

    def test_extent_of_empty_is_all_vertices(self, seven_groups):
        assert extent_prime(seven_groups, BitVec.empty(7)) == BitVec.full(7)

    def test_extent_of_15(self, seven_groups):
        b = seven_groups.edge_subset(["1", "5"])
        assert set(seven_groups.vertex_names_of(extent_prime(seven_groups, b))) == {"e"}

    def test_width_mismatch(self, seven_groups):
        with pytest.raises(DimensionError):
            intent_prime(seven_groups, BitVec.empty(6))
        with pytest.raises(DimensionError):
            extent_prime(seven_groups, BitVec.empty(8))


class TestIncidenceRows:
    @pytest.mark.parametrize("seed", range(30))
    def test_rows_transpose_columns(self, seed):
        chi = random_hypergraph(seed).chi
        assert len(chi.rows) == chi.n_vertices
        for k, row in enumerate(chi.rows):
            for j, col in enumerate(chi.columns):
                assert (row >> j) & 1 == (col >> k) & 1


class TestClosure:
    def test_closure_of_f(self, seven_groups):
        # {f}' = {5,6}, then {5,6}' = {f,g}
        got = closure(seven_groups, seven_groups.vertex_subset(["f"]))
        assert set(seven_groups.vertex_names_of(got)) == {"f", "g"}

    def test_closure_of_empty(self, seven_groups):
        # no vertex lies in all seven groups, so the closure stays empty
        assert closure(seven_groups, BitVec.empty(7)) == BitVec.empty(7)

    def test_ad_is_closed(self, seven_groups):
        a = seven_groups.vertex_subset(["a", "d"])
        assert closure(seven_groups, a) == a


class TestDedup:
    def test_seven_groups_is_identity(self, seven_groups):
        reduced, mapping = dedup_edges(seven_groups)
        assert reduced is seven_groups
        assert mapping == {j: j for j in range(7)}

    def test_exact_duplicate(self):
        h = from_edge_list([("p", ["a", "b"]), ("q", ["a", "b"])])
        reduced, mapping = dedup_edges(h)
        assert reduced.n_edges == 1
        assert reduced.edge_names == ("p",)
        assert mapping == {0: 0, 1: 0}

    def test_interleaved_duplicate(self):
        h = from_edge_list([("p", ["a"]), ("q", ["b"]), ("r", ["a"])])
        reduced, mapping = dedup_edges(h)
        assert reduced.n_edges == 2
        assert mapping == {0: 0, 1: 1, 2: 0}

    def test_idempotent_and_preserves_extents(self):
        for seed in range(40):
            h = random_hypergraph(seed)
            reduced, mapping = dedup_edges(h)
            again, identity = dedup_edges(reduced)
            assert again is reduced
            assert identity == {j: j for j in range(reduced.n_edges)}
            # extent_prime is preserved through the index map
            for bits in range(1 << min(h.n_edges, 6)):
                b = BitVec(h.n_edges, bits)
                mapped = BitVec.of(
                    reduced.n_edges, {mapping[j] for j in b}
                )
                assert extent_prime(h, b) == extent_prime(reduced, mapped)


class TestToppedBottomed:
    def test_seven_groups(self, seven_groups):
        assert not is_topped(seven_groups)
        assert not is_bottomed(seven_groups)

    def test_single_full_edge(self):
        h = from_edge_list([("e1", ["a", "b"])])
        assert is_topped(h)
        assert not is_bottomed(h)

    def test_empty_edge(self):
        h = Hypergraph(("a",), ("e1",), IncidenceMatrix(1, 1, (0,)))
        assert not is_topped(h)
        assert is_bottomed(h)


class TestOverlap:
    def test_pairs(self, seven_groups):
        e = seven_groups.edge_index
        assert overlap_size(seven_groups, e["2"], e["3"]) == 2
        assert overlap_size(seven_groups, e["1"], e["3"]) == 0

    def test_self_overlap(self, seven_groups):
        for name in "1234567":
            j = seven_groups.edge_index[name]
            assert overlap_size(seven_groups, j, j) == seven_groups.edge_column(j).count

    def test_out_of_range(self, seven_groups):
        with pytest.raises(IndexError):
            overlap_size(seven_groups, 0, 7)


def subset_strategy(width):
    return st.integers(min_value=0, max_value=(1 << width) - 1)


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=120, deadline=None)
def test_prime_operators_are_antitone(seed, data):
    h = random_hypergraph(seed)
    a1 = data.draw(subset_strategy(h.n_vertices))
    a2 = data.draw(subset_strategy(h.n_vertices))
    small, big = BitVec(h.n_vertices, a1 & a2), BitVec(h.n_vertices, a1 | a2)
    assert intent_prime(h, big).issubset(intent_prime(h, small))
    b1 = data.draw(subset_strategy(h.n_edges))
    b2 = data.draw(subset_strategy(h.n_edges))
    bs, bb = BitVec(h.n_edges, b1 & b2), BitVec(h.n_edges, b1 | b2)
    assert extent_prime(h, bb).issubset(extent_prime(h, bs))


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=120, deadline=None)
def test_closure_laws(seed, data):
    h = random_hypergraph(seed)
    bits = data.draw(subset_strategy(h.n_vertices))
    a = BitVec(h.n_vertices, bits)
    c = closure(h, a)
    assert a.issubset(c)
    assert closure(h, c) == c
    # monotone: closing a superset gives a superset
    extra = data.draw(subset_strategy(h.n_vertices))
    bigger = BitVec(h.n_vertices, bits | extra)
    assert c.issubset(closure(h, bigger))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_singleton_edge_round_trip(seed):
    h = random_hypergraph(seed)
    for j in range(h.n_edges):
        single = BitVec.of(h.n_edges, [j])
        assert extent_prime(h, single) == h.edge_column(j)
