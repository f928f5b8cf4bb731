import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_GROUPS_EDGE_MEMBERS, bits_of, random_hypergraph
from hglattice import (
    DimensionError,
    IngestionError,
    dedup_edges,
    extent_prime,
    from_edge_list,
    intent_prime,
    overlap_size,
)
from hglattice.core import Hypergraph, IncidenceMatrix, iter_bits, names_of
from hglattice.lattice import build_lattice_vectorized

from test_acceptance import build_quiet


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
        assert h.edge_column(0) == bits_of(h.vertex_index, ["a", "b"])

    def test_first_appearance_order(self):
        h = from_edge_list([("x", ["q", "p"]), ("y", ["a", "q"])])
        assert h.vertex_names == ("q", "p", "a")

    def test_duplicate_edge_name(self):
        with pytest.raises(IngestionError, match="dup"):
            from_edge_list([("dup", ["a"]), ("dup", ["b"])])


class TestTableChecks:
    @pytest.mark.parametrize("columns, message", [
        ((0b01,), "expected 2 columns, got 1"),
        ((0b01, 0b100), "column 1 has bits outside the 2-vertex range"),
    ])
    def test_incidence_matrix(self, columns, message):
        with pytest.raises(IngestionError, match=f"^{message}$"):
            IncidenceMatrix(2, 2, columns)

    @pytest.mark.parametrize("vertices, edges, message", [
        (("a",), ("e1",), "vertex table does not match matrix height"),
        (("a", "b"), ("e1", "e2"), "edge table does not match matrix width"),
    ])
    def test_name_tables_match_the_matrix(self, vertices, edges, message):
        with pytest.raises(IngestionError, match=f"^{message}$"):
            Hypergraph(vertices, edges, IncidenceMatrix(2, 1, (0b11,)))

    def test_lookups(self, seven_groups):
        for edge in (-1, 7):
            with pytest.raises(IndexError, match=f"^edge index {edge} out of range$"):
                seven_groups.edge_column(edge)


class TestPrimes:
    def test_intent_of_g(self, seven_groups):
        a = bits_of(seven_groups.vertex_index, ["g"])
        got = intent_prime(seven_groups, a)
        assert set(names_of(seven_groups.edge_names, got)) == {"5", "6", "7"}

    def test_intent_of_empty_is_all_edges(self, seven_groups):
        assert intent_prime(seven_groups, 0) == (1 << 7) - 1

    def test_intent_of_ab(self, seven_groups):
        a = bits_of(seven_groups.vertex_index, ["a", "b"])
        got = intent_prime(seven_groups, a)
        assert set(names_of(seven_groups.edge_names, got)) == {"2", "4"}

    def test_extent_of_234(self, seven_groups):
        b = bits_of(seven_groups.edge_index, ["2", "3", "4"])
        assert set(seven_groups.vertex_names_of(extent_prime(seven_groups, b))) == {"a"}

    def test_extent_of_empty_is_all_vertices(self, seven_groups):
        assert extent_prime(seven_groups, 0) == (1 << 7) - 1

    def test_extent_of_15(self, seven_groups):
        b = bits_of(seven_groups.edge_index, ["1", "5"])
        assert set(seven_groups.vertex_names_of(extent_prime(seven_groups, b))) == {"e"}

    def test_width_mismatch(self, seven_groups):
        # A negative int, or a bit past the last vertex or edge, does not fit.
        h = seven_groups
        for bits in (-1, 1 << h.n_vertices):
            with pytest.raises(DimensionError):
                intent_prime(h, bits)
            with pytest.raises(DimensionError):
                h.vertex_names_of(bits)
        for bits in (-1, 1 << h.n_edges):
            with pytest.raises(DimensionError):
                extent_prime(h, bits)


class TestIncidenceRows:
    @pytest.mark.parametrize("seed", range(30))
    def test_rows_transpose_columns(self, seed):
        # Row k of the incidence matrix is the intent of {k}: in the prime
        # map, and on the lattice node whose extent is the closure of {k}.
        h = random_hypergraph(seed)
        lat = build_quiet(build_lattice_vectorized, h)
        intent_of = dict(zip(lat.extent_bits, lat.intent_bits))
        for k in range(h.n_vertices):
            row = intent_prime(h, 1 << k)
            for j, col in enumerate(h.chi.columns):
                assert (row >> j) & 1 == (col >> k) & 1
            deduped = lat.hypergraph
            closed = extent_prime(deduped, intent_prime(deduped, 1 << k))
            assert intent_of[closed] == intent_prime(deduped, 1 << k)


class TestClosure:
    """The closure of a vertex set a is extent_prime(intent_prime(a))."""

    def test_closure_of_f(self, seven_groups):
        # {f}' = {5,6}, then {5,6}' = {f,g}
        f = bits_of(seven_groups.vertex_index, ["f"])
        got = extent_prime(seven_groups, intent_prime(seven_groups, f))
        assert set(seven_groups.vertex_names_of(got)) == {"f", "g"}

    def test_closure_of_empty(self, seven_groups):
        # no vertex lies in all seven groups, so the closure stays empty
        assert extent_prime(seven_groups, intent_prime(seven_groups, 0)) == 0

    def test_ad_is_closed(self, seven_groups):
        a = bits_of(seven_groups.vertex_index, ["a", "d"])
        assert extent_prime(seven_groups, intent_prime(seven_groups, a)) == a


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
            for b in range(1 << min(h.n_edges, 6)):
                mapped = 0
                for j in iter_bits(b):
                    mapped |= 1 << mapping[j]
                assert extent_prime(h, b) == extent_prime(reduced, mapped)


class TestOverlap:
    def test_pairs(self, seven_groups):
        e = seven_groups.edge_index
        assert overlap_size(seven_groups, e["2"], e["3"]) == 2
        assert overlap_size(seven_groups, e["1"], e["3"]) == 0

    def test_self_overlap(self, seven_groups):
        for name in "1234567":
            j = seven_groups.edge_index[name]
            assert overlap_size(seven_groups, j, j) == seven_groups.edge_column(j).bit_count()

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
    big_intent = intent_prime(h, a1 | a2)
    assert big_intent & intent_prime(h, a1 & a2) == big_intent
    b1 = data.draw(subset_strategy(h.n_edges))
    b2 = data.draw(subset_strategy(h.n_edges))
    big_extent = extent_prime(h, b1 | b2)
    assert big_extent & extent_prime(h, b1 & b2) == big_extent


@given(seed=st.integers(0, 10_000), data=st.data())
@settings(max_examples=120, deadline=None)
def test_closure_laws(seed, data):
    h = random_hypergraph(seed)
    bits = data.draw(subset_strategy(h.n_vertices))
    c = extent_prime(h, intent_prime(h, bits))
    assert bits & c == bits
    assert extent_prime(h, intent_prime(h, c)) == c
    # monotone: closing a superset gives a superset
    extra = data.draw(subset_strategy(h.n_vertices))
    assert c & extent_prime(h, intent_prime(h, bits | extra)) == c


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_singleton_edge_round_trip(seed):
    h = random_hypergraph(seed)
    for j in range(h.n_edges):
        assert extent_prime(h, 1 << j) == h.edge_column(j)
