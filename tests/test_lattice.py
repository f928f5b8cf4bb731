import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_GROUPS_CONCEPTS, random_dedup_hypergraph
from hglattice import (
    ConceptLattice,
    SizeLimitError,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    depth_histograms,
    edge_anchor,
    enumerate_concepts_oracle,
    from_edge_list,
    galois_labels,
    parse_lattice_document,
    serialize_lattice,
    uniform_hypergraph,
    verify_isomorphism,
)
from hglattice.core import Hypergraph, IncidenceMatrix, dedup_edges
from hglattice.lattice import concept_neighbours


def name_pairs(lat):
    h = lat.hypergraph
    return [
        (set(h.vertex_names_of(c.extent)), set(h.edge_names_of(c.intent)))
        for c in lat.nodes
    ]


class TestNaiveBuilder:
    def test_seven_groups_concepts(self, seven_groups_lattice):
        got = name_pairs(seven_groups_lattice)
        assert len(got) == 13
        for pair in SEVEN_GROUPS_CONCEPTS:
            assert pair in got

    def test_seven_groups_order_is_containment(self, seven_groups_lattice):
        lat = seven_groups_lattice
        n = len(lat)
        for i in range(n):
            for j in range(n):
                contained = lat.nodes[i].extent.issubset(lat.nodes[j].extent)
                assert ((i, j) in lat.order) == contained

    def test_single_edge_equal_to_top(self):
        lat = build_lattice_naive(from_edge_list([("1", ["a", "b"])]))
        assert len(lat) == 1
        assert lat.top_index == lat.bottom_index == 0
        assert name_pairs(lat) == [({"a", "b"}, {"1"})]

    def test_two_disjoint_singletons(self):
        lat = build_lattice_naive(
            from_edge_list([("1", ["a"]), ("2", ["b"])])
        )
        assert name_pairs(lat) == [
            (set(), {"1", "2"}),
            ({"a"}, {"1"}),
            ({"b"}, {"2"}),
            ({"a", "b"}, set()),
        ]

    def test_empty_hypergraph(self):
        lat = build_lattice_naive(from_edge_list([]))
        assert len(lat) == 1
        assert lat.top_index == lat.bottom_index == 0
        assert lat.nodes[0].extent.count == 0

    def test_auto_dedup_warns_and_matches(self):
        dup = from_edge_list([("p", ["a", "b"]), ("q", ["a", "b"]), ("r", ["b"])])
        with pytest.warns(UserWarning, match="duplicate"):
            lat = build_lattice_naive(dup)
        assert lat.hypergraph.edge_names == ("p", "r")
        assert lat.edge_aliases == {"p": 0, "q": 0, "r": 1}
        # duplicate edges resolve to their representative's anchor
        assert edge_anchor(lat, "q") == edge_anchor(lat, "p")


class TestVectorizedBuilder:
    def test_seven_groups_identical(self, seven_groups, seven_groups_lattice):
        lat = build_lattice_vectorized(seven_groups)
        assert lat == seven_groups_lattice
        assert serialize_lattice(lat) == serialize_lattice(seven_groups_lattice)

    def test_empty_identical(self):
        h = from_edge_list([])
        assert build_lattice_vectorized(h) == build_lattice_naive(h)

    def test_degenerate_shapes(self):
        cases = [
            from_edge_list([("1", ["a", "b"])]),
            from_edge_list([("1", ["a"]), ("2", ["a"])]),
            from_edge_list([("1", [])]),
            from_edge_list([("1", []), ("2", [])]),
        ]
        for h in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                assert build_lattice_vectorized(h) == build_lattice_naive(h)

    @pytest.mark.filterwarnings("ignore:hypergraph has duplicate")
    def test_random_differential(self):
        cases = [
            (f"seed {seed}", random_dedup_hypergraph(seed)) for seed in range(60)
        ]
        # Larger inputs give nodes with dozens of lower-cover candidates,
        # which the 8x8 instances above never do; the Chung-Lu one keeps
        # its duplicate columns.
        cases.append(
            ("chung-lu 120x80", chung_lu_hypergraph(120, 80, exponent=2.5, seed=9))
        )
        cases.append(("uniform 30x20", uniform_hypergraph(30, 20, seed=0)))
        for name, h in cases:
            naive = build_lattice_naive(h)
            vect = build_lattice_vectorized(h)
            assert naive == vect, f"builders disagree on {name}"
            assert serialize_lattice(naive) == serialize_lattice(vect)


@st.composite
def small_hypergraphs(draw):
    nv = draw(st.integers(0, 7))
    columns = draw(st.lists(st.integers(0, (1 << nv) - 1), max_size=7))
    h = Hypergraph(
        tuple(f"v{k}" for k in range(nv)),
        tuple(f"e{j}" for j in range(len(columns))),
        IncidenceMatrix(nv, len(columns), tuple(columns)),
    )
    return dedup_edges(h)[0]


class TestNeighbourRule:
    @given(h=small_hypergraphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_superset_meets_give_the_column_answer(self, h, data):
        chi = h.chi
        extents = [c.extent.bits for c in build_lattice_naive(h).nodes]
        x = data.draw(st.sampled_from(extents), label="x")
        y = data.draw(
            st.sampled_from([e for e in extents if e & x == e]), label="y"
        )
        _, x_meets = concept_neighbours(x, chi.columns, chi)
        (intent, closed, lower), meets = concept_neighbours(y, x_meets, chi)
        (intent0, closed0, lower0), meets0 = concept_neighbours(
            y, chi.columns, chi
        )
        assert (intent, closed, meets) == (intent0, closed0, meets0)
        assert sorted(lower) == sorted(lower0)
        # and the column answer is the concept's
        assert closed == y
        assert intent == sum(
            1 << j for j, col in enumerate(chi.columns) if y & col == y
        )

    @pytest.mark.filterwarnings("ignore:hypergraph has duplicate")
    def test_deep_chung_lu_lattice(self):
        # Eleven levels of lower covers, so meets pass down long chains.
        h = chung_lu_hypergraph(400, 200, exponent=2.2, seed=2)
        vect = build_lattice_vectorized(h)
        assert max(depth_histograms(vect).max_to_top) >= 10
        assert build_lattice_naive(h) == vect
        text = serialize_lattice(vect)
        again = parse_lattice_document(text)
        assert again == vect
        assert serialize_lattice(again) == text


class TestConceptOracle:
    def test_seven_groups(self, seven_groups, seven_groups_lattice):
        concepts = enumerate_concepts_oracle(seven_groups)
        assert len(concepts) == 13
        got = {
            (c.extent, c.intent) for c in seven_groups_lattice.nodes
        }
        assert {(c.extent, c.intent) for c in concepts} == got

    def test_single_edge(self):
        h = from_edge_list([("1", ["a", "b"])])
        concepts = enumerate_concepts_oracle(h)
        assert len(concepts) == 1

    def test_two_singletons(self):
        h = from_edge_list([("1", ["a"]), ("2", ["b"])])
        assert len(enumerate_concepts_oracle(h)) == 4

    def test_size_guard(self):
        h = from_edge_list([(f"e{j}", [f"v{j}"]) for j in range(21)])
        with pytest.raises(SizeLimitError, match="20"):
            enumerate_concepts_oracle(h)


def lower_covers(lat: ConceptLattice, i: int):
    offsets, uppers, neighbours = lat.cover_adjacency
    return neighbours[offsets[i]:uppers[i]]


def upper_covers(lat: ConceptLattice, i: int):
    offsets, uppers, neighbours = lat.cover_adjacency
    return neighbours[uppers[i]:offsets[i + 1]]


def drop_node(lat: ConceptLattice, victim: int) -> ConceptLattice:
    """Build a structurally consistent lattice object missing one node."""
    keep = [i for i in range(len(lat.nodes)) if i != victim]
    remap = {old: new for new, old in enumerate(keep)}
    return ConceptLattice(
        hypergraph=lat.hypergraph,
        nodes=tuple(lat.nodes[i] for i in keep),
        lower_covers=[
            [remap[j] for j in lower_covers(lat, i) if j != victim]
            for i in keep
        ],
        edge_anchors=tuple(remap[a] for a in lat.edge_anchors),
    )


class TestVerifyIsomorphism:
    def test_seven_groups_true(self, seven_groups, seven_groups_lattice):
        check = verify_isomorphism(
            seven_groups_lattice, enumerate_concepts_oracle(seven_groups)
        )
        assert check
        assert check.detail == ""

    def test_mutated_lattice_false(self, seven_groups, seven_groups_lattice):
        # drop a non-anchor node so the mutant stays constructible
        victim = next(
            i for i in range(len(seven_groups_lattice))
            if not seven_groups_lattice.is_anchor(i)
            and i not in (seven_groups_lattice.top_index, seven_groups_lattice.bottom_index)
        )
        mutant = drop_node(seven_groups_lattice, victim)
        check = verify_isomorphism(mutant, enumerate_concepts_oracle(seven_groups))
        assert not check
        assert "missing" in check.detail

    def test_random_instances(self):
        for seed in range(60):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            assert verify_isomorphism(lat, enumerate_concepts_oracle(h))


class TestGaloisLabels:
    def test_edge7_introduced_at_g_node(self, seven_groups_lattice):
        lat = seven_groups_lattice
        labels = {tuple(sorted(l.extent_names)): l for l in galois_labels(lat)}
        g_node = labels[("g",)]
        assert set(g_node.intent_names) == {"5", "6", "7"}
        assert g_node.introduced_edges == ("7",)

    def test_top_introduces_nothing(self, seven_groups_lattice):
        lat = seven_groups_lattice
        top = galois_labels(lat)[lat.top_index]
        assert top.intent_names == ()
        assert top.introduced_edges == ()

    def test_ad_introduces_edge3(self, seven_groups_lattice):
        labels = {
            tuple(sorted(l.extent_names)): l
            for l in galois_labels(seven_groups_lattice)
        }
        assert labels[("a", "d")].introduced_edges == ("3",)

    def test_labels_partition_edges(self):
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            seen = []
            for i in range(len(lat)):
                seen.extend(lat.anchored_edges.get(i, ()))
            assert sorted(seen) == list(range(h.n_edges))
            for j in range(h.n_edges):
                anchor = lat.edge_anchors[j]
                assert j in lat.anchored_edges[anchor]

    def test_introduced_matches_cover_difference(self, seven_groups):
        # A node introduces the edges in its intent and in no upper cover's.
        cases = [seven_groups] + [random_dedup_hypergraph(s) for s in range(40)]
        for h in cases:
            for lat in (build_lattice_naive(h), build_lattice_vectorized(h)):
                for i in range(len(lat)):
                    union = 0
                    for j in upper_covers(lat, i):
                        union |= lat.nodes[j].intent.bits
                    expected = lat.nodes[i].intent.bits & ~union
                    # symmetric difference equals plain difference here because
                    # upper-cover intents are subsets of the node's intent
                    assert union ^ (union | lat.nodes[i].intent.bits) == expected
                    introduced = sum(1 << j for j in lat.anchored_edges.get(i, ()))
                    assert introduced == expected


class TestAnchors:
    def test_seven_groups_anchors(self, seven_groups, seven_groups_lattice):
        lat = seven_groups_lattice
        node7 = edge_anchor(lat, "7")
        assert set(seven_groups.vertex_names_of(lat.nodes[node7].extent)) == {"g"}
        node2 = edge_anchor(lat, "2")
        assert set(seven_groups.vertex_names_of(lat.nodes[node2].extent)) == {
            "a", "b", "c", "d",
        }

    def test_single_edge_anchor(self):
        lat = build_lattice_naive(from_edge_list([("1", ["a", "b"])]))
        assert edge_anchor(lat, "1") == 0
        with pytest.raises(KeyError, match="unknown edge name"):
            edge_anchor(lat, "2")

    def test_anchor_extent_equals_column(self):
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for j, name in enumerate(h.edge_names):
                node = edge_anchor(lat, name)
                assert lat.nodes[node].extent == h.edge_column(j)


class TestLatticeLaws:
    def test_meets_exist(self, seven_groups_lattice):
        lat = seven_groups_lattice
        extents = {c.extent.bits for c in lat.nodes}
        for a in lat.nodes:
            for b in lat.nodes:
                assert a.extent.bits & b.extent.bits in extents

    def test_meets_exist_random(self):
        for seed in range(30):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            extents = {c.extent.bits for c in lat.nodes}
            for a in lat.nodes:
                for b in lat.nodes:
                    assert a.extent.bits & b.extent.bits in extents

    def test_covers_are_transitive_reduction(self):
        for seed in range(30):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            n = len(lat)
            # strict containment of extents, by pairwise subset tests
            above = [
                {
                    j for j in range(n)
                    if j != i and lat.nodes[i].extent.issubset(lat.nodes[j].extent)
                }
                for i in range(n)
            ]
            # transitive closure of covers equals strict containment
            reach = [set(upper_covers(lat, i)) for i in range(n)]
            for i in range(n - 1, -1, -1):
                for j in list(reach[i]):
                    reach[i] |= reach[j]
            assert reach == above
            # and no cover edge is implied by two shorter ones
            for i in range(n):
                for j in upper_covers(lat, i):
                    assert not any(j in above[k] for k in above[i])

    def test_order_is_reflexive(self, seven_groups_lattice):
        for i in range(len(seven_groups_lattice)):
            assert (i, i) in seven_groups_lattice.order

    @pytest.mark.parametrize("builder", [build_lattice_naive, build_lattice_vectorized])
    def test_canonical_order_puts_bottom_first_and_top_last(self, builder):
        cases = [random_dedup_hypergraph(seed) for seed in range(60)] + [
            from_edge_list([]),
            from_edge_list([("1", [])]),
            from_edge_list([("1", ["a", "b"]), ("2", ["a"]), ("3", ["b"])]),
        ]
        for h in cases:
            lat = builder(h)
            assert lat.top_index == len(lat) - 1
            assert lat.bottom_index == 0
            full = meet = (1 << h.n_vertices) - 1
            for col in h.chi.columns:
                meet &= col
            assert lat.nodes[lat.top_index].extent.bits == full
            assert lat.nodes[lat.bottom_index].extent.bits == meet
            for i in range(len(lat)):
                assert (i, lat.top_index) in lat.order
                assert (lat.bottom_index, i) in lat.order

    def test_top_and_bottom(self, seven_groups_lattice):
        lat = seven_groups_lattice
        assert lat.nodes[lat.top_index].extent.count == 7
        assert lat.nodes[lat.bottom_index].extent.count == 0
        for i in range(len(lat)):
            assert (i, lat.top_index) in lat.order
            assert (lat.bottom_index, i) in lat.order
