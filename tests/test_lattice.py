import warnings

import pytest

from conftest import SEVEN_GROUPS_CONCEPTS, random_dedup_hypergraph
from hglattice import (
    ConceptLattice,
    SizeLimitError,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    edge_anchor,
    enumerate_concepts_oracle,
    from_edge_list,
    galois_labels,
    serialize_lattice,
    uniform_hypergraph,
    verify_isomorphism,
)
from hglattice.core import iter_bits


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
        assert lat.edge_map == {0: 0, 1: 0, 2: 1}
        # duplicate edges resolve to their representative's anchor
        assert edge_anchor(lat, 1) == edge_anchor(lat, 0)


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


def drop_node(lat: ConceptLattice, victim: int) -> ConceptLattice:
    """Build a structurally consistent lattice object missing one node."""
    keep = [i for i in range(len(lat.nodes)) if i != victim]
    remap = {old: new for new, old in enumerate(keep)}

    def shrink(mask):
        return sum(1 << remap[j] for j in iter_bits(mask) if j != victim)

    return ConceptLattice(
        hypergraph=lat.hypergraph,
        nodes=tuple(lat.nodes[i] for i in keep),
        up_masks=tuple(shrink(lat.up_masks[i]) for i in keep),
        cover_masks=tuple(shrink(lat.cover_masks[i]) for i in keep),
        top_index=remap[lat.top_index],
        bottom_index=remap[lat.bottom_index],
        edge_anchors=tuple(remap[a] for a in lat.edge_anchors),
        introduced=tuple(lat.introduced[i] for i in keep),
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
                seen.extend(lat.introduced[i].indices())
            assert sorted(seen) == list(range(h.n_edges))
            for j in range(h.n_edges):
                anchor = lat.edge_anchors[j]
                assert j in lat.introduced[anchor]

    def test_introduced_matches_cover_difference(self, seven_groups_lattice):
        lat = seven_groups_lattice
        for i in range(len(lat)):
            union = 0
            for j in iter_bits(lat.cover_masks[i]):
                union |= lat.nodes[j].intent.bits
            expected = lat.nodes[i].intent.bits & ~union
            # symmetric difference equals plain difference here because
            # upper-cover intents are subsets of the node's intent
            assert union ^ (union | lat.nodes[i].intent.bits) == expected
            assert lat.introduced[i].bits == expected


class TestAnchors:
    def test_seven_groups_anchors(self, seven_groups, seven_groups_lattice):
        lat = seven_groups_lattice
        e = seven_groups.edge_index
        node7 = edge_anchor(lat, e["7"])
        assert set(seven_groups.vertex_names_of(lat.nodes[node7].extent)) == {"g"}
        node2 = edge_anchor(lat, e["2"])
        assert set(seven_groups.vertex_names_of(lat.nodes[node2].extent)) == {
            "a", "b", "c", "d",
        }

    def test_single_edge_anchor(self):
        lat = build_lattice_naive(from_edge_list([("1", ["a", "b"])]))
        assert edge_anchor(lat, 0) == 0

    def test_anchor_extent_equals_column(self):
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for j in range(h.n_edges):
                node = edge_anchor(lat, j)
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
            # transitive closure of covers, plus the diagonal, equals order
            reach = [mask for mask in lat.cover_masks]
            for i in range(n - 1, -1, -1):
                acc = reach[i]
                for j in iter_bits(lat.cover_masks[i]):
                    acc |= reach[j]
                reach[i] = acc
            pairs = {(i, i) for i in range(n)}
            for i in range(n):
                pairs.update((i, j) for j in iter_bits(reach[i]))
            assert pairs == set(lat.order)
            # and no cover edge is implied by two shorter ones
            for i in range(n):
                for j in iter_bits(lat.cover_masks[i]):
                    for k in iter_bits(lat.up_masks[i]):
                        if k != j:
                            assert not (
                                (lat.up_masks[k] >> j) & 1
                                and (lat.up_masks[i] >> k) & 1
                            )

    def test_order_is_reflexive(self, seven_groups_lattice):
        for i in range(len(seven_groups_lattice)):
            assert (i, i) in seven_groups_lattice.order

    def test_top_and_bottom(self, seven_groups_lattice):
        lat = seven_groups_lattice
        assert lat.nodes[lat.top_index].extent.count == 7
        assert lat.nodes[lat.bottom_index].extent.count == 0
        for i in range(len(lat)):
            assert (i, lat.top_index) in lat.order
            assert (lat.bottom_index, i) in lat.order
