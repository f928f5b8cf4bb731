import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    SEVEN_GROUPS_CONCEPTS,
    containment_from_covers,
    random_dedup_hypergraph,
)
from hglattice import (
    ConceptLattice,
    SizeLimitError,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    depth_histograms,
    enumerate_concepts_oracle,
    from_edge_list,
    intent_prime,
    lattice,
    parse_lattice_document,
    serialize_lattice,
    uniform_hypergraph,
    verify_isomorphism,
)
from hglattice.core import (
    Hypergraph,
    IncidenceMatrix,
    dedup_edges,
    iter_bits,
    names_of,
)
from hglattice.lattice import concept_neighbours


def name_pairs(lat):
    h = lat.hypergraph
    return [
        (
            {h.vertex_names[k] for k in iter_bits(extent)},
            {h.edge_names[j] for j in iter_bits(intent)},
        )
        for extent, intent in zip(lat.extent_bits, lat.intent_bits)
    ]


def is_subset(a: int, b: int) -> bool:
    return a & b == a


class TestNaiveBuilder:
    def test_seven_groups_concepts(self, seven_groups_lattice):
        got = name_pairs(seven_groups_lattice)
        assert len(got) == 13
        for pair in SEVEN_GROUPS_CONCEPTS:
            assert pair in got

    def test_seven_groups_order_is_containment(self, seven_groups_lattice):
        lat = seven_groups_lattice
        n = len(lat)
        order = containment_from_covers(lat)
        for i in range(n):
            for j in range(n):
                contained = is_subset(lat.extent_bits[i], lat.extent_bits[j])
                assert ((i, j) in order) == contained

    def test_not_equal_to_other_types(self, seven_groups_lattice):
        assert (seven_groups_lattice == object()) is False

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
        assert lat.extent_bits[0] == 0

    def test_independent_of_the_walk(self, monkeypatch):
        cases = [random_dedup_hypergraph(seed) for seed in range(60)]
        cases.append(chung_lu_hypergraph(1000, 500, exponent=2.2, seed=42))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            walked = [build_lattice_vectorized(h) for h in cases]

            def refuse(*args):
                raise AssertionError("the reference builder used the walk")

            monkeypatch.setattr(lattice, "walk_lattice", refuse)
            monkeypatch.setattr(lattice, "concept_neighbours", refuse)
            for h, expected in zip(cases, walked):
                assert build_lattice_naive(h) == expected

    def test_auto_dedup_warns_and_matches(self):
        dup = from_edge_list([("p", ["a", "b"]), ("q", ["a", "b"]), ("r", ["b"])])
        with pytest.warns(UserWarning, match="duplicate"):
            lat = build_lattice_naive(dup)
        assert lat.hypergraph.edge_names == ("p", "r")
        assert lat.edge_aliases == {"p": 0, "q": 0, "r": 1}
        # duplicate edges resolve to their representative's anchor
        anchors = lat.edge_anchors
        assert anchors[lat.resolve_edge("q")] == anchors[lat.resolve_edge("p")]


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


def deduplicated(nv: int, columns: list[int]) -> Hypergraph:
    h = Hypergraph(
        tuple(f"v{k}" for k in range(nv)),
        tuple(f"e{j}" for j in range(len(columns))),
        IncidenceMatrix(nv, len(columns), tuple(columns)),
    )
    return dedup_edges(h)[0]


@st.composite
def small_hypergraphs(draw):
    nv = draw(st.integers(0, 7))
    columns = draw(st.lists(st.integers(0, (1 << nv) - 1), max_size=7))
    return deduplicated(nv, columns)


def incidence_rows(chi: IncidenceMatrix) -> list[int]:
    """Bit j of ``rows[v]`` is set when vertex v lies in edge j."""
    return [
        sum(1 << j for j, col in enumerate(chi.columns) if col >> v & 1)
        for v in range(chi.n_vertices)
    ]


class TestNeighbourRule:
    @given(h=small_hypergraphs(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_superset_meets_give_the_column_answer(self, h, data):
        chi = h.chi
        extents = list(build_lattice_naive(h).extent_bits)
        x = data.draw(st.sampled_from(extents), label="x")
        y = data.draw(
            st.sampled_from([e for e in extents if e & x == e]), label="y"
        )
        _, x_meets = concept_neighbours(x, chi.columns)
        lower, meets = concept_neighbours(y, x_meets)
        lower0, meets0 = concept_neighbours(y, chi.columns)
        assert meets == meets0
        assert sorted(lower) == sorted(lower0)

    @given(h=small_hypergraphs())
    # No vertices and no edges; edges but no vertex; vertices but no edge,
    # where a kept empty start class would give every extent the meet 0;
    # and an empty column, whose meet 0 no row records.
    @example(h=deduplicated(0, []))
    @example(h=deduplicated(0, [0]))
    @example(h=deduplicated(3, []))
    @example(h=deduplicated(3, [0b111, 0]))
    @example(h=deduplicated(3, [0b011, 0b110, 0]))
    @settings(max_examples=150, deadline=None)
    def test_refinement_gives_the_superset_answer(self, h):
        chi = h.chi
        rows = incidence_rows(chi)
        edges = (1 << chi.n_edges) - 1
        extents = list(build_lattice_naive(h).extent_bits)
        for x in extents:
            _, x_meets = concept_neighbours(x, chi.columns)
            for y in extents:
                if y & x != y:
                    continue
                lower, meets = concept_neighbours(y, x_meets)
                lower_r, meets_r = concept_neighbours(y, x_meets, rows, edges)
                assert meets_r == meets
                assert sorted(lower_r) == sorted(lower)

    @pytest.mark.filterwarnings("ignore:hypergraph has duplicate")
    @pytest.mark.parametrize(
        "h, sparse",
        [
            (chung_lu_hypergraph(400, 200, exponent=2.2, seed=2), True),
            (uniform_hypergraph(30, 20, seed=0), False),
        ],
        ids=["chung-lu 400x200", "uniform 30x20"],
    )
    def test_walk_picks_a_branch_per_node(self, h, sparse, monkeypatch):
        # Each node makes one rule call; a nonempty one refines over the
        # rows exactly when its popcount times REFINE_FACTOR is below its
        # superset's meet count. Both branches must run on the sparse
        # input.
        rule = lattice.concept_neighbours
        refined, anded = [], []

        def counted(extent, meets, *rows):
            want = 0 < extent.bit_count() * lattice.REFINE_FACTOR < len(meets)
            assert bool(rows) == want
            (refined if rows else anded).append(extent)
            return rule(extent, meets, *rows)

        monkeypatch.setattr(lattice, "concept_neighbours", counted)
        vect = build_lattice_vectorized(h)
        monkeypatch.undo()
        assert vect == build_lattice_naive(h)
        assert sorted(refined + anded) == sorted(vect.extent_bits)
        assert anded
        if sparse:
            assert refined

    @pytest.mark.filterwarnings("ignore:hypergraph has duplicate")
    def test_deep_chung_lu_lattice(self):
        # Eleven levels of lower covers, so meets pass down long chains.
        h = chung_lu_hypergraph(400, 200, exponent=2.2, seed=2)
        vect = build_lattice_vectorized(h)
        assert max(depth_histograms(vect).max_to_top) >= 10
        for extent, intent in zip(vect.extent_bits, vect.intent_bits):
            assert intent == intent_prime(vect.hypergraph, extent)
        assert build_lattice_naive(h) == vect
        text = serialize_lattice(vect)
        again = parse_lattice_document(text)
        assert again == vect
        assert serialize_lattice(again) == text


class TestConceptOracle:
    def test_seven_groups(self, seven_groups, seven_groups_lattice):
        concepts = enumerate_concepts_oracle(seven_groups)
        assert len(concepts) == 13
        got = set(
            zip(seven_groups_lattice.extent_bits, seven_groups_lattice.intent_bits)
        )
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
    extents = lat.extent_bits
    found = {
        extents[i]: [extents[j] for j in lat.lower_covers[i] if j != victim]
        for i in range(len(lat)) if i != victim
    }
    return ConceptLattice(lat.hypergraph, found, lat.edge_aliases)


def with_covers(lat: ConceptLattice, add=(), drop=()) -> ConceptLattice:
    """Build the lattice again with the (lower, upper) cover pairs in
    ``add`` put in and those in ``drop`` left out."""
    extents = lat.extent_bits
    found = {
        extents[i]: [
            extents[j] for j in lat.lower_covers[i] if (j, i) not in drop
        ]
        for i in range(len(lat))
    }
    for lo, hi in add:
        found[extents[hi]].append(extents[lo])
    return ConceptLattice(lat.hypergraph, found, lat.edge_aliases)


class TestVerifyIsomorphism:
    def test_seven_groups_true(self, seven_groups, seven_groups_lattice):
        check = verify_isomorphism(
            seven_groups_lattice, enumerate_concepts_oracle(seven_groups)
        )
        assert check
        assert check.detail == ""
        assert repr(check) == "IsomorphismResult(ok=True, detail='')"

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

    def test_implied_cover_false(self, seven_groups, seven_groups_lattice):
        # Bottom below top is implied by the other covers, so the nodes and
        # the containment they generate stay right; only the covers differ.
        lat = seven_groups_lattice
        bottom, top = lat.bottom_index, lat.top_index
        mutant = with_covers(lat, add=[(bottom, top)])
        assert (bottom, top) in mutant.covers
        assert mutant.extent_bits == lat.extent_bits
        assert mutant.intent_bits == lat.intent_bits
        assert containment_from_covers(mutant) == containment_from_covers(lat)
        check = verify_isomorphism(mutant, enumerate_concepts_oracle(seven_groups))
        assert not check
        assert check.detail == (
            f"cover ({bottom}, {top}) between extents [] and "
            "[0, 1, 2, 3, 4, 5, 6] is not in the transitive reduction of "
            "extent containment"
        )

    def test_missing_cover_false(self, seven_groups, seven_groups_lattice):
        # The top's intent is empty, so dropping a cover to it leaves every
        # intent as it was.
        lat = seven_groups_lattice
        top = lat.top_index
        lower = lat.lower_covers[top][0]
        mutant = with_covers(lat, drop=[(lower, top)])
        assert mutant.intent_bits == lat.intent_bits
        check = verify_isomorphism(mutant, enumerate_concepts_oracle(seven_groups))
        assert not check
        assert check.detail.startswith(f"cover ({lower}, {top}) between extents")
        assert check.detail.endswith("is missing from the lattice")

    def test_extra_extent_false(self, seven_groups, seven_groups_lattice):
        # {c} is no concept: c's edges 1 and 2 also hold b.
        lat = seven_groups_lattice
        extents = lat.extent_bits
        found = {
            extents[i]: [extents[j] for j in lat.lower_covers[i]]
            for i in range(len(lat))
        }
        c = 1 << lat.hypergraph.vertex_index["c"]
        found[c] = [extents[lat.bottom_index]]
        found[extents[lat.top_index]].append(c)
        mutant = ConceptLattice(lat.hypergraph, found, lat.edge_aliases)
        check = verify_isomorphism(mutant, enumerate_concepts_oracle(seven_groups))
        assert not check
        assert check.detail == "lattice extent [2] is not a concept"
        assert repr(check) == (
            "IsomorphismResult(ok=False, "
            "detail='lattice extent [2] is not a concept')"
        )

    def test_wrong_intent_false(self, seven_groups, seven_groups_lattice):
        # The top's intent is empty; give it edge 1 and leave the rest.
        lat = seven_groups_lattice
        top = lat.top_index
        mutant = with_covers(lat)
        mutant.intent_bits = lat.intent_bits[:top] + (0b1,)
        check = verify_isomorphism(mutant, enumerate_concepts_oracle(seven_groups))
        assert not check
        assert check.detail == f"node {top}: intent (0,) != concept intent ()"

    def test_random_instances(self):
        for seed in range(60):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            assert verify_isomorphism(lat, enumerate_concepts_oracle(h))


# A name for every bit the widest Hypothesis set below can hold.
NAME_TABLE = tuple(f"n{k}" for k in range(4096))


class TestNamesOf:
    """``names_of`` walks a set from its high bit down; it must list the
    same names, in the same order, as the ascending ``iter_bits``."""

    @staticmethod
    def reference(bits):
        return [NAME_TABLE[k] for k in iter_bits(bits)]

    @pytest.mark.parametrize("bits", [0, 1, 1 << 4095, (1 << 4095) | 1],
                             ids=["empty", "bit-0", "high-bit", "both-ends"])
    def test_edge_cases(self, bits):
        assert names_of(NAME_TABLE, bits) == self.reference(bits)

    @settings(max_examples=150, deadline=None)
    @given(bits=st.integers(min_value=0, max_value=4096).flatmap(
               lambda width: st.integers(min_value=0, max_value=(1 << width) - 1))
           | st.sets(st.integers(min_value=0, max_value=4095), max_size=40).map(
               lambda ks: sum(1 << k for k in ks)))
    def test_matches_iter_bits(self, bits):
        assert names_of(NAME_TABLE, bits) == self.reference(bits)


def node_of(lat, vertices):
    """The node whose extent is exactly the named vertices."""
    return lat.extent_bits.index(lat.hypergraph.vertex_subset(vertices))


class TestGaloisLabels:
    def test_edge7_introduced_at_g_node(self, seven_groups_lattice):
        lat = seven_groups_lattice
        g_node = node_of(lat, "g")
        assert lat.node_label(g_node) == "{g} : {5,6,7}"
        assert lat.anchored_edges[g_node] == (lat.hypergraph.edge_index["7"],)

    def test_top_introduces_nothing(self, seven_groups_lattice):
        lat = seven_groups_lattice
        top = lat.top_index
        assert lat.node_label(top) == "{a,b,c,d,e,f,g} : {}"
        assert top not in lat.anchored_edges

    def test_ad_introduces_edge3(self, seven_groups_lattice):
        lat = seven_groups_lattice
        ad = node_of(lat, "ad")
        assert lat.node_label(ad) == "{a,d} : {2,3}"
        assert lat.anchored_edges[ad] == (lat.hypergraph.edge_index["3"],)

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
                    for j in lat.upper_covers[i]:
                        union |= lat.intent_bits[j]
                    expected = lat.intent_bits[i] & ~union
                    # symmetric difference equals plain difference here because
                    # upper-cover intents are subsets of the node's intent
                    assert union ^ (union | lat.intent_bits[i]) == expected
                    introduced = sum(1 << j for j in lat.anchored_edges.get(i, ()))
                    assert introduced == expected


class TestAnchors:
    def test_seven_groups_anchors(self, seven_groups, seven_groups_lattice):
        lat = seven_groups_lattice
        node7 = lat.edge_anchors[lat.resolve_edge("7")]
        assert lat.extent_bits[node7] == seven_groups.vertex_subset("g")
        node2 = lat.edge_anchors[lat.resolve_edge("2")]
        assert lat.extent_bits[node2] == seven_groups.vertex_subset("abcd")

    def test_single_edge_anchor(self):
        lat = build_lattice_naive(from_edge_list([("1", ["a", "b"])]))
        assert lat.edge_anchors[lat.resolve_edge("1")] == 0
        with pytest.raises(KeyError, match="unknown edge name '2'"):
            lat.resolve_edge("2")

    def test_anchor_extent_equals_column(self):
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for j, name in enumerate(h.edge_names):
                node = lat.edge_anchors[lat.resolve_edge(name)]
                assert lat.extent_bits[node] == h.edge_column(j)


class TestQueryIndices:
    """The per-node indices the queries read agree with the extents and
    anchors they index, for both builders and for a loaded document."""

    @pytest.mark.parametrize(
        "source", ["seven-groups", "duplicate-edges", *range(30)]
    )
    def test_indices_match_nodes_and_anchors(self, source, seven_groups):
        if source == "seven-groups":
            h = seven_groups
        elif source == "duplicate-edges":
            h = from_edge_list(
                [("p", ["a", "b"]), ("q", ["a", "b"]), ("r", ["b", "c"])]
            )
        else:
            h = random_dedup_hypergraph(source)
        for build in (build_lattice_naive, build_lattice_vectorized):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                built = build(h)
            for lat in (built, parse_lattice_document(serialize_lattice(built))):
                assert lat.extent_sizes == tuple(
                    map(int.bit_count, lat.extent_bits)
                )
                assert lat.intent_bits == tuple(
                    intent_prime(lat.hypergraph, extent)
                    for extent in lat.extent_bits
                )
                # Exactly the inverse of edge_anchors: each edge listed once,
                # under its anchor, and no node listed empty.
                pairs = sorted(
                    (j, node)
                    for node, js in lat.anchored_edges.items()
                    for j in js
                )
                assert pairs == list(enumerate(lat.edge_anchors))
                assert all(lat.anchored_edges.values())
                # The cover rows ascend, each relation is the other's
                # inverse, and the pairs are read off the upper rows.
                for row in lat.lower_covers + lat.upper_covers:
                    assert all(a < b for a, b in zip(row, row[1:]))
                up_pairs = tuple(
                    (i, j)
                    for i, ups in enumerate(lat.upper_covers)
                    for j in ups
                )
                assert set(up_pairs) == {
                    (i, j)
                    for j, lows in enumerate(lat.lower_covers)
                    for i in lows
                }
                assert lat.covers == up_pairs


class TestLatticeLaws:
    def test_meets_exist(self, seven_groups_lattice):
        lat = seven_groups_lattice
        extents = set(lat.extent_bits)
        for a in extents:
            for b in extents:
                assert a & b in extents

    def test_meets_exist_random(self):
        for seed in range(30):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            extents = set(lat.extent_bits)
            for a in extents:
                for b in extents:
                    assert a & b in extents

    def test_covers_are_transitive_reduction(self):
        for seed in range(30):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            n = len(lat)
            # strict containment of extents, by pairwise subset tests
            above = [
                {
                    j for j in range(n)
                    if j != i and is_subset(lat.extent_bits[i], lat.extent_bits[j])
                }
                for i in range(n)
            ]
            # transitive closure of covers equals strict containment
            reach = [set(ups) for ups in lat.upper_covers]
            for i in range(n - 1, -1, -1):
                for j in list(reach[i]):
                    reach[i] |= reach[j]
            assert reach == above
            # and no cover edge is implied by two shorter ones
            for i in range(n):
                for j in lat.upper_covers[i]:
                    assert not any(j in above[k] for k in above[i])

    @pytest.mark.parametrize("builder", [build_lattice_naive, build_lattice_vectorized])
    def test_canonical_order_puts_bottom_first_and_top_last(self, builder):
        cases = [random_dedup_hypergraph(seed) for seed in range(60)] + [
            from_edge_list([]),
            from_edge_list([("1", [])]),
            from_edge_list([("1", ["a", "b"]), ("2", ["a"]), ("3", ["b"])]),
        ]
        # Extents that span more than one byte, so that equal sizes are
        # also told apart by vertices past the first eight.
        for n_vertices, n_edges in ((9, 8), (16, 8), (17, 10), (40, 10)):
            for seed in range(3):
                h = uniform_hypergraph(n_vertices, n_edges, p=0.4, seed=seed)
                cases.append(dedup_edges(h)[0])
        cases.append(dedup_edges(chung_lu_hypergraph(200, 100, 2.2, seed=3))[0])
        for h in cases:
            lat = builder(h)
            assert lat.top_index == len(lat) - 1
            assert lat.bottom_index == 0
            full = meet = (1 << h.n_vertices) - 1
            for col in h.chi.columns:
                meet &= col
            assert lat.extent_bits[lat.top_index] == full
            assert lat.extent_bits[lat.bottom_index] == meet
            order = containment_from_covers(lat)
            for i in range(len(lat)):
                assert (i, lat.top_index) in order
                assert (lat.bottom_index, i) in order
            extents = list(lat.extent_bits)
            assert extents == sorted(extents, key=lambda e: (
                bin(e).count("1"),
                tuple(v for v in range(h.n_vertices) if e >> v & 1),
            ))

    def test_top_and_bottom(self, seven_groups_lattice):
        lat = seven_groups_lattice
        assert lat.extent_sizes[lat.top_index] == 7
        assert lat.extent_sizes[lat.bottom_index] == 0
        order = containment_from_covers(lat)
        for i in range(len(lat)):
            assert (i, lat.top_index) in order
            assert (lat.bottom_index, i) in order
