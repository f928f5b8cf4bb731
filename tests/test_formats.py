import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEVEN_GROUPS_CONCEPTS,
    SEVEN_GROUPS_CSV,
    SEVEN_GROUPS_EDGE_MEMBERS,
    random_dedup_hypergraph,
)
from hglattice import (
    ParseError,
    build_lattice_naive,
    edge_anchor,
    format_edge_list,
    from_edge_list,
    lattice_to_dot,
    parse_edge_list,
    parse_incidence_csv,
    parse_lattice_document,
    serialize_lattice,
)

SEVEN_GROUPS_EDGE_LINES = """\
# groups of a..g
1: b, c, e
2: a, b, c, d
3: a, d
4: a, b
5: e, f, g
6: f, g
7: g
"""


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _drop(*path):
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]

    return mutate


def _put(value, *path):
    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value

    return mutate


# Each mutation of the seven-groups document leaves one field missing or
# ill-typed; node 1 is {a}, the bottom is node 0 and the top node 12.
TAMPERS = [
    pytest.param(_drop("hypergraph"), id="no-hypergraph"),
    pytest.param(_put(["a"], "hypergraph"), id="hypergraph-array"),
    pytest.param(_drop("hypergraph", "vertices"), id="no-vertices"),
    pytest.param(_put("abcdefg", "hypergraph", "vertices"), id="vertices-string"),
    pytest.param(_put(7, "hypergraph", "vertices", 0), id="vertex-name-int"),
    pytest.param(_drop("hypergraph", "edges"), id="no-edges"),
    pytest.param(_put(None, "hypergraph", "edges", 6), id="edge-name-null"),
    pytest.param(_drop("hypergraph", "n_vertices"), id="no-n-vertices"),
    pytest.param(_put(7.0, "hypergraph", "n_vertices"), id="n-vertices-float"),
    pytest.param(_put(7.0, "hypergraph", "n_edges"), id="n-edges-float"),
    pytest.param(_put([], "hypergraph", "duplicate_edges"), id="duplicates-array"),
    pytest.param(_put({"x": 1}, "hypergraph", "duplicate_edges"), id="duplicate-int"),
    pytest.param(_put({"x": ["1"]}, "hypergraph", "duplicate_edges"),
                 id="duplicate-array"),
    pytest.param(_put({"2": "1"}, "hypergraph", "duplicate_edges"),
                 id="duplicate-shadows-edge"),
    pytest.param(_drop("nodes"), id="no-nodes"),
    pytest.param(_put({}, "nodes"), id="nodes-object"),
    pytest.param(_put("node", "nodes", 1), id="node-string"),
    pytest.param(_drop("nodes", 1, "id"), id="no-node-id"),
    pytest.param(_put(True, "nodes", 1, "id"), id="id-bool"),
    pytest.param(_put(0.0, "nodes", 0, "id"), id="id-float"),
    pytest.param(_drop("nodes", 1, "extent"), id="no-extent"),
    pytest.param(_put("a", "nodes", 1, "extent"), id="extent-string"),
    pytest.param(_put([5], "nodes", 1, "extent"), id="extent-name-int"),
    pytest.param(_put([["a"]], "nodes", 1, "extent"), id="extent-name-array"),
    pytest.param(_put(["a", "a"], "nodes", 1, "extent"), id="extent-repeats"),
    pytest.param(_drop("nodes", 1, "intent"), id="no-intent"),
    pytest.param(_put(3, "nodes", 1, "intent"), id="intent-int"),
    pytest.param(_put([2, 3, 4], "nodes", 1, "intent"), id="intent-names-int"),
    pytest.param(_drop("nodes", 1, "introduces"), id="no-introduces"),
    pytest.param(_put(None, "nodes", 1, "introduces"), id="introduces-null"),
    pytest.param(_put([{}], "nodes", 1, "introduces"), id="introduces-object"),
    pytest.param(_drop("covers"), id="no-covers"),
    pytest.param(_put("0 1", "covers"), id="covers-string"),
    pytest.param(_put([[0]], "covers"), id="cover-short"),
    pytest.param(_drop("top"), id="no-top"),
    pytest.param(_put("12", "top"), id="top-string"),
    pytest.param(_drop("bottom"), id="no-bottom"),
    pytest.param(_put(False, "bottom"), id="bottom-bool"),
    pytest.param(_put(0.0, "bottom"), id="bottom-float"),
]


def _json_paths(value, prefix=()):
    """Every path into a JSON value, the root's ``()`` included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_paths(item, prefix + (i,))


def _duplicate_edge_document():
    """The seven-groups document with an edge 8 that repeats edge 7."""
    edges = sorted(SEVEN_GROUPS_EDGE_MEMBERS.items()) + [("8", {"g"})]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lat = build_lattice_naive(
            from_edge_list([(name, sorted(m)) for name, m in edges])
        )
    return serialize_lattice(lat)


DUPLICATE_EDGE_DOCUMENT = _duplicate_edge_document()

# Values a mutation writes: scalars of every JSON type, names the document
# uses, and small arrays and objects of them.
_DOCUMENT_NAMES = list("abcdefg") + list("12345678") + [
    "format", "hypergraph", "vertices", "edges", "duplicate_edges",
    "n_vertices", "n_edges", "nodes", "id", "extent", "intent",
    "introduces", "covers", "top", "bottom",
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 14)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_DOCUMENT_NAMES)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_DOCUMENT_NAMES), inner, max_size=3),
    max_leaves=6,
)


def node_extents(text):
    return [set(rec["extent"]) for rec in json.loads(text)["nodes"]]


def canonical_key(extent):
    return (len(extent), sorted(extent))


def over_extents(text, extents):
    """The seven-groups document ``text`` with its nodes replaced by
    ``extents`` (vertex-name sets, in the order given), and intents,
    introduced edges, covers, top and bottom recomputed to agree with them
    by brute force."""
    doc = json.loads(text)
    columns = SEVEN_GROUPS_EDGE_MEMBERS
    n = len(extents)

    def below(i, j):
        return extents[i] < extents[j]

    doc["nodes"] = [
        {
            "id": i,
            "extent": sorted(e),
            "intent": sorted(name for name, col in columns.items() if e <= col),
            "introduces": sorted(
                name for name, col in columns.items() if e == col
            ),
        }
        for i, e in enumerate(extents)
    ]
    doc["covers"] = sorted(
        [i, j]
        for i in range(n)
        for j in range(n)
        if below(i, j) and not any(below(i, k) and below(k, j) for k in range(n))
    )
    doc["top"] = next(i for i, e in enumerate(extents) if len(e) == 7)
    doc["bottom"] = next(i for i, e in enumerate(extents) if not e)
    return json.dumps(doc)


def concept_names(lat):
    h = lat.hypergraph
    return {
        (
            frozenset(h.vertex_names_of(c.extent)),
            frozenset(h.edge_names_of(c.intent)),
        )
        for c in lat.nodes
    }


class TestEdgeListParser:
    def test_seven_groups(self):
        h = parse_edge_list(SEVEN_GROUPS_EDGE_LINES)
        lat = build_lattice_naive(h)
        assert concept_names(lat) == {
            (frozenset(e), frozenset(i)) for e, i in SEVEN_GROUPS_CONCEPTS
        }

    def test_empty_file(self):
        h = parse_edge_list("")
        assert h.n_vertices == 0 and h.n_edges == 0

    def test_duplicate_vertex_mentions_collapse(self):
        h = parse_edge_list("e1: a, a, b\n")
        assert set(h.vertex_names_of(h.edge_column(0))) == {"a", "b"}

    def test_edge_with_no_vertices(self):
        h = parse_edge_list("e1:\n")
        assert h.n_edges == 1
        assert h.edge_column(0).count == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("a: x\nb: y\njunk without colon\n")

    def test_duplicate_edge_name(self):
        with pytest.raises(ParseError, match="dup"):
            parse_edge_list("dup: a\ndup: b\n")

    def test_round_trip_through_writer(self):
        for seed in range(20):
            h = random_dedup_hypergraph(seed)
            again = parse_edge_list(format_edge_list(h))
            assert again.edge_names == h.edge_names
            for j, name in enumerate(h.edge_names):
                k = again.edge_index[name]
                assert set(again.vertex_names_of(again.edge_column(k))) == set(
                    h.vertex_names_of(h.edge_column(j))
                )

    def test_writer_refuses_unreadable_names(self):
        # Each would be read back wrong: '#' starts a comment, ',' splits
        # vertices and the first ':' ends the edge name.
        cases = [
            ("y#z", [("e1", ["y#z", "w"])]),
            ("a,b", [("a,b", ["w"])]),
            ("e:1", [("e:1", ["x"])]),
        ]
        for name, edges in cases:
            with pytest.raises(ValueError, match=repr(name)):
                format_edge_list(from_edge_list(edges))

    @given(
        edges=st.lists(
            st.tuples(
                st.text(max_size=4), st.lists(st.text(max_size=4), max_size=4)
            ),
            max_size=5,
            unique_by=lambda edge: edge[0],
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_writer_round_trips_or_refuses(self, edges):
        h = from_edge_list(edges)
        try:
            text = format_edge_list(h)
        except ValueError:
            return
        assert parse_edge_list(text) == h


class TestIncidenceCsvParser:
    def test_seven_groups(self, seven_groups):
        assert seven_groups.vertex_names == tuple("abcdefg")
        assert seven_groups.edge_names == tuple("1234567")
        members = {
            name: set(seven_groups.vertex_names_of(seven_groups.edge_column(j)))
            for j, name in enumerate(seven_groups.edge_names)
        }
        assert members["2"] == {"a", "b", "c", "d"}
        assert members["7"] == {"g"}

    def test_one_by_one_zero(self):
        h = parse_incidence_csv(",e1\nv1,0\n")
        assert h.n_vertices == 1
        assert h.n_edges == 1
        assert h.edge_column(0).count == 0

    def test_all_ones_column_is_topped(self):
        from hglattice import is_topped

        h = parse_incidence_csv(",e1,e2\na,1,0\nb,1,1\n")
        assert is_topped(h)

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="row 3"):
            parse_incidence_csv(",e1,e2\na,0,1\nb,0\n")

    def test_non_binary_cell_coordinates(self):
        with pytest.raises(ParseError, match="row 2, column 3"):
            parse_incidence_csv(",e1,e2\na,0,2\n")

    def test_empty_text(self):
        h = parse_incidence_csv("")
        assert h.n_vertices == 0 and h.n_edges == 0


class TestLatticeDocument:
    def test_round_trip_seven_groups(self, seven_groups_lattice):
        text = serialize_lattice(seven_groups_lattice)
        again = parse_lattice_document(text)
        assert again == seven_groups_lattice
        assert serialize_lattice(again) == text

    def test_round_trip_random(self):
        for seed in range(30):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            again = parse_lattice_document(serialize_lattice(lat))
            assert again == lat

    def test_round_trip_degenerate(self):
        for edges in ([], [("1", ["a", "b"])], [("1", [])]):
            lat = build_lattice_naive(from_edge_list(edges))
            assert parse_lattice_document(serialize_lattice(lat)) == lat

    def test_duplicate_edges_keep_aliases(self):
        h = from_edge_list([("p", ["a", "b"]), ("q", ["a", "b"])])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_naive(h)
        doc = json.loads(serialize_lattice(lat))
        assert doc["hypergraph"]["duplicate_edges"] == {"q": "p"}
        again = parse_lattice_document(serialize_lattice(lat))
        assert again == lat
        assert again.resolve_edge("q") == again.resolve_edge("p")
        assert edge_anchor(again, "q") == edge_anchor(again, "p")

    def test_tampered_covers_rejected(self, seven_groups_lattice):
        doc = json.loads(serialize_lattice(seven_groups_lattice))
        doc["covers"] = doc["covers"][:-1]
        with pytest.raises(ParseError, match="covers"):
            parse_lattice_document(json.dumps(doc))

    def test_recomputed_document_loads(self, seven_groups_lattice):
        text = serialize_lattice(seven_groups_lattice)
        again = parse_lattice_document(over_extents(text, node_extents(text)))
        assert again == seven_groups_lattice

    def test_missing_intersection_node_rejected(self, seven_groups_lattice):
        # {a} = {a,d} & {a,b} introduces no edge. Without it the other twelve
        # extents still form a consistent order, but {a,d} no longer meets
        # the column of edge 4 in a node.
        text = serialize_lattice(seven_groups_lattice)
        extents = [e for e in node_extents(text) if e != {"a"}]
        assert len(extents) == 12
        with pytest.raises(ParseError, match="not a node"):
            parse_lattice_document(over_extents(text, extents))

    def test_extra_node_rejected(self, seven_groups_lattice):
        # {c} is no intersection of columns: edges 1 and 2 contain it, and
        # their columns meet in {b,c}.
        text = serialize_lattice(seven_groups_lattice)
        extents = sorted(node_extents(text) + [{"c"}], key=canonical_key)
        with pytest.raises(ParseError, match="AND of its intent"):
            parse_lattice_document(over_extents(text, extents))

    def test_non_canonical_node_order_rejected(self, seven_groups_lattice):
        text = serialize_lattice(seven_groups_lattice)
        extents = node_extents(text)
        assert extents[1:3] == [{"a"}, {"b"}]
        extents[1:3] = [{"b"}, {"a"}]
        with pytest.raises(ParseError, match="canonical order"):
            parse_lattice_document(over_extents(text, extents))

    def test_reversed_node_order_rejected(self, seven_groups_lattice):
        # The loader walks the stored nodes from last to first; reversed,
        # every node falls back to the columns and the order check fails.
        text = serialize_lattice(seven_groups_lattice)
        extents = node_extents(text)[::-1]
        with pytest.raises(ParseError, match="canonical order"):
            parse_lattice_document(over_extents(text, extents))

    @pytest.mark.parametrize("mutate", TAMPERS)
    def test_malformed_field_rejected(self, seven_groups_lattice, mutate):
        doc = json.loads(serialize_lattice(seven_groups_lattice))
        mutate(doc)
        with pytest.raises(ParseError):
            parse_lattice_document(json.dumps(doc))

    @pytest.mark.parametrize("key", ["n_vertices", "n_edges"])
    def test_bool_count_rejected(self, key):
        # One vertex and one edge, so a JSON true equals the count.
        doc = json.loads(serialize_lattice(
            build_lattice_naive(from_edge_list([("1", ["a"])]))
        ))
        assert doc["hypergraph"][key] == 1
        doc["hypergraph"][key] = True
        with pytest.raises(ParseError, match="not an integer"):
            parse_lattice_document(json.dumps(doc))

    def test_missing_full_vertex_set_rejected(self, seven_groups_lattice):
        # Without the top node 12 the other twelve nodes, their covers and
        # top 11 agree with one another; only the full vertex set is missing.
        doc = json.loads(serialize_lattice(seven_groups_lattice))
        assert doc["nodes"][12]["extent"] == list("abcdefg")
        del doc["nodes"][12]
        doc["covers"] = [pair for pair in doc["covers"] if 12 not in pair]
        doc["top"] = 11
        with pytest.raises(ParseError, match="full vertex set"):
            parse_lattice_document(json.dumps(doc))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_document_loads_equal_or_raises_parse_error(self, data):
        doc = json.loads(DUPLICATE_EDGE_DOCUMENT)
        for _ in range(data.draw(st.integers(1, 3), label="mutations")):
            paths = list(_json_paths(doc))
            path = data.draw(st.sampled_from(paths), label="path")
            if path and data.draw(st.booleans(), label="delete"):
                _drop(*path)(doc)
            elif path:
                _put(data.draw(JSON_VALUES, label="value"), *path)(doc)
            else:
                doc = data.draw(JSON_VALUES, label="document")
        try:
            lat = parse_lattice_document(json.dumps(doc))
        except ParseError:
            return
        assert parse_lattice_document(serialize_lattice(lat)) == lat

    def test_tampered_intent_rejected(self, seven_groups_lattice):
        doc = json.loads(serialize_lattice(seven_groups_lattice))
        doc["nodes"][1]["intent"] = ["1"]
        with pytest.raises(ParseError):
            parse_lattice_document(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(ParseError, match="JSON"):
            parse_lattice_document("{not json")

    def test_wrong_format_tag(self):
        with pytest.raises(ParseError, match="format"):
            parse_lattice_document(json.dumps({"format": "other"}))


class TestDotExport:
    def test_seven_groups_shape(self, seven_groups_lattice):
        dot = lattice_to_dot(seven_groups_lattice)
        assert dot.startswith("digraph lattice {")
        assert dot.rstrip().endswith("}")
        arrow_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(arrow_lines) == len(seven_groups_lattice.covers) == 19
        node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
        assert len(node_lines) == 13
        assert '"{a,d} : {2,3}"' in dot
        assert '"{g} : {5,6,7}"' in dot

    def test_single_node(self):
        lat = build_lattice_naive(from_edge_list([]))
        dot = lattice_to_dot(lat)
        assert "n0" in dot
        assert "->" not in dot
