import gc
import hashlib
import json
import re
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    SEVEN_GROUPS_CONCEPTS,
    SEVEN_GROUPS_CSV,
    SEVEN_GROUPS_EDGE_MEMBERS,
    random_dedup_hypergraph,
    random_hypergraph,
)
from hglattice import (
    ParseError,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    format_edge_list,
    from_edge_list,
    lattice,
    lattice_to_dot,
    parse_edge_list,
    parse_incidence_csv,
    parse_lattice_document,
    s_connected_components,
    serialize_lattice,
    uniform_hypergraph,
)
from hglattice.core import iter_bits

from test_acceptance import RANDOM_SEEDS, build_quiet

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


def _each(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)

    return mutate


# Each mutation of the seven-groups document leaves one field missing,
# ill-typed or at odds with the rest, paired with the loader's message for
# it; node 1 is {a}, the bottom is node 0 and the top node 12.
TAMPERS = [
    pytest.param(_drop("hypergraph"),
                 "document: 'hypergraph' is missing or not an object",
                 id="no-hypergraph"),
    pytest.param(_put(["a"], "hypergraph"),
                 "document: 'hypergraph' is missing or not an object",
                 id="hypergraph-array"),
    pytest.param(_drop("hypergraph", "vertices"),
                 "hypergraph: 'vertices' is missing or not an array",
                 id="no-vertices"),
    pytest.param(_put("abcdefg", "hypergraph", "vertices"),
                 "hypergraph: 'vertices' is missing or not an array",
                 id="vertices-string"),
    pytest.param(_put(7, "hypergraph", "vertices", 0),
                 "hypergraph: 'vertices' must hold only strings",
                 id="vertex-name-int"),
    pytest.param(_each(_put(list("abcdefga"), "hypergraph", "vertices"),
                       _put(8, "hypergraph", "n_vertices")),
                 "duplicate vertex name 'a'", id="vertex-name-repeated"),
    pytest.param(_drop("hypergraph", "edges"),
                 "hypergraph: 'edges' is missing or not an array",
                 id="no-edges"),
    pytest.param(_put(None, "hypergraph", "edges", 6),
                 "hypergraph: 'edges' must hold only strings",
                 id="edge-name-null"),
    pytest.param(_drop("hypergraph", "n_vertices"),
                 "hypergraph: 'n_vertices' is missing or not an integer",
                 id="no-n-vertices"),
    pytest.param(_put(6, "hypergraph", "n_vertices"),
                 "vertex table does not match n_vertices",
                 id="n-vertices-wrong"),
    pytest.param(_put(7.0, "hypergraph", "n_vertices"),
                 "hypergraph: 'n_vertices' is missing or not an integer",
                 id="n-vertices-float"),
    pytest.param(_put(7.0, "hypergraph", "n_edges"),
                 "hypergraph: 'n_edges' is missing or not an integer",
                 id="n-edges-float"),
    pytest.param(_put(8, "hypergraph", "n_edges"),
                 "edge table does not match n_edges", id="n-edges-wrong"),
    pytest.param(_drop("hypergraph", "duplicate_edges"),
                 "hypergraph: 'duplicate_edges' is missing or not an object",
                 id="no-duplicates"),
    pytest.param(_put([], "hypergraph", "duplicate_edges"),
                 "hypergraph: 'duplicate_edges' is missing or not an object",
                 id="duplicates-array"),
    pytest.param(_put({"x": 1}, "hypergraph", "duplicate_edges"),
                 "duplicate edge 'x' maps to unknown 1", id="duplicate-int"),
    pytest.param(_put({"x": ["1"]}, "hypergraph", "duplicate_edges"),
                 "duplicate edge 'x' maps to unknown ['1']",
                 id="duplicate-array"),
    pytest.param(_put({"2": "1"}, "hypergraph", "duplicate_edges"),
                 "duplicate edge '2' is also an edge",
                 id="duplicate-shadows-edge"),
    pytest.param(_drop("nodes"),
                 "document: 'nodes' is missing or not an array", id="no-nodes"),
    pytest.param(_put({}, "nodes"),
                 "document: 'nodes' is missing or not an array",
                 id="nodes-object"),
    pytest.param(_put("node", "nodes", 1), "node 1: not an object",
                 id="node-string"),
    pytest.param(_put(None, "nodes", 2), "node 2: not an object",
                 id="node-null"),
    pytest.param(_put([0, ["a"], [], []], "nodes", 3), "node 3: not an object",
                 id="node-array"),
    pytest.param(_drop("nodes", 1, "id"),
                 "node 1: 'id' is missing or not an integer", id="no-node-id"),
    pytest.param(_put(True, "nodes", 1, "id"),
                 "node 1: 'id' is missing or not an integer", id="id-bool"),
    pytest.param(_put(0.0, "nodes", 0, "id"),
                 "node 0: 'id' is missing or not an integer", id="id-float"),
    pytest.param(_put(2, "nodes", 1, "id"),
                 "node ids must be 0..n-1 in order", id="id-out-of-order"),
    pytest.param(_drop("nodes", 1, "extent"),
                 "node 1: 'extent' is missing or not an array", id="no-extent"),
    pytest.param(_put("a", "nodes", 1, "extent"),
                 "node 1: 'extent' is missing or not an array",
                 id="extent-string"),
    pytest.param(_put([5], "nodes", 1, "extent"),
                 "node 1: unknown name 5 in 'extent'", id="extent-name-int"),
    pytest.param(_put([["a"]], "nodes", 1, "extent"),
                 "node 1: unknown name ['a'] in 'extent'",
                 id="extent-name-array"),
    pytest.param(_put(["a", "a"], "nodes", 1, "extent"),
                 "node 1: 'extent' repeats a name", id="extent-repeats"),
    pytest.param(_drop("nodes", 1, "intent"),
                 "node 1: 'intent' is missing or not an array", id="no-intent"),
    pytest.param(_put(3, "nodes", 1, "intent"),
                 "node 1: 'intent' is missing or not an array", id="intent-int"),
    pytest.param(_put([2, 3, 4], "nodes", 1, "intent"),
                 "node 1: unknown name 2 in 'intent'", id="intent-names-int"),
    pytest.param(_put(["2", "3", "4", "3"], "nodes", 1, "intent"),
                 "node 1: 'intent' repeats a name", id="intent-repeats"),
    pytest.param(_each(_put(["5"], "nodes", 3, "intent"),
                       _put(["1"], "nodes", 1, "intent")),
                 "node 1: stored intent disagrees with edge columns",
                 id="intents-disagree"),
    pytest.param(_drop("nodes", 1, "introduces"),
                 "node 1: 'introduces' is missing or not an array",
                 id="no-introduces"),
    pytest.param(_put(None, "nodes", 1, "introduces"),
                 "node 1: 'introduces' is missing or not an array",
                 id="introduces-null"),
    pytest.param(_put([{}], "nodes", 1, "introduces"),
                 "node 1: unknown name {} in 'introduces'",
                 id="introduces-object"),
    pytest.param(_put(["7"], "nodes", 1, "introduces"),
                 "edge '7' introduced at more than one node",
                 id="edge-introduced-twice"),
    pytest.param(_put([], "nodes", 4, "introduces"),
                 "every edge must be introduced at exactly one node",
                 id="edge-not-introduced"),
    pytest.param(_each(_put(["6", "7"], "nodes", 4, "introduces"),
                       _put([], "nodes", 8, "introduces")),
                 "duplicate edge columns in document", id="columns-repeat"),
    pytest.param(_drop("covers"),
                 "document: 'covers' is missing or not an array",
                 id="no-covers"),
    pytest.param(_put("0 1", "covers"),
                 "document: 'covers' is missing or not an array",
                 id="covers-string"),
    pytest.param(_put([[0]], "covers"),
                 "stored covers disagree with node extents", id="cover-short"),
    pytest.param(_put(True, "covers", 0, 1),
                 "stored covers disagree with node extents", id="cover-bool"),
    pytest.param(_put(False, "covers", 0, 0),
                 "stored covers disagree with node extents",
                 id="cover-false"),
    pytest.param(_put(1.0, "covers", 0, 1),
                 "stored covers disagree with node extents", id="cover-float"),
    pytest.param(_put(2**64, "covers", 0, 1),
                 "stored covers disagree with node extents",
                 id="cover-overflows"),
    pytest.param(_drop("top"),
                 "document: 'top' is missing or not an integer", id="no-top"),
    pytest.param(_put("12", "top"),
                 "document: 'top' is missing or not an integer",
                 id="top-string"),
    pytest.param(_put(11, "top"), "stored top id is wrong", id="top-wrong"),
    pytest.param(_drop("bottom"),
                 "document: 'bottom' is missing or not an integer",
                 id="no-bottom"),
    pytest.param(_put(False, "bottom"),
                 "document: 'bottom' is missing or not an integer",
                 id="bottom-bool"),
    pytest.param(_put(0.0, "bottom"),
                 "document: 'bottom' is missing or not an integer",
                 id="bottom-float"),
    pytest.param(_put(1, "bottom"), "stored bottom id is wrong",
                 id="bottom-wrong"),
    # Two faults: the loader reads the covers, top and bottom before the
    # walk but checks them after it, so the earlier fault's message wins.
    pytest.param(_each(_drop("covers"), _put(["z"], "nodes", 1, "extent")),
                 "node 1: unknown name 'z' in 'extent'",
                 id="unknown-name-and-no-covers"),
    pytest.param(_each(_put(["5"], "nodes", 3, "intent"),
                       _put(["1"], "nodes", 1, "intent"),
                       _put(True, "covers", 0, 1)),
                 "node 1: stored intent disagrees with edge columns",
                 id="intents-disagree-and-cover-bool"),
    pytest.param(_each(_put(True, "covers", 0, 1), _put("12", "top")),
                 "stored covers disagree with node extents",
                 id="cover-bool-and-top-string"),
    pytest.param(_each(_put(11, "top"), _drop("bottom")),
                 "stored top id is wrong", id="top-wrong-and-no-bottom"),
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


def count_rule_calls(monkeypatch, limit):
    """The extents ``lattice.concept_neighbours`` is called on from now on;
    a call past the first ``limit`` fails the test."""
    calls = []
    rule = lattice.concept_neighbours

    def counted(*args):
        calls.append(args[0])
        assert len(calls) <= limit, "the lattice walk ran past its bound"
        return rule(*args)

    monkeypatch.setattr(lattice, "concept_neighbours", counted)
    return calls


def concept_names(lat):
    h = lat.hypergraph
    return {
        (
            frozenset(h.vertex_names[k] for k in iter_bits(extent)),
            frozenset(h.edge_names[j] for j in iter_bits(intent)),
        )
        for extent, intent in zip(lat.extent_bits, lat.intent_bits)
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
        assert h.edge_column(0) == 0

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("a: x\nb: y\njunk without colon\n")

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_only_newline_ends_a_line(self, sep):
        # str.splitlines() would break at each of these: the error must
        # name the physical line, and a separator inside a name stays in it
        with pytest.raises(ParseError, match="^line 2: .*'e2 c'"):
            parse_edge_list(f"e1: a, b{sep}\ne2 c\n")
        h = parse_edge_list(f"e1: a{sep}b\n")
        assert h.edge_names == ("e1",)
        assert h.vertex_names == (f"a{sep}b",)

    def test_crlf_line_ends(self):
        h = parse_edge_list("e1: a, b\r\ne2: b\r\n\r\n")
        assert h == parse_edge_list("e1: a, b\ne2: b\n")
        with pytest.raises(ParseError, match="^line 3: .*'junk'"):
            parse_edge_list("e1: a\r\n\r\njunk\r\n")

    def test_duplicate_edge_name(self):
        with pytest.raises(ParseError, match="dup"):
            parse_edge_list("dup: a\ndup: b\n")

    def test_missing_edge_name(self):
        with pytest.raises(ParseError, match="^line 1: missing edge name$"):
            parse_edge_list(": a, b\n")

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
            ("p\nq", [("e1", ["p\nq"])]),
            ("p\r\nq", [("p\r\nq", ["x"])]),
        ]
        for name, edges in cases:
            with pytest.raises(ValueError, match=re.escape(repr(name))):
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

    def test_writer_keeps_separators_the_reader_keeps(self):
        names = ["a\x0cb", "a\x85b", "a\u2028b", "a\rb"]
        h = from_edge_list([(f"e{name}", [name, "w"]) for name in names])
        assert parse_edge_list(format_edge_list(h)) == h


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
        assert h.edge_column(0) == 0

    def test_all_ones_column_is_topped(self):
        h = parse_incidence_csv(",e1,e2\na,1,0\nb,1,1\n")
        assert (1 << h.n_vertices) - 1 in h.chi.columns

    def test_ragged_row(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_incidence_csv(",e1,e2\na,0,1\nb,0\n")

    def test_non_binary_cell_coordinates(self):
        with pytest.raises(ParseError, match="line 2, column 3"):
            parse_incidence_csv(",e1,e2\na,0,2\n")

    def test_errors_name_the_physical_line(self):
        # Blank lines and a quoted name holding a line break come before
        # the bad row, so its line number is larger than its row number.
        for text, message in (
            (",e1\nv1,1\n\n\nv2,x\n", "^line 5, column 2: expected 0 or 1"),
            (",e1\nv1,1\n\nv2,1,0\n", "^line 4: expected 2 cells, got 3$"),
            (',e1\n"v\n1",1\n\nv2,x\n', "^line 5, column 2: expected 0 or 1"),
            (',e1\r"v\r1",1\r\rv2,x\r', "^line 5, column 2: expected 0 or 1"),
            (',e1\n"v\n1",1\n\n ,0\n', "^line 5: missing vertex name$"),
            ("\n\n,e1,\nv1,1,0\n", "^line 3, column 3: missing edge name$"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_incidence_csv(text)

    def test_empty_text(self):
        h = parse_incidence_csv("")
        assert h.n_vertices == 0 and h.n_edges == 0

    def test_cell_over_the_field_limit(self):
        text = ",e1\na,0\n" + "b" * 200_000 + ",1\n"
        with pytest.raises(ParseError, match="line 3: field larger"):
            parse_incidence_csv(text)

    def test_blank_names(self):
        for text, message in (
            (",e1,,e3\nv1,1,0,1\nv2,0,1,1\n", "column 3: missing edge name"),
            (",e1\nv1,1\n ,0\n", "line 3: missing vertex name"),
            (",e1,e2\nv1,1,0\n,,\n", "line 3: missing vertex name"),
            # a header of blank cells is the header, not a skipped line
            (",,\nv1,1,0\nv2,0,1\n", "column 2: missing edge name"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_incidence_csv(text)

    def test_empty_lines_skipped(self):
        h = parse_incidence_csv("\n,e1\n\n  \nv1,1\n\n")
        assert h.vertex_names == ("v1",) and h.edge_names == ("e1",)

    def test_repeated_names(self):
        for text, message in (
            (",e1,e1\nv1,1,0\n", "duplicate edge name 'e1'"),
            (",e1\nv1,1\nv1,0\n", "duplicate vertex name 'v1'"),
        ):
            with pytest.raises(ParseError, match=message):
                parse_incidence_csv(text)

    @pytest.mark.parametrize("end", ["\r", "\r\n"])
    def test_universal_newlines(self, end):
        lf = ",e1,e2\nv1,1,0\nv2,1,1\n"
        assert parse_incidence_csv(lf.replace("\n", end)) == parse_incidence_csv(lf)

    def test_quoted_carriage_return_reads_as_newline(self):
        for text in (',e1\r"v\r1",1\r', ',e1\r\n"v\r\n1",1\r\n'):
            assert parse_incidence_csv(text).vertex_names == ("v\n1",)


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
        anchors = again.edge_anchors
        assert anchors[again.resolve_edge("q")] == anchors[again.resolve_edge("p")]

    def test_duplicate_edge_order_does_not_change_answers(self):
        h = from_edge_list([
            ("a", ["x", "y"]), ("z", ["x", "y"]),
            ("b", ["x", "y"]), ("c", ["y", "q"]),
        ])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_naive(h)
        doc = json.loads(serialize_lattice(lat))
        assert doc["hypergraph"]["duplicate_edges"] == {"b": "a", "z": "a"}
        doc["hypergraph"]["duplicate_edges"] = {"z": "a", "b": "a"}
        loaded = parse_lattice_document(json.dumps(doc))
        assert loaded == lat
        assert list(loaded.edge_aliases) == list(lat.edge_aliases)
        assert serialize_lattice(loaded) == serialize_lattice(lat)
        expected = [("a", "c", "b", "z")]
        assert s_connected_components(lat, 1) == expected
        assert s_connected_components(loaded, 1) == expected

    def test_name_lists_read_as_sets(self, seven_groups_lattice):
        # Extents, intents and introduced edges are sets: their names in
        # reverse order load the same lattice.
        text = serialize_lattice(seven_groups_lattice)
        doc = json.loads(text)
        for rec in doc["nodes"]:
            for key in ("extent", "intent", "introduces"):
                rec[key].reverse()
        assert doc["nodes"][1]["intent"] == ["4", "3", "2"]
        assert doc["nodes"][11]["extent"] == ["d", "c", "b", "a"]
        loaded = parse_lattice_document(json.dumps(doc))
        assert loaded == seven_groups_lattice
        assert serialize_lattice(loaded) == text

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
        with pytest.raises(
            ParseError, match=r"^the column intersection \{a\} is not a node extent$"
        ):
            parse_lattice_document(over_extents(text, extents))

    def test_extra_node_rejected(self, seven_groups_lattice):
        # {c} is no intersection of columns: edges 1 and 2 contain it, and
        # their columns meet in {b,c}.
        text = serialize_lattice(seven_groups_lattice)
        extents = sorted(node_extents(text) + [{"c"}], key=canonical_key)
        with pytest.raises(ParseError, match="AND of its intent"):
            parse_lattice_document(over_extents(text, extents))

    def test_first_unreached_extent_named(self, seven_groups_lattice):
        # Neither {c} nor {d} is an intersection of columns; the message
        # names the first of them in node order, node 3.
        text = serialize_lattice(seven_groups_lattice)
        extents = sorted(node_extents(text) + [{"d"}, {"c"}], key=canonical_key)
        assert extents[3:5] == [{"c"}, {"d"}]
        with pytest.raises(
            ParseError, match=r"^extent 3 is not the AND of its intent's columns$"
        ):
            parse_lattice_document(over_extents(text, extents))

    def test_extra_node_does_not_steer_the_walk(
        self, seven_groups_lattice, monkeypatch
    ):
        # The loader walks the lattice of the edge columns, one rule call
        # per concept, whatever nodes the document lists.
        calls = count_rule_calls(monkeypatch, 13)
        text = serialize_lattice(seven_groups_lattice)
        extents = sorted(node_extents(text) + [{"c"}], key=canonical_key)
        with pytest.raises(ParseError):
            parse_lattice_document(over_extents(text, extents))
        assert len(calls) == 13

    def test_walk_stops_within_the_document(self, monkeypatch):
        # Thirty columns, each all vertices but one, generate all 2**30
        # vertex sets. The document lists only the columns and the top, so
        # the walk stops at the first lower cover of a column: one rule
        # call per node, and one for the extent that is not a node.
        n = 30
        vertices = [f"v{i}" for i in range(n)]
        edges = [f"e{i}" for i in range(n)]
        nodes = [
            {"extent": vertices[:i] + vertices[i + 1:], "intent": [edges[i]],
             "introduces": [edges[i]]}
            for i in range(n)
        ] + [{"extent": vertices, "intent": [], "introduces": []}]
        doc = {
            "format": "hg-lattice/1",
            "hypergraph": {"vertices": vertices, "edges": edges,
                           "n_vertices": n, "n_edges": n,
                           "duplicate_edges": {}},
            "nodes": [dict(rec, id=i) for i, rec in enumerate(nodes)],
            "covers": [[i, n] for i in range(n)],
            "top": n,
            "bottom": 0,
        }
        calls = count_rule_calls(monkeypatch, len(nodes) + 1)
        with pytest.raises(ParseError, match="not a node"):
            parse_lattice_document(json.dumps(doc))
        assert len(calls) == len(nodes) + 1

    def test_non_canonical_node_order_rejected(self, seven_groups_lattice):
        text = serialize_lattice(seven_groups_lattice)
        extents = node_extents(text)
        assert extents[1:3] == [{"a"}, {"b"}]
        extents[1:3] = [{"b"}, {"a"}]
        with pytest.raises(ParseError, match="canonical order"):
            parse_lattice_document(over_extents(text, extents))

    def test_reversed_node_order_rejected(self, seven_groups_lattice):
        # Reversed, the nodes still hold the whole extent family, so only
        # the order check fails.
        text = serialize_lattice(seven_groups_lattice)
        extents = node_extents(text)[::-1]
        with pytest.raises(ParseError, match="canonical order"):
            parse_lattice_document(over_extents(text, extents))

    @pytest.mark.parametrize("mutate, message", TAMPERS)
    def test_malformed_field_rejected(
        self, seven_groups_lattice, mutate, message
    ):
        doc = json.loads(serialize_lattice(seven_groups_lattice))
        mutate(doc)
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
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

    @pytest.mark.parametrize("h", [
        pytest.param(uniform_hypergraph(60, 40, seed=0), id="uniform-60x40"),
        pytest.param(chung_lu_hypergraph(1000, 500, 2.2, seed=42),
                     id="chung-lu-1000x500"),
    ])
    def test_load_peak_within_tree_and_lattice(self, h):
        # The loader drops each node record once decoded and holds the
        # covers as one array, so its allocation peak is at most that of
        # the decoded JSON tree plus the lattice it returns. Both are
        # measured here, so the bound holds whatever an object's size.
        h = parse_edge_list(format_edge_list(h))
        text = serialize_lattice(build_quiet(build_lattice_vectorized, h))
        gc.collect()
        tracemalloc.start()
        tree = json.loads(text)
        tree_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        del tree
        gc.collect()
        tracemalloc.start()
        lat = parse_lattice_document(text)
        kept, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(lat) > 500
        assert peak <= tree_peak + kept

    def test_invalid_json(self):
        # a nesting too deep for the decoder, or an integer longer than
        # the int-string digit limit, is refused like any bad JSON
        for text in ("{not json", "[" * 100_000, "[" + "9" * 5000 + "]"):
            with pytest.raises(ParseError, match="JSON"):
                parse_lattice_document(text)

    def test_wrong_format_tag(self):
        with pytest.raises(ParseError, match="format"):
            parse_lattice_document(json.dumps({"format": "other"}))


def assert_json_layout(text):
    """``text`` is laid out exactly as ``json.dumps(indent=2)`` lays out the
    document it holds, ASCII escapes included."""
    assert json.dumps(json.loads(text), indent=2) + "\n" == text


# Names the encoder must escape: a quote, a backslash, a newline, a control
# character, non-ASCII text and an astral-plane character (a surrogate pair).
AWKWARD_NAMES = ['say "hi"', "back\\slash", "two\nlines", "bell\x07", "café",
                 "grin\U0001F600"]

# Edge lists, each with text its document must contain.
LAYOUT_CASES = [
    pytest.param([], ['"vertices": []', '"edges": []', '"covers": []'],
                 id="no-edges"),
    pytest.param([("1", [])], ['"extent": []', '"introduces": [\n        "1"'],
                 id="one-empty-edge"),
    pytest.param([("1", ["a", "b"])], ['"covers": []', '"intent": [\n'],
                 id="one-node"),
    pytest.param(
        [("z", ["a"]), ("y", ["a"]), ("b", ["a"]), ("x", ["a", "c"])],
        ['"duplicate_edges": {\n      "b": "z",\n      "y": "z"\n    }'],
        id="duplicates-sorted-by-name",
    ),
    pytest.param(
        [(name, AWKWARD_NAMES[:k + 1]) for k, name in enumerate(AWKWARD_NAMES)]
        + [(name + "!", AWKWARD_NAMES[:k + 1])
           for k, name in enumerate(AWKWARD_NAMES)],
        ['"say \\"hi\\""', '"back\\\\slash"', '"two\\nlines"', '"bell\\u0007"',
         '"caf\\u00e9"', '"grin\\ud83d\\ude00"', '"grin\\ud83d\\ude00!": '],
        id="escaped-names",
    ),
]


class TestDocumentLayout:
    """The writer joins the document text itself; the json module checks
    that the bytes are what ``json.dumps(indent=2)`` writes."""

    def test_seven_groups_bytes_pinned(self, seven_groups_lattice):
        # The bottom's extent is empty, no edge repeats and the top
        # introduces no edge.
        text = serialize_lattice(seven_groups_lattice)
        assert_json_layout(text)
        for empty in ('"extent": []', '"duplicate_edges": {}',
                      '"introduces": []'):
            assert empty in text
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2e4b8a86f7ed72d0f516ecf4498cd1e4f6f6674f17e9a9b93109519fe69ea37c"
        )

    def test_differential_instances(self):
        for seed in RANDOM_SEEDS:
            lat = build_quiet(build_lattice_naive, random_hypergraph(seed))
            assert_json_layout(serialize_lattice(lat))

    @pytest.mark.parametrize("edges, expected", LAYOUT_CASES)
    def test_edge_cases(self, edges, expected):
        lat = build_quiet(build_lattice_naive, from_edge_list(edges))
        text = serialize_lattice(lat)
        assert_json_layout(text)
        assert text.isascii()
        for part in expected:
            assert part in text
        assert parse_lattice_document(text) == lat

    @pytest.mark.parametrize("h", [
        pytest.param(chung_lu_hypergraph(200, 100, 2.2, seed=5), id="chung-lu-200x100"),
        pytest.param(uniform_hypergraph(60, 40, seed=0), id="uniform-60x40"),
    ])
    def test_multi_digit_ids(self, h):
        # RANDOM_SEEDS stop at 8 edges: here node ids and cover ends run to
        # three or four digits.
        lat = build_quiet(build_lattice_vectorized, h)
        assert len(lat) > 100
        text = serialize_lattice(lat)
        assert_json_layout(text)
        assert parse_lattice_document(text) == lat


# Escapes lattice_to_dot writes in a label, and the characters they stand for.
DOT_UNESCAPE = {"\\": "\\", '"': '"', "n": "\n", "r": "\r"}


def assert_dot_statements(lat, dot):
    """Each node and arrow statement of ``dot`` is exactly one ``"\\n"``
    line, and each label unescapes back to ``lat.node_label``."""
    lines = dot.split("\n")
    assert lines[-1] == "" and lines[-2] == "}"
    node_lines = lines[3:3 + len(lat)]
    for i, line in enumerate(node_lines):
        quoted = re.fullmatch(r'  n(\d+) \[label="((?:[^"\\]|\\.)*)"\];', line)
        assert quoted and int(quoted[1]) == i
        assert set(re.findall(r"\\(.)", quoted[2])) <= set(DOT_UNESCAPE)
        label = re.sub(r"\\(.)", lambda m: DOT_UNESCAPE[m[1]], quoted[2])
        assert label == lat.node_label(i)
    assert lines[3 + len(lat):-2] == [f"  n{lo} -> n{hi};" for lo, hi in lat.covers]


class TestDotExport:
    def test_seven_groups_shape(self, seven_groups_lattice):
        dot = lattice_to_dot(seven_groups_lattice)
        assert dot.startswith("digraph lattice {")
        assert dot.rstrip().endswith("}")
        arrow_lines = [l for l in dot.split("\n") if "->" in l]
        assert len(arrow_lines) == len(seven_groups_lattice.covers) == 19
        node_lines = [l for l in dot.split("\n") if "[label=" in l and "->" not in l]
        assert len(node_lines) == 13
        assert '"{a,d} : {2,3}"' in dot
        assert '"{g} : {5,6,7}"' in dot

    def test_labels_escape_backslashes_quotes_and_line_breaks(self):
        # An edge "e\1", a vertex "v\n" (backslash, n), one holding a quote
        # and one holding a real line break.
        text = ',"e\\1",e2\n"v\\n",1,1\n"q\nr",0,1\n"""s""",1,1\n'
        lat = build_quiet(build_lattice_naive, parse_incidence_csv(text))
        dot = lattice_to_dot(lat)
        assert_dot_statements(lat, dot)
        assert '"{v\\\\n,\\"s\\"} : {e\\\\1,e2}"' in dot
        assert '"{v\\\\n,q\\nr,\\"s\\"} : {e2}"' in dot

    def test_other_line_separators_stay_in_one_statement(self):
        # Names holding characters that str.splitlines() also splits at
        # are written raw: DOT ends a statement at "\n" only.
        separators = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        lines = [f"e{k}{ch}x: a{ch}b, c{k}" for k, ch in enumerate(separators)]
        lines.append("all: " + ", ".join(f"a{ch}b" for ch in separators))
        lat = build_quiet(build_lattice_naive, parse_edge_list("\n".join(lines)))
        dot = lattice_to_dot(lat)
        assert len(dot.splitlines()) > len(dot.split("\n"))
        assert_dot_statements(lat, dot)

    def test_carriage_return_is_escaped(self, tmp_path):
        # A universal-newline reader ends a line at a bare \r as well.
        lat = build_lattice_naive(parse_edge_list("e1: a\rb, c\n"))
        dot = lattice_to_dot(lat)
        assert '  n0 [label="{a\\rb,c} : {e1}"];\n' in dot
        path = tmp_path / "lattice.dot"
        path.write_bytes(dot.encode())
        assert path.read_text() == dot

    def test_single_node(self):
        lat = build_lattice_naive(from_edge_list([]))
        dot = lattice_to_dot(lat)
        assert "n0" in dot
        assert "->" not in dot
