"""File formats: edge lists, incidence CSV, lattice JSON documents, DOT.

The JSON document is the canonical machine-readable form of a lattice and
round-trips losslessly; DOT renders the Hasse diagram with Galois labels
for external graph tooling. Parse failures raise ParseError with the line
or cell that offended.
"""

from __future__ import annotations

import csv
import io
import json

from .core import (
    Hypergraph,
    IncidenceMatrix,
    IngestionError,
    from_edge_list,
    iter_bits,
)
from .lattice import (
    ConceptLattice,
    ExtentFamilyError,
    concept_neighbours,
    lattice_from_neighbours,
)


class ParseError(ValueError):
    """Input text could not be parsed; the message carries the location."""


def parse_edge_list(text: str) -> Hypergraph:
    """Parse ``edge_name: v1, v2, ...`` lines into a hypergraph.

    Blank lines and ``#`` comments are ignored; an edge with no vertices is
    written as ``name:``. Duplicate vertex mentions inside an edge collapse.
    """
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ParseError(
                f"line {lineno}: expected 'edge_name: v1, v2, ...', got {raw!r}"
            )
        name, _, members = line.partition(":")
        name = name.strip()
        if not name:
            raise ParseError(f"line {lineno}: missing edge name")
        vertices = [v.strip() for v in members.split(",") if v.strip()]
        edges.append((name, vertices))
    try:
        return from_edge_list(edges)
    except IngestionError as exc:
        raise ParseError(str(exc)) from exc


def _require_writable(kind: str, name: str, forbidden: str):
    if name.splitlines() != [name] or name != name.strip() or any(
        ch in name for ch in forbidden
    ):
        raise ValueError(f"{kind} name {name!r} cannot be written to an edge list")


def format_edge_list(h: Hypergraph) -> str:
    """Edge-list text that ``parse_edge_list`` reads back as the same edges.

    Raises ValueError naming the first name the format cannot hold: an
    empty name, one with leading or trailing whitespace or a line break,
    one containing ``#`` or ``,``, and an edge name containing ``:``.
    Vertices in no edge are not written.
    """
    for name in h.vertex_names:
        _require_writable("vertex", name, "#,")
    lines = []
    for j, name in enumerate(h.edge_names):
        _require_writable("edge", name, "#,:")
        members = h.vertex_names_of(h.edge_column(j))
        lines.append(f"{name}: {', '.join(members)}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_incidence_csv(text: str) -> Hypergraph:
    """Parse an incidence matrix CSV: header row of edge names (first cell
    is the corner and ignored), then one row per vertex with 0/1 cells."""
    rows = [row for row in csv.reader(io.StringIO(text))]
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        return from_edge_list([])
    header = rows[0]
    edge_names = [cell.strip() for cell in header[1:]]
    n_edges = len(edge_names)
    vertex_names = []
    columns = [0] * n_edges
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != n_edges + 1:
            raise ParseError(
                f"row {r}: expected {n_edges + 1} cells, got {len(row)}"
            )
        vertex_names.append(row[0].strip())
        for c, cell in enumerate(row[1:], start=2):
            value = cell.strip()
            if value == "1":
                columns[c - 2] |= 1 << (r - 2)
            elif value != "0":
                raise ParseError(
                    f"row {r}, column {c}: expected 0 or 1, got {cell!r}"
                )
    try:
        chi = IncidenceMatrix(len(vertex_names), n_edges, tuple(columns))
        return Hypergraph(tuple(vertex_names), tuple(edge_names), chi)
    except IngestionError as exc:
        raise ParseError(str(exc)) from exc


DOCUMENT_FORMAT = "hg-lattice/1"


def lattice_to_document(lat: ConceptLattice) -> dict:
    """JSON-ready dict describing the canonical lattice."""
    h = lat.hypergraph
    duplicates = {
        name: h.edge_names[rep]
        for name, rep in sorted(lat.edge_aliases.items())
        if name != h.edge_names[rep]
    }
    anchored = lat.anchored_edges
    nodes = []
    for i, c in enumerate(lat.nodes):
        nodes.append(
            {
                "id": i,
                "extent": list(h.vertex_names_of(c.extent)),
                "intent": list(h.edge_names_of(c.intent)),
                "introduces": [h.edge_names[j] for j in anchored.get(i, ())],
            }
        )
    return {
        "format": DOCUMENT_FORMAT,
        "hypergraph": {
            "n_vertices": h.n_vertices,
            "n_edges": h.n_edges,
            "vertices": list(h.vertex_names),
            "edges": list(h.edge_names),
            "duplicate_edges": duplicates,
        },
        "top": lat.top_index,
        "bottom": lat.bottom_index,
        "nodes": nodes,
        "covers": [[lo, hi] for lo, hi in lat.covers],
    }


def serialize_lattice(lat: ConceptLattice) -> str:
    return json.dumps(lattice_to_document(lat), indent=2) + "\n"


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, which must be present and exactly of ``kind``: a JSON
    ``true`` is not an integer."""
    value = obj.get(key)
    _require(type(value) is kind,
             f"{where}: {key!r} is missing or not {_JSON_KINDS[kind]}")
    return value


def _name_table(hg: dict, key: str) -> tuple[str, ...]:
    names = _field(hg, key, list, "hypergraph")
    _require(all(type(name) is str for name in names),
             f"hypergraph: {key!r} must hold only strings")
    return tuple(names)


def _bits_of(rec: dict, key: str, index: dict[str, int], where: str) -> int:
    """Bit set of the names listed under ``rec[key]``."""
    bits = 0
    names = _field(rec, key, list, where)
    for name in names:
        # The tables hold only strings, so a name of any other type is
        # unknown too.
        try:
            bits |= 1 << index[name]
        except (KeyError, TypeError):
            raise ParseError(f"{where}: unknown name {name!r} in {key!r}") from None
    _require(bits.bit_count() == len(names), f"{where}: {key!r} repeats a name")
    return bits


def document_to_lattice(doc: dict) -> ConceptLattice:
    """Rebuild the canonical lattice from its document form.

    Every field is type-checked. Extents are taken from the node records
    and edge columns from the nodes that introduce them; intents and
    covers are then recomputed by the builder's per-node rule
    (``concept_neighbours``), top and bottom follow from the canonical
    order, and the stored ones must agree, so a tampered document fails
    instead of producing an inconsistent lattice. The rule runs from the
    last node to the first, and each node starts from the distinct meets
    of the latest node whose computed lower covers hold it, else from the
    columns. Such a node is a true superset whatever the document says, so
    a tampered order only costs speed.
    """
    _require(isinstance(doc, dict), "document must be a JSON object")
    _require(doc.get("format") == DOCUMENT_FORMAT,
             f"unsupported document format {doc.get('format')!r}")
    hg = _field(doc, "hypergraph", dict, "document")
    vertex_names = _name_table(hg, "vertices")
    edge_names = _name_table(hg, "edges")
    _require(_field(hg, "n_vertices", int, "hypergraph") == len(vertex_names),
             "vertex table does not match n_vertices")
    _require(_field(hg, "n_edges", int, "hypergraph") == len(edge_names),
             "edge table does not match n_edges")
    duplicates = hg.get("duplicate_edges", {})
    _require(type(duplicates) is dict,
             "hypergraph: 'duplicate_edges' is not an object")
    vidx = {name: i for i, name in enumerate(vertex_names)}
    eidx = {name: i for i, name in enumerate(edge_names)}
    nv, ne = len(vertex_names), len(edge_names)

    records = _field(doc, "nodes", list, "document")
    extents = []
    intents = []
    introduces = []
    for i, rec in enumerate(records):
        where = f"node {i}"
        _require(type(rec) is dict, f"{where}: not an object")
        _require(_field(rec, "id", int, where) == i,
                 "node ids must be 0..n-1 in order")
        extents.append(_bits_of(rec, "extent", vidx, where))
        intents.append(_bits_of(rec, "intent", eidx, where))
        introduces.append(_bits_of(rec, "introduces", eidx, where))

    # Edge columns are recovered from the nodes that introduce each edge.
    columns = [None] * ne
    for i, intro in enumerate(introduces):
        for j in iter_bits(intro):
            _require(columns[j] is None,
                     f"edge {edge_names[j]!r} introduced at more than one node")
            columns[j] = extents[i]
    _require(all(col is not None for col in columns),
             "every edge must be introduced at exactly one node")
    _require(len(set(columns)) == ne, "duplicate edge columns in document")
    try:
        h = Hypergraph(
            vertex_names, edge_names, IncidenceMatrix(nv, ne, tuple(columns))
        )
    except IngestionError as exc:
        raise ParseError(str(exc)) from exc

    aliases = {name: j for j, name in enumerate(edge_names)}
    for dup, rep in duplicates.items():
        _require(type(rep) is str and rep in eidx,
                 f"duplicate edge {dup!r} maps to unknown {rep!r}")
        _require(dup not in eidx, f"duplicate edge {dup!r} is also an edge")
        aliases[dup] = eidx[rep]

    # Canonical order puts supersets later, so the latest node to list an
    # extent among its computed lower covers is its smallest such parent.
    neighbours = {}
    inherited: dict[int, set[int]] = {}
    for x in reversed(extents):
        neighbours[x], meets = concept_neighbours(
            x, inherited.pop(x, columns), h.chi
        )
        for y in neighbours[x][2]:
            inherited[y] = meets
    try:
        lat = lattice_from_neighbours(h, neighbours, edge_aliases=aliases)
    except ExtentFamilyError as exc:
        raise ParseError(str(exc)) from exc
    _require([node.extent.bits for node in lat.nodes] == extents,
             "node extents must be distinct and in canonical order")
    for i, node in enumerate(lat.nodes):
        _require(node.intent.bits == intents[i],
                 f"node {i}: stored intent disagrees with edge columns")
    covers = [[lo, hi] for lo, hi in lat.covers]
    _require(_field(doc, "covers", list, "document") == covers,
             "stored covers disagree with node extents")
    _require(_field(doc, "top", int, "document") == lat.top_index,
             "stored top id is wrong")
    _require(_field(doc, "bottom", int, "document") == lat.bottom_index,
             "stored bottom id is wrong")
    return lat


def parse_lattice_document(text: str) -> ConceptLattice:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_lattice(doc)


def lattice_to_dot(lat: ConceptLattice) -> str:
    """Hasse diagram in DOT form, one edge per cover pair, nodes labelled
    ``{extent} : {intent}``."""
    lines = [
        "digraph lattice {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i in range(len(lat.nodes)):
        label = lat.node_label(i).replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for lo, hi in lat.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
