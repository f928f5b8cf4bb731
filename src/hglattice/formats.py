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
from itertools import islice
from json.encoder import encode_basestring_ascii

from .core import (
    Hypergraph,
    IncidenceMatrix,
    IngestionError,
    from_edge_list,
    iter_bits,
    names_of,
)
from .lattice import ConceptLattice, walk_lattice


class ParseError(ValueError):
    """Input text could not be parsed; the message carries the location."""


def parse_edge_list(text: str) -> Hypergraph:
    """Parse ``edge_name: v1, v2, ...`` lines into a hypergraph.

    Blank lines and ``#`` comments are ignored; an edge with no vertices is
    written as ``name:``. Duplicate vertex mentions inside an edge collapse.
    Lines end at ``\n`` only, a ``\r`` before it is dropped, so ``line N``
    is the physical line, counted as the CSV parser counts it.
    """
    edges = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
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
    if not name or name != name.strip() or any(
        ch in name for ch in "\n" + forbidden
    ):
        raise ValueError(f"{kind} name {name!r} cannot be written to an edge list")


def format_edge_list(h: Hypergraph) -> str:
    """Edge-list text that ``parse_edge_list`` reads back as the same edges.

    Raises ValueError naming the first name the format cannot hold: an
    empty name, one with leading or trailing whitespace or a ``\n``, one
    containing ``#`` or ``,``, and an edge name containing ``:``. Other
    line separators, such as form feed or U+2028, are kept inside names.
    Vertices in no edge are not written.
    """
    for name in h.vertex_names:
        _require_writable("vertex", name, "#,")
    lines = []
    for name, column in zip(h.edge_names, h.chi.columns):
        _require_writable("edge", name, "#,:")
        members = names_of(h.vertex_names, column)
        lines.append(f"{name}: {', '.join(members)}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def parse_incidence_csv(text: str) -> Hypergraph:
    """Parse an incidence matrix CSV: header row of edge names (first cell
    is the corner and ignored), then one row per vertex with 0/1 cells.
    Lines with no comma and no text are skipped; every other line is a row,
    so a header of blank cells is refused, not passed over. Edge and vertex
    names must not be blank. Line ends are universal newlines: ``\r\n``
    and a bare ``\r`` end a row, and a quoted line break reads as ``\n``."""
    reader = csv.reader(io.StringIO(text, newline=None))
    # Each row with the physical line it ends on, since blank lines and
    # quoted line breaks make rows and lines differ.
    rows = []
    try:
        for row in reader:
            if len(row) > 1 or (row and row[0].strip()):
                rows.append((reader.line_num, row))
    except csv.Error as exc:
        raise ParseError(f"line {reader.line_num}: {exc}") from exc
    if not rows:
        return from_edge_list([])
    line, header = rows[0]
    edge_names = [cell.strip() for cell in header[1:]]
    for c, name in enumerate(edge_names, start=2):
        if not name:
            raise ParseError(f"line {line}, column {c}: missing edge name")
    n_edges = len(edge_names)
    vertex_names = []
    columns = [0] * n_edges
    for v, (line, row) in enumerate(rows[1:]):
        if len(row) != n_edges + 1:
            raise ParseError(
                f"line {line}: expected {n_edges + 1} cells, got {len(row)}"
            )
        name = row[0].strip()
        if not name:
            raise ParseError(f"line {line}: missing vertex name")
        vertex_names.append(name)
        for c, cell in enumerate(row[1:], start=2):
            value = cell.strip()
            if value == "1":
                columns[c - 2] |= 1 << v
            elif value != "0":
                raise ParseError(
                    f"line {line}, column {c}: expected 0 or 1, got {cell!r}"
                )
    try:
        chi = IncidenceMatrix(len(vertex_names), n_edges, tuple(columns))
        return Hypergraph(tuple(vertex_names), tuple(edge_names), chi)
    except IngestionError as exc:
        raise ParseError(str(exc)) from exc


DOCUMENT_FORMAT = "hg-lattice/1"


def _block(items, indent: int, opening: str = "[", closing: str = "]") -> str:
    """Already encoded ``items`` as a JSON array (or object) whose brackets
    sit at ``indent`` spaces, one item a line, as ``json.dumps(indent=2)``
    lays it out; empty, it prints on one line."""
    if not items:
        return opening + closing
    inner = "\n" + " " * (indent + 2)
    return f"{opening}{inner}{(',' + inner).join(items)}\n{' ' * indent}{closing}"


def serialize_lattice(lat: ConceptLattice) -> str:
    """The lattice's JSON document, byte for byte what
    ``json.dumps(document, indent=2) + "\\n"`` writes, ASCII escapes
    included. Each name is encoded once with the encoder ``json.dumps``
    uses, and the layout is joined directly, which skips the pure-Python
    path that ``json`` takes whenever ``indent`` is set."""
    h = lat.hypergraph
    encode = encode_basestring_ascii
    vertices = [encode(name) for name in h.vertex_names]
    edges = [encode(name) for name in h.edge_names]
    # The aliases past the representatives are the duplicates, by name.
    duplicates = [
        f"{encode(name)}: {edges[rep]}"
        for name, rep in islice(lat.edge_aliases.items(), h.n_edges, None)
    ]
    # Inside a node the names come each after its line break and indent,
    # so a non-empty array is one join.
    vertex_lines = ["\n        " + name for name in vertices]
    edge_lines = ["\n        " + name for name in edges]

    def block(names: list[str]) -> str:
        return "[" + ",".join(names) + "\n      ]" if names else "[]"

    anchored = lat.anchored_edges
    nodes = [
        f'{{\n      "id": {i},\n'
        f'      "extent": {block(names_of(vertex_lines, extent))},\n'
        f'      "intent": {block(names_of(edge_lines, intent))},\n'
        f'      "introduces": {block([edge_lines[j] for j in anchored.get(i, ())])}\n'
        "    }"
        for i, (extent, intent) in enumerate(zip(lat.extent_bits, lat.intent_bits))
    ]
    # A cover pair is its lower node's head plus its upper node's tail,
    # each formatted once.
    tails = [f"{j}\n    ]" for j in range(len(lat))]
    covers = []
    for i, ups in enumerate(lat.upper_covers):
        head = f"[\n      {i},\n      "
        covers += [head + tails[j] for j in ups]
    return (
        f'{{\n  "format": {encode(DOCUMENT_FORMAT)},\n'
        '  "hypergraph": {\n'
        f'    "n_vertices": {h.n_vertices},\n'
        f'    "n_edges": {h.n_edges},\n'
        f'    "vertices": {_block(vertices, 4)},\n'
        f'    "edges": {_block(edges, 4)},\n'
        f'    "duplicate_edges": {_block(duplicates, 4, "{", "}")}\n'
        "  },\n"
        f'  "top": {lat.top_index},\n'
        f'  "bottom": {lat.bottom_index},\n'
        f'  "nodes": {_block(nodes, 2)},\n'
        f'  "covers": {_block(covers, 2)}\n'
        "}\n"
    )


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


_JSON_KINDS = {dict: "an object", list: "an array", int: "an integer", str: "a string"}


def _field(obj: dict, key: str, kind: type, where: str):
    """``obj[key]``, which must be present and exactly of ``kind``: a JSON
    ``true`` is not an integer."""
    value = obj.get(key)
    if type(value) is not kind:
        raise ParseError(f"{where}: {key!r} is missing or not {_JSON_KINDS[kind]}")
    return value


def _name_table(hg: dict, key: str) -> tuple[str, ...]:
    names = _field(hg, key, list, "hypergraph")
    _require(all(type(name) is str for name in names),
             f"hypergraph: {key!r} must hold only strings")
    return tuple(names)


def _bits_of(rec: dict, key: str, index: dict[str, int], i: int) -> int:
    """Bit set of the names listed under ``rec[key]`` of node ``i``."""
    names = rec.get(key)
    if type(names) is not list:
        raise ParseError(f"node {i}: {key!r} is missing or not an array")
    bits = 0
    for name in names:
        # The tables hold only strings: a name of another type is unknown.
        try:
            bits |= 1 << index[name]
        except (KeyError, TypeError):
            raise ParseError(f"node {i}: unknown name {name!r} in {key!r}") from None
    if bits.bit_count() != len(names):
        raise ParseError(f"node {i}: {key!r} repeats a name")
    return bits


def document_to_lattice(doc: dict) -> ConceptLattice:
    """Rebuild the canonical lattice from its document form.

    Every field is type-checked. Edge columns are taken from the nodes
    that introduce them, and the builder's walk (``walk_lattice``) rebuilds
    the one lattice those columns determine, stopping at the first extent
    that is not a stored one, so its work is bounded by the document. The
    stored extents, intents, covers, top and bottom must then agree with
    it, in that order, so a tampered document fails instead of producing
    an inconsistent lattice.
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
    _require(type(duplicates) is dict, "hypergraph: 'duplicate_edges' is not an object")
    vidx = {name: i for i, name in enumerate(vertex_names)}
    eidx = {name: i for i, name in enumerate(edge_names)}
    nv, ne = len(vertex_names), len(edge_names)

    records = _field(doc, "nodes", list, "document")
    extents, intents, introduces = [], [], []
    # One pass, each check inline; a message is formatted only when raised.
    for i, rec in enumerate(records):
        if type(rec) is not dict:
            raise ParseError(f"node {i}: not an object")
        if type(node_id := rec.get("id")) is not int:
            raise ParseError(f"node {i}: 'id' is missing or not an integer")
        if node_id != i:
            raise ParseError("node ids must be 0..n-1 in order")
        extents.append(_bits_of(rec, "extent", vidx, i))
        intents.append(_bits_of(rec, "intent", eidx, i))
        introduces.append(_bits_of(rec, "introduces", eidx, i))

    # Edge columns are recovered from the nodes that introduce each edge.
    columns = [None] * ne
    for i, intro in enumerate(introduces):
        for j in iter_bits(intro):
            if columns[j] is not None:
                raise ParseError(
                    f"edge {edge_names[j]!r} introduced at more than one node")
            columns[j] = extents[i]
    _require(all(col is not None for col in columns),
             "every edge must be introduced at exactly one node")
    _require(len(set(columns)) == ne, "duplicate edge columns in document")
    try:
        chi = IncidenceMatrix(nv, ne, tuple(columns))
        h = Hypergraph(vertex_names, edge_names, chi)
    except IngestionError as exc:
        raise ParseError(str(exc)) from exc

    aliases = {}
    for dup, rep in duplicates.items():
        if type(rep) is not str or rep not in eidx:
            raise ParseError(f"duplicate edge {dup!r} maps to unknown {rep!r}")
        if dup in eidx:
            raise ParseError(f"duplicate edge {dup!r} is also an edge")
        aliases[dup] = eidx[rep]

    # The walk stops at the first extent of the family that is not stored,
    # so a document cannot make it run past its own node count.
    stored, found = set(extents), {}
    for y, lower in walk_lattice(h.chi):
        if y not in stored:
            if y == (1 << nv) - 1:
                raise ParseError("the full vertex set is not a node extent")
            names = ",".join(names_of(vertex_names, y))
            raise ParseError(
                f"the column intersection {{{names}}} is not a node extent")
        found[y] = lower
    if not stored <= found.keys():
        i = next(i for i, x in enumerate(extents) if x not in found)
        raise ParseError(f"extent {i} is not the AND of its intent's columns")
    lat = ConceptLattice(h, found, aliases)
    _require(list(lat.extent_bits) == extents,
             "node extents must be distinct and in canonical order")
    if list(lat.intent_bits) != intents:
        i = next(i for i, x in enumerate(intents) if x != lat.intent_bits[i])
        raise ParseError(f"node {i}: stored intent disagrees with edge columns")
    covers = [[i, j] for i, ups in enumerate(lat.upper_covers) for j in ups]
    _require(_field(doc, "covers", list, "document") == covers,
             "stored covers disagree with node extents")
    _require(_field(doc, "top", int, "document") == lat.top_index,
             "stored top id is wrong")
    _require(_field(doc, "bottom", int, "document") == lat.bottom_index,
             "stored bottom id is wrong")
    return lat


def parse_lattice_document(text: str) -> ConceptLattice:
    # JSONDecodeError is a ValueError, and so is the int-string limit's
    # error for an integer of too many digits.
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return document_to_lattice(doc)


def lattice_to_dot(lat: ConceptLattice) -> str:
    """Hasse diagram in DOT form, one edge per cover pair, nodes labelled
    ``{extent} : {intent}``. Backslashes and quotes in a label are escaped
    and line breaks are written as Graphviz's ``\\n`` and ``\\r``, so
    every name prints as it is and every statement stays on one line."""
    lines = [
        "digraph lattice {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i in range(len(lat)):
        label = (
            lat.node_label(i)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
        )
        lines.append(f'  n{i} [label="{label}"];')
    for lo, hi in lat.covers:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"
