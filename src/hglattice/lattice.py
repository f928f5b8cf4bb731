"""Concept lattice construction for hypergraph incidence matrices.

Node extents are exactly the closure of the edge columns under pairwise
intersection, together with the full vertex set as top. Ordered by extent
containment this family is a lattice: meets exist because the extent family
is intersection closed.

Two builders produce the same lattice object, both over plain Python ints.
The production builder walks down from the top along lower covers, one
per-node rule at a time. The rule closes an extent X against the edge
columns, since every intersection of columns is reached one column at a
time: the closure step of Close-by-One / Norris-style algorithms
(Kuznetsov & Obiedkov, JETAI 14, 2002). Its lower covers are the maximal
sets among the meets X & c other than X (the dual of Lindig's neighbour
step, "Fast Concept Analysis", 2000). The rule needs no pass over every
column: for Y inside X, Y & c == Y & (X & c), so a node's distinct meets
come from those of any superset, the columns themselves only at the top.
Its intent is the AND of its vertices' incidence rows. The builder feeds
each node the meets of the node that found it, and the document loader
checks stored intents and covers with the same rule, feeding each node the
meets of its smallest computed upper cover. The naive builder intersects
new extents with all known ones and derives covers from per-pair subset
tests plus transitive reduction; it is kept as the independent reference.
Their outputs are canonically ordered and must compare equal byte for
byte; the test suite enforces that, plus agreement with an independent
powerset enumeration of the concepts.
"""

from __future__ import annotations

import warnings
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, combinations
from typing import Iterable, Sequence

from .core import (
    BitVec,
    EdgeSet,
    Hypergraph,
    IncidenceMatrix,
    SizeLimitError,
    VertexSet,
    dedup_edges,
    extent_prime,
    intent_prime,
    iter_bits,
)

ORACLE_EDGE_LIMIT = 20


@dataclass(frozen=True)
class Concept:
    """A closed (extent, intent) pair: each prime-maps to the other."""

    extent: VertexSet
    intent: EdgeSet


@dataclass(frozen=True)
class GaloisLabel:
    """Name-level annotation of one lattice node."""

    node: int
    extent_names: tuple[str, ...]
    intent_names: tuple[str, ...]
    introduced_edges: tuple[str, ...]


class ConceptLattice:
    """Canonically ordered concept lattice of a deduplicated hypergraph.

    Nodes are sorted by (extent cardinality, extent index tuple), which is
    a topological order of the cover DAG from bottom to top, so the bottom
    is node 0 and the top (the full vertex set) the last node. The covers
    are the only stored order: ``__init__`` packs each node's lower covers
    once into ``cover_adjacency``, the covers read undirected in compressed
    sparse row form ``(offsets, uppers, neighbours)``. Node i's row
    ``neighbours[offsets[i]:offsets[i + 1]]`` holds its lower covers up to
    ``uppers[i]``, then its upper covers, each part ascending; ``covers``
    and the full containment ``order`` are read off these rows.
    ``edge_anchors[j]`` is the node whose
    extent equals column j, and ``edge_aliases`` maps every edge name of
    the source hypergraph, duplicates included, to its deduplicated edge
    index (the identity on the edge names by default). Instances are
    immutable after construction; the other indices derived from these
    fields (``order``, ``covers``, ``extent_sizes``, ``intent_bits``,
    ``anchored_edges``) are built on first use, deterministically.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        nodes: tuple[Concept, ...],
        lower_covers: Sequence[Iterable[int]],
        edge_anchors: tuple[int, ...],
        edge_aliases: dict[str, int] | None = None,
    ):
        self.hypergraph = hypergraph
        self.nodes = nodes
        self.edge_anchors = edge_anchors
        if edge_aliases is None:
            edge_aliases = dict(hypergraph.edge_index)
        self.edge_aliases = edge_aliases
        rows = [sorted(lower) for lower in lower_covers]
        n_lower = [len(row) for row in rows]
        for i, row in enumerate(rows):
            # Upper covers sort after i, so row holds only lower covers yet.
            for j in row:
                rows[j].append(i)
        offsets = array("i", accumulate(map(len, rows), initial=0))
        uppers = array("i", (o + k for o, k in zip(offsets, n_lower)))
        self.cover_adjacency = (
            offsets, uppers, array("i", chain.from_iterable(rows))
        )

    @property
    def top_index(self) -> int:
        """The full vertex set, the largest extent."""
        return len(self.nodes) - 1

    @property
    def bottom_index(self) -> int:
        """The AND of all edge columns, the smallest extent."""
        return 0

    def __len__(self) -> int:
        return len(self.nodes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return (
            self.hypergraph == other.hypergraph
            and self.nodes == other.nodes
            and self.cover_adjacency == other.cover_adjacency
            and self.edge_anchors == other.edge_anchors
            and self.edge_aliases == other.edge_aliases
        )

    __hash__ = None

    @cached_property
    def order(self) -> frozenset[tuple[int, int]]:
        """Full containment order as (lower, upper) pairs, reflexive pairs
        included: (i, j) is present exactly when extent_i is a subset of
        extent_j.

        Upper covers sort after the node, so walking down from the top
        sees every upper cover's set of supersets complete.
        """
        offsets, uppers, neighbours = self.cover_adjacency
        up = [0] * len(self.nodes)
        pairs = set()
        for i in range(len(self.nodes) - 1, -1, -1):
            acc = 1 << i
            for k in neighbours[uppers[i]:offsets[i + 1]]:
                acc |= up[k]
            up[i] = acc
            pairs.update((i, j) for j in iter_bits(acc))
        return frozenset(pairs)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction of the strict order: (lower, upper) pairs,
        ascending."""
        offsets, uppers, neighbours = self.cover_adjacency
        return tuple(
            (i, j)
            for i in range(len(self.nodes))
            for j in neighbours[uppers[i]:offsets[i + 1]]
        )

    @cached_property
    def extent_sizes(self) -> tuple[int, ...]:
        """Per node, the number of vertices in its extent."""
        return tuple(c.extent.count for c in self.nodes)

    @cached_property
    def intent_bits(self) -> tuple[int, ...]:
        """Per node, its intent as a plain int of edge bits."""
        return tuple(c.intent.bits for c in self.nodes)

    @cached_property
    def anchored_edges(self) -> dict[int, tuple[int, ...]]:
        """Anchor node -> the edges anchored there, ascending; nodes that
        anchor no edge are absent."""
        edges: dict[int, list[int]] = {}
        for j, node in enumerate(self.edge_anchors):
            edges.setdefault(node, []).append(j)
        return {node: tuple(js) for node, js in edges.items()}

    def is_anchor(self, node: int) -> bool:
        return node in self.anchored_edges

    def node_label(self, node: int) -> str:
        """Galois label ``{extent names} : {intent names}``."""
        c = self.nodes[node]
        ext = ",".join(self.hypergraph.vertex_names_of(c.extent))
        intn = ",".join(self.hypergraph.edge_names_of(c.intent))
        return "{%s} : {%s}" % (ext, intn)

    def resolve_edge(self, name: str) -> int:
        """Deduplicated edge index for an edge name, duplicates included."""
        try:
            return self.edge_aliases[name]
        except KeyError:
            raise KeyError(f"unknown edge name {name!r}") from None


def edge_anchor(lat: ConceptLattice, name: str) -> int:
    """Node whose extent equals the named edge's column.

    Duplicate edges of the source hypergraph resolve to their
    representative's anchor; an unknown name raises KeyError.
    """
    return lat.edge_anchors[lat.resolve_edge(name)]


def _prepare(h: Hypergraph) -> tuple[Hypergraph, dict[str, int]]:
    reduced, mapping = dedup_edges(h)
    if reduced is not h:
        warnings.warn(
            "hypergraph has duplicate edge columns; deduplicating before "
            "lattice construction",
            stacklevel=3,
        )
    return reduced, {name: mapping[j] for j, name in enumerate(h.edge_names)}


def _canonical_order(extents: Iterable[int]) -> list[int]:
    return sorted(extents, key=lambda e: (e.bit_count(), tuple(iter_bits(e))))


def _finalize(
    reduced: Hypergraph,
    edge_aliases: dict[str, int],
    extents: list[int],
    up_masks: list[int],
) -> ConceptLattice:
    """Assemble the naive builder's lattice object from canonically sorted
    extents and the strict-superset masks; everything else is derived here."""
    nv, ne = reduced.n_vertices, reduced.n_edges

    intents = [intent_prime(reduced, BitVec(nv, e)).bits for e in extents]

    nodes = tuple(
        Concept(BitVec(nv, e), BitVec(ne, b)) for e, b in zip(extents, intents)
    )

    # The upper covers of i are its strict supersets not reachable through
    # another one, and i is a lower cover of each.
    lower_covers: list[list[int]] = [[] for _ in extents]
    for i in range(len(extents)):
        reachable = 0
        for k in iter_bits(up_masks[i]):
            reachable |= up_masks[k]
        for j in iter_bits(up_masks[i] & ~reachable):
            lower_covers[j].append(i)

    node_by_extent = {e: i for i, e in enumerate(extents)}
    edge_anchors = tuple(node_by_extent[col] for col in reduced.chi.columns)

    return ConceptLattice(
        hypergraph=reduced,
        nodes=nodes,
        lower_covers=lower_covers,
        edge_anchors=edge_anchors,
        edge_aliases=edge_aliases,
    )


def build_lattice_naive(h: Hypergraph) -> ConceptLattice:
    """Pairwise-intersection fixpoint builder.

    Seeds the extent family with the edge columns, repeatedly intersects
    new extents against all known ones until a pass adds nothing, then adds
    the full vertex set as top. Containment is decided by per-pair subset
    tests on the backing ints.
    """
    reduced, edge_aliases = _prepare(h)

    extents: set[int] = set(reduced.chi.columns)
    frontier = list(extents)
    while frontier:
        known = list(extents)
        fresh = []
        for a in frontier:
            for b in known:
                x = a & b
                if x not in extents:
                    extents.add(x)
                    fresh.append(x)
        frontier = fresh
    extents.add((1 << reduced.n_vertices) - 1)

    ordered = _canonical_order(extents)
    n_nodes = len(ordered)
    up_masks = [0] * n_nodes
    for i in range(n_nodes):
        ei = ordered[i]
        acc = 0
        for j in range(n_nodes):
            ej = ordered[j]
            if i != j and ei & ej == ei:
                acc |= 1 << j
        up_masks[i] = acc
    return _finalize(reduced, edge_aliases, ordered, up_masks)


class ExtentFamilyError(ValueError):
    """A set of extents is not the extent family of the hypergraph's edge
    columns."""


Neighbours = tuple[int, int, list[int]]


def concept_neighbours(
    extent: int, meets: Iterable[int], chi: IncidenceMatrix
) -> tuple[Neighbours, set[int]]:
    """Intent, closure and lower covers of one extent, and its meets.

    ``meets`` holds the distinct meets X & c of some superset X of
    ``extent`` over the edge columns c, with or without X itself; the full
    vertex set passes the columns themselves. Since
    ``extent & (X & c) == extent & c``, ANDing ``extent`` with each gives
    its own distinct meets. Those other than ``extent`` are returned, so
    that the extents below it can start from them in turn.

    The intent holds the edges that contain ``extent``: the AND of the
    incidence rows of its vertices (all edges for the empty set). The
    closure is the AND of the intent's columns (all vertices when there
    are none). The lower covers are the maximal meets other than
    ``extent`` itself: a strictly smaller extent is an intersection of
    columns, one of which misses a vertex of ``extent``, so it lies below
    one of these meets.
    """
    own = {extent & m for m in meets}
    own.discard(extent)
    rows, columns = chi.rows, chi.columns
    intent = (1 << chi.n_edges) - 1
    for k in iter_bits(extent):
        intent &= rows[k]
    closed = (1 << chi.n_vertices) - 1
    for j in iter_bits(intent):
        closed &= columns[j]
    lower: list[int] = []
    # A strict superset has more bits, so it is seen (or one above it kept)
    # before the sets it contains.
    for y in sorted(own, key=int.bit_count, reverse=True):
        for z in lower:
            if y & z == y:
                break
        else:
            lower.append(y)
    return (intent, closed, lower), own


def lattice_from_neighbours(
    reduced: Hypergraph,
    neighbours: dict[int, Neighbours],
    edge_aliases: dict[str, int] | None = None,
) -> ConceptLattice:
    """Lattice object of a deduplicated hypergraph from the
    ``concept_neighbours`` of each extent in its extent family.

    Nodes take the canonical order of the extents, and each node's lower
    covers are its extent's ``concept_neighbours`` lower covers, mapped to
    node indices, so no pairwise containment test is made. Which
    superset's meets each rule started from does not matter: any true
    superset gives the same neighbours. Each edge is anchored at the node
    whose extent equals its column.

    Raises ExtentFamilyError when the extents are not that family: an
    extent that is not the AND of its intent's columns, or a lower cover,
    a column or the full vertex set that is not one of the extents. These
    checks pin the family down: every extent is a column intersection or
    the top, and an intersection of an extent with a column that is
    missing would be, or lie below, some extent's missing lower cover.
    The family is then closed under intersection, so the canonical order
    puts its minimum, the AND of all columns, first and the full vertex
    set last.
    """
    nv, ne = reduced.n_vertices, reduced.n_edges
    columns = reduced.chi.columns
    extents = _canonical_order(neighbours)
    index = {e: i for i, e in enumerate(extents)}

    def node_of(extent: int, what: str) -> int:
        try:
            return index[extent]
        except KeyError:
            raise ExtentFamilyError(f"{what} is not a node extent") from None

    intents = []
    lower_covers = []
    for i, x in enumerate(extents):
        intent, closed, lower = neighbours[x]
        if closed != x:
            raise ExtentFamilyError(
                f"extent {i} is not the AND of its intent's columns"
            )
        intents.append(intent)
        lower_covers.append(
            [node_of(y, f"a lower cover of extent {i}") for y in lower]
        )

    edge_anchors = tuple(node_of(col, "an edge column") for col in columns)
    node_of((1 << nv) - 1, "the full vertex set")  # the top is a node

    return ConceptLattice(
        hypergraph=reduced,
        nodes=tuple(
            Concept(BitVec(nv, e), BitVec(ne, b))
            for e, b in zip(extents, intents)
        ),
        lower_covers=lower_covers,
        edge_anchors=edge_anchors,
        edge_aliases=edge_aliases,
    )


def build_lattice_vectorized(h: Hypergraph) -> ConceptLattice:
    """Column-closure builder; output is identical to the naive builder.

    Starts from the full vertex set as top, whose rule
    (``concept_neighbours``) takes the edge columns, and goes on depth
    first to the lower covers each rule finds. A node's rule runs once,
    when it is first found, from the distinct meets of the node just
    popped, its superset; those meets are dropped once the node itself is
    popped. Every extent lies on a chain of lower covers down from the
    top, so this reaches the whole family. The covers and anchors then
    come from ``lattice_from_neighbours``. The name is kept for
    ``--algorithm vectorized`` and the ``bench`` output.
    """
    reduced, edge_aliases = _prepare(h)
    chi = reduced.chi
    full = (1 << reduced.n_vertices) - 1
    top, meets = concept_neighbours(full, chi.columns, chi)
    found = {full: top}
    stack = [(full, meets)]
    while stack:
        x, meets = stack.pop()
        for y in found[x][2]:
            if y not in found:
                found[y], own = concept_neighbours(y, meets, chi)
                stack.append((y, own))
    return lattice_from_neighbours(reduced, found, edge_aliases)


def enumerate_concepts_oracle(h: Hypergraph) -> frozenset[Concept]:
    """All concepts by brute force: close every subset of the edge set.

    Enumerates the full powerset of edges, so it refuses inputs with more
    than ORACLE_EDGE_LIMIT edges. Deliberately independent of the builders;
    only the prime operators are shared.
    """
    ne = h.n_edges
    if ne > ORACLE_EDGE_LIMIT:
        raise SizeLimitError(
            f"concept enumeration is limited to {ORACLE_EDGE_LIMIT} edges; "
            f"got {ne}"
        )
    found = set()
    for bits in range(1 << ne):
        extent = extent_prime(h, BitVec(ne, bits))
        intent = intent_prime(h, extent)
        found.add(Concept(extent, intent))
    return frozenset(found)


class IsomorphismResult:
    """Truthy on success; carries a diagnostic for the first mismatch."""

    def __init__(self, ok: bool, detail: str = ""):
        self.ok = ok
        self.detail = detail

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"IsomorphismResult(ok={self.ok}, detail={self.detail!r})"


def verify_isomorphism(lat: ConceptLattice, concepts) -> IsomorphismResult:
    """Check that a lattice realizes a concept set, extent for extent.

    The lattice's extents must coincide with the concepts' extents, intents
    must agree per extent, and the order derived from the stored covers
    must match recomputed containment of the concept extents. ``concepts``
    should come from the same (deduplicated) hypergraph the lattice was
    built over.
    """
    concepts = list(concepts)
    by_extent = {}
    for c in concepts:
        by_extent[c.extent.bits] = c

    lattice_extents = {c.extent.bits for c in lat.nodes}
    oracle_extents = set(by_extent)
    missing = oracle_extents - lattice_extents
    if missing:
        bits = next(iter(missing))
        return IsomorphismResult(
            False, f"extent {sorted(iter_bits(bits))} missing from lattice"
        )
    extra = lattice_extents - oracle_extents
    if extra:
        bits = next(iter(extra))
        return IsomorphismResult(
            False, f"lattice extent {sorted(iter_bits(bits))} is not a concept"
        )

    for i, node in enumerate(lat.nodes):
        expected = by_extent[node.extent.bits].intent
        if node.intent != expected:
            return IsomorphismResult(
                False,
                f"node {i}: intent {node.intent.indices()} != "
                f"concept intent {expected.indices()}",
            )

    order = lat.order
    index = {c.extent.bits: i for i, c in enumerate(lat.nodes)}
    for c, d in combinations(concepts, 2):
        for lo, hi in ((c, d), (d, c)):
            should = lo.extent.issubset(hi.extent)
            stored = (index[lo.extent.bits], index[hi.extent.bits]) in order
            if should != stored:
                return IsomorphismResult(
                    False,
                    f"order disagrees on extents {lo.extent.indices()} vs "
                    f"{hi.extent.indices()}",
                )
    return IsomorphismResult(True)


def galois_labels(lat: ConceptLattice) -> list[GaloisLabel]:
    """Per-node name-level labels, including the edges each node introduces."""
    h = lat.hypergraph
    anchored = lat.anchored_edges
    out = []
    for i, c in enumerate(lat.nodes):
        out.append(
            GaloisLabel(
                node=i,
                extent_names=h.vertex_names_of(c.extent),
                intent_names=h.edge_names_of(c.intent),
                introduced_edges=tuple(
                    h.edge_names[j] for j in anchored.get(i, ())
                ),
            )
        )
    return out
