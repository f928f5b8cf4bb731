"""Concept lattice construction for hypergraph incidence matrices.

Node extents are exactly the closure of the edge columns under pairwise
intersection, together with the full vertex set as top. Ordered by extent
containment this family is a lattice: meets exist because the extent family
is intersection closed.

Two builders produce the same lattice object, both over plain Python ints.
The production builder walks down from the top along lower covers, one
per-node rule at a time. The lower covers of an extent X are the maximal
sets among the meets X & c with the edge columns c, other than X (the dual
of Lindig's neighbour step, "Fast Concept Analysis", 2000; see also
Kuznetsov & Obiedkov, JETAI 14, 2002). The rule needs no pass over every
column: for Y inside X, Y & c == Y & (X & c), so a node's distinct meets
come from those of any superset, and the walk feeds each node the meets of
the node that found it (the top gets the columns). A node with few
vertices against those meets gets its own meets from the incidence rows
instead, by refining the edges over its vertices (partition refinement,
Paige & Tarjan, SIAM J. Comput. 16, 1987): at most popcount ANDs per own
meet. Like the superset meets, this changes which ANDs are made, not the
meets they give. The document loader runs the same walk over a document's
edge columns, stopped at the first extent the document lacks, and
compares. The naive builder is the independent reference: it closes the
full vertex set under intersection with one column at a time (the
incremental scheme of the same survey) and takes each extent's lower
covers as its maximal strict subsets. All three pass extents and lower
covers to the ``ConceptLattice`` constructor, which orders the nodes
canonically, anchors the edges and reads the intents off the covers: X's
intent is the set of edges anchored at X or above it (the reduced labels
of Ganter & Wille, 1999). The two builders' outputs must compare equal
byte for byte; the test suite enforces that, plus agreement with the
powerset enumeration of the concepts by the prime operators in
``oracle``. This module holds the builders and the lattice only; a
node's label is ``ConceptLattice.node_label``.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterable, Iterator
from itertools import islice

from .core import Hypergraph, IncidenceMatrix, dedup_edges, iter_bits, names_of


# Byte b with its bits reversed and complemented. For extents of one size,
# (extent cardinality, extent index tuple) order puts first the extent that
# holds the lowest vertex where two differ; with vertex 0 read as the high
# bit of the first byte, that is the lexicographic order of the
# little-endian bytes translated through this table.
_SORT_BYTE = bytes(255 - int(f"{b:08b}"[::-1], 2) for b in range(256))


class ConceptLattice:
    """Canonically ordered concept lattice of a deduplicated hypergraph.

    The constructor assembles it from ``found``, the hypergraph's extent
    family with each extent mapped to its lower-cover extents, the form
    ``walk_lattice`` yields; both builders and the document loader build
    the lattice this way, and this is the one place intents are computed.
    Nodes are sorted by (extent cardinality, extent index tuple), which is
    a topological order of the cover DAG from bottom to top, so the bottom
    is node 0 and the top (the full vertex set) the last node.
    Node i is stored once, as plain ints: ``extent_bits[i]`` (bit k for
    vertex k), ``intent_bits[i]`` (bit j for deduplicated edge j) and
    ``extent_sizes[i]``. ``edge_anchors[j]`` is the node whose extent
    equals column j. An edge contains an extent exactly when its anchor
    lies at or above that extent's node, so a node's intent is the union
    of the edges anchored at it or above it. ``anchored_edges`` maps each
    anchor node to its edges. ``edge_aliases`` maps every edge name of the
    source hypergraph, duplicates included, to its deduplicated edge index;
    the caller may leave the representatives out. It lists them in edge
    order, then the duplicates sorted by name, whatever order the caller
    passes. ``edge_duplicates`` inverts that duplicate part, as
    ``anchored_edges`` inverts ``edge_anchors``: it maps each edge that
    has duplicates to their names, sorted. ``edges_by_size`` lists the
    edges in ascending order of size (their anchors' extent sizes), ties
    by index, and ``sorted_edge_sizes`` holds those sizes in the same
    order, so the edges with at least s vertices, those an s-query keeps,
    are the suffix of ``edges_by_size`` from where s bisects
    ``sorted_edge_sizes``.

    The covers are the only stored order: ``lower_covers[i]`` and
    ``upper_covers[i]`` hold node i's lower and upper covers, each
    ascending, and each relation is the exact inverse of the other. The
    ``covers`` pairs are read off the upper rows on each call; containment
    is their transitive closure and is never stored.

    ``component_forest = (parent, level)`` holds the s-components for
    every s at once. The nodes an s-query keeps (extent size at least s,
    minus ``hidden_top``) are nested as s falls, so the constructor adds
    them from the top down and unites each with its upper covers, by tree
    size and without path compression. A root linked while a node of
    extent size k is added gets level k; roots and skipped nodes keep
    level 0 and are their own parent. Levels fall along every path to a
    root, so climbing from a kept node while ``level >= s`` ends at the
    node that names its s-component. Nothing changes after construction.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        found: dict[int, Iterable[int]],
        edge_aliases: dict[str, int],
    ):
        self.hypergraph = hypergraph
        self.edge_aliases = {
            name: j for j, name in enumerate(hypergraph.edge_names)
        }
        self.edge_aliases.update(sorted(edge_aliases.items()))
        width = (hypergraph.n_vertices + 7) // 8
        self.extent_bits = extents = tuple(sorted(found, key=lambda e: (
            e.bit_count(), e.to_bytes(width, "little").translate(_SORT_BYTE)
        )))
        index = {e: i for i, e in enumerate(extents)}
        # Each working list and dict is dropped as soon as what it builds is
        # stored, so the constructor's peak stays near the lattice it keeps.
        self.lower_covers = lower = tuple(
            tuple(sorted(map(index.__getitem__, found[e]))) for e in extents
        )
        self.edge_anchors = tuple(index[col] for col in hypergraph.chi.columns)
        del index
        self.extent_sizes = sizes = tuple(map(int.bit_count, extents))
        n = len(extents)
        intents = [0] * n
        anchored: dict[int, list[int]] = {}
        for j, node in enumerate(self.edge_anchors):
            intents[node] |= 1 << j
            anchored.setdefault(node, []).append(j)
        # Upper covers sort after a node, so walking down from the top pushes
        # each intent on only once it is complete.
        for i in range(n - 1, -1, -1):
            for k in lower[i]:
                intents[k] |= intents[i]
        self.intent_bits = tuple(intents)
        del intents
        # Anchor node -> the edges anchored there, ascending; nodes that
        # anchor no edge are absent.
        self.anchored_edges = {node: tuple(js) for node, js in anchored.items()}
        del anchored
        # sorted() is stable, so edges of one size stay in index order, and
        # the sizes in that order ascend: bisecting them needs no key.
        edge_sizes = [sizes[node] for node in self.edge_anchors]
        self.edges_by_size = tuple(
            sorted(range(hypergraph.n_edges), key=edge_sizes.__getitem__)
        )
        self.sorted_edge_sizes = tuple(sorted(edge_sizes))
        # The aliases past the representatives are the duplicates, by name.
        duplicates: dict[int, list[str]] = {}
        aliases = islice(self.edge_aliases.items(), hypergraph.n_edges, None)
        for name, j in aliases:
            duplicates.setdefault(j, []).append(name)
        self.edge_duplicates = {j: tuple(ns) for j, ns in duplicates.items()}
        # i ascends, so each upper row comes out ascending. Each row is
        # then swapped for its tuple in place, so the lists and the tuples
        # are never all held at once.
        upper = [[] for _ in range(n)]
        for i, row in enumerate(lower):
            for j in row:
                upper[j].append(i)
        for i, row in enumerate(upper):
            upper[i] = tuple(row)
        self.upper_covers = tuple(upper)
        del upper
        parent, level, weight = list(range(n)), [0] * n, [1] * n
        hidden = self.hidden_top
        for i in range(n - 1, -1, -1):
            k = sizes[i]
            if i == hidden or not k:
                continue
            root = i
            for u in self.upper_covers[i]:
                if u == hidden:
                    continue
                while parent[u] != u:
                    u = parent[u]
                if u != root:
                    if weight[root] > weight[u]:
                        root, u = u, root
                    parent[root], level[root] = u, k
                    weight[u] += weight[root]
                    root = u
        del weight
        self.component_forest = (tuple(parent), tuple(level))

    @property
    def top_index(self) -> int:
        """The full vertex set, the largest extent."""
        return len(self.extent_bits) - 1

    @property
    def hidden_top(self) -> int:
        """The top's index when s-queries drop it (it is not a hyperedge),
        else -1, which is no node."""
        return -1 if self.top_index in self.anchored_edges else self.top_index

    @property
    def bottom_index(self) -> int:
        """The AND of all edge columns, the smallest extent."""
        return 0

    def __len__(self) -> int:
        return len(self.extent_bits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConceptLattice):
            return NotImplemented
        return (
            self.hypergraph == other.hypergraph
            and self.extent_bits == other.extent_bits
            and self.intent_bits == other.intent_bits
            and self.lower_covers == other.lower_covers
            and self.edge_anchors == other.edge_anchors
            and self.edge_aliases == other.edge_aliases
        )

    __hash__ = None

    @property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Transitive reduction of the strict order: (lower, upper) pairs,
        ascending."""
        return tuple(
            (i, j) for i, ups in enumerate(self.upper_covers) for j in ups
        )

    def node_label(self, node: int) -> str:
        """Galois label ``{extent names} : {intent names}``."""
        h = self.hypergraph
        ext = ",".join(names_of(h.vertex_names, self.extent_bits[node]))
        intn = ",".join(names_of(h.edge_names, self.intent_bits[node]))
        return "{%s} : {%s}" % (ext, intn)

    def resolve_edge(self, name: str) -> int:
        """Deduplicated edge index for an edge name, duplicates included;
        ``edge_anchors[resolve_edge(name)]`` is the named edge's node."""
        try:
            return self.edge_aliases[name]
        except KeyError:
            raise KeyError(f"unknown edge name {name!r}") from None


def _prepare(h: Hypergraph) -> tuple[Hypergraph, dict[str, int]]:
    """The deduplicated hypergraph and each source edge name's deduplicated
    edge index."""
    reduced, mapping = dedup_edges(h)
    if reduced is not h:
        warnings.warn(
            "hypergraph has duplicate edge columns; deduplicating before "
            "lattice construction",
            stacklevel=3,
        )
    return reduced, {name: mapping[j] for j, name in enumerate(h.edge_names)}


def build_lattice_naive(h: Hypergraph) -> ConceptLattice:
    """Incremental intersection-closure builder, the reference for the walk.

    The extents are the full vertex set closed under intersection with the
    edge columns, built by adding one column at a time to the family so
    far. A node's lower covers are the maximal extents strictly inside it:
    going through the extents largest first, a subset is kept unless it
    lies inside one already kept. The extents and their lower covers go to
    the ``ConceptLattice`` constructor like the walk's, which reads the
    intents off the covers.
    """
    reduced, edge_aliases = _prepare(h)
    extents = {(1 << reduced.n_vertices) - 1}
    for col in reduced.chi.columns:
        extents |= {col & x for x in extents}
    family = sorted(extents, key=int.bit_count, reverse=True)
    found: dict[int, list[int]] = {}
    for i, x in enumerate(family):
        lower = found[x] = []
        for y in family[i + 1:]:
            if y & x == y:
                for z in lower:
                    if y & z == y:
                        break
                else:
                    lower.append(y)
    return ConceptLattice(reduced, found, edge_aliases)


# A nonempty node whose popcount times this is below the number of its
# parent's meets finds its own meets by refining the edges over its
# vertices' rows (``walk_lattice``). Walk timings at the Chung-Lu 1000x500,
# 2000x1000 and 4000x2000 points and uniform 60x40: 16 and 64 within a few
# percent of 32, 8 up to 40% slower at 4000x2000.
REFINE_FACTOR = 32


def concept_neighbours(
    extent: int, meets: Iterable[int], rows: list[int] | None = None,
    edges: int = 0,
) -> tuple[list[int], set[int]]:
    """Lower covers of one extent, and its meets.

    ``meets`` holds the distinct meets X & c of some superset X of
    ``extent`` over the edge columns c, with or without X itself; the full
    vertex set passes the columns themselves. Since
    ``extent & (X & c) == extent & c``, ANDing ``extent`` with each gives
    its own distinct meets.

    Given the incidence ``rows`` (bit j of ``rows[v]`` set when vertex v
    lies in edge j) and ``edges``, the mask of every edge, the rule finds
    the same meets by partition refinement instead, and ``meets`` is not
    read. It starts from one class holding every edge, with meet 0, and
    splits each class by the row of each vertex v of ``extent`` in turn;
    the edges inside the row add v to their meet. Empty classes are never
    kept, so with no edges there is no meet. Afterwards each class is the
    set of edges c with one meet ``extent & c``. That takes at most
    ``popcount(extent)`` ANDs per own meet, not one per superset meet.

    Either way, the meets other than ``extent`` are returned, so that the
    extents below it can start from them in turn. The lower covers are the
    maximal meets other than ``extent`` itself: a strictly smaller extent
    is an intersection of columns, one of which misses a vertex of
    ``extent``, so it lies below one of these meets.
    """
    if rows is None:
        own = {extent & m for m in meets}
    else:
        classes = [(edges, 0)] if edges else []
        for v in iter_bits(extent):
            row, bit = rows[v], 1 << v
            split = []
            for cls, meet in classes:
                inside = cls & row
                if inside:
                    split.append((inside, meet | bit))
                    if inside != cls:
                        split.append((cls ^ inside, meet))
                else:
                    split.append((cls, meet))
            classes = split
        own = {meet for _, meet in classes}
    own.discard(extent)
    lower: list[int] = []
    # A strict superset has more bits, so it is seen (or one above it kept)
    # before the sets it contains.
    for y in sorted(own, key=int.bit_count, reverse=True):
        for z in lower:
            if y & z == y:
                break
        else:
            lower.append(y)
    return lower, own


def walk_lattice(chi: IncidenceMatrix) -> Iterator[tuple[int, list[int]]]:
    """Every extent of the column family with its lower covers, by one
    walk down the lower covers; the intents are left to the
    ``ConceptLattice`` constructor.

    Starts from the full vertex set as top, whose superset meets are the
    edge columns, and goes on depth first to the lower covers each rule
    (``concept_neighbours``) finds. A node's rule runs once, when it is
    first found, from the distinct meets of the node just popped, its
    superset; those meets are dropped once the node itself is popped. A
    nonempty node with fewer than 1 / ``REFINE_FACTOR`` as many vertices
    as its superset has meets refines the edges over the incidence rows
    instead, which the walk builds when the first such node comes (the
    empty extent's one meet is itself, so it never needs them). Both ways
    give the same meets, so the choice changes which ANDs are made, not
    the result. Every extent lies on a chain of lower covers down from the
    top, so this reaches the whole family and nothing else. Each extent is
    yielded as it is found, so a caller can stop the walk early.
    """
    full = (1 << chi.n_vertices) - 1
    edges = (1 << chi.n_edges) - 1
    rows = None
    seen = set()
    stack = [([full], chi.columns)]
    while stack:
        lower, meets = stack.pop()
        few = len(meets) / REFINE_FACTOR
        for y in lower:
            if y not in seen:
                seen.add(y)
                if y and y.bit_count() < few:
                    if rows is None:
                        rows = [0] * chi.n_vertices
                        for j, col in enumerate(chi.columns):
                            for v in iter_bits(col):
                                rows[v] |= 1 << j
                    below, own = concept_neighbours(y, meets, rows, edges)
                else:
                    below, own = concept_neighbours(y, meets)
                yield y, below
                stack.append((below, own))


def build_lattice_vectorized(h: Hypergraph) -> ConceptLattice:
    """Production builder: the walk down the lower covers; output is
    identical to the naive builder.

    Deduplicates the edge columns, walks the extent family of the result
    from the top down (``walk_lattice``) and assembles the
    ``ConceptLattice``. The name is kept for ``--algorithm vectorized``
    and the ``bench`` output.
    """
    reduced, edge_aliases = _prepare(h)
    return ConceptLattice(
        reduced, dict(walk_lattice(reduced.chi)), edge_aliases
    )
