"""Path and connectivity queries answered on a prebuilt concept lattice.

The lattice stores each node's lower and upper covers
(``ConceptLattice.lower_covers`` and ``upper_covers``) once, when it is
assembled. A query for overlap threshold s reads those rows through a
filter: it keeps the nodes whose extent has at least s vertices, minus a
top that is not itself a hyperedge. No view is built per query or per s.
A path query rejects a pruned endpoint before it searches.

A path query is a breadth-first search over hyperedges that only walks
down the covers: the intents of the nodes under an edge's anchor, with at
least s vertices each, list exactly the edges that meet it in s or more
vertices. Edges are walked in the order they are found, so they come in
rounds of equal s-distance from the source. Its distance is the exact
s-distance (Aksoy et al., EPJ Data Science 9:16, 2020), and its lattice
path is the cover walk through retained nodes that realises the path, not
the fewest cover hops. The search stops as soon as its answer is fixed: at
the first edge found that meets the target in s vertices, from which it
walks alone to the first node it reaches under the target. Nodes are taken
in the order they are reached, so that is the first such node a walk that
checked each node as it took it would stop at.

Connectivity is read off the lattice's ``component_forest``, built with
the lattice for every s at once: a path query whose ends lie in different
s-components answers "disconnected" without a search, and a components
query climbs the forest once per kept edge. Both climb it inline, with no
call per node. A components query finds the kept edges as a suffix of the
lattice's ``edges_by_size``, by bisecting ``sorted_edge_sizes`` with no
key, and their duplicate names in ``edge_duplicates``, so it reads no
edge that s drops. Queries write nothing, so they are safe to run
concurrently.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .core import iter_bits
from .lattice import ConceptLattice


class NoSPathError(Exception):
    """No s-path exists between the requested hyperedges."""

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason  # "source-pruned" | "target-pruned" | "disconnected"


@dataclass(frozen=True)
class PrunedLatticeView:
    """Retained nodes and their undirected cover adjacency for one s."""

    lattice: ConceptLattice
    s: int
    retained: frozenset[int]
    adjacency: dict[int, tuple[int, ...]] = field(compare=False)


@dataclass(frozen=True)
class SPathResult:
    lattice_path: tuple[int, ...]
    lattice_distance: int
    hyperedge_path: tuple[str, ...]
    hypergraph_distance: int


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")


def prune(lat: ConceptLattice, s: int) -> PrunedLatticeView:
    """View of the lattice usable for s-overlap queries.

    Keeps nodes whose extent has at least s vertices; the top node is
    dropped when its extent is not itself a hyperedge. The adjacency is
    the cover relation restricted to retained nodes, read undirected: a
    node's lower covers, then its upper covers. Queries apply the same
    filter to ``lat.lower_covers`` directly and do not call this.
    """
    _check_s(s)
    lower, upper = lat.lower_covers, lat.upper_covers
    hidden = lat.hidden_top
    retained = frozenset(
        i for i, size in enumerate(lat.extent_sizes) if size >= s and i != hidden
    )
    adjacency = {
        i: tuple(m for m in lower[i] + upper[i] if m in retained)
        for i in sorted(retained)
    }
    return PrunedLatticeView(lat, s, retained, adjacency)


def _edge_search(lat: ConceptLattice, s: int, source: int, target: int):
    """(cover walk, edges) of a fewest-hop s-path between two edges of one
    s-component; from an edge to itself it is that edge's anchor alone.

    The nodes that meet the target in s or more vertices form an up-set,
    and a walk down from an edge's anchor reaches them exactly when the
    edge meets the target in s vertices. ``_last_hop`` stops at the first
    edge found that does. No walk so far touched the up-set, and in a
    search that went on none would before that edge's own walk, so
    walking from it alone, through the up-set, to the first node it
    reaches under the target leaves the links and valley that search
    would. Nodes are taken in the order they are reached, so a walk that
    checked each node as it took it would stop at that node too; the
    links it would add after reaching it lie on no path to it.

    The path is then rebuilt from the target: down from each edge's anchor
    to its valley over lower covers that contain the valley, then up the
    links that reached the valley to the previous edge's anchor.
    """
    last, down, valley = _last_hop(lat, s, source, target)
    lower, anchors = lat.lower_covers, lat.edge_anchors
    intents, extents = lat.intent_bits, lat.extent_bits
    meets, goal = lat.hypergraph.chi.columns[target], 1 << target
    root = anchors[last]
    down[root] = ~last
    # The anchor lies under the target already when the last edge is
    # inside it: the source inside the target, or a self-path.
    valley[target] = root
    reached = [] if intents[root] & goal else [root]
    # Nodes outside the up-set lie above no node under the target.
    for n in reached:
        for m in lower[n]:
            if m not in down and (extents[m] & meets).bit_count() >= s:
                down[m] = n
                if intents[m] & goal:
                    valley[target] = m
                    break
                reached.append(m)
        else:
            continue
        break
    edges, walk = [target], []
    e = target
    while e != source:
        n, v = anchors[e], valley[e]
        bits = extents[v]
        while n != v:
            walk.append(n)
            for m in lower[n]:
                if extents[m] & bits == bits:
                    n = m
                    break
        while (up := down[n]) >= 0:
            walk.append(n)
            n = up
        e = ~up
        edges.append(e)
    walk.append(anchors[source])
    return walk[::-1], edges[::-1]


def _last_hop(lat: ConceptLattice, s: int, source: int, target: int):
    """(last edge, down, valley): the first edge the search finds that
    meets the target in s vertices, with the links the search made. The
    target lies in the source's s-component, so there is one.

    Edges are walked in the order they are found, from the source, so
    those at s-distance k come before those at k + 1. Each walks down
    from its anchor onto nodes with at least s vertices, linking each node
    it reaches in ``down`` to the node above it (``~e`` at the anchor of
    edge e), and takes the unseen edges off their intents. The first node
    where an edge turns up is its ``valley``. A node is walked once per
    query: when reached again, the nodes below it were walked already.
    """
    columns = lat.hypergraph.chi.columns
    meets = columns[target]
    down: dict[int, int] = {}
    valley: dict[int, int] = {}
    if (columns[source] & meets).bit_count() >= s:
        return source, down, valley
    lower = lat.lower_covers
    sizes, intents, anchors = lat.extent_sizes, lat.intent_bits, lat.edge_anchors
    unseen = ((1 << lat.hypergraph.n_edges) - 1) ^ (1 << source)
    found = [source]
    for e in found:
        root = anchors[e]
        if root in down:
            continue
        down[root] = ~e
        reached = [root]
        for n in reached:
            hit = intents[n] & unseen
            if hit:
                unseen ^= hit
                for f in iter_bits(hit):
                    valley[f] = n
                    if (columns[f] & meets).bit_count() >= s:
                        return f, down, valley
                    found.append(f)
            for m in lower[n]:
                if m not in down and sizes[m] >= s:
                    down[m] = n
                    reached.append(m)


def shortest_s_path(
    lat: ConceptLattice, s: int, source: str, target: str
) -> SPathResult:
    """Shortest s-path between two hyperedges, answered on the lattice.

    The hyperedge path has the fewest hops of any s-path between the two
    edges, and the lattice path is the cover walk among nodes retained at
    s that realises it (see the module docstring). Raises ValueError for
    s < 1 and KeyError for an unknown edge name, in that order. Raises
    NoSPathError, before any search, when an endpoint is pruned at this s
    or the endpoints fall in different s-connected components.
    """
    # Every query pays for these checks, so they run inline: ``_check_s``,
    # ``lat.resolve_edge`` for each name, the prune checks, the climbs.
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    try:
        a = lat.edge_aliases[source]
        b = lat.edge_aliases[target]
    except KeyError as exc:
        raise KeyError(f"unknown edge name {exc.args[0]!r}") from None
    u, v = lat.edge_anchors[a], lat.edge_anchors[b]
    sizes = lat.extent_sizes
    # An anchor is a hyperedge, so only its size can prune it.
    if sizes[u] < s or sizes[v] < s:
        role, name = ("source", source) if sizes[u] < s else ("target", target)
        raise NoSPathError(
            f"no {s}-path: {role} edge {name!r} has fewer than {s} "
            f"{'vertex' if s == 1 else 'vertices'} and is pruned",
            reason=f"{role}-pruned",
        )
    parent, level = lat.component_forest
    while level[u] >= s:
        u = parent[u]
    while level[v] >= s:
        v = parent[v]
    if u != v:
        raise NoSPathError(
            f"no {s}-path: edges {source!r} and {target!r} lie in different "
            f"{s}-connected components",
            reason="disconnected",
        )

    walk, edges = _edge_search(lat, s, a, b)
    return SPathResult(
        lattice_path=tuple(walk),
        lattice_distance=len(walk) - 1,
        hyperedge_path=tuple(lat.hypergraph.edge_names[j] for j in edges),
        hypergraph_distance=len(edges) - 1,
    )


def s_connected_components(lat: ConceptLattice, s: int) -> list[tuple[str, ...]]:
    """s-connected components as hyperedge name groups.

    The edges kept at s are the suffix of ``lat.edges_by_size`` whose
    edges have at least s vertices, found by bisecting
    ``lat.sorted_edge_sizes``, so the query reads only those. Taken in
    index order, each edge's anchor climbs ``lat.component_forest`` to the
    node that names its s-component, and components are numbered as their
    nodes are first reached: by their smallest source edge index.
    Members are the representative edges in edge order, then their
    duplicates from ``lat.edge_duplicates``, sorted by name, the order of
    ``lat.edge_aliases``.
    """
    _check_s(s)
    kept = lat.edges_by_size[bisect_left(lat.sorted_edge_sizes, s):]
    anchors, names = lat.edge_anchors, lat.hypergraph.edge_names
    parent, level = lat.component_forest
    duplicates = lat.edge_duplicates
    # component's node -> its members, in the order the nodes are reached
    groups: dict[int, list[str]] = {}
    extra: dict[int, list[str]] = {}  # component's node -> its duplicates
    for j in sorted(kept):
        root = anchors[j]
        while level[root] >= s:
            root = parent[root]
        groups.setdefault(root, []).append(names[j])
        if j in duplicates:
            extra.setdefault(root, []).extend(duplicates[j])
    for root, dups in extra.items():
        groups[root] += sorted(dups)
    return [tuple(g) for g in groups.values()]


@dataclass(frozen=True)
class DepthStatistics:
    """Per-node distances to top and bottom along the cover DAG."""

    min_to_top: tuple[int, ...]
    max_to_top: tuple[int, ...]
    min_to_bottom: tuple[int, ...]
    max_to_bottom: tuple[int, ...]


@dataclass(frozen=True)
class DepthHistograms:
    min_to_top: dict[int, int]
    max_to_top: dict[int, int]
    min_to_bottom: dict[int, int]
    max_to_bottom: dict[int, int]


def _depths(
    rows: tuple[tuple[int, ...], ...], order: range
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(shortest, longest) cover-path lengths from each node along ``rows``
    to the one node whose row is empty, where each path ends. ``order``
    takes every node after the nodes in its row."""
    shortest, longest = [0] * len(rows), [0] * len(rows)
    for i in order:
        if row := rows[i]:
            shortest[i] = 1 + min(map(shortest.__getitem__, row))
            longest[i] = 1 + max(map(longest.__getitem__, row))
    return tuple(shortest), tuple(longest)


def depth_statistics(lat: ConceptLattice) -> DepthStatistics:
    """Shortest and longest cover-path lengths from every node to the top
    and to the bottom, by dynamic programming over the (already
    topologically sorted) cover DAG: ``_depths`` along ``lat.upper_covers``
    from the top down, then along ``lat.lower_covers`` from the bottom up.
    In a lattice only the top has no upper cover and only the bottom has
    no lower cover, so those are where the paths end."""
    n = len(lat)
    return DepthStatistics(
        *_depths(lat.upper_covers, range(n - 1, -1, -1)),
        *_depths(lat.lower_covers, range(n)),
    )


def depth_histograms(lat: ConceptLattice) -> DepthHistograms:
    """Distance -> node count histograms for the four depth measures."""
    stats = depth_statistics(lat)

    def hist(values: tuple[int, ...]) -> dict[int, int]:
        return dict(sorted(Counter(values).items()))

    return DepthHistograms(
        min_to_top=hist(stats.min_to_top),
        max_to_top=hist(stats.max_to_top),
        min_to_bottom=hist(stats.min_to_bottom),
        max_to_bottom=hist(stats.max_to_bottom),
    )
