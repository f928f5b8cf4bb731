"""Path and connectivity queries answered on a prebuilt concept lattice.

The lattice is built once, and so is its undirected cover adjacency
(``ConceptLattice.cover_adjacency``). A query for overlap threshold s reads
that one adjacency through a filter: it keeps the nodes whose extent has
at least s vertices, minus a top that is not itself a hyperedge. Nothing
is built per query or per s. A path query rejects a pruned endpoint before
it touches the adjacency. The adjacency is built lazily on first use, and
deterministically, so queries are pure reads of the lattice and safe to
run concurrently.

Edge-path extraction follows the pruned-lattice walk: anchor nodes
contribute their hyperedge, pass-through intersections are skipped, and a
node that is a local maximum of the walk without being an anchor
contributes the lowest-index hyperedge containing its extent. That witness
keeps every reported path a valid s-path (consecutive edges overlap in at
least s vertices); the walk-derived hop count is not guaranteed to be the
minimum over all s-paths, which the brute-force oracle makes testable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .lattice import ConceptLattice, edge_anchor


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

    def components(self) -> list[tuple[int, ...]]:
        """Connected node groups, each sorted, ordered by smallest member."""
        seen = set()
        out = []
        for start in sorted(self.retained):
            if start in seen:
                continue
            comp = [start]
            seen.add(start)
            stack = [start]
            while stack:
                n = stack.pop()
                for m in self.adjacency[n]:
                    if m not in seen:
                        seen.add(m)
                        comp.append(m)
                        stack.append(m)
            out.append(tuple(sorted(comp)))
        return out


@dataclass(frozen=True)
class SPathResult:
    lattice_path: tuple[int, ...]
    lattice_distance: int
    hyperedge_path: tuple[str, ...]
    hypergraph_distance: int


def _check_s(s: int) -> None:
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")


def _hidden_top(lat: ConceptLattice) -> int:
    """The top's index when pruning drops it (it is not a hyperedge),
    else -1, which is no node."""
    return -1 if lat.is_anchor(lat.top_index) else lat.top_index


def prune(lat: ConceptLattice, s: int) -> PrunedLatticeView:
    """View of the lattice usable for s-overlap queries.

    Keeps nodes whose extent has at least s vertices; the top node is
    dropped when its extent is not itself a hyperedge. The adjacency is
    the cover relation restricted to retained nodes, read undirected.
    Queries apply the same filter to ``lat.cover_adjacency`` directly and
    do not call this.
    """
    _check_s(s)
    offsets, neighbours = lat.cover_adjacency
    hidden = _hidden_top(lat)
    retained = frozenset(
        i for i, size in enumerate(lat.extent_sizes) if size >= s and i != hidden
    )
    adjacency = {
        i: tuple(m for m in neighbours[offsets[i]:offsets[i + 1]] if m in retained)
        for i in sorted(retained)
    }
    return PrunedLatticeView(lat, s, retained, adjacency)


def _bfs_path(lat: ConceptLattice, s: int, src: int, dst: int) -> list[int] | None:
    """Shortest path over the covers of nodes retained at s, by level BFS;
    each frontier is scanned in ascending node order so parents (and hence
    the path) are deterministic."""
    offsets, neighbours = lat.cover_adjacency
    sizes = lat.extent_sizes
    hidden = _hidden_top(lat)
    parent: dict[int, int] = {src: -1}
    level = [src]
    while level and dst not in parent:
        nxt = []
        for n in level:
            for m in neighbours[offsets[n]:offsets[n + 1]]:
                if m not in parent and sizes[m] >= s and m != hidden:
                    parent[m] = n
                    nxt.append(m)
        level = sorted(nxt)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] != -1:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _witness_edge(lat: ConceptLattice, node: int) -> int:
    """Lowest-index hyperedge whose column contains the node's extent."""
    ext = lat.nodes[node].extent
    for j, col in enumerate(lat.hypergraph.chi.columns):
        if ext.bits & col == ext.bits:
            return j
    raise AssertionError("retained non-anchor node must lie under some edge")


def _edge_path(lat: ConceptLattice, path: list[int]) -> list[str]:
    extents = [lat.nodes[n].extent.bits for n in path]
    anchored = lat.anchored_edges

    entries: dict[int, int] = {}  # path position -> dedup edge index
    for pos, node in enumerate(path):
        if node in anchored:
            entries[pos] = anchored[node][0]
        elif 0 < pos < len(path) - 1:
            prev_e, cur_e, next_e = extents[pos - 1], extents[pos], extents[pos + 1]
            if prev_e & cur_e == prev_e and next_e & cur_e == next_e:
                # Local maximum that is not a hyperedge: passing over it is
                # only a real s-step through some edge containing it.
                entries[pos] = _witness_edge(lat, node)

    # Middles of monotone containment chains are redundant hops: the outer
    # pair already overlaps in the smaller extent.
    for pos in range(1, len(path) - 1):
        a, b, c = extents[pos - 1], extents[pos], extents[pos + 1]
        ascending = a & b == a and b & c == b
        descending = c & b == c and b & a == b
        if ascending or descending:
            entries.pop(pos, None)

    names = []
    for pos in sorted(entries):
        name = lat.hypergraph.edge_names[entries[pos]]
        if not names or names[-1] != name:
            names.append(name)
    return names


def shortest_s_path(
    lat: ConceptLattice, s: int, source: str, target: str
) -> SPathResult:
    """Shortest s-path between two hyperedges, answered on the lattice.

    The lattice path runs between the anchor nodes of the two edges over
    the covers of the nodes retained at s; the hyperedge path is extracted
    from it as described in the module docstring. Raises ValueError for
    s < 1 and KeyError for an unknown edge name, in that order. Raises
    NoSPathError when an endpoint is pruned at this s (checked before any
    search) or the endpoints fall in different pruned components.
    """
    _check_s(s)
    src, dst = edge_anchor(lat, source), edge_anchor(lat, target)
    for role, name, node in (("source", source, src), ("target", target, dst)):
        # An anchor is a hyperedge, so only its size can prune it.
        if lat.nodes[node].extent.count < s:
            raise NoSPathError(
                f"no {s}-path: {role} edge {name!r} has fewer than {s} "
                f"vertices and is pruned",
                reason=f"{role}-pruned",
            )

    path = _bfs_path(lat, s, src, dst)
    if path is None:
        raise NoSPathError(
            f"no {s}-path: edges {source!r} and {target!r} lie in different "
            f"{s}-connected components",
            reason="disconnected",
        )
    edge_names = _edge_path(lat, path)
    return SPathResult(
        lattice_path=tuple(path),
        lattice_distance=len(path) - 1,
        hyperedge_path=tuple(edge_names),
        hypergraph_distance=len(edge_names) - 1,
    )


def s_connected_components(lat: ConceptLattice, s: int) -> list[tuple[str, ...]]:
    """s-connected components as hyperedge name groups.

    Each component of the covers among nodes retained at s is mapped to
    the hyperedges anchored at its nodes; duplicate edges of the source
    hypergraph travel with their representative column. Components are
    ordered by their smallest source edge index, members likewise.
    """
    _check_s(s)
    offsets, neighbours = lat.cover_adjacency
    sizes = lat.extent_sizes
    hidden = _hidden_top(lat)
    anchored = lat.anchored_edges
    component_of: dict[int, int] = {}  # dedup edge index -> component
    seen: set[int] = set()
    n_components = 0
    # Searching from the anchors in edge order finds each component from
    # its smallest edge, so components come out in that order.
    for node in lat.edge_anchors:
        if node in seen or sizes[node] < s:
            continue
        seen.add(node)
        stack = [node]
        while stack:
            n = stack.pop()
            for j in anchored.get(n, ()):
                component_of[j] = n_components
            for m in neighbours[offsets[n]:offsets[n + 1]]:
                if m not in seen and sizes[m] >= s and m != hidden:
                    seen.add(m)
                    stack.append(m)
        n_components += 1
    # alias insertion order is the source edge order, so members come out
    # in original order and duplicates follow their representative's
    # component
    groups: list[list[str]] = [[] for _ in range(n_components)]
    for name, rep in lat.edge_aliases.items():
        if rep in component_of:
            groups[component_of[rep]].append(name)
    return [tuple(g) for g in groups]


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


def depth_statistics(lat: ConceptLattice) -> DepthStatistics:
    """Shortest and longest cover-path lengths from every node to the top
    and to the bottom, by dynamic programming over the (already
    topologically sorted) cover DAG. In ``lat.cover_adjacency`` a node's
    lower covers are its neighbours with a lower index, its upper covers
    those with a higher one."""
    n = len(lat.nodes)
    offsets, neighbours = lat.cover_adjacency

    min_top = [0] * n
    max_top = [0] * n
    for i in range(n - 1, -1, -1):
        if i == lat.top_index:
            continue
        ups = [j for j in neighbours[offsets[i]:offsets[i + 1]] if j > i]
        min_top[i] = 1 + min(min_top[j] for j in ups)
        max_top[i] = 1 + max(max_top[j] for j in ups)

    min_bot = [0] * n
    max_bot = [0] * n
    for i in range(n):
        if i == lat.bottom_index:
            continue
        downs = [j for j in neighbours[offsets[i]:offsets[i + 1]] if j < i]
        min_bot[i] = 1 + min(min_bot[j] for j in downs)
        max_bot[i] = 1 + max(max_bot[j] for j in downs)

    return DepthStatistics(
        tuple(min_top), tuple(max_top), tuple(min_bot), tuple(max_bot)
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
