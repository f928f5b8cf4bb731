"""Brute-force reference implementations for cross-checking query results.

Everything here is deliberately naive: the s-line graph is built from all
pairwise overlaps, paths come from plain BFS on it, and the intersection
family is enumerated over the whole powerset of edges. These functions
share nothing with the lattice machinery beyond the core primitives, so
they serve as independent ground truth in tests and in the CLI verify mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import (
    BRUTE_FORCE_EDGE_LIMIT,
    BitVec,
    Hypergraph,
    SizeLimitError,
    VertexSet,
    overlap_size,
)


@dataclass(frozen=True)
class SLineGraph:
    """Graph on hyperedge indices with adjacency where overlap >= s."""

    s: int
    nodes: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]

    def edges(self) -> set[tuple[int, int]]:
        return {
            (i, j) for i in self.nodes for j in self.adjacency[i] if i < j
        }


def s_line_graph(h: Hypergraph, s: int) -> SLineGraph:
    if s < 1:
        raise ValueError(f"s must be a positive integer, got {s}")
    nodes = [j for j in range(h.n_edges) if h.chi.columns[j].bit_count() >= s]
    adjacency = {j: [] for j in nodes}
    for i, j in combinations(nodes, 2):
        if overlap_size(h, i, j) >= s:
            adjacency[i].append(j)
            adjacency[j].append(i)
    return SLineGraph(
        s, tuple(nodes), {j: tuple(sorted(ns)) for j, ns in adjacency.items()}
    )


def oracle_shortest_s_path(
    h: Hypergraph, s: int, source: int, target: int
) -> tuple[int, list[int]] | None:
    """BFS distance and path on the s-line graph; None when unreachable
    (including endpoints excluded for having fewer than s vertices)."""
    g = s_line_graph(h, s)
    if source not in g.adjacency or target not in g.adjacency:
        return None
    parent = {source: None}
    queue = deque([source])
    while queue:
        n = queue.popleft()
        if n == target:
            break
        for m in g.adjacency[n]:
            if m not in parent:
                parent[m] = n
                queue.append(m)
    if target not in parent:
        return None
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return len(path) - 1, path


def oracle_components(h: Hypergraph, s: int) -> list[tuple[str, ...]]:
    """Connected components of the s-line graph as edge-name groups,
    ordered by smallest member edge index."""
    g = s_line_graph(h, s)
    seen = set()
    out = []
    for start in g.nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = deque([start])
        while queue:
            n = queue.popleft()
            for m in g.adjacency[n]:
                if m not in seen:
                    seen.add(m)
                    comp.append(m)
                    queue.append(m)
        comp.sort()
        out.append(tuple(h.edge_names[j] for j in comp))
    return out


def intersection_complex_bruteforce(h: Hypergraph) -> frozenset[VertexSet]:
    """All intersections of nonempty subsets of the topped edge family.

    The edge set is extended with the full vertex set, then every nonempty
    subfamily is intersected. Powerset enumeration, so inputs with more
    than BRUTE_FORCE_EDGE_LIMIT edges are refused.
    """
    ne = h.n_edges
    if ne > BRUTE_FORCE_EDGE_LIMIT:
        raise SizeLimitError(
            f"intersection enumeration is limited to {BRUTE_FORCE_EDGE_LIMIT} "
            f"edges; got {ne}"
        )
    nv = h.n_vertices
    full = (1 << nv) - 1
    family = list(h.chi.columns) + [full]
    found = set()
    for bits in range(1, 1 << len(family)):
        acc = full
        rest = bits
        while rest:
            low = rest & -rest
            acc &= family[low.bit_length() - 1]
            rest ^= low
        found.add(acc)
    return frozenset(BitVec(nv, bits) for bits in found)
