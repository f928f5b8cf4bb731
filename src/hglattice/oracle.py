"""Brute-force reference implementations for cross-checking the lattice
and the query results.

Everything here is deliberately naive: the s-line graph is built from all
pairwise overlaps, paths come from plain BFS on it, and the intersection
family and the concepts are enumerated over the whole powerset of edges.
``verify_isomorphism`` checks a lattice against those concepts: extents,
intents, and its stored covers against the transitive reduction of extent
containment, worked out here. This module imports only the core
primitives, none of the lattice machinery, so it serves as independent
ground truth in tests and in the CLI verify mode.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .core import (
    BRUTE_FORCE_EDGE_LIMIT,
    Hypergraph,
    SizeLimitError,
    extent_prime,
    intent_prime,
    iter_bits,
    overlap_size,
)


@dataclass(frozen=True)
class SLineGraph:
    """Graph on hyperedge indices with adjacency where overlap >= s."""

    s: int
    nodes: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]


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


def intersection_complex_bruteforce(h: Hypergraph) -> frozenset[int]:
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
    full = (1 << h.n_vertices) - 1
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
    return frozenset(found)


@dataclass(frozen=True)
class Concept:
    """A closed (extent, intent) pair of ints: each prime-maps to the other."""

    extent: int
    intent: int


def enumerate_concepts_oracle(h: Hypergraph) -> frozenset[Concept]:
    """All concepts by brute force: close every subset of the edge set.

    Enumerates the full powerset of edges, so it refuses inputs with more
    than BRUTE_FORCE_EDGE_LIMIT edges. Deliberately independent of the
    builders; only the prime operators are shared.
    """
    ne = h.n_edges
    if ne > BRUTE_FORCE_EDGE_LIMIT:
        raise SizeLimitError(
            f"concept enumeration is limited to {BRUTE_FORCE_EDGE_LIMIT} "
            f"edges; got {ne}"
        )
    found = set()
    for bits in range(1 << ne):
        extent = extent_prime(h, bits)
        intent = intent_prime(h, extent)
        found.add(Concept(extent, intent))
    return frozenset(found)


@dataclass(frozen=True)
class IsomorphismResult:
    """Truthy on success; carries a diagnostic for the first mismatch."""

    ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _containment_covers(extents) -> set[tuple[int, int]]:
    """(lower, upper) extent pairs of the transitive reduction of strict
    containment: the upper covers of X are its minimal strict supersets."""
    by_size = sorted(extents, key=int.bit_count)
    pairs = set()
    for x in by_size:
        # By size, a superset with a kept one inside it is not minimal.
        kept: list[int] = []
        for y in by_size:
            if y != x and x & y == x and not any(z & y == z for z in kept):
                kept.append(y)
        pairs.update((x, y) for y in kept)
    return pairs


def verify_isomorphism(lat, concepts) -> IsomorphismResult:
    """Check that a ``ConceptLattice`` realizes a concept set, extent for
    extent.

    The lattice's extents must coincide with the concepts' extents, intents
    must agree per extent, and the stored covers must be exactly the
    transitive reduction of containment among the concept extents.
    ``concepts`` should come from the same (deduplicated) hypergraph the
    lattice was built over.
    """
    by_extent = {c.extent: c.intent for c in concepts}
    extents = lat.extent_bits
    missing = by_extent.keys() - set(extents)
    if missing:
        bits = next(iter(missing))
        return IsomorphismResult(
            False, f"extent {sorted(iter_bits(bits))} missing from lattice"
        )
    extra = set(extents) - by_extent.keys()
    if extra:
        bits = next(iter(extra))
        return IsomorphismResult(
            False, f"lattice extent {sorted(iter_bits(bits))} is not a concept"
        )

    for i, (x, intent) in enumerate(zip(extents, lat.intent_bits)):
        if intent != by_extent[x]:
            return IsomorphismResult(
                False,
                f"node {i}: intent {tuple(iter_bits(intent))} != "
                f"concept intent {tuple(iter_bits(by_extent[x]))}",
            )

    stored = {(extents[lo], extents[hi]) for lo, hi in lat.covers}
    wrong = stored ^ _containment_covers(by_extent)
    if wrong:
        x, y = min(wrong)
        node = {e: i for i, e in enumerate(extents)}
        fault = (
            "is not in the transitive reduction of extent containment"
            if (x, y) in stored else "is missing from the lattice"
        )
        return IsomorphismResult(
            False,
            f"cover ({node[x]}, {node[y]}) between extents "
            f"{sorted(iter_bits(x))} and {sorted(iter_bits(y))} {fault}",
        )
    return IsomorphismResult(True)
