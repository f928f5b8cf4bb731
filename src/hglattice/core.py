"""Hypergraph data model and the Galois (prime) operators.

A hypergraph is stored as name tables plus a column-major Boolean incidence
matrix: one int per hyperedge, bit k set when vertex k is a member. Every
vertex or edge set in the package is such an int, bit i for index i. Read
as objects x attributes, the same matrix is a formal context, and
``intent_prime`` / ``extent_prime`` are the two halves of its Galois
connection; ``extent_prime(h, intent_prime(h, a))`` is the closure of a
vertex set ``a``, its smallest closed superset. The lattice builders and
queries work on the columns directly; only the brute-force checks in
``oracle`` use the prime operators. A set passed to a function here must
fit its hypergraph: a negative int, or one with a bit past the vertex or
edge count, raises ``DimensionError``.

All types are immutable after construction, except that a ``Hypergraph``
builds its ``vertex_index`` and ``edge_index`` dicts on first use
(``cached_property``) and keeps them. Both are derived from the name
tables, and operations are pure functions, so values can be shared across
threads.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property


class DimensionError(ValueError):
    """An int set has a bit outside the vertices or edges it indexes."""


class IngestionError(ValueError):
    """Malformed input while constructing a hypergraph."""


class SizeLimitError(ValueError):
    """A brute-force enumeration guard was exceeded."""


# The most edges a powerset enumeration accepts, one guard for all of them.
BRUTE_FORCE_EDGE_LIMIT = 20


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the indices of set bits in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def names_of(table: Sequence[str], bits: int) -> list[str]:
    """The names in ``table`` at the set bits of ``bits``, ascending.

    The bits are taken from the high one down, so each costs one
    ``bit_length`` and one XOR, with no generator and no ``bits & -bits``;
    the list is reversed once at the end.
    """
    out = []
    while bits:
        k = bits.bit_length() - 1
        out.append(table[k])
        bits ^= 1 << k
    out.reverse()
    return out


def _check_set(bits: int, width: int, kind: str):
    """Raise DimensionError unless ``bits`` is a set of indices below ``width``."""
    if bits < 0 or bits >> width:
        raise DimensionError(
            f"{kind} set {bits:#x} does not fit {width} {kind} indices"
        )


@dataclass(frozen=True)
class IncidenceMatrix:
    """Column-major Boolean incidence matrix: bit k of ``columns[j]`` is set
    when vertex k belongs to hyperedge j."""

    n_vertices: int
    n_edges: int
    columns: tuple[int, ...]

    def __post_init__(self):
        if len(self.columns) != self.n_edges:
            raise IngestionError(
                f"expected {self.n_edges} columns, got {len(self.columns)}"
            )
        for j, col in enumerate(self.columns):
            if col < 0 or col >> self.n_vertices:
                raise IngestionError(
                    f"column {j} has bits outside the {self.n_vertices}-vertex range"
                )


@dataclass(frozen=True)
class Hypergraph:
    """Vertex/edge name tables plus the incidence matrix relating them."""

    vertex_names: tuple[str, ...]
    edge_names: tuple[str, ...]
    chi: IncidenceMatrix

    def __post_init__(self):
        if len(self.vertex_names) != self.chi.n_vertices:
            raise IngestionError("vertex table does not match matrix height")
        if len(self.edge_names) != self.chi.n_edges:
            raise IngestionError("edge table does not match matrix width")
        for kind, names in (("vertex", self.vertex_names), ("edge", self.edge_names)):
            if len(set(names)) != len(names):
                seen = set()  # add() returns None, so next() stops at a repeat
                dup = next(name for name in names if name in seen or seen.add(name))
                raise IngestionError(f"duplicate {kind} name {dup!r}")

    @property
    def n_vertices(self) -> int:
        return self.chi.n_vertices

    @property
    def n_edges(self) -> int:
        return self.chi.n_edges

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.vertex_names)}

    @cached_property
    def edge_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.edge_names)}

    def vertex_names_of(self, vs: int) -> tuple[str, ...]:
        _check_set(vs, self.n_vertices, "vertex")
        return tuple(names_of(self.vertex_names, vs))

    def edge_column(self, edge: int) -> int:
        if not 0 <= edge < self.n_edges:
            raise IndexError(f"edge index {edge} out of range")
        return self.chi.columns[edge]


def from_edge_list(edges: Iterable[tuple[str, Iterable[str]]]) -> Hypergraph:
    """Build a hypergraph from ``(edge_name, member_vertex_names)`` pairs.

    The vertex table is the union of all mentioned vertices in first
    appearance order; repeated vertex mentions inside one edge collapse.
    Duplicate edge names are rejected.
    """
    vertex_index: dict[str, int] = {}
    edge_names: list[str] = []
    columns: list[int] = []
    for edge_name, members in edges:
        edge_names.append(edge_name)
        bits = 0
        for v in members:
            bits |= 1 << vertex_index.setdefault(v, len(vertex_index))
        columns.append(bits)
    chi = IncidenceMatrix(len(vertex_index), len(edge_names), tuple(columns))
    return Hypergraph(tuple(vertex_index), tuple(edge_names), chi)


def intent_prime(h: Hypergraph, a: int) -> int:
    """Edges whose member set contains every vertex of ``a``.

    The empty vertex set maps to all edges (universal quantification over
    an empty set holds vacuously).
    """
    _check_set(a, h.n_vertices, "vertex")
    bits = 0
    for j, col in enumerate(h.chi.columns):
        if a & col == a:
            bits |= 1 << j
    return bits


def extent_prime(h: Hypergraph, b: int) -> int:
    """Vertices common to every edge of ``b``; all vertices when ``b`` is empty."""
    _check_set(b, h.n_edges, "edge")
    acc = (1 << h.n_vertices) - 1
    for j in iter_bits(b):
        acc &= h.chi.columns[j]
    return acc


def dedup_edges(h: Hypergraph) -> tuple[Hypergraph, dict[int, int]]:
    """Drop repeated incidence columns, keeping the lowest-index copy.

    Returns the reduced hypergraph and a map from each original edge index
    to the position of its surviving representative in the reduced edge
    table. Already-unique hypergraphs come back unchanged with the identity
    map.
    """
    first_by_column: dict[int, int] = {}
    keep: list[int] = []
    mapping: dict[int, int] = {}
    for j, col in enumerate(h.chi.columns):
        rep = first_by_column.get(col)
        if rep is None:
            rep = len(keep)
            first_by_column[col] = rep
            keep.append(j)
        mapping[j] = rep
    if len(keep) == h.n_edges:
        return h, mapping
    chi = IncidenceMatrix(
        h.n_vertices, len(keep), tuple(h.chi.columns[j] for j in keep)
    )
    reduced = Hypergraph(
        h.vertex_names, tuple(h.edge_names[j] for j in keep), chi
    )
    return reduced, mapping


def overlap_size(h: Hypergraph, edge_i: int, edge_j: int) -> int:
    """Number of vertices shared by two edges (popcount of the column AND)."""
    for e in (edge_i, edge_j):
        if not 0 <= e < h.n_edges:
            raise IndexError(f"edge index {e} out of range for |E| = {h.n_edges}")
    return (h.chi.columns[edge_i] & h.chi.columns[edge_j]).bit_count()
