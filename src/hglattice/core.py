"""Hypergraph data model and the Galois (prime) operators.

A hypergraph is stored as name tables plus a column-major Boolean incidence
matrix: one fixed-width bit vector per hyperedge, bit k set when vertex k is
a member. Read as objects x attributes, the same matrix is a formal context,
and ``intent_prime`` / ``extent_prime`` are the two halves of its Galois
connection. The lattice builders and queries work on the bit columns
directly; only the brute-force checks in ``oracle`` use the prime
operators.

All types are immutable after construction; operations are pure functions,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class DimensionError(ValueError):
    """A bit vector's width does not match the dimension it is used against."""


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


@dataclass(frozen=True)
class BitVec:
    """Fixed-width bit vector backed by a Python int.

    Word-level Boolean operations (``&``, ``|``, popcount) on the backing
    integer are what make the set algebra here cheap; widths are carried
    along so dimension mismatches fail loudly instead of silently zipping
    sets over different universes.
    """

    width: int
    bits: int

    def __post_init__(self):
        if self.width < 0:
            raise ValueError("width must be non-negative")
        if self.bits < 0 or self.bits >> self.width:
            raise ValueError(f"bits 0x{self.bits:x} exceed width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "BitVec":
        return cls(width, 0)

    @classmethod
    def full(cls, width: int) -> "BitVec":
        return cls(width, (1 << width) - 1)

    @classmethod
    def of(cls, width: int, indices: Iterable[int]) -> "BitVec":
        bits = 0
        for i in indices:
            if not 0 <= i < width:
                raise DimensionError(f"index {i} out of range for width {width}")
            bits |= 1 << i
        return cls(width, bits)

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def indices(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def issubset(self, other: "BitVec") -> bool:
        self._check_width(other)
        return self.bits & other.bits == self.bits

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.width and (self.bits >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __and__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.bits & other.bits)

    def __or__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.bits | other.bits)

    def __sub__(self, other: "BitVec") -> "BitVec":
        self._check_width(other)
        return BitVec(self.width, self.bits & ~other.bits)

    def _check_width(self, other: "BitVec"):
        if self.width != other.width:
            raise DimensionError(
                f"width mismatch: {self.width} vs {other.width}"
            )


# A VertexSet is a BitVec over vertex indices, an EdgeSet one over edge
# indices; the distinction is by convention, enforced by width checks.
VertexSet = BitVec
EdgeSet = BitVec


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

    def column(self, edge: int) -> BitVec:
        return BitVec(self.n_vertices, self.columns[edge])


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
            seen = set()
            for name in names:
                if name in seen:
                    raise IngestionError(f"duplicate {kind} name {name!r}")
                seen.add(name)

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

    def vertex_subset(self, names: Iterable[str]) -> VertexSet:
        try:
            return BitVec.of(self.n_vertices, (self.vertex_index[n] for n in names))
        except KeyError as exc:
            raise KeyError(f"unknown vertex name {exc.args[0]!r}") from None

    def edge_subset(self, names: Iterable[str]) -> EdgeSet:
        try:
            return BitVec.of(self.n_edges, (self.edge_index[n] for n in names))
        except KeyError as exc:
            raise KeyError(f"unknown edge name {exc.args[0]!r}") from None

    def vertex_names_of(self, vs: VertexSet) -> tuple[str, ...]:
        if vs.width != self.n_vertices:
            raise DimensionError("vertex set width does not match hypergraph")
        return tuple(self.vertex_names[i] for i in vs)

    def edge_names_of(self, es: EdgeSet) -> tuple[str, ...]:
        if es.width != self.n_edges:
            raise DimensionError("edge set width does not match hypergraph")
        return tuple(self.edge_names[i] for i in es)

    def edge_column(self, edge: int) -> VertexSet:
        if not 0 <= edge < self.n_edges:
            raise IndexError(f"edge index {edge} out of range")
        return self.chi.column(edge)


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


def intent_prime(h: Hypergraph, a: VertexSet) -> EdgeSet:
    """Edges whose member set contains every vertex of ``a``.

    The empty vertex set maps to all edges (universal quantification over
    an empty set holds vacuously).
    """
    if a.width != h.n_vertices:
        raise DimensionError(
            f"vertex set width {a.width} does not match |V| = {h.n_vertices}"
        )
    bits = 0
    for j, col in enumerate(h.chi.columns):
        if a.bits & col == a.bits:
            bits |= 1 << j
    return BitVec(h.n_edges, bits)


def extent_prime(h: Hypergraph, b: EdgeSet) -> VertexSet:
    """Vertices common to every edge of ``b``; all vertices when ``b`` is empty."""
    if b.width != h.n_edges:
        raise DimensionError(
            f"edge set width {b.width} does not match |E| = {h.n_edges}"
        )
    acc = (1 << h.n_vertices) - 1
    for j in iter_bits(b.bits):
        acc &= h.chi.columns[j]
    return BitVec(h.n_vertices, acc)


def closure(h: Hypergraph, a: VertexSet) -> VertexSet:
    """The double-prime closure of a vertex set: smallest closed superset."""
    return extent_prime(h, intent_prime(h, a))


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


def is_topped(h: Hypergraph) -> bool:
    """True when some edge contains every vertex."""
    full = (1 << h.n_vertices) - 1
    return any(col == full for col in h.chi.columns)


def is_bottomed(h: Hypergraph) -> bool:
    """True when some edge is empty."""
    return any(col == 0 for col in h.chi.columns)


def overlap_size(h: Hypergraph, edge_i: int, edge_j: int) -> int:
    """Number of vertices shared by two edges (popcount of the column AND)."""
    for e in (edge_i, edge_j):
        if not 0 <= e < h.n_edges:
            raise IndexError(f"edge index {e} out of range for |E| = {h.n_edges}")
    return (h.chi.columns[edge_i] & h.chi.columns[edge_j]).bit_count()
