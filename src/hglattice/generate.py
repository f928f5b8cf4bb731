"""Seeded synthetic hypergraph generators for stress and benchmark inputs.

Both models draw from ``random.Random`` so identical seeds reproduce
identical hypergraphs across runs and platforms.
"""

from __future__ import annotations

import math
import random

from .core import Hypergraph, IncidenceMatrix

UNIFORM_INCIDENCE_P = 0.25


def _power_law_weights(count: int, exponent: float, rng: random.Random) -> list[float]:
    # Pareto tail with density proportional to w^-exponent on w >= 1.
    return [(1.0 - rng.random()) ** (-1.0 / (exponent - 1.0)) for _ in range(count)]


def chung_lu_hypergraph(
    n_vertices: int, n_edges: int, exponent: float = 2.5, seed: int = 0
) -> Hypergraph:
    """Bipartite Chung-Lu style hypergraph.

    Every vertex and every edge gets a power-law weight; vertex v joins
    edge e independently with probability min(1, w_v * w_e / W) where W is
    the total weight of both sequences. Heavier vertices land in many
    edges, heavier edges collect many vertices, giving power-law-ish degree
    and edge-size tails. An exponent so close to 1 that the weights or
    their total overflow a float is refused with ValueError.
    """
    if n_vertices < 0 or n_edges < 0:
        raise ValueError("sizes must be non-negative")
    if not exponent > 1.0:  # written so that NaN fails too
        raise ValueError("power-law exponent must exceed 1")
    rng = random.Random(seed)
    try:
        vertex_w = _power_law_weights(n_vertices, exponent, rng)
        edge_w = _power_law_weights(n_edges, exponent, rng)
        total = sum(vertex_w) + sum(edge_w)
    except OverflowError:
        total = math.inf
    # Every weight is at least 1, so a finite total bounds each weight and
    # each quotient below is a number; a quotient of 1 or more joins.
    if not math.isfinite(total):
        raise ValueError(
            f"power-law exponent {exponent} is too close to 1: the weights overflow"
        )
    columns = []
    for w_e in edge_w:
        bits = 0
        for v, w_v in enumerate(vertex_w):
            if rng.random() < w_v * w_e / total:
                bits |= 1 << v
        columns.append(bits)
    return _named(n_vertices, n_edges, columns)


def uniform_hypergraph(
    n_vertices: int, n_edges: int, p: float = UNIFORM_INCIDENCE_P, seed: int = 0
) -> Hypergraph:
    """Every incidence cell set independently with fixed probability."""
    if n_vertices < 0 or n_edges < 0:
        raise ValueError("sizes must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("incidence probability must lie in [0, 1]")
    rng = random.Random(seed)
    columns = []
    for _ in range(n_edges):
        bits = 0
        for v in range(n_vertices):
            if rng.random() < p:
                bits |= 1 << v
        columns.append(bits)
    return _named(n_vertices, n_edges, columns)


def _named(n_vertices: int, n_edges: int, columns: list[int]) -> Hypergraph:
    return Hypergraph(
        tuple(f"v{i + 1}" for i in range(n_vertices)),
        tuple(f"e{j + 1}" for j in range(n_edges)),
        IncidenceMatrix(n_vertices, n_edges, tuple(columns)),
    )
