"""Seeded synthetic hypergraph generators for stress and benchmark inputs.

Both models draw from ``random.Random`` so identical seeds reproduce
identical hypergraphs across runs and platforms. After the weights, each
vertex-edge pair takes one ``random()`` draw, edge by edge and vertex by
vertex within an edge, and joins when the draw is below its probability.
``chung_lu_hypergraph`` takes an edge's draws as one ``getrandbits`` block,
which holds the same Mersenne Twister words in the same order, and decodes
only the draws that can join; ``uniform_hypergraph`` calls ``random()``
itself. So a seed gives the same file on CPython 3.10-3.13 as one
``random()`` call per pair, the loop ``tests/test_generate.py`` keeps as its
reference.
"""

from __future__ import annotations

import math
import random
import struct

from .core import Hypergraph, IncidenceMatrix

UNIFORM_INCIDENCE_P = 0.25

# random() is ((a >> 5) * 2**26 + (b >> 6)) * 2**-53 for its two words a, b.
_WORD_PAIR = struct.Struct("<II")
_RANDOM_SCALE = 1.0 / 9007199254740992.0


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

    Draws: the vertex weights, the edge weights, then one ``random()`` per
    vertex-edge pair, edge by edge and vertex by vertex within an edge, so
    a seed gives the same hypergraph on CPython 3.10-3.13. An edge's draws
    come as one ``getrandbits`` block, vertices are grouped by the octave
    of their weight, and only candidates are decoded, yet each join is
    exactly ``random() < w_v * w_e / W``:
    1. ``random()`` is at least the top byte of its first word over 256;
    2. rounding is monotone: in a group, w_v * w_e / W <= heaviest * w_e / W;
    3. a candidate rebuilds ``random()`` from its two words, CPython's way,
       and compares it with the same expression.
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
    # Vertices by octave, the bit length of a weight's integer part: group
    # j is the j-th lightest octave, and heaviest[j] its largest weight.
    # Octaves past the 128th share group 127, so that 0x80 | group is a
    # byte and no level below (at most 128) exceeds it.
    octave = [int(w_v).bit_length() for w_v in vertex_w]
    group = {k: min(j, 127) for j, k in enumerate(sorted(set(octave)))}
    heaviest = [1.0] * min(len(group), 128)
    for k, w_v in zip(octave, vertex_w):
        heaviest[group[k]] = max(heaviest[group[k]], w_v)
    # One byte per vertex: 0x80 | its group, and 0x80 alone.
    vertex_groups = int.from_bytes(bytes(0x80 | group[k] for k in octave), "little")
    high = int.from_bytes(b"\x80" * n_vertices, "little")
    columns = []
    for w_e in edge_w:
        # The 2n words that n random() calls would take, low word first;
        # tops[v] is the top byte of vertex v's first word.
        words = rng.getrandbits(64 * n_vertices).to_bytes(8 * n_vertices, "little")
        tops = words[3::8]
        # A vertex is a candidate when its top byte t is below its group's
        # cut, the ceiling of the group's bound. Cuts rise with the group,
        # so with level[t] the lightest group whose cut exceeds t, that is
        # group >= level[t]: bit 7 of the vertex's byte in vertex_groups
        # minus the levels, since each byte of that difference is
        # 0x80 + group - level >= 0 and no borrow crosses bytes.
        level = bytearray()
        for j, heavy in enumerate(heaviest):
            bound = 256.0 * (heavy * w_e / total)
            if bound >= 256.0:  # also inf: every vertex from here up may join
                break
            if bound > len(level):
                level += bytes((j,)) * (math.ceil(bound) - len(level))
        else:
            j = len(heaviest)  # top bytes at or above every cut
        level += bytes((j,)) * (256 - len(level))
        found = (vertex_groups - int.from_bytes(tops.translate(level), "little")) & high
        candidates = found.to_bytes(n_vertices, "little")
        bits = 0
        v = candidates.find(0x80)
        while v >= 0:
            a, b = _WORD_PAIR.unpack_from(words, 8 * v)
            draw = ((a >> 5) * 67108864.0 + (b >> 6)) * _RANDOM_SCALE
            if draw < vertex_w[v] * w_e / total:
                bits |= 1 << v
            v = candidates.find(0x80, v + 1)
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
