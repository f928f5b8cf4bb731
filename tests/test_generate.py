"""The Chung-Lu generator against the per-draw loop it replaced.

``reference_chung_lu`` takes one ``random()`` call per vertex-edge pair and
compares it with ``w_v * w_e / total``; ``chung_lu_hypergraph`` must return
the same columns, and refuse the same inputs with the same message, for
every seed.
"""

import math
import random

import pytest

from hglattice import chung_lu_hypergraph

EXPONENTS = (1.01, 1.05, 1.1, 1.5, 2.0, 2.2, 2.5, 3.0, 5.0, 50)
SEEDS_PER_EXPONENT = 200


def weights(rng, count, exponent):
    return [(1.0 - rng.random()) ** (-1.0 / (exponent - 1.0)) for _ in range(count)]


def reference_chung_lu(n_vertices, n_edges, exponent, seed):
    """The columns of the Chung-Lu model, one ``random()`` call per pair."""
    rng = random.Random(seed)
    try:
        vertex_w = weights(rng, n_vertices, exponent)
        edge_w = weights(rng, n_edges, exponent)
        total = sum(vertex_w) + sum(edge_w)
    except OverflowError:
        total = math.inf
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
    return tuple(columns)


def outcome(generate, n_vertices, n_edges, exponent, seed):
    try:
        return "columns", generate(n_vertices, n_edges, exponent, seed)
    except ValueError as exc:
        return "ValueError", str(exc)


def generated_columns(n_vertices, n_edges, exponent, seed):
    h = chung_lu_hypergraph(n_vertices, n_edges, exponent, seed)
    assert (h.n_vertices, h.n_edges) == (n_vertices, n_edges)
    return h.chi.columns


def configurations(exponent):
    """Seeded sizes in 0..100 x 0..50, both ends of each range included."""
    sizes = random.Random(f"chung-lu sizes {exponent}")
    for seed in range(SEEDS_PER_EXPONENT):
        if seed < 4:
            yield (0, 100)[seed % 2], (0, 50)[seed // 2], seed
        else:
            yield sizes.randint(0, 100), sizes.randint(0, 50), seed


@pytest.mark.parametrize("exponent", EXPONENTS)
def test_matches_per_draw_reference(exponent):
    refused = 0
    for n_vertices, n_edges, seed in configurations(exponent):
        expected = outcome(reference_chung_lu, n_vertices, n_edges, exponent, seed)
        got = outcome(generated_columns, n_vertices, n_edges, exponent, seed)
        assert got == expected, (n_vertices, n_edges, exponent, seed)
        refused += expected[0] == "ValueError"
    # some weights overflow at 1.01, so the guard's message is compared too
    assert (refused > 0) == (exponent == 1.01)


@pytest.mark.parametrize("seed", [0, 3])
def test_infinite_bound_makes_every_vertex_a_candidate(seed):
    # Exponent 1.01 passes the overflow guard at n = 20, E = 10 and these
    # seeds, yet a vertex weight times an edge weight overflows to inf. At
    # seed 3 some edge meets that infinite bound in the lightest octave
    # whose bound reaches 1, where math.ceil would raise OverflowError.
    both = weights(random.Random(seed), 30, 1.01)
    vertex_w, edge_w = both[:20], both[20:]
    total = sum(vertex_w) + sum(edge_w)
    assert math.isfinite(total)
    assert max(vertex_w) * max(edge_w) / total == math.inf
    heaviest = {}
    for w_v in vertex_w:
        k = int(w_v).bit_length()
        heaviest[k] = max(heaviest.get(k, w_v), w_v)
    first_reaching_1 = [
        next(q for q in (heaviest[k] * w_e / total for k in sorted(heaviest)) if q >= 1.0)
        for w_e in edge_w
        if max(vertex_w) * w_e / total >= 1.0
    ]
    assert (math.inf in first_reaching_1) == (seed == 3)
    expected = reference_chung_lu(20, 10, 1.01, seed)
    assert generated_columns(20, 10, 1.01, seed) == expected


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_octaves_past_the_128th_share_one_group(seed):
    # exponent 1.01 spreads 300 vertex weights over more than 128 octaves;
    # the heaviest share one group, whose bound is its heaviest weight
    vertex_w = weights(random.Random(seed), 300, 1.01)
    assert len({int(w_v).bit_length() for w_v in vertex_w}) > 128
    expected = reference_chung_lu(300, 20, 1.01, seed)
    assert generated_columns(300, 20, 1.01, seed) == expected
