"""Acceptance suite.

One test per acceptance criterion; each prints a single
``ACCEPTANCE <n> PASS|FAIL`` line. Criterion 5 checks that the path
query's distance equals the brute-force shortest s-path distance on every
query; should a query ever disagree, it prints a minimized counterexample.
"""

import functools
import time
import warnings

import pytest

from conftest import (
    SEVEN_GROUPS_CONCEPTS,
    SEVEN_GROUPS_CSV,
    containment_from_covers,
    random_hypergraph,
)
from hglattice import (
    NoSPathError,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    dedup_edges,
    depth_histograms,
    depth_statistics,
    enumerate_concepts_oracle,
    format_edge_list,
    from_edge_list,
    intersection_complex_bruteforce,
    oracle_components,
    oracle_shortest_s_path,
    parse_incidence_csv,
    s_connected_components,
    serialize_lattice,
    shortest_s_path,
    verify_isomorphism,
)
from hglattice.core import Hypergraph, IncidenceMatrix, iter_bits

from test_analytics import independent_depths

RANDOM_SEEDS = range(1000, 1200)  # 200 seeded instances, |V| <= 8, |E| <= 8


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number} PASS: {description}")
        return wrapper
    return decorate


def build_quiet(builder, h):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return builder(h)


@criterion(1, "worked 7x7 example yields the 13 published concepts in < 1 s")
def test_criterion_1_seven_groups_lattice():
    h = parse_incidence_csv(SEVEN_GROUPS_CSV)
    t0 = time.perf_counter()
    lat = build_lattice_vectorized(h)
    elapsed = time.perf_counter() - t0
    pairs = [
        (
            {h.vertex_names[k] for k in iter_bits(extent)},
            {h.edge_names[j] for j in iter_bits(intent)},
        )
        for extent, intent in zip(lat.extent_bits, lat.intent_bits)
    ]
    assert len(pairs) == 13
    for expected in SEVEN_GROUPS_CONCEPTS:
        assert expected in pairs
    order = containment_from_covers(lat)
    for i in range(13):
        for j in range(13):
            a, b = lat.extent_bits[i], lat.extent_bits[j]
            assert ((i, j) in order) == (a & b == a)
    assert elapsed < 1.0, f"build took {elapsed:.3f} s"


@criterion(2, "lattice = intersection family and concept enumeration on 200 "
             "random instances in < 30 s")
def test_criterion_2_isomorphism_suite():
    t0 = time.perf_counter()
    for seed in RANDOM_SEEDS:
        h, _ = dedup_edges(random_hypergraph(seed))
        lat = build_lattice_naive(h)
        family = intersection_complex_bruteforce(h)
        assert family == set(lat.extent_bits), seed
        assert verify_isomorphism(lat, enumerate_concepts_oracle(h)), seed
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"suite took {elapsed:.1f} s"


@criterion(3, "naive and vectorized builders byte-identical on 200 random "
             "plus degenerate instances")
def test_criterion_3_differential_builders():
    cases = [parse_incidence_csv(SEVEN_GROUPS_CSV)]
    cases.append(from_edge_list([]))
    cases.append(from_edge_list([("1", ["a", "b"])]))
    cases.append(from_edge_list([("p", ["a", "b"]), ("q", ["a", "b"])]))
    cases.extend(random_hypergraph(seed) for seed in RANDOM_SEEDS)
    for h in cases:
        naive = build_quiet(build_lattice_naive, h)
        vect = build_quiet(build_lattice_vectorized, h)
        assert naive == vect
        assert serialize_lattice(naive) == serialize_lattice(vect)


@criterion(4, "published s-path fixtures match exactly")
def test_criterion_4_s_path_fixtures():
    lat = build_lattice_vectorized(parse_incidence_csv(SEVEN_GROUPS_CSV))
    res = shortest_s_path(lat, 1, "3", "7")
    assert res.hypergraph_distance == 4
    assert res.hyperedge_path == ("3", "2", "1", "5", "7")
    assert res.lattice_distance == 7
    res = shortest_s_path(lat, 2, "3", "1")
    assert res.hyperedge_path == ("3", "2", "1")
    assert res.hypergraph_distance == 2
    with pytest.raises(NoSPathError):
        shortest_s_path(lat, 2, "3", "7")


def _drop_edges(h: Hypergraph, keep: list[int]) -> Hypergraph:
    return Hypergraph(
        h.vertex_names,
        tuple(h.edge_names[j] for j in keep),
        IncidenceMatrix(
            h.n_vertices, len(keep), tuple(h.chi.columns[j] for j in keep)
        ),
    )


def _drop_vertex(h: Hypergraph, victim: int) -> Hypergraph:
    low = (1 << victim) - 1
    cols = tuple(
        (c & low) | ((c >> (victim + 1)) << victim) for c in h.chi.columns
    )
    names = tuple(n for i, n in enumerate(h.vertex_names) if i != victim)
    return Hypergraph(names, h.edge_names, IncidenceMatrix(
        h.n_vertices - 1, h.n_edges, cols
    ))


def _distance_pair(h: Hypergraph, s: int, src: str, dst: str):
    """(walk distance, oracle distance), None standing for unreachable."""
    lat = build_quiet(build_lattice_vectorized, h)
    try:
        walk = shortest_s_path(lat, s, src, dst).hypergraph_distance
    except NoSPathError:
        walk = None
    best = oracle_shortest_s_path(h, s, h.edge_index[src], h.edge_index[dst])
    return walk, None if best is None else best[0]


def _is_mismatch(h, s, src, dst) -> bool:
    walk, best = _distance_pair(h, s, src, dst)
    return walk != best


def _minimize(h: Hypergraph, s: int, src: str, dst: str) -> Hypergraph:
    """Greedily drop edges, then vertices, while the mismatch persists."""
    while True:
        for j in range(h.n_edges):
            if h.edge_names[j] in (src, dst):
                continue
            keep = [k for k in range(h.n_edges) if k != j]
            candidate = _drop_edges(h, keep)
            if _is_mismatch(candidate, s, src, dst):
                h = candidate
                break
        else:
            for v in range(h.n_vertices):
                candidate = _drop_vertex(h, v)
                if _is_mismatch(candidate, s, src, dst):
                    h = candidate
                    break
            else:
                return h


@criterion(5, "lattice-walk distance equals brute-force shortest s-path "
             "distance on all random queries")
def test_criterion_5_s_path_oracle_agreement():
    mismatches = []
    total = 0
    for seed in RANDOM_SEEDS:
        h, _ = dedup_edges(random_hypergraph(seed))
        lat = build_lattice_naive(h)
        for s in (1, 2, 3):
            for a in h.edge_names:
                for b in h.edge_names:
                    total += 1
                    try:
                        walk = shortest_s_path(lat, s, a, b).hypergraph_distance
                    except NoSPathError:
                        walk = None
                    best = oracle_shortest_s_path(
                        h, s, h.edge_index[a], h.edge_index[b]
                    )
                    best = None if best is None else best[0]
                    assert (walk is None) == (best is None), (
                        f"reachability disagrees: seed {seed} s={s} {a}->{b}"
                    )
                    if walk != best:
                        mismatches.append((seed, s, a, b, walk, best))
    if mismatches:
        seed, s, a, b, walk, best = mismatches[0]
        h, _ = dedup_edges(random_hypergraph(seed))
        small = _minimize(h, s, a, b)
        walk2, best2 = _distance_pair(small, s, a, b)
        lines = [
            f"{len(mismatches)} of {total} queries disagree with the "
            f"brute-force shortest s-path oracle.",
            f"Minimized counterexample (s={s}, from {a!r} to {b!r}):",
            format_edge_list(small).rstrip(),
            f"lattice-walk distance: {walk2}, true shortest distance: {best2}",
            "Every reported path is still a valid s-path and reachability "
            "always agrees; only optimality fails.",
        ]
        pytest.fail("\n".join(lines), pytrace=False)


@criterion(6, "s-connected components match fixtures and the brute-force "
             "oracle")
def test_criterion_6_components():
    lat = build_lattice_vectorized(parse_incidence_csv(SEVEN_GROUPS_CSV))
    assert s_connected_components(lat, 1) == [tuple("1234567")]
    assert s_connected_components(lat, 2) == [("1", "2", "3", "4"), ("5", "6")]
    for seed in RANDOM_SEEDS:
        h, _ = dedup_edges(random_hypergraph(seed))
        lat = build_lattice_naive(h)
        for s in (1, 2, 3, 4):
            got = sorted(map(sorted, s_connected_components(lat, s)))
            expected = sorted(map(sorted, oracle_components(h, s)))
            assert got == expected, (seed, s)


@criterion(7, "depth histograms match an independent search on the worked "
             "example; generated stats deterministic with min <= max")
def test_criterion_7_depth_statistics():
    lat = build_lattice_vectorized(parse_incidence_csv(SEVEN_GROUPS_CSV))
    hists = depth_histograms(lat)
    min_top, max_top, min_bot, max_bot = independent_depths(lat)

    def to_hist(d):
        out = {}
        for v in d.values():
            out[v] = out.get(v, 0) + 1
        return dict(sorted(out.items()))

    assert hists.min_to_top == to_hist(min_top)
    assert hists.max_to_top == to_hist(max_top)
    assert hists.min_to_bottom == to_hist(min_bot)
    assert hists.max_to_bottom == to_hist(max_bot)

    h, _ = dedup_edges(chung_lu_hypergraph(120, 80, exponent=2.5, seed=9))
    lat1 = build_lattice_vectorized(h)
    lat2 = build_lattice_vectorized(h)
    assert depth_histograms(lat1) == depth_histograms(lat2)
    stats = depth_statistics(lat1)
    for i in range(len(lat1)):
        assert stats.min_to_top[i] <= stats.max_to_top[i]
        assert stats.min_to_bottom[i] <= stats.max_to_bottom[i]


@criterion(8, "vectorized build of a 1000-vertex, 500-edge sparse instance "
             "stays under 5000 nodes and 10 s")
def test_criterion_8_performance_smoke():
    h = chung_lu_hypergraph(1000, 500, exponent=2.2, seed=42)
    assert h.n_vertices == 1000 and h.n_edges == 500
    h, _ = dedup_edges(h)
    t0 = time.perf_counter()
    lat = build_lattice_vectorized(h)
    elapsed = time.perf_counter() - t0
    assert len(lat) <= 5000, f"lattice has {len(lat)} nodes"
    assert elapsed < 10.0, f"build took {elapsed:.2f} s"
