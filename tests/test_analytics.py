import copy
import hashlib
import sys
import threading
import warnings
from collections import deque

import pytest

from conftest import random_dedup_hypergraph, random_hypergraph
from hglattice.core import Hypergraph, IncidenceMatrix, iter_bits
from hglattice import (
    NoSPathError,
    analytics,
    build_lattice_naive,
    build_lattice_vectorized,
    chung_lu_hypergraph,
    dedup_edges,
    depth_histograms,
    depth_statistics,
    from_edge_list,
    lattice_to_dot,
    oracle_components,
    oracle_shortest_s_path,
    overlap_size,
    parse_lattice_document,
    prune,
    s_connected_components,
    serialize_lattice,
    shortest_s_path,
)


def extent_names(lat, node):
    names = lat.hypergraph.vertex_names
    return {names[k] for k in iter_bits(lat.extent_bits[node])}


class TestPrune:
    def test_s1_drops_top_and_bottom_only(self, seven_groups_lattice):
        view = prune(seven_groups_lattice, 1)
        dropped = set(range(13)) - set(view.retained)
        assert dropped == {seven_groups_lattice.top_index, seven_groups_lattice.bottom_index}

    def test_s2_retained_and_two_pieces(self, seven_groups_lattice):
        view = prune(seven_groups_lattice, 2)
        got = {frozenset(extent_names(seven_groups_lattice, n)) for n in view.retained}
        assert got == {
            frozenset(x)
            for x in (
                {"a", "b"}, {"a", "d"}, {"b", "c"}, {"f", "g"},
                {"b", "c", "e"}, {"e", "f", "g"}, {"a", "b", "c", "d"},
            )
        }

    def test_s_above_vertex_count_is_empty(self, seven_groups_lattice):
        view = prune(seven_groups_lattice, 8)
        assert view.retained == frozenset()

    def test_invalid_s(self, seven_groups_lattice):
        with pytest.raises(ValueError):
            prune(seven_groups_lattice, 0)

    def test_topped_hypergraph_keeps_top(self):
        lat = build_lattice_naive(
            from_edge_list([("big", ["a", "b", "c"]), ("small", ["a"])])
        )
        view = prune(lat, 1)
        assert lat.top_index in view.retained


class TestShortestSPath:
    def test_s1_from_3_to_7(self, seven_groups_lattice):
        res = shortest_s_path(seven_groups_lattice, 1, "3", "7")
        assert res.lattice_distance == 7
        assert res.hyperedge_path == ("3", "2", "1", "5", "7")
        assert res.hypergraph_distance == 4
        # the walk itself: anchors of 3 and 2, then intersections and
        # anchors down the right flank of the diagram
        labels = [extent_names(seven_groups_lattice, n) for n in res.lattice_path]
        assert labels == [
            {"a", "d"}, {"a", "b", "c", "d"}, {"b", "c"}, {"b", "c", "e"},
            {"e"}, {"e", "f", "g"}, {"f", "g"}, {"g"},
        ]

    def test_s2_from_3_to_1(self, seven_groups_lattice):
        res = shortest_s_path(seven_groups_lattice, 2, "3", "1")
        assert res.hyperedge_path == ("3", "2", "1")
        assert res.hypergraph_distance == 2

    def test_s2_from_3_to_7_is_pruned(self, seven_groups_lattice):
        with pytest.raises(NoSPathError, match="'7'") as exc:
            shortest_s_path(seven_groups_lattice, 2, "3", "7")
        assert exc.value.reason == "target-pruned"

    def test_source_pruned(self, seven_groups_lattice):
        with pytest.raises(NoSPathError, match="'7'") as exc:
            shortest_s_path(seven_groups_lattice, 2, "7", "3")
        assert exc.value.reason == "source-pruned"

    def test_disconnected(self, seven_groups_lattice):
        with pytest.raises(NoSPathError) as exc:
            shortest_s_path(seven_groups_lattice, 2, "3", "5")
        assert exc.value.reason == "disconnected"

    def test_self_path(self, seven_groups_lattice):
        res = shortest_s_path(seven_groups_lattice, 1, "3", "3")
        assert res.hyperedge_path == ("3",)
        assert res.hypergraph_distance == 0
        assert res.lattice_distance == 0

    def test_unknown_edge(self, seven_groups_lattice):
        with pytest.raises(KeyError):
            shortest_s_path(seven_groups_lattice, 1, "3", "99")

    def test_non_anchor_peak_gets_witnessed(self):
        # only f1 and f2 meet both x and y, and {a,b}, under both of them,
        # is no edge itself: the path passes through f1, found first
        h = from_edge_list(
            [("x", ["a"]), ("y", ["b"]), ("f1", ["a", "b", "c"]),
             ("f2", ["a", "b", "d"])]
        )
        res = shortest_s_path(build_lattice_naive(h), 1, "x", "y")
        assert res.hyperedge_path == ("x", "f1", "y")
        assert res.hypergraph_distance == 2

    def test_overlapping_ends_take_one_hop(self):
        # p and r share a, so the path must not pass through q
        lat = build_lattice_naive(
            from_edge_list([("p", ["a", "b"]), ("q", ["a"]), ("r", ["a", "c"])])
        )
        res = shortest_s_path(lat, 1, "p", "r")
        assert res.hyperedge_path == ("p", "r")
        assert res.hypergraph_distance == 1

    def test_hidden_top_is_no_peak(self):
        # the top {a,b} is no hyperedge, so nothing joins x and y
        lat = build_lattice_naive(from_edge_list([("x", ["a"]), ("y", ["b"])]))
        with pytest.raises(NoSPathError) as exc:
            shortest_s_path(lat, 1, "x", "y")
        assert exc.value.reason == "disconnected"

    def test_topped_path_crosses_the_top_edge(self):
        lat = build_lattice_naive(
            from_edge_list([("big", ["a", "b", "c"]), ("x", ["a"]), ("y", ["b"])])
        )
        res = shortest_s_path(lat, 1, "x", "y")
        assert res.hyperedge_path == ("x", "big", "y")
        labels = [extent_names(lat, n) for n in res.lattice_path]
        assert labels == [{"a"}, {"a", "b", "c"}, {"b"}]
        assert res.lattice_distance == 2

    def test_paths_always_valid_and_never_beat_oracle(self):
        for seed in range(60):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for s in (1, 2, 3):
                for a in range(h.n_edges):
                    for b in range(h.n_edges):
                        expected = oracle_shortest_s_path(h, s, a, b)
                        try:
                            res = shortest_s_path(
                                lat, s, h.edge_names[a], h.edge_names[b]
                            )
                        except NoSPathError:
                            assert expected is None, (seed, s, a, b)
                            continue
                        assert expected is not None, (seed, s, a, b)
                        path = [h.edge_index[n] for n in res.hyperedge_path]
                        assert path[0] == a and path[-1] == b
                        for x, y in zip(path, path[1:]):
                            assert overlap_size(h, x, y) >= s, (seed, s, a, b)
                        assert res.hypergraph_distance == len(path) - 1
                        assert res.hypergraph_distance >= expected[0]


class TestComponents:
    def test_seven_groups_s1(self, seven_groups_lattice):
        comps = s_connected_components(seven_groups_lattice, 1)
        assert comps == [tuple("1234567")]

    def test_seven_groups_s2(self, seven_groups_lattice):
        comps = s_connected_components(seven_groups_lattice, 2)
        assert comps == [("1", "2", "3", "4"), ("5", "6")]

    def test_seven_groups_s3(self, seven_groups_lattice):
        # only edges with three or more vertices survive, and no pair of
        # them overlaps in three vertices
        comps = s_connected_components(seven_groups_lattice, 3)
        assert comps == [("1",), ("2",), ("5",)]

    def test_duplicates_travel_with_representative(self):
        h = from_edge_list(
            [("x", ["a", "b"]), ("y", ["a", "b"]), ("z", ["b", "c"])]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_naive(h)
        assert s_connected_components(lat, 2) == [("x", "y"), ("z",)]

    def test_duplicates_survive_document_round_trip(self):
        from hglattice import parse_lattice_document, serialize_lattice

        h = from_edge_list(
            [("x", ["a", "b"]), ("y", ["a", "b"]), ("z", ["b", "c"])]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_naive(h)
        again = parse_lattice_document(serialize_lattice(lat))
        assert s_connected_components(again, 2) == [("x", "y"), ("z",)]

    def test_oracle_agreement(self):
        # Duplicate edges stay in the source hypergraph, and the oracle
        # answers on it; the kept edges shrink to none at the largest s.
        with_duplicates = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(200):
                h = random_hypergraph(seed)
                with_duplicates += dedup_edges(h)[0] is not h
                lat = build_lattice_naive(h)
                again = parse_lattice_document(serialize_lattice(lat))
                top = max(map(int.bit_count, h.chi.columns))
                for s in range(1, top + 2):
                    expected = sorted(map(sorted, oracle_components(h, s)))
                    for loaded in (lat, again):
                        got = s_connected_components(loaded, s)
                        assert sorted(map(sorted, got)) == expected, (seed, s)
        assert with_duplicates == 93

    @pytest.mark.parametrize("columns", [[], [0, 0]], ids=["no edges", "empty edges"])
    def test_no_kept_edges(self, columns):
        h = Hypergraph(
            ("v0",),
            tuple(f"e{j}" for j in range(len(columns))),
            IncidenceMatrix(1, len(columns), tuple(columns)),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_naive(h)
        again = parse_lattice_document(serialize_lattice(lat))
        for loaded in (lat, again):
            assert [s_connected_components(loaded, s) for s in (1, 2)] == [[], []]

    def test_refinement_in_s(self):
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for s in (1, 2, 3):
                coarse = {
                    name: i
                    for i, comp in enumerate(s_connected_components(lat, s))
                    for name in comp
                }
                finer = s_connected_components(lat, s + 1)
                for comp in finer:
                    owners = {coarse[name] for name in comp}
                    assert len(owners) == 1, (seed, s, comp)


def reference_path(view, src, dst):
    """Level BFS over a pruned view, each level scanned in ascending order."""
    parent = {src: None}
    level = [src]
    while level and dst not in parent:
        nxt = []
        for n in level:
            for m in view.adjacency[n]:
                if m not in parent:
                    parent[m] = n
                    nxt.append(m)
        level = sorted(nxt)
    if dst not in parent:
        return None
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def reference_components(lat, view):
    """DFS over a pruned view; each component's anchored edges, by name."""
    seen = set()
    groups = []
    for start in sorted(view.retained):
        if start in seen:
            continue
        seen.add(start)
        stack, reps = [start], set()
        while stack:
            n = stack.pop()
            reps.update(lat.anchored_edges.get(n, ()))
            for m in view.adjacency[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        if reps:
            names = tuple(e for e, rep in lat.edge_aliases.items() if rep in reps)
            groups.append((min(reps), names))
    return [names for _, names in sorted(groups)]


def path_answer(lat, s, a, b):
    try:
        res = shortest_s_path(lat, s, a, b)
    except NoSPathError as exc:
        return exc.reason
    return res.lattice_path, res.hyperedge_path


class TestSharedAdjacency:
    """Queries filter one cover adjacency per lattice; these pin them to
    searches over the ``prune`` view, which is built from the covers."""

    def test_prune_adjacency_is_covers_among_retained(self):
        for seed in range(40):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            top = lat.top_index
            for s in range(1, lat.hypergraph.n_vertices + 2):
                view = prune(lat, s)
                retained = {
                    i for i, extent in enumerate(lat.extent_bits)
                    if extent.bit_count() >= s and (i != top or lat.is_anchor(top))
                }
                assert view.retained == retained, (seed, s)
                expected = {i: set() for i in retained}
                for lo, hi in lat.covers:
                    if lo in retained and hi in retained:
                        expected[lo].add(hi)
                        expected[hi].add(lo)
                assert view.adjacency == {
                    i: tuple(sorted(ns)) for i, ns in expected.items()
                }, (seed, s)

    def test_queries_match_search_over_pruned_view(self):
        # Reachability must match a search over the view; a found path is
        # a walk over the view's adjacency of the oracle's length.
        for seed in range(40):
            h = random_dedup_hypergraph(seed)
            lat = build_lattice_naive(h)
            for s in range(1, h.n_vertices + 2):
                view = prune(lat, s)
                assert s_connected_components(lat, s) == reference_components(
                    lat, view
                ), (seed, s)
                for a in h.edge_names:
                    for b in h.edge_names:
                        src = lat.edge_anchors[lat.resolve_edge(a)]
                        dst = lat.edge_anchors[lat.resolve_edge(b)]
                        if src not in view.retained:
                            expected = "source-pruned"
                        elif dst not in view.retained:
                            expected = "target-pruned"
                        elif reference_path(view, src, dst) is None:
                            expected = "disconnected"
                        else:
                            expected = None
                        try:
                            res = shortest_s_path(lat, s, a, b)
                        except NoSPathError as exc:
                            assert exc.reason == expected, (seed, s, a, b)
                            continue
                        assert expected is None, (seed, s, a, b)
                        walk = res.lattice_path
                        assert (walk[0], walk[-1]) == (src, dst), (seed, s, a, b)
                        for x, y in zip(walk, walk[1:]):
                            assert y in view.adjacency[x], (seed, s, a, b)
                        assert res.lattice_distance == len(walk) - 1
                        best = oracle_shortest_s_path(
                            h, s, h.edge_index[a], h.edge_index[b]
                        )
                        assert res.hypergraph_distance == best[0], (seed, s, a, b)

    def test_pruned_endpoint_runs_no_search(self, seven_groups_lattice, monkeypatch):
        class Searched(Exception):
            pass

        def search(*args):
            raise Searched

        monkeypatch.setattr(analytics, "_edge_search", search)
        for source, target, reason in (
            ("7", "3", "source-pruned"), ("3", "7", "target-pruned")
        ):
            with pytest.raises(NoSPathError) as info:
                shortest_s_path(seven_groups_lattice, 2, source, target)
            assert info.value.reason == reason
        with pytest.raises(Searched):
            shortest_s_path(seven_groups_lattice, 2, "3", "1")

    def test_unknown_name_is_checked_before_pruning(self, seven_groups_lattice):
        with pytest.raises(KeyError):
            shortest_s_path(seven_groups_lattice, 2, "7", "99")
        with pytest.raises(ValueError):
            shortest_s_path(seven_groups_lattice, 0, "3", "99")

    def test_threads_share_one_freshly_loaded_lattice(self):
        h, _ = dedup_edges(chung_lu_hypergraph(200, 100, 2.2, seed=5))
        doc = serialize_lattice(build_lattice_vectorized(h))
        names = h.edge_names
        queries = [(s, a, b) for s in (1, 2, 3) for a in names[:12] for b in names]

        def answer_all(lat):
            paths = [path_answer(lat, s, a, b) for s, a, b in queries]
            comps = [s_connected_components(lat, s) for s in (1, 2, 3)]
            return paths, comps

        expected = answer_all(parse_lattice_document(doc))
        lat = parse_lattice_document(doc)
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(k):
            start.wait(timeout=30)
            results[k] = answer_all(lat)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often inside the queries
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * 4


def answers_digest(answers):
    return hashlib.sha256(repr(answers).encode()).hexdigest()


def all_pairs(lat, s_values):
    names = lat.hypergraph.edge_names
    return [(s, a, b) for s in s_values for a in names for b in names]


class TestSearchAnswersPinned:
    """Queries stop early (the last round walks from one edge; ends in
    different s-components run no search); these digests of every answer
    were taken before either existed, so tie-breaks cannot move."""

    def test_random_instances(self):
        answers = []
        for seed in range(60):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            answers.append(
                [path_answer(lat, *q) for q in all_pairs(lat, (1, 2, 3))]
            )
        assert answers_digest(answers) == (
            "d9ad499055ad8d8059de01dbbd213341ba08f171638c23ed540d2b8c5d1c7053"
        )

    def test_chung_lu_lattice(self):
        h, _ = dedup_edges(chung_lu_hypergraph(200, 100, 2.2, seed=5))
        lat = build_lattice_vectorized(h)
        answers = [path_answer(lat, *q) for q in all_pairs(lat, (1, 2, 3))]
        assert answers_digest(answers) == (
            "5ab746eb4d262c5a1cad9386ef75390d446007e3e0f46931d4fb4717348541bf"
        )

    def test_last_hop_from_a_later_frontier_edge(self):
        # x's round-1 frontier is f1 (found under {a}), then f2 (under
        # {b}); f1 misses y and f2 meets it in d. Both walks would pass {g}.
        lat = build_lattice_naive(
            from_edge_list(
                [("x", ["a", "b"]), ("f1", ["a", "c", "g"]),
                 ("f2", ["b", "d", "g"]), ("y", ["d", "e"])]
            )
        )
        res = shortest_s_path(lat, 1, "x", "y")
        assert res.hyperedge_path == ("x", "f2", "y")
        assert res.lattice_path == (5, 2, 8, 4, 6)
        labels = [extent_names(lat, n) for n in res.lattice_path]
        assert labels == [{"a", "b"}, {"b"}, {"b", "d", "g"}, {"d"}, {"d", "e"}]


def every_s_components(lat):
    top = max(map(int.bit_count, lat.hypergraph.chi.columns), default=0)
    return [s_connected_components(lat, s) for s in range(1, top + 2)]


class TestComponentsPinned:
    """Digests of the components at every s, taken from document round
    trips before the s-component forest replaced the per-s search. The
    inputs keep their duplicate edges, so built lattices must list the
    duplicates as loaded documents do."""

    def test_random_instances(self):
        answers = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for seed in range(60):
                lat = build_lattice_naive(random_hypergraph(seed))
                again = parse_lattice_document(serialize_lattice(lat))
                assert every_s_components(again) == every_s_components(lat)
                answers.append(every_s_components(lat))
        assert answers_digest(answers) == (
            "1ac310517980c5dd9708bb2de4abca59d2ce4fd535dfbef3f48da9fd6fe23759"
        )

    def test_chung_lu_lattice(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            lat = build_lattice_vectorized(chung_lu_hypergraph(2000, 1000, 2.2, seed=42))
        again = parse_lattice_document(serialize_lattice(lat))
        answers = every_s_components(lat)
        assert len(answers) == 591
        assert every_s_components(again) == answers
        assert answers_digest(answers) == (
            "f1e6a9648b2f6c7d9ea901c4cbd18b0fe6fa7e3c980f103ea4b421635c68b410"
        )


class TestComponentForest:
    def test_queries_write_nothing(self):
        # Neither queries nor writers fill anything in after construction.
        for seed in range(60):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            before = copy.deepcopy(vars(lat))
            for q in all_pairs(lat, (1, 2, 3, 4)):
                path_answer(lat, *q)
            every_s_components(lat)
            serialize_lattice(lat)
            lattice_to_dot(lat)
            lat.covers
            depth_histograms(lat)
            for i in range(len(lat)):
                lat.node_label(i)
            assert vars(lat) == before, seed

    def test_disconnected_answers_need_no_covers(self, seven_groups):
        lat = build_lattice_naive(seven_groups)
        lat.lower_covers = lat.upper_covers = None  # any search would fail on them
        for source, target in (("5", "3"), ("6", "1"), ("4", "5"), ("5", "2")):
            with pytest.raises(NoSPathError) as exc:
                shortest_s_path(lat, 2, source, target)
            assert exc.value.reason == "disconnected"
        assert s_connected_components(lat, 2) == [("1", "2", "3", "4"), ("5", "6")]
        with pytest.raises(TypeError):
            shortest_s_path(lat, 2, "5", "6")

    def test_levels_fall_toward_short_roots(self):
        lats = [build_lattice_naive(random_dedup_hypergraph(seed)) for seed in range(60)]
        h, _ = dedup_edges(chung_lu_hypergraph(200, 100, 2.2, seed=5))
        lats.append(build_lattice_vectorized(h))
        for lat in lats:
            parent, level = lat.component_forest
            for node in range(len(lat)):
                depth, last = 0, lat.extent_sizes[node]
                while parent[node] != node:
                    assert 0 < level[node] <= last
                    last = level[node]
                    node = parent[node]
                    depth += 1
                assert level[node] == 0
                assert 2 ** depth <= len(lat)


def independent_depths(lat):
    """Plain BFS for shortest and DAG relaxation for longest cover paths,
    written against the public covers relation only."""
    n = len(lat)
    ups = {i: set() for i in range(n)}
    downs = {i: set() for i in range(n)}
    for lo, hi in lat.covers:
        ups[lo].add(hi)
        downs[hi].add(lo)

    def bfs(start, neighbors):
        dist = {start: 0}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in neighbors[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        return dist

    min_top = bfs(lat.top_index, downs)
    min_bot = bfs(lat.bottom_index, ups)

    def longest_from(start, neighbors):
        best = {start: 0}
        order = sorted(range(n), key=lambda i: lat.extent_bits[i].bit_count())
        if neighbors is downs:
            order.reverse()
        for x in order:
            if x not in best:
                continue
            for y in neighbors[x]:
                cand = best[x] + 1
                if best.get(y, -1) < cand:
                    best[y] = cand
        return best

    max_top = longest_from(lat.top_index, downs)
    max_bot = longest_from(lat.bottom_index, ups)
    return min_top, max_top, min_bot, max_bot


class TestDepthStatistics:
    def test_chain_of_three(self):
        h = from_edge_list(
            [("1", ["a"]), ("2", ["a", "b"]), ("3", ["a", "b", "c"])]
        )
        lat = build_lattice_naive(h)
        hists = depth_histograms(lat)
        assert hists.max_to_top == {0: 1, 1: 1, 2: 1}
        assert hists.max_to_bottom == {0: 1, 1: 1, 2: 1}

    def test_single_node(self):
        lat = build_lattice_naive(from_edge_list([]))
        hists = depth_histograms(lat)
        for name in ("min_to_top", "max_to_top", "min_to_bottom", "max_to_bottom"):
            assert getattr(hists, name) == {0: 1}

    def test_seven_groups_against_independent_search(self, seven_groups_lattice):
        lat = seven_groups_lattice
        stats = depth_statistics(lat)
        min_top, max_top, min_bot, max_bot = independent_depths(lat)
        for i in range(len(lat)):
            assert stats.min_to_top[i] == min_top[i]
            assert stats.max_to_top[i] == max_top[i]
            assert stats.min_to_bottom[i] == min_bot[i]
            assert stats.max_to_bottom[i] == max_bot[i]
        # the node (empty extent, all edges) is the bottom; its shortest
        # route to the top climbs through {e} and {b,c,e}
        assert stats.min_to_top[lat.bottom_index] == 3

    def test_random_against_independent_search(self):
        for seed in range(40):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            stats = depth_statistics(lat)
            min_top, max_top, min_bot, max_bot = independent_depths(lat)
            for i in range(len(lat)):
                assert stats.min_to_top[i] == min_top[i]
                assert stats.max_to_top[i] == max_top[i]
                assert stats.min_to_bottom[i] == min_bot[i]
                assert stats.max_to_bottom[i] == max_bot[i]

    def test_sanity_bounds(self):
        for seed in range(40):
            lat = build_lattice_naive(random_dedup_hypergraph(seed))
            stats = depth_statistics(lat)
            span = stats.min_to_top[lat.bottom_index]
            for i in range(len(lat)):
                assert stats.min_to_top[i] <= stats.max_to_top[i]
                assert stats.min_to_bottom[i] <= stats.max_to_bottom[i]
                assert stats.min_to_top[i] + stats.min_to_bottom[i] >= span
