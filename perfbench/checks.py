"""Answer checks for the benchmark, run after the timed region.

Every check compares a program answer with a brute-force reference from
``hglattice.oracle`` built on the generated input, never with another
answer of the code under test. Each s-line graph is built once per s and
breadth-first distances once per (s, source edge), so checking thousands of
path answers costs a few seconds at most.
"""

from __future__ import annotations

from collections import deque

from hglattice import core, oracle


class Checker:
    """Reference answers for one generated input hypergraph.

    ``source`` is the hypergraph as generated, duplicate edge columns
    included, with the names the input file carries. Path answers are
    checked on its deduplicated form, whose edge names are the ones a
    lattice reports; component answers against ``oracle_components`` on
    ``source`` itself, so duplicate edges must travel with their
    representative.
    """

    def __init__(self, source: core.Hypergraph):
        self.source = source
        self.reduced, mapping = core.dedup_edges(source)
        self.rep_of = {
            name: self.reduced.edge_names[mapping[j]]
            for j, name in enumerate(source.edge_names)
        }
        self._graphs: dict[int, oracle.SLineGraph] = {}
        self._distances: dict[tuple[int, int], dict[int, int]] = {}
        self._components: dict[int, list[tuple[str, ...]]] = {}

    def line_graph(self, s: int) -> oracle.SLineGraph:
        g = self._graphs.get(s)
        if g is None:
            g = self._graphs[s] = oracle.s_line_graph(self.reduced, s)
        return g

    def distance(self, s: int, source: str, target: str) -> int | None:
        """Shortest s-path length in hyperedge hops, None when unreachable."""
        src = self.reduced.edge_index[self.rep_of[source]]
        dst = self.reduced.edge_index[self.rep_of[target]]
        key = (s, src)
        dist = self._distances.get(key)
        if dist is None:
            g = self.line_graph(s)
            dist = {}
            if src in g.adjacency:
                dist[src] = 0
                queue = deque([src])
                while queue:
                    n = queue.popleft()
                    for m in g.adjacency[n]:
                        if m not in dist:
                            dist[m] = dist[n] + 1
                            queue.append(m)
            self._distances[key] = dist
        return dist.get(dst)

    def components(self, s: int) -> list[tuple[str, ...]]:
        comps = self._components.get(s)
        if comps is None:
            comps = self._components[s] = oracle.oracle_components(self.source, s)
        return comps

    def check_path(self, s, source, target, path, distance) -> tuple[bool, bool]:
        """Check one s-path answer; returns (correct, longer than shortest).

        ``path`` is the reported hyperedge name sequence, or None when the
        program reported that no s-path exists. A correct answer agrees with
        the oracle on reachability and is a valid s-path: it runs from the
        source's representative edge to the target's, every edge has at
        least s vertices, consecutive edges share at least s, and the
        reported distance is its hop count.
        """
        best = self.distance(s, source, target)
        if path is None:
            return best is None, False
        if best is None or not path:
            return False, False
        if path[0] != self.rep_of[source] or path[-1] != self.rep_of[target]:
            return False, False
        try:
            cols = [self.reduced.chi.columns[self.reduced.edge_index[n]] for n in path]
        except (KeyError, TypeError):
            return False, False
        if any(c.bit_count() < s for c in cols):
            return False, False
        if any((x & y).bit_count() < s for x, y in zip(cols, cols[1:])):
            return False, False
        if distance != len(path) - 1:
            return False, False
        return True, distance > best

    def check_components(self, s: int, got) -> bool:
        """Same groups, in the same order (by first source edge).

        Members are compared as sets: a lattice read back from its document
        lists duplicate edges after all representatives rather than in
        source order, and the repository's own tests compare members
        unordered too.
        """
        try:
            return [frozenset(c) for c in got] == [frozenset(c) for c in self.components(s)]
        except TypeError:
            return False

    def check_stats(self, text: str, nodes: int, covers: int) -> bool:
        """``hglattice stats`` output against the reference lattice's size:
        header counts match and every histogram counts each node once."""
        header = {}
        totals: dict[str, int] = {}
        try:
            for line in text.splitlines():
                if line.startswith("# "):
                    key, value = line[2:].split(",")
                    header[key] = int(value)
                elif line and line != "histogram,distance,count":
                    name, _, count = line.split(",")
                    totals[name] = totals.get(name, 0) + int(count)
        except ValueError:
            return False
        expected = {
            "vertices": self.reduced.n_vertices,
            "edges": self.reduced.n_edges,
            "lattice_nodes": nodes,
            "cover_edges": covers,
        }
        hists = ("min_to_top", "max_to_top", "min_to_bottom", "max_to_bottom")
        return header == expected and all(totals.get(h) == nodes for h in hists)
