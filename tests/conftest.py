import random

import pytest

from hglattice import build_lattice_naive, dedup_edges, parse_incidence_csv
from hglattice.core import Hypergraph, IncidenceMatrix

# The running example: seven vertices a..g in seven groups.
SEVEN_GROUPS_CSV = """\
,1,2,3,4,5,6,7
a,0,1,1,1,0,0,0
b,1,1,0,1,0,0,0
c,1,1,0,0,0,0,0
d,0,1,1,0,0,0,0
e,1,0,0,0,1,0,0
f,0,0,0,0,1,1,0
g,0,0,0,0,1,1,1
"""

SEVEN_GROUPS_EDGE_MEMBERS = {
    "1": {"b", "c", "e"},
    "2": {"a", "b", "c", "d"},
    "3": {"a", "d"},
    "4": {"a", "b"},
    "5": {"e", "f", "g"},
    "6": {"f", "g"},
    "7": {"g"},
}

# The thirteen concepts of the running example, as name sets.
SEVEN_GROUPS_CONCEPTS = [
    (set(), {"1", "2", "3", "4", "5", "6", "7"}),
    ({"a"}, {"2", "3", "4"}),
    ({"b"}, {"1", "2", "4"}),
    ({"e"}, {"1", "5"}),
    ({"g"}, {"5", "6", "7"}),
    ({"a", "b"}, {"2", "4"}),
    ({"a", "d"}, {"2", "3"}),
    ({"b", "c"}, {"1", "2"}),
    ({"f", "g"}, {"5", "6"}),
    ({"b", "c", "e"}, {"1"}),
    ({"e", "f", "g"}, {"5"}),
    ({"a", "b", "c", "d"}, {"2"}),
    ({"a", "b", "c", "d", "e", "f", "g"}, set()),
]


def random_hypergraph(seed: int) -> Hypergraph:
    """Seeded random instance with at most 8 vertices and 8 edges."""
    rng = random.Random(seed)
    nv = rng.randint(1, 8)
    ne = rng.randint(1, 8)
    p = rng.choice([0.15, 0.3, 0.5])
    cols = []
    for _ in range(ne):
        bits = 0
        for v in range(nv):
            if rng.random() < p:
                bits |= 1 << v
        cols.append(bits)
    return Hypergraph(
        tuple(f"v{i}" for i in range(nv)),
        tuple(f"e{j}" for j in range(ne)),
        IncidenceMatrix(nv, ne, tuple(cols)),
    )


def random_dedup_hypergraph(seed: int) -> Hypergraph:
    reduced, _ = dedup_edges(random_hypergraph(seed))
    return reduced


def bits_of(index: dict[str, int], names) -> int:
    """The set of the named items as an int, from a ``vertex_index`` or
    ``edge_index`` dict."""
    return sum(1 << index[name] for name in names)


def containment_from_covers(lat) -> set[tuple[int, int]]:
    """(lower, upper) node pairs, reflexive ones included, of the order the
    stored covers generate: upper is reached from lower by going up zero or
    more covers."""
    ups = [[] for _ in range(len(lat))]
    for lo, hi in lat.covers:
        ups[lo].append(hi)
    pairs = set()
    for i in range(len(lat)):
        seen = {i}
        stack = [i]
        while stack:
            for j in ups[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        pairs.update((i, j) for j in seen)
    return pairs


@pytest.fixture(scope="session")
def seven_groups():
    return parse_incidence_csv(SEVEN_GROUPS_CSV)


@pytest.fixture(scope="session")
def seven_groups_lattice(seven_groups):
    return build_lattice_naive(seven_groups)
