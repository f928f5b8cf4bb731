"""Workload set-up, timed rounds, answer checks and metrics.

The benchmark drives hglattice from outside, as a user of the library and
CLI would: it writes an input file, runs ``hglattice build`` in-process
(``cli.main``), loads the JSON lattice document and queries it. Untraced
operations go through the public entry points as a user calls them. A traced
run repeats each operation right after its untraced twin, this time stage by
stage through the public functions of ``formats``, ``core``, ``lattice`` and
``analytics`` with one span per call, so that the traced/untraced pair gives
both the per-layer split and the cost of tracing itself.

``generate`` only makes set-up inputs and ``oracle`` (via ``checks``) only
checks answers after the timed region; neither is timed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from hglattice import analytics, cli, core, formats, generate, lattice
from hglattice.analytics import NoSPathError

from checks import Checker
from speed import SpeedSampler
from tracing import Tracer

WORKLOADS = ("sparse-build", "dense-small", "query-mix")

# s values of the path query stream on the sparse lattice; components are
# asked at every s with a non-empty view.
SPARSE_PATH_S = (1, 2, 3)
CLI_KINDS = ("path", "components", "stats")

# Units of the reported metrics, in the order they are printed.
END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "cli_query_s": "s",
    "path_p50_ms": "ms",
    "path_p99_ms": "ms",
    "components_p50_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

OVERHEAD_TIMINGS = ("build_s", "cli_query_s", "path_p50_ms", "components_p50_ms")

PER_LAYER_UNITS = {
    "formats.parse_input_ms": "ms",
    "formats.serialize_ms": "ms",
    "formats.parse_document_ms": "ms",
    "formats.document_bytes": "count",
    "core.dedup_ms": "ms",
    "core.dedup_removed": "count",
    "lattice.build_s": "s",
    "lattice.covers_ms": "ms",
    "lattice.naive_build_s": "s",
    "lattice.nodes": "count",
    "lattice.cover_pairs": "count",
    "lattice.edges": "count",
    "lattice.nodes_per_edge": "ratio",
    "analytics.prune_ms": "ms",
    "analytics.path_self_ms": "ms",
    "analytics.components_self_ms": "ms",
    "analytics.depth_ms": "ms",
    "analytics.retained_share": "ratio",
    "analytics.no_path_share": "ratio",
    "analytics.hops_per_edge": "ratio",
    "cli.self_ms": "ms",
    "gc.collect_ms": "ms",
    **{f"tracing.overhead_share.{m}": "ratio" for m in OVERHEAD_TIMINGS},
    "path_excess_rate": "ratio",
}

SPARSE_EXPONENT = 2.2
# Generator seed of the sparse ladder point; the run seed shuffles it.
LADDER_SEED = 42
DENSE_P = 0.25

# Set-ups per run; ``setup_s`` is their median. The counts are fixed, so
# that how many inputs a run holds does not depend on the program's speed.
# A dense set-up takes about 7 ms, so it is repeated more often.
SETUPS = {"sparse-build": 3, "dense-small": 64, "query-mix": 3}


@dataclass(frozen=True)
class Sizes:
    """Input sizes and sample floors. The defaults define the benchmark;
    the benchmark's own tests run the same code on tiny sizes."""

    sparse_vertices: int = 2000
    sparse_edges: int = 1000
    dense_vertices: int = 60
    dense_edges: int = 40
    dense_instances: int = 8
    # Library path queries per round, split evenly over dense instances.
    path_queries: int = 1000
    # p99 needs at least ten samples beyond it.
    min_path_samples: int = 1000
    min_rounds: int = 2


@dataclass
class Instance:
    """One input file, the lattice document built from it, and its oracle."""

    name: str
    directory: Path
    input_path: Path
    doc_path: Path
    checker: Checker
    s_max: int  # largest s whose pruned view is not empty
    lat: lattice.ConceptLattice | None = None


class Answer(NamedTuple):
    """One operation's answer, kept until the checks after the timed region.

    Answers hold only strings, numbers and tuples of them, which the
    garbage collector stops tracking, so that keeping thousands of them
    does not lengthen the collections that land inside timed queries.
    """

    op: str  # build | path | components | stats
    via: str  # cli | lib
    instance: str
    query: tuple
    outcome: object  # exit code / document hash / result, or the exception


# ---------------------------------------------------------------- set-up


@contextmanager
def _clock(into: list | None):
    """Append the (start, end) of the block to ``into`` unless it is None."""
    t0 = time.perf_counter()
    yield
    if into is not None:
        into.append((t0, time.perf_counter()))


def _write_edge_list(path: Path, records) -> None:
    lines = [f"{name}: {', '.join(members)}".rstrip() for name, members in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_incidence_csv(path: Path, h: core.Hypergraph) -> None:
    rows = ["," + ",".join(h.edge_names)]
    for v, vname in enumerate(h.vertex_names):
        cells = ("1" if (col >> v) & 1 else "0" for col in h.chi.columns)
        rows.append(vname + "," + ",".join(cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _s_max(h: core.Hypergraph) -> int:
    return max((c.bit_count() for c in h.chi.columns), default=0)


def shuffled(h: core.Hypergraph, rng: random.Random) -> core.Hypergraph:
    """The same hypergraph with its vertex and edge order shuffled; names
    stay with their vertex or edge."""
    vertex_pos = list(range(h.n_vertices))
    rng.shuffle(vertex_pos)  # old vertex index -> new
    edge_order = list(range(h.n_edges))
    rng.shuffle(edge_order)  # new edge index -> old
    vertex_names = [""] * h.n_vertices
    for v, name in enumerate(h.vertex_names):
        vertex_names[vertex_pos[v]] = name
    columns = []
    for j in edge_order:
        bits = 0
        for v in core.iter_bits(h.chi.columns[j]):
            bits |= 1 << vertex_pos[v]
        columns.append(bits)
    return core.Hypergraph(
        tuple(vertex_names), tuple(h.edge_names[j] for j in edge_order),
        core.IncidenceMatrix(h.n_vertices, h.n_edges, tuple(columns)),
    )


# Inputs have a fixed structure, and the run seed shuffles them. Instances
# drawn from different generator seeds differ too much for any bound:
# default builds of Chung-Lu 2000x1000 ranged 9.4-18.6 s over nine
# generator seeds (quartile spread 36% of the median), and batches of eight
# dense 60x40 instances had median node counts from 1444 to 1810. Document
# parsing grows with the square of that. Shuffling keeps each lattice's size
# but changes the files, the vertex numbering, which duplicate edge is kept,
# and every query. Set-up time covers generating and writing; the shuffle
# and the checker's reference are the benchmark's own work and are not
# timed. ``timed`` collects the (start, end) of the timed parts.


def sparse_instance(seed, directory: Path, sizes: Sizes, name: str = "sparse",
                    timed: list | None = None) -> Instance:
    """The Chung-Lu ladder point, shuffled by seed, as an edge list."""
    with _clock(timed):
        h = generate.chung_lu_hypergraph(
            sizes.sparse_vertices, sizes.sparse_edges, SPARSE_EXPONENT, LADDER_SEED)
    h = shuffled(h, random.Random(seed))
    directory.mkdir(parents=True, exist_ok=True)
    input_path = directory / f"{name}.edges"
    with _clock(timed):
        records = [(name, h.vertex_names_of(h.edge_column(j)))
                   for j, name in enumerate(h.edge_names)]
        _write_edge_list(input_path, records)
    source = core.from_edge_list(records)
    return Instance(
        name, directory, input_path, directory / f"{name}.json",
        Checker(source), _s_max(source),
    )


def dense_instances(seed, directory: Path, sizes: Sizes,
                    timed: list | None = None) -> list[Instance]:
    """Uniform instances from generator seeds 0, 1, ..., each shuffled by seed,
    as incidence CSV."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i in range(sizes.dense_instances):
        with _clock(timed):
            h = generate.uniform_hypergraph(
                sizes.dense_vertices, sizes.dense_edges, DENSE_P, seed=i)
        h = shuffled(h, rng)
        input_path = directory / f"dense{i}.csv"
        with _clock(timed):
            _write_incidence_csv(input_path, h)
        out.append(Instance(
            f"dense{i}", directory, input_path, directory / f"dense{i}.json",
            Checker(h), _s_max(h),
        ))
    return out


# ---------------------------------------------------------------- the run


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One benchmark run of one workload: set-up, timed rounds, checks."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, sizes: Sizes = Sizes()):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.workdir = workdir
        self.sizes = sizes
        self.rng = random.Random(f"{workload}/{seed}")
        # Timings are kept as (start, end) perf_counter pairs and scaled to
        # the reference speed when the metrics are derived.
        self.speed = SpeedSampler()
        self.samples: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.traced: dict[str, list[tuple[float, float]]] = defaultdict(list)
        self.answers: list[Answer] = []
        # Per answer, after the checks: (correct, longer than shortest or
        # None when no path was reported).
        self.verdicts: list[tuple[bool, bool | None]] = []
        # Per set-up, the (start, end) of its timed parts.
        self.setups: list[list[tuple[float, float]]] = []
        self.lib_queries = 0
        self.lib_segments: list[tuple[float, float]] = []
        self.rounds = 0
        self.peak_rss_mb = 0.0
        self.instances: list[Instance] = []
        self._outputs = 0

    # ---- operations: each runs untraced and, in a traced run, traced too

    def _cli(self, argv) -> object:
        try:
            return cli.main(argv)
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - recorded as a failed answer
            return exc

    def build(self, inst: Instance, algorithm: str | None = None,
              traced_only: bool = False):
        argv = ["build", str(inst.input_path), "-o", str(inst.doc_path)]
        if algorithm:
            argv += ["--algorithm", algorithm]
        if not traced_only:
            t0 = time.perf_counter()
            code = self._cli(argv)
            self.samples["build_s"].append((t0, time.perf_counter()))
            self._record_build(inst, code)
        if self.tracer:
            t0 = time.perf_counter()
            code = self._traced_build(inst, algorithm)
            self.traced["build_s"].append((t0, time.perf_counter()))
            self._record_build(inst, code)

    def _record_build(self, inst: Instance, code):
        outcome = code
        if code == 0:
            outcome = _sha(inst.doc_path.read_text(encoding="utf-8"))
        self.answers.append(Answer("build", "cli", inst.name, (), outcome))

    def _traced_build(self, inst: Instance, algorithm: str | None):
        tr = self.tracer
        builder = (lattice.build_lattice_naive if algorithm == "naive"
                   else lattice.build_lattice_vectorized)
        try:
            with tr.span("cli.build", instance=inst.name):
                text = inst.input_path.read_text(encoding="utf-8")
                with tr.span("formats.parse_input"):
                    if inst.input_path.suffix == ".csv":
                        h = formats.parse_incidence_csv(text)
                    else:
                        h = formats.parse_edge_list(text)
                # The builder repeats this call internally on the same input.
                with tr.span("core.dedup"):
                    reduced, _ = core.dedup_edges(h)
                with tr.span("lattice.build", algorithm=algorithm or "default"):
                    lat = builder(h)
                with tr.span("lattice.covers"):
                    covers = lat.covers
                with tr.span("formats.serialize"):
                    doc = formats.serialize_lattice(lat)
                inst.doc_path.write_text(doc, encoding="utf-8")
        except Exception as exc:  # noqa: BLE001 - recorded as a failed answer
            return exc
        tr.count("core.dedup_removed", h.n_edges - reduced.n_edges)
        tr.count("lattice.nodes", len(lat))
        tr.count("lattice.cover_pairs", len(covers))
        tr.count("lattice.edges", reduced.n_edges)
        tr.count("formats.document_bytes", len(doc.encode("utf-8")))
        return 0

    def cli_query(self, inst: Instance, kind: str, s: int = 0, source: str = "",
                  target: str = ""):
        self._outputs += 1
        out = inst.directory / f"out{self._outputs % 2}.txt"
        argv = [kind, str(inst.doc_path), "-o", str(out)]
        if kind == "path":
            argv += ["--s", str(s), "--from", source, "--to", target]
        elif kind == "components":
            argv += ["--s", str(s)]
        query = (s, source, target)
        runs = [(self.samples, lambda: self._cli(argv))]
        if self.tracer:
            runs.append((self.traced, lambda: self._traced_query(inst, kind, query, out)))
        for into, call in runs:
            out.unlink(missing_ok=True)
            t0 = time.perf_counter()
            code = call()
            into["cli_query_s"].append((t0, time.perf_counter()))
            outcome = code
            if code == 0:
                outcome = out.read_text(encoding="utf-8")
            self.answers.append(Answer(kind, "cli", inst.name, query, (code, outcome)))

    def _traced_query(self, inst: Instance, kind: str, query, out: Path):
        """``hglattice path|components|stats`` on a document, stage by stage."""
        tr = self.tracer
        s, source, target = query
        try:
            with tr.span(f"cli.{kind}", instance=inst.name):
                text = inst.doc_path.read_text(encoding="utf-8")
                with tr.span("formats.parse_document"):
                    lat = formats.parse_lattice_document(text)
                if kind == "path":
                    with tr.span("analytics.prune", instance=inst.name, s=s):
                        analytics.prune(lat, s)
                    try:
                        with tr.span("analytics.path", instance=inst.name, s=s):
                            res = analytics.shortest_s_path(lat, s, source, target)
                    except NoSPathError:
                        return cli.EXIT_NO_PATH
                    payload = {
                        "s": s,
                        "lattice_path": [lat.node_label(n) for n in res.lattice_path],
                        "lattice_distance": res.lattice_distance,
                        "hyperedge_path": list(res.hyperedge_path),
                        "hypergraph_distance": res.hypergraph_distance,
                    }
                    body = json.dumps(payload, indent=2) + "\n"
                elif kind == "components":
                    with tr.span("analytics.prune", instance=inst.name, s=s):
                        analytics.prune(lat, s)
                    with tr.span("analytics.components", instance=inst.name, s=s):
                        comps = analytics.s_connected_components(lat, s)
                    body = json.dumps([list(c) for c in comps]) + "\n"
                else:
                    with tr.span("analytics.depth"):
                        hists = analytics.depth_histograms(lat)
                    with tr.span("lattice.covers"):
                        n_covers = len(lat.covers)
                    h = lat.hypergraph
                    lines = [
                        f"# vertices,{h.n_vertices}",
                        f"# edges,{h.n_edges}",
                        f"# lattice_nodes,{len(lat)}",
                        f"# cover_edges,{n_covers}",
                        "histogram,distance,count",
                    ]
                    for name in ("min_to_top", "max_to_top", "min_to_bottom",
                                 "max_to_bottom"):
                        for distance, count in getattr(hists, name).items():
                            lines.append(f"{name},{distance},{count}")
                    body = "\n".join(lines) + "\n"
                out.write_text(body, encoding="utf-8")
        except Exception as exc:  # noqa: BLE001 - recorded as a failed answer
            return exc
        return 0

    def load(self, inst: Instance):
        """Load the instance's document once, as a library user would, and
        time one full garbage collection with it loaded."""
        if inst.lat is not None:
            return
        text = inst.doc_path.read_text(encoding="utf-8")
        if self.tracer:
            with self.tracer.span("formats.parse_document", instance=inst.name):
                inst.lat = formats.parse_lattice_document(text)
        else:
            inst.lat = formats.parse_lattice_document(text)
        t0 = time.perf_counter()
        gc.collect()
        self.samples["gc_collect"].append((t0, time.perf_counter()))

    @staticmethod
    def settle():
        """Collect, then move every object alive now out of the collector's
        reach (``gc.freeze``).

        Collections that land inside a timed operation then walk only what
        that operation made, as in a fresh CLI process or a service that
        freezes its start-up data. Without this, a full collection over
        every long-lived object landed in about 1% of path queries, and
        ``path_p99_ms`` flipped between 8 and 13 ms from run to run. The
        cost of one full collection with a lattice loaded is reported on
        its own, as ``gc.collect_ms``.
        """
        gc.collect()
        gc.freeze()

    def library_stream(self, inst: Instance, n_paths: int, path_s, comp_s):
        """A shuffled closed-loop stream: random path queries at the given
        s values and one components query per s in ``comp_s``."""
        self.load(inst)
        self.settle()
        names = inst.checker.source.edge_names
        rng = self.rng
        queries = [("path", rng.choice(path_s), rng.choice(names), rng.choice(names))
                   for _ in range(n_paths)]
        queries += [("components", s, "", "") for s in comp_s]
        rng.shuffle(queries)
        lat = inst.lat
        start = time.perf_counter()
        for kind, s, a, b in queries:
            self._lib_query(inst, lat, kind, s, a, b)
            if self.tracer:
                self._traced_lib_query(inst, lat, kind, s, a, b)
        self.lib_segments.append((start, time.perf_counter()))
        self.lib_queries += len(queries)

    def _lib_query(self, inst, lat, kind, s, a, b):
        t0 = time.perf_counter()
        outcome = self._call_query(lat, kind, s, a, b)
        self.samples[f"{kind}_ms"].append((t0, time.perf_counter()))
        self.answers.append(Answer(kind, "lib", inst.name, (s, a, b), outcome))

    def _traced_lib_query(self, inst, lat, kind, s, a, b):
        tr = self.tracer
        with tr.span("analytics.prune", instance=inst.name, s=s):
            view = analytics.prune(lat, s)
        tr.count("analytics.retained_share", len(view.retained) / len(lat))
        with tr.span(f"analytics.{kind}", instance=inst.name, s=s) as sp:
            outcome = self._call_query(lat, kind, s, a, b)
        self.traced[f"{kind}_ms"].append((sp.start, sp.end))
        self.answers.append(Answer(kind, "lib", inst.name, (s, a, b), outcome))

    @staticmethod
    def _call_query(lat, kind, s, a, b):
        try:
            if kind == "path":
                res = analytics.shortest_s_path(lat, s, a, b)
                return (res.hyperedge_path, res.hypergraph_distance,
                        res.lattice_distance)
            return tuple(analytics.s_connected_components(lat, s))
        except NoSPathError:
            return None
        except Exception as exc:  # noqa: BLE001 - recorded as a failed answer
            return exc

    # ---- workloads

    def setup(self):
        """Set up ``SETUPS[workload]`` times; set-up time is the median.

        Each sparse set-up shuffles the ladder point its own way and the
        rounds take turns over them, so that one run averages the
        tail-latency differences between shufflings. The dense batch already
        holds eight inputs; each set-up overwrites the last one's files and
        only the last batch is kept.
        """
        for i in range(SETUPS[self.workload]):
            timed: list[tuple[float, float]] = []
            if self.workload == "dense-small":
                self.instances = dense_instances(
                    f"{self.seed}/{i}", self.workdir / "dense", self.sizes, timed)
            else:
                inst = sparse_instance(f"{self.seed}/{i}", self.workdir / f"setup{i}",
                                       self.sizes, f"sparse{i}", timed)
                self.instances.append(inst)
                if self.workload == "query-mix":
                    # The one-time build of the document queried by this
                    # workload; the reference builder keeps set-up cheap.
                    # A traced run traces every other one.
                    with _clock(timed):
                        self.build(inst, "naive",
                                   traced_only=bool(self.tracer) and i % 2 == 1)
            self.setups.append(timed)

    def one_round(self):
        if self.workload == "dense-small":
            # One CLI query per instance, its kind rotating, keeps a round
            # short enough to visit every instance more than once a run.
            per_instance = max(1, self.sizes.path_queries // len(self.instances))
            for i, inst in enumerate(self.instances):
                self.build(inst)
                s_range = range(1, inst.s_max + 1)
                self._cli_query(inst, CLI_KINDS[(i + self.rounds) % len(CLI_KINDS)], s_range)
                self.library_stream(inst, per_instance, s_range, s_range)
            return
        inst = self.instances[self.rounds % len(self.instances)]
        # One sparse lattice is loaded at a time, so that memory does not
        # grow with the number of rounds.
        for other in self.instances:
            if other is not inst:
                other.lat = None
        if self.workload == "sparse-build":
            self.build(inst)
        for kind in CLI_KINDS:
            self._cli_query(inst, kind, SPARSE_PATH_S)
        self.library_stream(inst, self.sizes.path_queries, SPARSE_PATH_S,
                            range(1, inst.s_max + 1))

    def _cli_query(self, inst: Instance, kind: str, s_values):
        names = inst.checker.source.edge_names
        rng = self.rng
        if kind == "path":
            self.cli_query(inst, kind, rng.choice(s_values), rng.choice(names),
                           rng.choice(names))
        elif kind == "components":
            self.cli_query(inst, kind, rng.choice(s_values))
        else:
            self.cli_query(inst, kind)

    def execute(self):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="hypergraph has duplicate edge columns")
            try:
                with self.speed:
                    self.setup()
                    start = time.perf_counter()
                    while True:
                        self.settle()
                        self.one_round()
                        self.rounds += 1
                        if self.rounds == self.sizes.min_rounds:
                            # Read after a fixed amount of work: a faster
                            # program fits more rounds and keeps more
                            # answers, which must not read as more memory.
                            self.peak_rss_mb = (resource.getrusage(
                                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                        if (time.perf_counter() - start >= self.seconds
                                and self.rounds >= self.sizes.min_rounds
                                and len(self.samples["path_ms"]) >= self.sizes.min_path_samples):
                            break
            finally:
                gc.unfreeze()
            self.check()

    # ---- checks, after the timed region

    def check(self):
        reference = {}
        used = {ans.instance for ans in self.answers}
        for inst in self.instances:
            if inst.name not in used:
                continue
            text = inst.input_path.read_text(encoding="utf-8")
            if inst.input_path.suffix == ".csv":
                h = formats.parse_incidence_csv(text)
            else:
                h = formats.parse_edge_list(text)
            if self.tracer:
                with self.tracer.span("lattice.naive_build", instance=inst.name):
                    ref = lattice.build_lattice_naive(h)
            else:
                ref = lattice.build_lattice_naive(h)
            # A build is correct only when its document hashes to the
            # reference's, so the reference's round trip stands for it.
            ref_doc = formats.serialize_lattice(ref)
            round_trips = (
                formats.serialize_lattice(formats.parse_lattice_document(ref_doc)) == ref_doc)
            reference[inst.name] = (ref, _sha(ref_doc), round_trips)

        by_name = {inst.name: inst for inst in self.instances}
        self.verdicts = [
            self._check_answer(ans, by_name[ans.instance].checker, reference[ans.instance])
            for ans in self.answers
        ]

    @staticmethod
    def _check_answer(ans: Answer, checker: Checker, reference) -> tuple[bool, bool | None]:
        ref, ref_sha, round_trips = reference
        if ans.op == "build":
            return ans.outcome == ref_sha and round_trips, None
        s, source, target = ans.query
        if ans.via == "lib":
            if isinstance(ans.outcome, Exception):
                return False, None
            if ans.op == "components":
                return checker.check_components(s, ans.outcome), None
            path, dist = (None, None) if ans.outcome is None else ans.outcome[:2]
        else:
            code, text = ans.outcome
            if ans.op == "path" and code == cli.EXIT_NO_PATH:
                path, dist = None, None
            elif code != 0:
                return False, None
            elif ans.op == "path":
                try:
                    payload = json.loads(text)
                    path = tuple(payload["hyperedge_path"])
                    dist = payload["hypergraph_distance"]
                except (ValueError, KeyError, TypeError):
                    return False, None
            elif ans.op == "components":
                try:
                    return checker.check_components(s, json.loads(text)), None
                except ValueError:
                    return False, None
            else:
                return checker.check_stats(text, len(ref), len(ref.covers)), None
        ok, excess = checker.check_path(s, source, target, path, dist)
        return ok, (excess if path is not None else None)

    # ---- results

    @property
    def attempted(self) -> int:
        return len(self.answers)

    @property
    def failed(self) -> int:
        return sum(1 for ok, _ in self.verdicts if not ok)

    def path_excess(self) -> tuple[int, int]:
        """(longer than shortest, reachable) over path answers checked correct."""
        reachable = [excess for ok, excess in self.verdicts if ok and excess is not None]
        return sum(reachable), len(reachable)

    def _seconds(self, start: float, end: float, raw: bool) -> float:
        return end - start if raw else self.speed.scaled(start, end)

    def scaled(self, intervals, unit: float = 1.0, raw: bool = False) -> list[float]:
        """Durations of (start, end) pairs at the reference speed, or as
        measured with ``raw``, times ``unit``."""
        return [self._seconds(a, b, raw) * unit for a, b in intervals]

    def end_to_end(self, raw: bool = False) -> dict[str, tuple[float, int]]:
        """Metric -> (value, sample count), from untraced operations."""
        paths = self.scaled(self.samples["path_ms"], 1000.0, raw)
        comps = self.scaled(self.samples["components_ms"], 1000.0, raw)
        setups = [sum(self.scaled(parts, 1.0, raw)) for parts in self.setups]
        builds = self.scaled(self.samples["build_s"], 1.0, raw)
        cli_queries = self.scaled(self.samples["cli_query_s"], 1.0, raw)
        stream_s = sum(self.scaled(self.lib_segments, 1.0, raw))
        return {
            "setup_s": (_median(setups), len(setups)),
            "build_s": (_median(builds), len(builds)),
            "cli_query_s": (_median(cli_queries), len(cli_queries)),
            "path_p50_ms": (percentile(paths, 50), len(paths)),
            "path_p99_ms": (percentile(paths, 99), len(paths)),
            "components_p50_ms": (percentile(comps, 50), len(comps)),
            "queries_per_s": (self.lib_queries / stream_s if stream_s else 0.0,
                              self.lib_queries),
            "peak_rss_mb": (self.peak_rss_mb, 1),
        }

    def per_layer(self, raw: bool = False) -> dict[str, tuple[float, int]]:
        """Metric -> (value, sample count), from the spans of a traced run."""
        tr = self.tracer
        out: dict[str, tuple[float, int]] = {}
        seconds = {sp.id: self._seconds(sp.start, sp.end, raw) for sp in tr.spans}

        def spans_ms(metric, name, unit=1000.0):
            d = [seconds[sp.id] * unit for sp in tr.spans if sp.name == name]
            out[metric] = (_median(d), len(d))

        def counted(metric):
            v = tr.counts.get(metric, [])
            out[metric] = (_median(v), len(v))

        spans_ms("formats.parse_input_ms", "formats.parse_input")
        spans_ms("formats.serialize_ms", "formats.serialize")
        spans_ms("formats.parse_document_ms", "formats.parse_document")
        counted("formats.document_bytes")
        spans_ms("core.dedup_ms", "core.dedup")
        counted("core.dedup_removed")
        spans_ms("lattice.build_s", "lattice.build", unit=1.0)
        spans_ms("lattice.covers_ms", "lattice.covers")
        spans_ms("lattice.naive_build_s", "lattice.naive_build", unit=1.0)
        counted("lattice.nodes")
        counted("lattice.cover_pairs")
        counted("lattice.edges")
        nodes, edges = tr.counts.get("lattice.nodes", []), tr.counts.get("lattice.edges", [])
        ratios = [n / e for n, e in zip(nodes, edges) if e]
        out["lattice.nodes_per_edge"] = (_median(ratios), len(ratios))
        spans_ms("analytics.prune_ms", "analytics.prune")

        # Query self time: the query span minus the prune span just before
        # it at the same (lattice, s); the query prunes again internally.
        last_prune: dict[tuple, float] = {}
        self_ms: dict[str, list[float]] = defaultdict(list)
        for sp in tr.spans:
            key = (sp.attrs.get("instance"), sp.attrs.get("s"))
            if sp.name == "analytics.prune":
                last_prune[key] = seconds[sp.id]
            elif sp.name in ("analytics.path", "analytics.components") and key in last_prune:
                self_ms[sp.name].append((seconds[sp.id] - last_prune[key]) * 1000.0)
        for kind in ("path", "components"):
            v = self_ms[f"analytics.{kind}"]
            out[f"analytics.{kind}_self_ms"] = (_median(v), len(v))
        spans_ms("analytics.depth_ms", "analytics.depth")
        shares = tr.counts.get("analytics.retained_share", [])
        out["analytics.retained_share"] = (
            statistics.fmean(shares) if shares else 0.0, len(shares))

        lib_paths = [a for a in self.answers if a.op == "path" and a.via == "lib"]
        no_path = sum(1 for a in lib_paths if a.outcome is None)
        out["analytics.no_path_share"] = (no_path / len(lib_paths) if lib_paths else 0.0,
                                          len(lib_paths))
        reached = [a.outcome for a in lib_paths
                   if isinstance(a.outcome, tuple) and a.outcome[1] > 0]
        edge_hops = sum(o[1] for o in reached)
        out["analytics.hops_per_edge"] = (
            sum(o[2] for o in reached) / edge_hops if edge_hops else 0.0, len(reached))

        self_s = tr.self_seconds(seconds)
        cli_self = [self_s[sp.id] * 1000.0 for sp in tr.spans if sp.name.startswith("cli.")]
        out["cli.self_ms"] = (_median(cli_self), len(cli_self))
        collects = self.scaled(self.samples["gc_collect"], 1000.0, raw)
        out["gc.collect_ms"] = (_median(collects), len(collects))

        keys = {"path_p50_ms": "path_ms", "components_p50_ms": "components_ms"}
        for metric in OVERHEAD_TIMINGS:
            key = keys.get(metric, metric)
            b = _median(self.scaled(self.samples[key], 1.0, raw))
            t = _median(self.scaled(self.traced[key], 1.0, raw))
            out[f"tracing.overhead_share.{metric}"] = (
                (t - b) / b if b else 0.0, min(len(self.samples[key]), len(self.traced[key])))

        excess, reachable = self.path_excess()
        out["path_excess_rate"] = (excess / reachable if reachable else 0.0, reachable)
        return out


