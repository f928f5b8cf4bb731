"""Command line interface.

Commands: build, path, components, stats, gen, bench. Exit codes: 0 on
success, 1 for input that cannot be read or parsed and output that cannot
be written, 2 for verification mismatches, 3 when no s-path exists.
``build`` reads an edge list or an incidence CSV and refuses a lattice
document with exit 1; the query commands read all three. A command returns
its text and ``main`` writes it, so a command that fails writes nothing.
``oracle`` and ``generate`` are imported only by the commands that use
them (``build --verify``, ``gen`` and ``bench``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings

from . import analytics, formats, lattice
from .core import SizeLimitError, dedup_edges

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VERIFY = 2
EXIT_NO_PATH = 3


class CommandError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_input(path: str, fmt: str) -> tuple[str, str]:
    """The input's format, when ``fmt`` is ``auto`` taken from its suffix
    or else from a leading brace, and its text with its line ends as
    stored, so that a name may hold a bare ``\r`` as it may in
    ``parse_edge_list``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as f:
            text = f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(f"cannot read {path}: {exc}", EXIT_PARSE)
    if fmt == "auto":
        by_suffix = {
            ".json": "lattice", ".csv": "csv", ".edges": "edges", ".txt": "edges"
        }
        # The base name's suffix runs from its last dot, unless that dot is
        # its first or last character: "..csv" has one, ".csv" has none.
        name = os.path.basename(path)
        dot = name.rfind(".")
        suffix = name[dot:] if 0 < dot < len(name) - 1 else ""
        fmt = by_suffix.get(suffix.lower()) or (
            "lattice" if text.lstrip().startswith("{") else "edges"
        )
    return fmt, text


def _parse(path: str, fmt: str, text: str):
    """A lattice document, incidence CSV or (any other format) edge list."""
    parser = {
        "lattice": formats.parse_lattice_document,
        "csv": formats.parse_incidence_csv,
    }.get(fmt, formats.parse_edge_list)
    try:
        return parser(text)
    except formats.ParseError as exc:
        raise CommandError(f"{path}: {exc}", EXIT_PARSE)


def _load_lattice(path: str, fmt: str):
    fmt, text = _read_input(path, fmt)
    parsed = _parse(path, fmt, text)
    return parsed if fmt == "lattice" else lattice.build_lattice_vectorized(parsed)


def _emit(text: str, output: str | None):
    if output:
        try:
            with open(output, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            raise CommandError(f"cannot write {output}: {exc}", EXIT_PARSE)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> str:
    fmt, text = _read_input(args.input, args.format)
    if fmt == "lattice":
        raise CommandError(
            f"{args.input}: build reads an edge list or an incidence CSV, "
            "not a lattice document",
            EXIT_PARSE,
        )
    h = _parse(args.input, fmt, text)
    builder = (
        lattice.build_lattice_naive
        if args.algorithm == "naive"
        else lattice.build_lattice_vectorized
    )
    lat = builder(h)
    if args.verify:
        from . import oracle

        try:
            concepts = oracle.enumerate_concepts_oracle(lat.hypergraph)
            complex_sets = oracle.intersection_complex_bruteforce(lat.hypergraph)
        except SizeLimitError as exc:
            raise CommandError(f"verification refused: {exc}", EXIT_VERIFY)
        check = oracle.verify_isomorphism(lat, concepts)
        if not check:
            raise CommandError(
                f"verification failed: {check.detail}", EXIT_VERIFY
            )
        if set(lat.extent_bits) != complex_sets:
            raise CommandError(
                "verification failed: lattice extents differ from the "
                "brute-force intersection family",
                EXIT_VERIFY,
            )
    if args.output_format == "dot":
        return formats.lattice_to_dot(lat)
    return formats.serialize_lattice(lat)


def _cmd_path(args) -> str:
    if args.s < 1:
        raise CommandError("--s must be a positive integer", EXIT_PARSE)
    lat = _load_lattice(args.input, args.format)
    try:
        result = analytics.shortest_s_path(lat, args.s, args.source, args.target)
    except KeyError as exc:
        # str() of a KeyError is the repr of its message, quotes included
        raise CommandError(exc.args[0], EXIT_PARSE)
    except analytics.NoSPathError as exc:
        raise CommandError(str(exc), EXIT_NO_PATH)
    payload = {
        "s": args.s,
        "lattice_path": [lat.node_label(n) for n in result.lattice_path],
        "lattice_distance": result.lattice_distance,
        "hyperedge_path": list(result.hyperedge_path),
        "hypergraph_distance": result.hypergraph_distance,
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_components(args) -> str:
    if args.s < 1:
        raise CommandError("--s must be a positive integer", EXIT_PARSE)
    lat = _load_lattice(args.input, args.format)
    comps = analytics.s_connected_components(lat, args.s)
    return json.dumps([list(c) for c in comps]) + "\n"


def _cmd_stats(args) -> str:
    lat = _load_lattice(args.input, args.format)
    h = lat.hypergraph
    hists = analytics.depth_histograms(lat)
    lines = [
        f"# vertices,{h.n_vertices}",
        f"# edges,{h.n_edges}",
        f"# lattice_nodes,{len(lat)}",
        f"# cover_edges,{sum(map(len, lat.lower_covers))}",
        "histogram,distance,count",
    ]
    for name in ("min_to_top", "max_to_top", "min_to_bottom", "max_to_bottom"):
        for distance, count in getattr(hists, name).items():
            lines.append(f"{name},{distance},{count}")
    return "\n".join(lines) + "\n"


def _cmd_gen(args) -> str:
    from . import generate

    try:
        if args.model == "chung-lu":
            h = generate.chung_lu_hypergraph(
                args.vertices, args.edges, args.power_exponent, args.seed
            )
        else:
            h = generate.uniform_hypergraph(
                args.vertices, args.edges, seed=args.seed
            )
    except ValueError as exc:
        raise CommandError(str(exc), EXIT_PARSE)
    return formats.format_edge_list(h)


def _cmd_bench(args) -> str:
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        raise CommandError(f"invalid --sizes value {args.sizes!r}", EXIT_PARSE)
    if not sizes or any(n <= 0 for n in sizes) or args.repeats < 1:
        raise CommandError("sizes and repeats must be positive", EXIT_PARSE)
    from . import generate

    rows = ["n_vertices,n_edges,repeat,lattice_nodes,naive_seconds,vectorized_seconds"]
    for n_edges in sizes:
        n_vertices = 2 * n_edges
        for rep in range(args.repeats):
            h = generate.chung_lu_hypergraph(
                n_vertices, n_edges, seed=args.seed + rep
            )
            h, _ = dedup_edges(h)  # time the builders, not the dedup warning
            t0 = time.perf_counter()
            naive = lattice.build_lattice_naive(h)
            t1 = time.perf_counter()
            vect = lattice.build_lattice_vectorized(h)
            t2 = time.perf_counter()
            if naive != vect:
                raise CommandError(
                    f"builder disagreement at |E|={n_edges}: the lattices "
                    f"differ ({len(naive)} vs {len(vect)} nodes)",
                    EXIT_VERIFY,
                )
            rows.append(
                f"{n_vertices},{n_edges},{rep},{len(vect)},"
                f"{t1 - t0:.6f},{t2 - t1:.6f}"
            )
    return "\n".join(rows) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hglattice",
        description=(
            "Build the concept lattice of a hypergraph incidence matrix and "
            "answer s-path, s-connectivity, and depth queries on it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, lattice_ok: bool):
        choices = ["auto", "edges", "csv"] + (["lattice"] if lattice_ok else [])
        p.add_argument("input", help="input file")
        p.add_argument(
            "-f", "--format", choices=choices, default="auto",
            help="input format (default: by file extension)",
        )
        p.add_argument("-o", "--output", help="write to file instead of stdout")

    b = sub.add_parser("build", help="construct the concept lattice")
    add_io(b, lattice_ok=False)
    b.add_argument(
        "--output-format", choices=["json", "dot"], default="json",
        help="lattice document (json) or Hasse diagram (dot)",
    )
    b.add_argument(
        "--algorithm", choices=["naive", "vectorized"], default="vectorized",
    )
    b.add_argument(
        "--verify", action="store_true",
        help="cross-check against brute-force concept and intersection "
             "enumeration (small inputs only)",
    )
    b.set_defaults(func=_cmd_build)

    p = sub.add_parser("path", help="shortest s-path between two hyperedges")
    add_io(p, lattice_ok=True)
    p.add_argument("--s", type=int, required=True, help="minimum overlap")
    p.add_argument("--from", dest="source", required=True, metavar="EDGE")
    p.add_argument("--to", dest="target", required=True, metavar="EDGE")
    p.set_defaults(func=_cmd_path)

    c = sub.add_parser("components", help="s-connected components")
    add_io(c, lattice_ok=True)
    c.add_argument("--s", type=int, required=True, help="minimum overlap")
    c.set_defaults(func=_cmd_components)

    st = sub.add_parser("stats", help="lattice size and depth histograms")
    add_io(st, lattice_ok=True)
    st.set_defaults(func=_cmd_stats)

    g = sub.add_parser("gen", help="generate a synthetic edge-list file")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edges", type=int, required=True)
    g.add_argument("--model", choices=["chung-lu", "uniform"], default="chung-lu")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--power-exponent", type=float, default=2.5)
    g.add_argument("-o", "--output", help="write to file instead of stdout")
    g.set_defaults(func=_cmd_gen)

    be = sub.add_parser("bench", help="time the two lattice builders")
    be.add_argument(
        "--sizes", default="20,40,80",
        help="comma-separated edge counts; vertices = 2x edges",
    )
    be.add_argument("--repeats", type=int, default=1)
    be.add_argument("--seed", type=int, default=7)
    be.add_argument("-o", "--output", help="write to file instead of stdout")
    be.set_defaults(func=_cmd_bench)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    """Print a warning as one ``warning: ...`` line on stderr, without the
    source location that Python's default format adds."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Only the display changes: the warning filters in force still apply.
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            _emit(args.func(args), args.output)
        except CommandError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return exc.code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
