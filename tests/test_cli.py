import hashlib
import json
import statistics
import warnings

import pytest

from conftest import SEVEN_GROUPS_CSV
from hglattice import (
    ConceptLattice,
    format_edge_list,
    formats,
    from_edge_list,
    lattice,
    oracle,
    parse_edge_list,
    uniform_hypergraph,
)
from hglattice.cli import _read_input, main


@pytest.fixture
def groups_csv(tmp_path):
    path = tmp_path / "seven_groups.csv"
    path.write_text(SEVEN_GROUPS_CSV)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_build_verify_seven_groups(self, capsys, groups_csv):
        code, out, err = run(capsys, "build", groups_csv, "--verify")
        assert code == 0, err
        doc = json.loads(out)
        assert len(doc["nodes"]) == 13
        assert doc["hypergraph"]["n_edges"] == 7

    def test_build_empty(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        code, out, _ = run(capsys, "build", str(path), "--verify")
        assert code == 0
        assert len(json.loads(out)["nodes"]) == 1

    def test_build_generated_vectorized_verify(self, capsys, tmp_path):
        gen_path = tmp_path / "random_seed42.edges"
        code, _, _ = run(
            capsys, "gen", "--vertices", "9", "--edges", "8",
            "--model", "uniform", "--seed", "42", "-o", str(gen_path),
        )
        assert code == 0
        code, out, err = run(
            capsys, "build", str(gen_path),
            "--algorithm", "vectorized", "--verify",
        )
        assert code == 0, err
        json.loads(out)

    def test_build_dot_output(self, capsys, groups_csv):
        code, out, _ = run(
            capsys, "build", groups_csv, "--output-format", "dot"
        )
        assert code == 0
        assert out.startswith("digraph lattice {")
        assert out.count("->") == 19

    def test_build_naive_and_vectorized_agree(self, capsys, groups_csv):
        _, out_n, _ = run(capsys, "build", groups_csv, "--algorithm", "naive")
        _, out_v, _ = run(capsys, "build", groups_csv, "--algorithm", "vectorized")
        assert out_n == out_v

    def test_parse_error_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(",e1\na,7\n")
        code, _, err = run(capsys, "build", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(capsys, "build", "/nonexistent/input.csv")
        assert code == 1

    def test_non_utf8_input_exit_1(self, capsys, tmp_path):
        path = tmp_path / "latin1.edges"
        path.write_bytes("e1: caf\u00e9\n".encode("latin-1"))
        code, out, err = run(capsys, "build", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["build", "GROUPS"],
        ["path", "GROUPS", "--s", "1", "--from", "3", "--to", "7"],
        ["components", "GROUPS", "--s", "1"],
        ["stats", "GROUPS"],
        ["gen", "--vertices", "4", "--edges", "3"],
        ["bench", "--sizes", "3"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_exit_1(self, capsys, groups_csv, tmp_path, argv):
        # main writes every command's text, so each fails alike
        target = tmp_path / "missing" / "out.txt"
        argv = [groups_csv if a == "GROUPS" else a for a in argv]
        code, out, err = run(capsys, *argv, "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", ["lat.json", "lat.out"])
    def test_lattice_document_is_refused_unparsed(
        self, capsys, groups_csv, tmp_path, monkeypatch, name
    ):
        # by its suffix or, under an unknown one, by its leading brace
        doc_path = tmp_path / name
        code, _, _ = run(capsys, "build", groups_csv, "-o", str(doc_path))
        assert code == 0

        def never(text):
            raise AssertionError("build parsed the lattice document")

        monkeypatch.setattr(formats, "parse_lattice_document", never)
        target = tmp_path / "out.json"
        code, out, err = run(capsys, "build", str(doc_path), "-o", str(target))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {doc_path}: build reads an edge list or an incidence "
            "CSV, not a lattice document\n"
        )
        assert not target.exists()

    def test_lattice_document_as_chosen_edge_list_exit_1(
        self, capsys, groups_csv, tmp_path
    ):
        # -f edges is the user's choice, so the edge-list parser says why
        doc_path = tmp_path / "lat.json"
        code, _, _ = run(capsys, "build", groups_csv, "-o", str(doc_path))
        assert code == 0
        code, out, err = run(capsys, "build", "-f", "edges", str(doc_path))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {doc_path}: line 1: expected 'edge_name: v1, v2, ...', "
            "got '{'\n"
        )

    @pytest.mark.parametrize("s, to", [("0", "7"), ("1", "99")])
    def test_failing_command_writes_no_output_file(
        self, capsys, groups_csv, tmp_path, s, to
    ):
        # build on a document is covered with the refusal above
        target = tmp_path / "out.json"
        code, out, err = run(
            capsys, "path", groups_csv, "--s", s, "--from", "3", "--to", to,
            "-o", str(target),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert not target.exists()

    def test_duplicate_columns_warn_on_one_line(self, capsys, tmp_path):
        path = tmp_path / "dup.edges"
        path.write_text("x: a, b\ny: a, b\nz: b, c\n")
        code, out, err = run(capsys, "build", str(path))
        assert code == 0
        json.loads(out)
        assert err == (
            "warning: hypergraph has duplicate edge columns; deduplicating "
            "before lattice construction\n"
        )
        # the library still warns, so a caller's filter silences it
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="hypergraph has duplicate")
            code, _, err = run(capsys, "build", str(path))
        assert code == 0
        assert err == ""

    def test_verify_refused_when_too_large(self, capsys, tmp_path):
        lines = "\n".join(f"e{j}: v{j}" for j in range(25))
        path = tmp_path / "big.edges"
        path.write_text(lines + "\n")
        code, _, err = run(capsys, "build", str(path), "--verify")
        assert code == 2
        assert "20" in err


class TestPath:
    def test_seven_groups_s1(self, capsys, groups_csv):
        code, out, _ = run(
            capsys, "path", groups_csv, "--s", "1", "--from", "3", "--to", "7"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hypergraph_distance"] == 4
        assert doc["hyperedge_path"] == ["3", "2", "1", "5", "7"]
        assert doc["lattice_distance"] == 7
        assert len(doc["lattice_path"]) == 8

    def test_seven_groups_s2_no_path(self, capsys, groups_csv):
        code, _, err = run(
            capsys, "path", groups_csv, "--s", "2", "--from", "3", "--to", "7"
        )
        assert code == 3
        assert "no 2-path" in err

    def test_empty_edge_at_s1_is_pruned(self, capsys, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("e1:\ne2: a, b\n")
        code, out, err = run(
            capsys, "path", str(path), "--s", "1", "--from", "e1", "--to", "e2"
        )
        assert code == 3
        assert out == ""
        assert err == (
            "error: no 1-path: source edge 'e1' has fewer than 1 vertex "
            "and is pruned\n"
        )

    def test_self_path(self, capsys, groups_csv):
        code, out, _ = run(
            capsys, "path", groups_csv, "--s", "1", "--from", "3", "--to", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["hypergraph_distance"] == 0
        assert doc["hyperedge_path"] == ["3"]

    def test_path_on_lattice_document(self, capsys, groups_csv, tmp_path):
        doc_path = tmp_path / "lat.json"
        code, _, _ = run(capsys, "build", groups_csv, "-o", str(doc_path))
        assert code == 0
        code, out, _ = run(
            capsys, "path", str(doc_path), "--s", "2", "--from", "3", "--to", "1"
        )
        assert code == 0
        assert json.loads(out)["hyperedge_path"] == ["3", "2", "1"]

    def test_unknown_suffix_is_sniffed_by_content(self, capsys, groups_csv, tmp_path):
        # A document by its leading brace, anything else as an edge list.
        doc_path = tmp_path / "lat.out"
        edges_path = tmp_path / "groups.dat"
        code, _, _ = run(capsys, "build", groups_csv, "-o", str(doc_path))
        assert code == 0
        edges_path.write_text("1: a, b\n2: b, c\n3: c, d\n")
        for path in (doc_path, edges_path):
            code, out, err = run(
                capsys, "path", str(path), "--s", "1", "--from", "3", "--to", "1"
            )
            assert code == 0, err
            assert json.loads(out)["hyperedge_path"] == ["3", "2", "1"]

    @pytest.mark.parametrize("suffix, text, fmt", [
        # each text is one the leading-brace fallback would misread
        (".json", "e1: a\n", "lattice"),
        (".csv", "{\n", "csv"),
        (".edges", "{\n", "edges"),
        (".txt", "{\n", "edges"),
    ])
    def test_suffix_is_case_blind(self, tmp_path, suffix, text, fmt):
        for name in ("in" + suffix, "in" + suffix.upper()):
            path = tmp_path / name
            path.write_text(text)
            assert _read_input(str(path), "auto") == (fmt, text)

    @pytest.mark.parametrize("name, code", [
        # The suffix is the base name's text from its last dot, unless that
        # dot is the name's first or last character.
        ("..csv", 0),
        (".csv", 1),
        (".CSV", 1),
        ("in.csv.", 1),
        ("d.csv/in", 1),
    ])
    def test_suffix_rule(self, capsys, tmp_path, name, code):
        # Read as CSV the file answers; as an edge list its header fails.
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(SEVEN_GROUPS_CSV)
        got, out, err = run(capsys, "components", str(path), "--s", "2")
        assert got == code, err
        if code == 0:
            assert json.loads(out) == [["1", "2", "3", "4"], ["5", "6"]]
        else:
            assert err.startswith(f"error: {path}: line 1: expected 'edge_name:")

    def test_txt_suffix_beats_a_leading_brace(self, capsys, tmp_path):
        path = tmp_path / "braced.txt"
        path.write_text("{1: a, b\n2: b, c\n")
        code, out, err = run(capsys, "components", str(path), "--s", "1")
        assert code == 0, err
        assert json.loads(out) == [["{1", "2"]]

    def test_unknown_edge_exit_1(self, capsys, groups_csv):
        code, _, err = run(
            capsys, "path", groups_csv, "--s", "1", "--from", "3", "--to", "99"
        )
        assert code == 1
        assert err == "error: unknown edge name '99'\n"

    def test_invalid_s(self, capsys, groups_csv):
        code, _, err = run(
            capsys, "path", groups_csv, "--s", "0", "--from", "3", "--to", "7"
        )
        assert code == 1

    @pytest.mark.parametrize("s, source, target, code, err", [
        ("2", "7", "3", 3,
         "no 2-path: source edge '7' has fewer than 2 vertices and is pruned"),
        ("2", "3", "7", 3,
         "no 2-path: target edge '7' has fewer than 2 vertices and is pruned"),
        ("2", "3", "5", 3,
         "no 2-path: edges '3' and '5' lie in different 2-connected components"),
        ("1", "98", "3", 1, "unknown edge name '98'"),
        ("1", "3", "99", 1, "unknown edge name '99'"),
        ("0", "3", "5", 1, "--s must be a positive integer"),
        # two faults: the first check in the order above answers
        ("3", "3", "7", 3,
         "no 3-path: source edge '3' has fewer than 3 vertices and is pruned"),
        ("2", "7", "99", 1, "unknown edge name '99'"),
        ("1", "98", "99", 1, "unknown edge name '98'"),
        ("0", "98", "99", 1, "--s must be a positive integer"),
    ])
    def test_no_answer(self, capsys, groups_csv, s, source, target, code, err):
        # 7 = {g}, 3 = {a, d}; at s = 2 the components are 1-4 and 5-6
        got = run(capsys, "path", groups_csv, "--s", s, "--from", source, "--to", target)
        assert got == (code, "", f"error: {err}\n")


class TestComponents:
    def test_s2(self, capsys, groups_csv):
        code, out, _ = run(capsys, "components", groups_csv, "--s", "2")
        assert code == 0
        assert json.loads(out) == [["1", "2", "3", "4"], ["5", "6"]]

    def test_s1(self, capsys, groups_csv):
        code, out, _ = run(capsys, "components", groups_csv, "--s", "1")
        assert json.loads(out) == [["1", "2", "3", "4", "5", "6", "7"]]

    def test_s99(self, capsys, groups_csv):
        code, out, _ = run(capsys, "components", groups_csv, "--s", "99")
        assert code == 0
        assert json.loads(out) == []

    def test_invalid_s(self, capsys, groups_csv):
        code, out, err = run(capsys, "components", groups_csv, "--s", "0")
        assert code == 1
        assert out == ""
        assert err == "error: --s must be a positive integer\n"

    def test_byte_order_mark_is_ignored(self, capsys, tmp_path):
        path = tmp_path / "bom.edges"
        path.write_bytes(b"\xef\xbb\xbfe1: a, b\ne2: b, c\n")
        code, out, _ = run(capsys, "components", str(path), "--s", "1")
        assert code == 0
        assert json.loads(out) == [["e1", "e2"]]
        code, _, err = run(
            capsys, "path", str(path), "--s", "1", "--from", "e1", "--to", "e2"
        )
        assert code == 0, err


class TestLineEnds:
    """Inputs are read with their line ends as stored: an edge list ends
    lines at \\n only, as ``parse_edge_list`` does, and a CSV file keeps
    the rows that universal newlines give it."""

    def test_edge_list_name_with_bare_carriage_return(self, capsys, tmp_path):
        h = from_edge_list([("e1", ["a\rb", "c"]), ("e2", ["a\rb"])])
        text = format_edge_list(h)
        assert text == "e1: a\rb, c\ne2: a\rb\n"
        assert parse_edge_list(text) == h
        path = tmp_path / "cr.edges"
        path.write_bytes(text.encode())
        code, out, err = run(capsys, "components", str(path), "--s", "1")
        assert code == 0, err
        assert json.loads(out) == [["e1", "e2"]]
        code, out, err = run(capsys, "build", str(path))
        assert code == 0, err
        assert json.loads(out)["hypergraph"]["vertices"] == ["a\rb", "c"]

    def test_edge_list_with_crlf(self, capsys, tmp_path):
        path = tmp_path / "crlf.edges"
        path.write_bytes(b"e1: a, b\r\ne2: b, c\r\n")
        code, out, err = run(capsys, "build", str(path))
        assert code == 0, err
        hg = json.loads(out)["hypergraph"]
        assert (hg["vertices"], hg["edges"]) == (["a", "b", "c"], ["e1", "e2"])

    @pytest.mark.parametrize(
        "data, vertices",
        [
            (b',e1,e2\r\n"x\r\ny",1,0\r\nz,1,1\r\n', ["x\ny", "z"]),
            (b',e1,e2\n"x\ny",1,0\nz,1,1\n', ["x\ny", "z"]),
            (b",e1,e2\rv1,1,0\rv2,1,1\r", ["v1", "v2"]),
        ],
        ids=["crlf-quoted-break", "lf-quoted-break", "bare-cr"],
    )
    def test_csv_rows(self, capsys, tmp_path, data, vertices):
        path = tmp_path / "in.csv"
        path.write_bytes(data)
        code, out, err = run(capsys, "build", str(path))
        assert code == 0, err
        assert json.loads(out)["hypergraph"]["vertices"] == vertices

    def test_csv_crlf_error_names_the_physical_line(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b',e1\r\nv1,1\r\n"v\r\n2",x\r\n')
        code, _, err = run(capsys, "build", str(path))
        assert code == 1
        assert err == (
            f"error: {path}: line 4, column 2: expected 0 or 1, got 'x'\n"
        )


class TestStats:
    def test_seven_groups(self, capsys, groups_csv):
        code, out, _ = run(capsys, "stats", groups_csv)
        assert code == 0
        lines = out.splitlines()
        assert "# lattice_nodes,13" in lines
        assert "histogram,distance,count" in lines
        rows = [l for l in lines if l.startswith("min_to_top,")]
        assert rows == [
            "min_to_top,0,1", "min_to_top,1,3", "min_to_top,2,5", "min_to_top,3,4",
        ]

    def test_single_node(self, capsys, tmp_path):
        path = tmp_path / "empty.edges"
        path.write_text("")
        code, out, _ = run(capsys, "stats", str(path))
        assert code == 0
        for name in ("min_to_top", "max_to_top", "min_to_bottom", "max_to_bottom"):
            assert f"{name},0,1" in out

    def test_chain_of_three(self, capsys, tmp_path):
        path = tmp_path / "chain.edges"
        path.write_text("1: a\n2: a, b\n3: a, b, c\n")
        code, out, _ = run(capsys, "stats", str(path))
        rows = [l for l in out.splitlines() if l.startswith("max_to_bottom,")]
        assert rows == [
            "max_to_bottom,0,1", "max_to_bottom,1,1", "max_to_bottom,2,1",
        ]

    def test_document_without_hypergraph_exit_1(self, capsys, groups_csv, tmp_path):
        doc_path = tmp_path / "lat.json"
        code, _, _ = run(capsys, "build", groups_csv, "-o", str(doc_path))
        assert code == 0
        doc = json.loads(doc_path.read_text())
        del doc["hypergraph"]
        doc_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "stats", str(doc_path))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "'hypergraph'" in err

    def test_non_utf8_document_exit_1(self, capsys, tmp_path):
        path = tmp_path / "lat.json"
        path.write_bytes(b'{"format": "hg-lattice/1", "\xff": 0}\n')
        code, out, err = run(capsys, "stats", str(path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: ")

    @pytest.mark.filterwarnings("ignore:hypergraph has duplicate")
    def test_deterministic_on_generated_input(self, capsys, tmp_path):
        gen_path = tmp_path / "cl.edges"
        run(capsys, "gen", "--vertices", "80", "--edges", "50",
            "--model", "chung-lu", "--seed", "3", "-o", str(gen_path))
        code1, out1, _ = run(capsys, "stats", str(gen_path))
        code2, out2, _ = run(capsys, "stats", str(gen_path))
        assert code1 == code2 == 0
        assert out1 == out2


class TestGen:
    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--vertices", "7", "--edges", "7",
                         "--model", "uniform", "--seed", "1")
        _, out2, _ = run(capsys, "gen", "--vertices", "7", "--edges", "7",
                         "--model", "uniform", "--seed", "1")
        assert out1 == out2

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "gen", "--vertices", "0", "--edges", "0")
        assert code == 0
        assert out == ""

    def test_invalid_exponent(self, capsys):
        # 1.0001 passes the range check, but its weights overflow a float
        for exponent in ("0.5", "nan", "1.0001"):
            code, _, err = run(
                capsys, "gen", "--vertices", "5", "--edges", "5",
                "--power-exponent", exponent,
            )
            assert code == 1
            assert "exponent" in err

    @pytest.mark.parametrize("model", ["chung-lu", "uniform"])
    @pytest.mark.parametrize("sizes", [("-1", "3"), ("3", "-1")])
    def test_negative_sizes_exit_1(self, capsys, model, sizes):
        code, out, err = run(
            capsys, "gen", "--vertices", sizes[0], "--edges", sizes[1],
            "--model", model,
        )
        assert (code, out) == (1, "")
        assert err == "error: sizes must be non-negative\n"

    def test_uniform_probability_outside_unit_interval(self):
        # The CLI always uses the default p, so this guard is library-only.
        for p in (-0.1, 1.5, float("nan")):
            with pytest.raises(ValueError, match="^incidence probability must lie in"):
                uniform_hypergraph(3, 3, p=p)

    @pytest.mark.parametrize("argv, digest", [
        (("--vertices", "200", "--edges", "100", "--seed", "1"),
         "a53e7e371e6d8bd8de64072f4900ea6b250dd21cd3d37da38809e28c7a0ef9cc"),
        (("--vertices", "1000", "--edges", "500", "--power-exponent", "2.2",
          "--seed", "42"),
         "a747ff79590cf1c9c4d3533936157e07849a034df4d03f62c05144fe5c780e2b"),
    ])
    def test_chung_lu_output_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "gen", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_chung_lu_degree_tail_is_heavy(self, capsys):
        _, out, _ = run(capsys, "gen", "--vertices", "400", "--edges", "200",
                        "--model", "chung-lu", "--seed", "11",
                        "--power-exponent", "2.5")
        h = parse_edge_list(out)
        degree = {v: 0 for v in h.vertex_names}
        for j in range(h.n_edges):
            for name in h.vertex_names_of(h.edge_column(j)):
                degree[name] += 1
        degs = sorted(degree.values())
        median = statistics.median(degs)
        p99 = degs[int(0.99 * len(degs))]
        assert median <= 2
        assert p99 >= 4 * max(median, 1)
        assert degs[-1] >= 20


class TestPinnedDigests:
    """The SHA-256 of each file and answer that the console-script CI job
    pins, reproduced through ``main`` in this process."""

    def _digests(self, capsys, tmp_path, gen, queries):
        edges, doc, dot = (tmp_path / name for name in ("in.edges", "v.json", "v.dot"))
        writes = {
            "gen": (edges, ("gen", *gen)),
            "build": (doc, ("build", str(edges))),
            "dot": (dot, ("build", str(edges), "--output-format", "dot")),
        }
        digests = {}
        for label, (path, argv) in writes.items():
            code, out, err = run(capsys, *argv, "-o", str(path))
            assert code == 0, err
            assert out == ""
            digests[label] = hashlib.sha256(path.read_bytes()).hexdigest()
        for label, (command, *options) in queries.items():
            code, out, err = run(capsys, command, str(doc), *options)
            assert code == 0, err
            digests[label] = hashlib.sha256(out.encode()).hexdigest()
        return digests

    def test_dense_60x40(self, capsys, tmp_path):
        got = self._digests(
            capsys, tmp_path,
            ("--vertices", "60", "--edges", "40", "--model", "uniform", "--seed", "0"),
            {
                "stats": ("stats",),
                "components": ("components", "--s", "3"),
                "path": ("path", "--s", "2", "--from", "e1", "--to", "e2"),
            },
        )
        assert got == {
            "gen": "0b2ae4f868e8222d1297ab8d009251de1facf62e5d59d5cb933835c4e901c653",
            "build": "388263a1eed1431cc592473560059183a83c76af3821370bed37d008d1f588fb",
            "dot": "a1e401ca1d39837a73ae988d45993d510333392c512c64f5da47d33b97acd3e5",
            "stats": "8981d93a50ebf82a8cbdcd22d1e873a69c51c14769acfd08aee87c93248a07af",
            "components": "d7f5173a9e72cc2a09e5fcb593fdc286a9567d88a9e0e67886199c25c8fcde0b",
            "path": "f380696bb2fc538efd355fd073e82b1268d707af70940202afb71593c55f8fdf",
        }

    def test_chung_lu_2000x1000(self, capsys, tmp_path):
        got = self._digests(
            capsys, tmp_path,
            ("--vertices", "2000", "--edges", "1000", "--power-exponent", "2.2",
             "--seed", "42"),
            {
                "stats": ("stats",),
                "path": ("path", "--s", "1", "--from", "e553", "--to", "e836"),
            },
        )
        assert got == {
            "gen": "aadfdb577e196cda3661af49030bc9531c370f4edaa49a6e4997c1c2225cdf5f",
            "build": "5bd41513e94d815c5463f26c6067274c34d1f8f9f778408f4c474256a5fc7f5f",
            "dot": "74309953e1c3843a5f75b30241e557bbdca9532f7223a45686449bb5766d3651",
            "stats": "d5c819db6b1b096affb54dea1d6a66ff242a52590b24d7fc8097be8964203c3c",
            "path": "3bab93c33c878a6f996b62e2fc3a69b03afc91a03a946fe784c9c5de901f90fd",
        }


class TestBench:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys, "bench", "--sizes", "8,12", "--repeats", "2", "--seed", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "n_vertices,n_edges,repeat,lattice_nodes,naive_seconds,"
            "vectorized_seconds"
        )
        assert len(lines) == 1 + 2 * 2
        sizes_seen = {tuple(l.split(",")[:2]) for l in lines[1:]}
        assert sizes_seen == {("16", "8"), ("24", "12")}

    def test_lattice_sizes_deterministic(self, capsys):
        _, out1, _ = run(capsys, "bench", "--sizes", "10", "--repeats", "1")
        _, out2, _ = run(capsys, "bench", "--sizes", "10", "--repeats", "1")
        col1 = [l.split(",")[3] for l in out1.splitlines()[1:]]
        col2 = [l.split(",")[3] for l in out2.splitlines()[1:]]
        assert col1 == col2

    def test_builder_disagreement_exit_2(self, capsys, monkeypatch):
        # Same node count, one cover missing: only a whole-lattice
        # comparison tells the builders apart.
        real = lattice.build_lattice_vectorized

        def one_cover_short(h):
            lat = real(h)
            extents = lat.extent_bits
            found = {
                extents[i]: [extents[j] for j in lat.lower_covers[i]]
                for i in range(len(lat))
            }
            next(lower for lower in found.values() if lower).pop()
            return ConceptLattice(lat.hypergraph, found, lat.edge_aliases)

        monkeypatch.setattr(lattice, "build_lattice_vectorized", one_cover_short)
        code, _, err = run(capsys, "bench", "--sizes", "10")
        assert code == 2
        assert "disagreement" in err

    def test_build_verify_implied_cover_exit_2(self, capsys, groups_csv, monkeypatch):
        # One cover too many, bottom below top: every extent and intent is
        # right and the order they generate too; only the covers are wrong.
        real = lattice.build_lattice_vectorized

        def implied_cover(h):
            lat = real(h)
            extents = lat.extent_bits
            found = {
                extents[i]: [extents[j] for j in lat.lower_covers[i]]
                for i in range(len(lat))
            }
            found[extents[lat.top_index]].append(extents[lat.bottom_index])
            return ConceptLattice(lat.hypergraph, found, lat.edge_aliases)

        monkeypatch.setattr(lattice, "build_lattice_vectorized", implied_cover)
        code, out, err = run(capsys, "build", groups_csv, "--verify")
        assert code == 2
        assert out == ""
        assert err == (
            "error: verification failed: cover (0, 12) between extents [] "
            "and [0, 1, 2, 3, 4, 5, 6] is not in the transitive reduction "
            "of extent containment\n"
        )

    def test_build_verify_family_short_exit_2(self, capsys, groups_csv, monkeypatch):
        # The concepts agree with the lattice; only the intersection family
        # lacks one of its extents.
        real = oracle.intersection_complex_bruteforce

        def one_short(h):
            family = real(h)
            return family - {next(iter(family))}

        monkeypatch.setattr(oracle, "intersection_complex_bruteforce", one_short)
        code, out, err = run(capsys, "build", groups_csv, "--verify")
        assert code == 2
        assert out == ""
        assert err == (
            "error: verification failed: lattice extents differ from the "
            "brute-force intersection family\n"
        )

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "ten")
        assert code == 1

    @pytest.mark.parametrize("argv", [("--sizes", "0"), ("--repeats", "0")])
    def test_non_positive_sizes_and_repeats_exit_1(self, capsys, argv):
        code, out, err = run(capsys, "bench", *argv)
        assert (code, out) == (1, "")
        assert err == "error: sizes and repeats must be positive\n"
