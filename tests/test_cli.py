import json
import statistics
import warnings

import pytest

from conftest import SEVEN_GROUPS_CSV
from hglattice import ConceptLattice, lattice, parse_edge_list
from hglattice.cli import main


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
        assert "row 2" in err

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

    def test_unwritable_output_exit_1(self, capsys, groups_csv, tmp_path):
        target = tmp_path / "missing" / "lat.json"
        code, out, err = run(capsys, "build", groups_csv, "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert err.count("\n") == 1

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
        code, _, err = run(
            capsys, "gen", "--vertices", "5", "--edges", "5",
            "--power-exponent", "0.5",
        )
        assert code == 1
        assert "exponent" in err

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
            offsets, uppers, neighbours = lat.cover_adjacency
            lower = [
                list(neighbours[offsets[i]:uppers[i]]) for i in range(len(lat))
            ]
            next(row for row in lower if row).pop()
            return ConceptLattice(
                lat.hypergraph, lat.nodes, lower, lat.edge_anchors,
                lat.edge_aliases,
            )

        monkeypatch.setattr(lattice, "build_lattice_vectorized", one_cover_short)
        code, _, err = run(capsys, "bench", "--sizes", "10")
        assert code == 2
        assert "disagreement" in err

    def test_bad_sizes(self, capsys):
        code, _, err = run(capsys, "bench", "--sizes", "ten")
        assert code == 1
