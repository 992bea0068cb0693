import subprocess
import sys
import time
from pathlib import Path

import pytest

from mistkernel import Graph, InvariantError, is_connected
from mistkernel.cli import EXIT_INTERNAL, EXIT_RESOURCE, main
from mistkernel.fileformats import parse_edge_list, serialize_edge_list


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(serialize_edge_list(g))
    return str(p)


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(m):
    return Graph(m + 1, [(0, i) for i in range(1, m + 1)])


def star_with_tail():
    # hub 0 with leaves 1..9 plus a pendant 10 hanging off leaf 1
    return Graph(11, [(0, i) for i in range(1, 10)] + [(1, 10)])


class TestKernelizeCmd:
    def test_solved_path(self, tmp_path, capsys):
        f = write_graph(tmp_path, "p10.gr", path_graph(10))
        code, out, _ = run_cli(
            ["kernelize", "--in", f, "--k", "8",
             "--out-graph", str(tmp_path / "k.gr"),
             "--out-trace", str(tmp_path / "t.json")], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "SOLVED 8"
        assert len(lines) == 1 + 9

    def test_kernel_identical_for_small_star(self, tmp_path, capsys):
        f = write_graph(tmp_path, "s.gr", star_graph(5))
        out_graph = tmp_path / "k.gr"
        out_trace = tmp_path / "t.json"
        code, out, _ = run_cli(
            ["kernelize", "--in", f, "--k", "2",
             "--out-graph", str(out_graph), "--out-trace", str(out_trace)],
            capsys)
        assert code == 0
        assert out_graph.read_text() == serialize_edge_list(star_graph(5))
        assert '"reductions": []' in out_trace.read_text()

    def test_malformed_header(self, tmp_path, capsys):
        f = tmp_path / "bad.gr"
        f.write_text("pp 3 1\ne 0 1\n")
        code, _, err = run_cli(["kernelize", "--in", str(f), "--k", "1"], capsys)
        assert code == 2

    def test_disconnected_precondition(self, tmp_path, capsys):
        f = write_graph(tmp_path, "d.gr", Graph(4, [(0, 1), (2, 3)]))
        code, _, _ = run_cli(["kernelize", "--in", f, "--k", "1"], capsys)
        assert code == 3


class TestEdgeLineErrors:
    @pytest.mark.parametrize("command", ["kernelize", "solve"])
    @pytest.mark.parametrize("text", [
        "p 3 1\ne 0 3\n", "p 3 1\ne -1 2\n", "p 3 2\ne 0 1\ne 0 1\n", "p 3 1\ne 2 2\n",
    ])
    def test_format_error(self, tmp_path, capsys, command, text):
        f = tmp_path / "bad.gr"
        f.write_text(text)
        code, out, err = run_cli([command, "--in", str(f), "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("format error:") and "Traceback" not in err


class TestHugeHeader:
    @pytest.mark.parametrize("command", ["kernelize", "solve"])
    def test_isolated_vertices_refused_before_allocation(self, tmp_path, capsys, command):
        # 2000000 vertices and no edge: 12 bytes that must not cost memory
        # or time in proportion to n
        f = tmp_path / "huge.gr"
        f.write_text("p 2000000 0\n")
        t0 = time.process_time()
        code, out, err = run_cli([command, "--in", str(f), "--k", "1"], capsys)
        assert time.process_time() - t0 < 0.1
        assert code == 3
        assert out == ""
        assert err == "precondition error: graph must be connected\n"


class TestSolveCmd:
    def test_cycle_yes(self, tmp_path, capsys):
        g = Graph(8, [(i, (i + 1) % 8) for i in range(8)])
        f = write_graph(tmp_path, "c8.gr", g)
        code, out, _ = run_cli(["solve", "--in", f, "--k", "6"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "YES"

    def test_star_no(self, tmp_path, capsys):
        f = write_graph(tmp_path, "s.gr", star_graph(5))
        code, out, _ = run_cli(["solve", "--in", f, "--k", "2"], capsys)
        assert code == 1
        assert out.strip() == "NO"

    def test_k_above_bound_no(self, tmp_path, capsys):
        f = write_graph(tmp_path, "p6.gr", path_graph(6))
        code, out, _ = run_cli(["solve", "--in", f, "--k", "5"], capsys)
        assert code == 1
        assert out.strip() == "NO"


class TestVerifyCmd:
    def _kernelized(self, tmp_path, capsys, g, k):
        f = write_graph(tmp_path, "g.gr", g)
        kg = str(tmp_path / "k.gr")
        tr = str(tmp_path / "t.json")
        code, _, _ = run_cli(
            ["kernelize", "--in", f, "--k", str(k),
             "--out-graph", kg, "--out-trace", tr], capsys)
        assert code == 0
        return f, tr, kg

    def test_round_trip_ok(self, tmp_path, capsys):
        f, tr, kg = self._kernelized(tmp_path, capsys, star_with_tail(), 3)
        code, out, _ = run_cli(
            ["verify", "--graph", f, "--trace", tr, "--kernel", kg], capsys)
        assert code == 0
        assert out.strip() == "OK"

    def test_tampered_trace_fails(self, tmp_path, capsys):
        import json

        f, tr, kg = self._kernelized(tmp_path, capsys, star_with_tail(), 3)
        doc = json.loads(Path(tr).read_text())
        rec = doc["reductions"][0]
        rec["neighbor_map"] = rec["neighbor_map"] + [0] if rec["neighbor_map"] else [0]
        Path(tr).write_text(json.dumps(doc))
        code, out, _ = run_cli(
            ["verify", "--graph", f, "--trace", tr, "--kernel", kg], capsys)
        assert code == 1
        assert out.startswith("FAIL")

    def test_fuzzed_traces_fail_cleanly(self, tmp_path, capsys):
        import copy
        import json
        import random

        # two 8-leaf stars with adjacent centers reduce twice at k = 3
        g = Graph(18, [(0, 1)] + [(0, v) for v in range(2, 10)]
                  + [(1, v) for v in range(10, 18)])
        f, tr, kg = self._kernelized(tmp_path, capsys, g, 3)
        doc = json.loads(Path(tr).read_text())
        assert len(doc["reductions"]) == 2
        values = [None, True, -1, 0, 1, 17, 18, 10**9, 1.5, "x", [], [[]],
                  [-1], [0, 1], [[0, 1, 2]], {}, {"s": 0}]
        rng = random.Random(29)

        def paths(node, path=()):
            children = node.items() if isinstance(node, dict) else (
                enumerate(node) if isinstance(node, list) else ())
            for key, child in children:
                yield path + (key,)
                yield from paths(child, path + (key,))

        def mutations():
            # every value on the header and record fields, a sample of them
            # on the ids and tree edges inside
            for path in paths(doc):
                yield "delete", path, None
                for value in values if len(path) <= 3 else rng.sample(values, 2):
                    yield "set", path, value
            yield "reverse", ("reductions",), None

        checked = 0
        for kind, path, value in mutations():
            bad = copy.deepcopy(doc)
            parent = bad
            for key in path[:-1]:
                parent = parent[key]
            if kind == "set":
                parent[path[-1]] = value
            elif kind == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]].reverse()
            if bad == doc:
                continue
            Path(tr).write_text(json.dumps(bad))
            code, _, err = run_cli(
                ["verify", "--graph", f, "--trace", tr, "--kernel", kg], capsys)
            assert code in (1, 2), (kind, path, value)
            assert "Traceback" not in err
            checked += 1
        assert checked > 500


class TestResourceLimit:
    def test_kernel_beyond_oracle_guard(self, tmp_path, capsys):
        # a valid instance whose kernel has more vertices than the exact
        # oracle accepts: a resource limit, not bad input
        code, out, _ = run_cli(
            ["gen", "--family", "star-cluster", "--n", "60", "--seed", "0"], capsys)
        assert code == 0
        f = tmp_path / "g.gr"
        f.write_text(out)
        code, out, err = run_cli(["solve", "--in", str(f), "--k", "20"], capsys)
        assert code == EXIT_RESOURCE == 5
        assert err.startswith("resource limit: ")
        assert "Traceback" not in err
        assert out == ""


class TestInternalError:
    @pytest.mark.parametrize("command, target", [
        ("kernelize", "kernelize"), ("solve", "decide_pist")])
    def test_invariant_error_exit_code(self, tmp_path, capsys, monkeypatch,
                                       command, target):
        def broken(*args):
            raise InvariantError("simulated bug")

        monkeypatch.setattr(f"mistkernel.cli.{target}", broken)
        f = write_graph(tmp_path, "p6.gr", path_graph(6))
        code, out, err = run_cli([command, "--in", f, "--k", "2"], capsys)
        assert code == EXIT_INTERNAL == 4
        assert err.strip() == "internal error: simulated bug"
        assert out == ""


class TestGenCmd:
    def test_gnm_deterministic(self, capsys):
        code1, out1, _ = run_cli(
            ["gen", "--family", "random-gnm", "--n", "10", "--m", "12", "--seed", "7"],
            capsys)
        code2, out2, _ = run_cli(
            ["gen", "--family", "random-gnm", "--n", "10", "--m", "12", "--seed", "7"],
            capsys)
        assert code1 == code2 == 0
        assert out1 == out2
        assert is_connected(parse_edge_list(out1))

    def test_tree_plus_exact_tree(self, capsys):
        code, out, _ = run_cli(
            ["gen", "--family", "tree-plus", "--n", "10", "--m", "9"], capsys)
        assert code == 0
        g = parse_edge_list(out)
        assert g.m == 9 and is_connected(g)

    def test_star_cluster_connected(self, capsys):
        code, out, _ = run_cli(
            ["gen", "--family", "star-cluster", "--n", "30", "--seed", "3"], capsys)
        assert code == 0
        assert is_connected(parse_edge_list(out))

    def test_inadmissible_params(self, capsys):
        code, _, _ = run_cli(
            ["gen", "--family", "random-gnm", "--n", "5", "--m", "2"], capsys)
        assert code == 2


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        g = serialize_edge_list(path_graph(6))
        f = tmp_path / "p6.gr"
        f.write_text(g)
        proc = subprocess.run(
            [sys.executable, "-m", "mistkernel.cli", "solve", "--in", str(f),
             "--k", "4"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "YES"
