import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mistkernel import Graph, InvariantError, SpanningTree, internal_count, is_connected
from mistkernel.cli import EXIT_INTERNAL, EXIT_PIPE, EXIT_RESOURCE, main
from mistkernel.fileformats import parse_edge_list, serialize_edge_list
from graphs import path_graph, star_graph, star_with_tail

ROOT = Path(__file__).resolve().parent.parent


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_graph(tmp_path, name, g):
    p = tmp_path / name
    p.write_text(serialize_edge_list(g))
    return str(p)


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

    @pytest.mark.parametrize("g, k, reason", [
        (path_graph(4), 3, "no spanning tree has more than 2 internal vertices"),
        (star_graph(9), 2, "the graph is covered by S and L, capping the "
                           "internal count at 1"),
    ])
    def test_trivial_no_reason_on_stderr(self, tmp_path, capsys, g, k, reason):
        # k > n - 2, and S ∪ L covering the star: the reason goes to stderr
        # and stdout keeps its one line
        f = write_graph(tmp_path, "g.gr", g)
        code, out, err = run_cli(["kernelize", "--in", f, "--k", str(k)], capsys)
        assert code == 0
        assert out == "TRIVIAL-NO\n"
        assert err == f"no: {reason}\n"

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
        # drop the last L-vertex and its tree edges
        w = rec["l"].pop()
        rec["bsl_tree"] = [e for e in rec["bsl_tree"] if w not in e]
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
                for value in values if len(path) <= 3 else rng.sample(values, 3):
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

    def test_v1_trace_is_a_format_error(self, tmp_path, capsys):
        import json

        f, tr, kg = self._kernelized(tmp_path, capsys, star_with_tail(), 3)
        doc = json.loads(Path(tr).read_text())
        # the same reduction as the previous trace format wrote it
        doc["format"] = "mist-trace-v1"
        doc["reductions"][0].update(v_s=2, v_l=3, neighbor_map=[1],
                                    index_map=[[1, 0], [10, 1]], delta_k=0)
        Path(tr).write_text(json.dumps(doc))
        code, out, err = run_cli(
            ["verify", "--graph", f, "--trace", tr, "--kernel", kg], capsys)
        assert code == 2
        assert "mist-trace-v1" in err
        assert "Traceback" not in err
        assert out == ""


    def test_covering_reduction_fails(self, tmp_path, capsys):
        import json

        # S ∪ L is all of K1,3: contracting it leaves one edge, so the
        # kernel answers NO at k = 1 where the star answers YES.
        f = write_graph(tmp_path, "star.gr", star_graph(3))
        kg = write_graph(tmp_path, "k.gr", Graph(2, [(0, 1)]))
        tr = tmp_path / "t.json"
        tr.write_text(json.dumps({
            "format": "mist-trace-v2", "k_original": 1, "k_prime": 1,
            "outcome": "kernel", "kernel_vertices": 2, "kernel_edges": 1,
            "reductions": [{"s": [0], "l": [1, 2, 3],
                            "bsl_tree": [[0, 1], [0, 2], [0, 3]]}],
        }))
        assert run_cli(["solve", "--in", f, "--k", "1"], capsys)[0] == 0
        assert run_cli(["solve", "--in", kg, "--k", "1"], capsys)[0] == 1
        code, out, err = run_cli(
            ["verify", "--graph", f, "--trace", str(tr), "--kernel", kg], capsys)
        assert code == 1
        assert out.startswith("FAIL")
        assert "Traceback" not in err

    def test_kernel_above_3k_prime_fails(self, tmp_path, capsys):
        import json

        from mistkernel.generate import generate

        # a trace with no reduction that claims the whole graph as its
        # kernel: 150 vertices against 3k' = 147
        g = generate("star-cluster", 150, seed=1)
        f = write_graph(tmp_path, "g.gr", g)
        tr = tmp_path / "t.json"
        tr.write_text(json.dumps({
            "format": "mist-trace-v2", "k_original": 49, "k_prime": 49,
            "outcome": "kernel", "kernel_vertices": g.n, "kernel_edges": g.m,
            "reductions": [],
        }))
        code, out, err = run_cli(
            ["verify", "--graph", f, "--trace", str(tr), "--kernel", f], capsys)
        assert code == 1
        assert out.startswith("FAIL") and "3k'" in out
        assert "Traceback" not in err


class TestUndecodableInput:
    def test_graph_file(self, tmp_path, capsys):
        f = tmp_path / "g.gr"
        f.write_bytes(b"p 2 1\ne 0 1\xff\n")
        code, _, err = run_cli(["solve", "--in", str(f), "--k", "0"], capsys)
        assert code == 2
        assert err.startswith(f"format error: cannot read {f}")
        assert "Traceback" not in err

    def test_trace_file(self, tmp_path, capsys):
        f = write_graph(tmp_path, "g.gr", path_graph(3))
        tr = tmp_path / "t.json"
        tr.write_bytes(b'{"format": "\xff"}')
        code, _, err = run_cli(
            ["verify", "--graph", f, "--trace", str(tr), "--kernel", f], capsys)
        assert code == 2
        assert err.startswith(f"format error: cannot read {tr}")
        assert "Traceback" not in err


class TestByteOrderMark:
    BOM = "\ufeff".encode()

    def _pair(self, tmp_path, name, text):
        plain, marked = tmp_path / name, tmp_path / ("bom-" + name)
        plain.write_text(text, encoding="utf-8")
        marked.write_bytes(self.BOM + text.encode())
        return str(plain), str(marked)

    @pytest.mark.parametrize("text", [
        "p 3 2\ne 0 1\ne 1 2\n",
        "# a comment first\np 3 2\ne 0 1\ne 1 2\n",
    ])
    def test_edge_list_solves_as_without(self, tmp_path, capsys, text):
        plain, marked = self._pair(tmp_path, "g.gr", text)
        for k in ("1", "2"):
            expect = run_cli(["solve", "--in", plain, "--k", k], capsys)
            assert run_cli(["solve", "--in", marked, "--k", k], capsys) == expect
        assert expect[0] == 1

    def test_trace_verifies_as_without(self, tmp_path, capsys):
        f = write_graph(tmp_path, "g.gr", star_with_tail())
        tr, kg = str(tmp_path / "t.json"), str(tmp_path / "k.gr")
        code, _, _ = run_cli(["kernelize", "--in", f, "--k", "3",
                              "--out-graph", kg, "--out-trace", tr], capsys)
        assert code == 0
        plain, marked = self._pair(tmp_path, "t2.json", Path(tr).read_text())
        expect = run_cli(["verify", "--graph", f, "--trace", plain, "--kernel", kg], capsys)
        assert expect[:2] == (0, "OK\n")
        assert run_cli(
            ["verify", "--graph", f, "--trace", marked, "--kernel", kg], capsys) == expect

    def test_mark_inside_a_file_is_a_format_error(self, tmp_path, capsys):
        f = tmp_path / "g.gr"
        f.write_bytes(b"p 3 2\n" + self.BOM + b"e 0 1\ne 1 2\n")
        code, _, err = run_cli(["solve", "--in", str(f), "--k", "1"], capsys)
        assert code == 2
        # the line's repr shows the mark escaped
        assert err == "format error: bad edge line: '\\ufeffe 0 1'\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("flag", ["--out-trace", "--out-graph"])
    def test_format_error_without_traceback(self, tmp_path, capsys, flag):
        f = write_graph(tmp_path, "g.gr", star_with_tail())
        missing = str(tmp_path / "missing" / "out")
        code, _, err = run_cli(["kernelize", "--in", f, "--k", "3", flag, missing], capsys)
        assert code == 2
        assert err.startswith(f"format error: cannot write {missing}")
        assert "Traceback" not in err


class TestResourceLimit:
    def _star_cluster_60(self, tmp_path, capsys, seed):
        code, out, _ = run_cli(
            ["gen", "--family", "star-cluster", "--n", "60", "--seed", str(seed)], capsys)
        assert code == 0
        f = tmp_path / "g.gr"
        f.write_text(out)
        return f

    def test_kernel_beyond_oracle_guard(self, tmp_path, capsys):
        # a valid instance whose kernel has more vertices than the exact
        # oracle accepts and which its bounds leave open: a resource limit,
        # not bad input
        f = self._star_cluster_60(tmp_path, capsys, 2)
        code, out, err = run_cli(["solve", "--in", str(f), "--k", "23"], capsys)
        assert code == EXIT_RESOURCE == 5
        assert err.startswith("resource limit: ")
        assert "Traceback" not in err
        assert out == ""
        # the message names the gap the bounds leave
        for part in ("60 vertices", "k' = 23", "lb = 22", "ub = 23"):
            assert part in err

    def test_kernel_beyond_oracle_guard_decided_by_bounds(self, tmp_path, capsys):
        # the same size of kernel, where the lower-bound tree reaches k'
        f = self._star_cluster_60(tmp_path, capsys, 0)
        code, out, err = run_cli(["solve", "--in", str(f), "--k", "20"], capsys)
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "YES"
        g = parse_edge_list(f.read_text())
        edges = [tuple(map(int, line.split()[1:])) for line in lines[1:]]
        tree = SpanningTree(range(g.n), edges)
        assert tree.edges <= g.edges
        assert internal_count(tree) >= 20


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


class TestOutOfMemory:
    def test_memory_error_is_a_resource_limit(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr("mistkernel.cli.parse_edge_list", exhausted)
        f = write_graph(tmp_path, "p6.gr", path_graph(6))
        code, out, err = run_cli(["solve", "--in", f, "--k", "2"], capsys)
        assert code == EXIT_RESOURCE == 5
        assert err == "resource limit: out of memory\n"
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
        # n is fine here; what is missing is the edge count
        for family in ("tree-plus", "random-gnm"):
            code, _, err = run_cli(["gen", "--family", family, "--n", "5"], capsys)
            assert code == 2
            assert "need an edge count" in err


class TestConsoleScript:
    def test_module_invocation(self, tmp_path):
        g = serialize_edge_list(path_graph(6))
        f = tmp_path / "p6.gr"
        f.write_text(g)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "mistkernel.cli", "solve", "--in", str(f),
             "--k", "4"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "YES"

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # `kernelize --k 0` on a 20000-vertex path prints its 19999 tree
        # edges, about 250 KB: far more than a 64 KB pipe holds, so a write
        # after the reader closes its end fails every time.
        f = write_graph(tmp_path, "p.gr", path_graph(20000))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "mistkernel.cli", "kernelize", "--in", f, "--k", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_PIPE == 141
        assert first == b"SOLVED 19998\n"
        assert b"Traceback" not in err and b"Exception ignored" not in err
