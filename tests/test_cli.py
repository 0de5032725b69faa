import io
import json
import sys

import pytest

from girthbound.cli import main
from girthbound import bounds, cli, constructions, graphcore, search
from helpers import forbid_processes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_BOUND = """\
v=15 w=15 girth=8
reiman: 64
cubic: 45 (binding)
coarse: 46
"""

GOLDEN_BOUND_JSON = (
    '{"binding": "cap", "girth": 8, "v": 10, "values": '
    '{"cap": "14", "coarse": "14", "cubic": "15", "reiman": "17"}, "w": 4}\n'
)

GOLDEN_CONSTRUCT = """\
grid t=2: v=9 w=6 e=18 girth=8
wrote grid.json
"""

GOLDEN_VERIFY = """\
graph: v=15 w=15 e=45
degrees: V min=3 max=3, W min=3 max=3
girth: 8 (c4=no, c6=no)
O(15,15,45) = -1800
P(15,15,45) = 0
paths3: formula=180 enumeration=180
weak-gq: true
check equality (weak-gq and P == 0): pass
check girth == 8: pass
"""

GOLDEN_TABLE = """\
v,w,girth,reiman,cubic,cap,coarse,search,gap
1,1,8,1,1,1,1,,
1,2,8,2,2,2,2,,
1,3,8,3,3,3,3,,
1,4,8,4,4,4,4,,
1,5,8,5,5,5,5,,
"""

GOLDEN_AWM = """\
matrix: 2x2 e=11
rho=4 gamma=5
phi = 6
rhs = 33/4
hypotheses (rows >= 2*rho, cols >= 2*gamma): false
satisfied: false
equality: false
"""


class TestGolden:
    def test_bound_text(self, capsys):
        code, out, _ = run(capsys, "bound", "--v", "15", "--w", "15", "--girth", "8")
        assert code == 0 and out == GOLDEN_BOUND

    def test_bound_json(self, capsys):
        code, out, _ = run(capsys, "bound", "--v", "10", "--w", "4", "--girth", "8", "--json")
        assert code == 0 and out == GOLDEN_BOUND_JSON

    def test_construct_summary(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "construct", "grid", "--t", "2", "--out", "grid.json")
        assert code == 0 and out == GOLDEN_CONSTRUCT

    def test_verify_tutte_coxeter(self, capsys, tmp_path):
        path = tmp_path / "tc.json"
        code, _, _ = run(capsys, "construct", "wq", "--q", "2", "--out", str(path))
        assert code == 0
        code, out, _ = run(
            capsys, "verify", str(path), "--expect-girth", "8", "--check-equality"
        )
        assert code == 0 and out == GOLDEN_VERIFY

    def test_table_star_row(self, capsys):
        code, out, _ = run(
            capsys, "table", "--v-range", "1:1", "--w-range", "1:5", "--girth", "8"
        )
        assert code == 0 and out == GOLDEN_TABLE

    def test_awm_counterexample(self, capsys, tmp_path):
        path = tmp_path / "m1.json"
        path.write_text('{"rows": [[2, 5], [4, 0]]}')
        code, out, _ = run(capsys, "awm", str(path), "--rho", "4", "--gamma", "5")
        assert code == 1 and out == GOLDEN_AWM


class TestBound:
    def test_single_method(self, capsys):
        code, out, _ = run(capsys, "bound", "--v", "7", "--w", "7", "--girth", "6", "--method", "reiman")
        assert code == 0
        assert out == "v=7 w=7 girth=6\nreiman: 21\n"

    def test_cap_absent(self, capsys):
        code, out, _ = run(capsys, "bound", "--v", "15", "--w", "15", "--method", "cap")
        assert code == 0 and "cap: n/a" in out

    def test_zero_v_usage_error(self, capsys):
        # bounds owns the value check; main turns its ValueError into exit 2.
        code, _, err = run(capsys, "bound", "--v", "0", "--w", "3")
        assert code == 2 and err == "error: class sizes must be >= 1, got v=0 w=3\n"

    def test_method_girth_conflict(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bound", "--v", "3", "--w", "3", "--girth", "6", "--method", "cubic"])
        assert exc.value.code == 2


class TestConstructVerifyRoundTrip:
    @pytest.mark.parametrize(
        "argv,girth_expect",
        [
            (["construct", "grid", "--t", "1"], 8),
            (["construct", "grid", "--t", "3"], 8),
            (["construct", "pg2", "--q", "3"], 6),
            (["construct", "pg2", "--q", "5"], 6),
            (["construct", "pg2", "--q", "7"], 6),
            (["construct", "pg2", "--q", "13"], 6),
            (["construct", "wq", "--q", "2"], 8),
            (["construct", "wq", "--q", "3"], 8),
            (["construct", "wq", "--q", "5"], 8),
            (["construct", "unbalanced6", "--v", "4", "--w", "10"], 6),
            (["construct", "unbalanced8", "--v", "4", "--w", "10"], 8),
            (["construct", "complete", "--a", "2", "--b", "2"], 4),
        ],
    )
    def test_roundtrip(self, capsys, tmp_path, argv, girth_expect):
        path = tmp_path / "g.json"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path), "--expect-girth", str(girth_expect))
        assert code == 0
        assert f"check girth == {girth_expect}: pass" in out

    def test_expand_from_file(self, capsys, tmp_path):
        src = tmp_path / "k3.json"
        src.write_text('{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}')
        out_path = tmp_path / "c6.json"
        code, out, _ = run(
            capsys, "construct", "expand", "--input", str(src), "--out", str(out_path)
        )
        assert code == 0 and "v=3 w=3 e=6 girth=6" in out
        g = graphcore.from_json(json.loads(out_path.read_text()))
        assert (g.v, g.w, g.e) == (3, 3, 6)

    @pytest.mark.parametrize("n", [10 ** 12, True, "3", 2.0])
    def test_expand_rejects_bad_vertex_count(self, capsys, tmp_path, monkeypatch, n):
        def refuse(*args):
            raise AssertionError("construct expand built a graph")

        monkeypatch.setattr(graphcore, "Graph", refuse)
        src = tmp_path / "huge.json"
        src.write_text(json.dumps({"n": n, "edges": []}))
        code, _, err = run(
            capsys, "construct", "expand", "--input", str(src),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and err.startswith("error:") and "field 'n' must be an integer" in err

    @pytest.mark.parametrize("edge", [[0, True], [0, 1.0], [0], [0, 1, 2], {"a": 1}, "01"])
    def test_expand_rejects_malformed_edge(self, capsys, tmp_path, edge):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"n": 3, "edges": [edge, [1, 2]]}))
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "construct", "expand", "--input", str(src), "--out", str(out))
        assert code == 2 and err.startswith("error:") and "2-element integer array" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["grid"], "grid requires --t"),
            (["pg2"], "pg2 requires --q"),
            (["wq", "--t", "2"], "wq requires --q"),
            (["complete", "--a", "2"], "complete requires --a and --b"),
            (["expand"], "expand requires --input"),
            (["unbalanced6", "--w", "10"], "unbalanced6 requires --v and --w"),
            (["unbalanced8", "--v", "4"], "unbalanced8 requires --v and --w"),
        ],
    )
    def test_missing_flag_is_a_usage_error(self, capsys, tmp_path, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv, "--out", str(tmp_path / "x.json")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"girthbound: error: {message}\n")
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["grid", "--t", "100000"],
            ["complete", "--a", "100000", "--b", "100000"],
            ["wq", "--q", "100003"],
            ["pg2", "--q", "1009"],
            ["unbalanced6", "--v", "100000", "--w", str(10 ** 10)],
        ],
    )
    def test_oversize_member_is_refused_before_it_is_built(
        self, capsys, tmp_path, monkeypatch, argv
    ):
        def refuse(*args):
            raise AssertionError("construct built an oversize graph")

        for builder, _, _ in cli._CONSTRUCT_KINDS.values():
            monkeypatch.setattr(constructions, builder, refuse)
        out = tmp_path / "x.json"
        code, _, err = run(capsys, "construct", *argv, "--out", str(out))
        assert code == 2 and err.startswith("error:") and "over the limit" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind,values",
        [
            ("grid", (0,)), ("grid", (1,)), ("grid", (4,)),
            ("pg2", (2,)), ("pg2", (3,)), ("pg2", (5,)),
            ("wq", (2,)), ("wq", (3,)),
            ("complete", (1, 1)), ("complete", (2, 5)), ("complete", (4, 3)),
            ("unbalanced6", (1, 0)), ("unbalanced6", (3, 3)), ("unbalanced6", (4, 10)),
            ("unbalanced8", (2, 1)), ("unbalanced8", (4, 4)), ("unbalanced8", (5, 9)),
        ],
    )
    def test_size_matches_the_built_member(self, kind, values):
        builder, _, size = cli._CONSTRUCT_KINDS[kind]
        g = getattr(constructions, builder)(*values)
        assert size(*values) == (g.v, g.w, g.e)

    def test_nonprime_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "construct", "pg2", "--q", "6", "--out", str(tmp_path / "x.json")
        )
        assert code == 2 and "not prime" in err

    def test_unbalanced_threshold_rejected(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "construct", "unbalanced8", "--v", "4", "--w", "2",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2 and "error" in err

    def test_written_file_is_valid_graph_json(self, capsys, tmp_path):
        path = tmp_path / "wq2.json"
        run(capsys, "construct", "wq", "--q", "2", "--out", str(path))
        obj = json.loads(path.read_text())
        g = graphcore.from_json(obj)
        assert (g.v, g.w, g.e) == (15, 15, 45)


class TestVerify:
    def test_failure_exit_code(self, capsys, tmp_path):
        path = tmp_path / "c4.json"
        path.write_text('{"v": 2, "w": 2, "edges": [[0,0],[0,1],[1,0],[1,1]]}')
        code, out, _ = run(capsys, "verify", str(path), "--expect-girth", "8")
        assert code == 1
        assert "check girth == 8: FAIL" in out

    def test_heawood_report(self, capsys, tmp_path):
        path = tmp_path / "heawood.json"
        run(capsys, "construct", "pg2", "--q", "2", "--out", str(path))
        code, out, _ = run(capsys, "verify", str(path), "--expect-girth", "6")
        assert code == 0
        assert "O(7,7,21) = 0" in out
        assert "girth: 6" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "/nonexistent/graph.json")
        assert code == 2

    def test_malformed_graph(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"v": 1, "w": 1, "edges": [[0, 0], [0, 0]]}')
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "duplicate edge" in err

    def test_huge_class_rejected(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify built a graph")

        monkeypatch.setattr(graphcore, "from_edges", refuse)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"v": 10 ** 12, "w": 1, "edges": []}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2 and "exceed the limit" in err

    def test_acyclic_reported(self, capsys, tmp_path):
        path = tmp_path / "star.json"
        path.write_text('{"v": 1, "w": 3, "edges": [[0,0],[0,1],[0,2]]}')
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0 and "girth: acyclic" in out


class TestSearch:
    @pytest.mark.parametrize("v,w,expected", [(3, 3, 5), (5, 5, 10), (6, 5, 12)])
    def test_certificate_json(self, capsys, v, w, expected):
        code, out, _ = run(capsys, "search", "--v", str(v), "--w", str(w), "--girth", "8")
        assert code == 0
        payload = json.loads(out)
        assert payload["e_max"] == expected
        assert payload["exhaustive"] is True
        assert payload["nodes_explored"] > 0
        witness = graphcore.from_json(payload["witness"])
        assert witness.e == expected

    def test_payload_keys(self, capsys):
        code, out, _ = run(capsys, "search", "--v", "4", "--w", "4", "--girth", "8")
        assert code == 0
        assert set(json.loads(out)) == {
            "v", "w", "min_girth", "e_max", "witness", "exhaustive", "nodes_explored", "elapsed",
        }

    @pytest.mark.parametrize(
        "flags,budgets",
        [
            ([], {}),
            (["--nodes", "50"], {"max_nodes": 50}),
            (["--timeout", "2.5"], {"max_seconds": 2.5}),
            (["--nodes", "50", "--timeout", "2.5"], {"max_nodes": 50, "max_seconds": 2.5}),
        ],
    )
    def test_only_given_budgets_are_passed_on(self, capsys, monkeypatch, flags, budgets):
        calls = []
        real = search.max_size

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(search, "max_size", spy)
        code, _, _ = run(capsys, "search", "--v", "3", "--w", "3", *flags)
        assert code == 0
        assert calls == [{"threads": 1, **budgets}]

    def test_budget_flags(self, capsys):
        code, out, _ = run(
            capsys, "search", "--v", "6", "--w", "7", "--girth", "8", "--nodes", "50"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exhaustive"] is False

    def test_class_above_the_limit_is_refused(self, capsys, monkeypatch):
        def no_witness(*args):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(graphcore, "from_edges", no_witness)
        big = str(graphcore.MAX_JSON_CLASS_SIZE + 1)
        code, out, err = run(capsys, "search", "--v", big, "--w", "1", "--girth", "8", "--nodes", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_threads_flag(self, capsys):
        code, out, _ = run(
            capsys, "search", "--v", "4", "--w", "4", "--girth", "8", "--threads", "2"
        )
        payload = json.loads(out)
        assert code == 0 and payload["e_max"] == 8

    @staticmethod
    def payload_without_elapsed(capsys, threads):
        code, out, err = run(
            capsys, "search", "--v", "8", "--w", "5", "--girth", "8", "--threads", threads
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        del payload["elapsed"]
        return payload

    def test_threads_100000_gives_the_same_certificate(self, capsys):
        one = self.payload_without_elapsed(capsys, "1")
        assert self.payload_without_elapsed(capsys, "100000") == one

    def test_threads_start_no_process(self, capsys, monkeypatch):
        one = self.payload_without_elapsed(capsys, "1")
        forbid_processes(monkeypatch)
        assert self.payload_without_elapsed(capsys, "2") == one

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
    def test_timeout_must_be_positive(self, capsys, timeout):
        # search owns the value check; main turns its ValueError into exit 2.
        code, _, err = run(capsys, "search", "--v", "3", "--w", "3", "--timeout", timeout)
        assert code == 2 and err == "error: budgets must be positive\n"

    def test_threads_must_be_positive(self, capsys):
        code, out, err = run(capsys, "search", "--v", "3", "--w", "3", "--threads", "0")
        assert (code, out, err) == (2, "", "error: threads must be >= 1, got 0\n")


class TestTable:
    def test_with_search_gaps(self, capsys):
        code, out, _ = run(
            capsys, "table", "--v-range", "3:6", "--w-range", "3:6",
            "--girth", "8", "--with-search",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "v,w,girth,reiman,cubic,cap,coarse,search,gap"
        rows = {tuple(line.split(",")[:2]): line.split(",") for line in lines[1:]}
        assert len(rows) == 16
        for key in (("4", "4"), ("5", "5")):
            assert rows[key][-1] == "0"  # gap
        for cells in rows.values():
            assert cells[-1] != "" and int(cells[-1]) >= 0

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "--v-range", "2:3", "--w-range", "2:2",
            "--girth", "6", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["cubic"] is None and payload[0]["cap"] is None
        assert isinstance(payload[0]["reiman"], str)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rows_stream(self, monkeypatch, fmt):
        # What stdout holds when the first v = 2 bound is computed.
        out, written = io.StringIO(), []
        report = bounds.bound_report

        def first_v2_waits(v, w, girth):
            if v == 2 and not written:
                written.append(out.getvalue())
            return report(v, w, girth)

        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(bounds, "bound_report", first_v2_waits)
        assert main(["table", "--v-range", "1:3", "--w-range", "1:4", "--format", fmt]) == 0
        if fmt == "csv":  # the header and the four v = 1 rows
            assert written == ["".join(out.getvalue().splitlines(keepends=True)[:5])]
        else:
            assert json.loads(written[0] + "]") == json.loads(out.getvalue())[:4]

    def test_bad_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--v-range", "5:2", "--w-range", "1:1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["table", "--v-range", "abc", "--w-range", "1:1"])
        assert exc.value.code == 2


class TestAwm:
    def test_satisfied_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "ones.json"
        path.write_text('{"rows": [[1, 1], [1, 1]]}')
        code, out, _ = run(capsys, "awm", str(path), "--rho", "1", "--gamma", "1")
        assert code == 0
        assert "equality: true" in out

    def test_rational_flags(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [["1/2", 1], [1, "3/2"]]}')
        code, out, _ = run(capsys, "awm", str(path), "--rho", "1/2", "--gamma", "1/2")
        assert code == 0

    def test_zero_matrix(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text('{"rows": [[0, 0], [0, 0]]}')
        code, out, _ = run(capsys, "awm", str(path), "--rho", "1", "--gamma", "1")
        assert code == 0
        assert "phi = 0" in out and "rhs = 0" in out and "satisfied: true" in out

    def test_bad_matrix(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rows": [[1, -2]]}')
        code, _, err = run(capsys, "awm", str(path), "--rho", "0", "--gamma", "0")
        assert code == 2 and "negative" in err

    @pytest.mark.parametrize(
        "rows,message",
        [('[["1/0", 1]]', "zero denominator"), ("[1, 2]", "not a list")],
    )
    def test_malformed_rows(self, capsys, tmp_path, rows, message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"rows": {rows}}}')
        code, _, err = run(capsys, "awm", str(path), "--rho", "0", "--gamma", "0")
        assert code == 2
        assert err.startswith("error:") and message in err

    def test_bad_rho(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1]]}')
        with pytest.raises(SystemExit) as exc:
            main(["awm", str(path), "--rho", "x", "--gamma", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", ["--rho", "--gamma"])
    @pytest.mark.parametrize("value", ["1.5", "1/0", "1e3"])
    def test_rational_flags_are_parsed_by_argparse(self, capsys, tmp_path, flag, value):
        path = tmp_path / "m.json"
        path.write_text('{"rows": [[1]]}')
        argv = ["awm", str(path), "--rho", "1", "--gamma", "1"]
        argv[argv.index(flag) + 1] = value
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}: invalid rational value: '{value}'" in capsys.readouterr().err
