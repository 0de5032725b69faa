"""The CLI exit-code contract under hostile input.

Every run of ``main`` ends in 0 (checks pass), 1 (a mathematical
expectation failed, on well-formed input only) or 2 (usage or IO error).
An exit 2 that argparse did not raise prints exactly one ``error:`` line,
and no other exception escapes.
"""

import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from girthbound import graphcore, meanineq
from girthbound.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

GRAPH = {"v": 3, "w": 3, "edges": [[0, 0], [0, 1], [1, 1], [1, 2], [2, 2], [2, 0]]}  # C6
UNCOLOURED = {"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}  # K3
MATRIX = {"rows": [[2, 5], [4, 0]]}  # fails the mean inequality at rho=4, gamma=5

# JSON values a mutation puts in place of a field, an entry or the whole file.
VALUES = [
    None, True, False, 0, 1, -1, 2, 1.0, 1.5, float("nan"), float("inf"),
    10 ** 30, -(10 ** 30), 2 ** 63, graphcore.MAX_JSON_CLASS_SIZE + 1,
    "", "3", "x", "1/0", "-1/2", [], {}, [[]], [0], [0, 1], [0, 1, 2], [[0, 1]], {"a": 1},
]
BAD_BYTES = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\x00", b"{", b"]", b'"']
# Flag values: numbers that int or float flags accept or refuse, then junk.
NUMBERS = ["0", "-1", "nan", "inf"]
JUNK = ["x", "", "1:", "4:2", "0:3", "1/0", "1e99999999"]


def cli_process(argv) -> subprocess.Popen:
    """``python -m girthbound.cli argv`` in a new process that imports this tree."""
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)  # stdout to a pipe is then block-buffered
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "girthbound.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def invoke(capsys, argv):
    """(exit code, stdout, stderr, raised by argparse) of one in-process run."""
    try:
        code, usage = main(argv), False
    except SystemExit as exc:
        assert exc.code == 2, (argv, exc.code)
        code, usage = 2, True
    captured = capsys.readouterr()
    return code, captured.out, captured.err, usage


def check_contract(capsys, argv, data=None):
    code, out, err, usage = invoke(capsys, argv)
    case = (argv, data)
    assert code in (0, 1, 2), case
    if code == 2 and not usage:
        assert err.startswith("error:") and err.count("\n") == 1, (case, err)
    if code == 0 and argv[0] == "construct":
        # What construct writes, verify must be able to read.
        with open(argv[argv.index("--out") + 1]) as fh:
            graphcore.from_json(json.load(fh))
    if code == 1:
        # A failed expectation is reported only for input the library accepts.
        if argv[0] == "verify":
            graphcore.from_json(json.loads(data))
            assert "FAIL" in out, case
        else:
            assert argv[0] == "awm", case
            meanineq.NonnegMatrix(json.loads(data)["rows"])
            assert "satisfied: false" in out, case
    return code


def _paths(obj, path=()):
    yield path
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def mutate(rng: random.Random, obj) -> bytes:
    """Drop or retype 1-3 parts of obj, then maybe truncate or corrupt its bytes."""
    obj = copy.deepcopy(obj)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_paths(obj)))
        if not path:
            obj = copy.deepcopy(rng.choice(VALUES))
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if rng.random() < 0.3:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rng.choice(VALUES))
    data = json.dumps(obj).encode()
    if rng.random() < 0.25:
        data = data[: rng.randrange(len(data) + 1)]
    if rng.random() < 0.25:
        at = rng.randrange(len(data) + 1)
        data = data[:at] + rng.choice(BAD_BYTES) + data[at:]
    return data


# For each fuzzed file kind: the valid file and the command that reads it.
FILE_COMMANDS = {
    "graph": (GRAPH, ["verify", "{path}", "--expect-girth", "6", "--check-equality"]),
    "uncoloured": (UNCOLOURED, ["construct", "expand", "--input", "{path}", "--out", "{out}"]),
    "matrix": (MATRIX, ["awm", "{path}", "--rho", "4", "--gamma", "5"]),
}


@pytest.mark.parametrize("name", FILE_COMMANDS)
def test_fuzzed_files_keep_the_contract(capsys, tmp_path, name):
    valid, argv = FILE_COMMANDS[name]
    rng = random.Random(f"girthbound-{name}")
    path, out = tmp_path / f"{name}.json", tmp_path / "out.json"
    argv = [arg.format(path=path, out=out) for arg in argv]
    codes = set()
    for _ in range(300):
        data = mutate(rng, valid)
        path.write_bytes(data)
        codes.add(check_contract(capsys, argv, data))
    # The mutations must reach more than the error path.
    assert 2 in codes and len(codes) > 1


def base_commands(tmp_path):
    graph, unc, matrix = (tmp_path / n for n in ("g.json", "u.json", "m.json"))
    graph.write_text(json.dumps(GRAPH))
    unc.write_text(json.dumps(UNCOLOURED))
    matrix.write_text(json.dumps(MATRIX))
    out = str(tmp_path / "out.json")
    return [
        ["bound", "--v", "5", "--w", "4", "--girth", "8", "--method", "cubic", "--json"],
        ["construct", "grid", "--t", "2", "--out", out],
        ["construct", "pg2", "--q", "3", "--out", out],
        ["construct", "wq", "--q", "2", "--out", out],
        ["construct", "complete", "--a", "2", "--b", "3", "--out", out],
        ["construct", "unbalanced6", "--v", "4", "--w", "6", "--out", out],
        ["construct", "unbalanced8", "--v", "4", "--w", "6", "--out", out],
        ["construct", "expand", "--input", str(unc), "--out", out],
        ["verify", str(graph), "--expect-girth", "6", "--check-equality"],
        ["search", "--v", "5", "--w", "4", "--girth", "8", "--nodes", "500",
         "--timeout", "5", "--threads", "1"],
        ["table", "--v-range", "2:4", "--w-range", "3:4", "--girth", "6", "--with-search",
         "--format", "json"],
        ["awm", str(matrix), "--rho", "4", "--gamma", "5"],
    ]


def test_fuzzed_flags_keep_the_contract(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a fuzzed --out value is a relative path
    rng = random.Random("girthbound-flags")
    missing = str(tmp_path / "absent.json")
    for base in base_commands(tmp_path):
        for _ in range(40):
            argv = list(base)
            for _ in range(rng.randint(1, 2)):
                values = [
                    i for i in range(2, len(argv))
                    if argv[i - 1].startswith("--") and not argv[i].startswith("--")
                ]
                roll = rng.random()
                if roll < 0.1 or not values:
                    del argv[rng.randrange(1, len(argv))]  # a flag or a value goes missing
                elif roll < 0.2:
                    argv[rng.randrange(1, len(argv))] = rng.choice([missing, str(tmp_path)])
                else:
                    # Mostly numbers, so that many runs get past argparse.
                    pool = NUMBERS if rng.random() < 0.7 else JUNK
                    argv[rng.choice(values)] = rng.choice(pool)
            data = None
            if argv[0] in ("verify", "awm") and os.path.isfile(argv[1]):
                data = Path(argv[1]).read_text()
            check_contract(capsys, argv, data)


@pytest.mark.parametrize(
    "field,argv",
    [
        ("edges", ["verify", "{path}"]),
        ("rows", ["awm", "{path}", "--rho", "1", "--gamma", "1"]),
        ("edges", ["construct", "expand", "--input", "{path}", "--out", "{out}"]),
    ],
)
def test_deep_nesting_is_an_input_error(capsys, tmp_path, field, argv):
    path, out = tmp_path / "deep.json", tmp_path / "out.json"
    depth = 100_000
    path.write_text(f'{{"v": 1, "w": 1, "n": 1, "{field}": ' + "[" * depth + "]" * depth + "}")
    code, _, err, usage = invoke(capsys, [a.format(path=path, out=out) for a in argv])
    assert (code, usage) == (2, False)
    assert err.startswith("error:") and "nested too deeply" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,argv,ending",
    [
        ("rows", ["awm", "{path}", "--rho", "1", "--gamma", "1"], "' is not a rational p or p/q"),
        ("edges", ["verify", "{path}"], "', 0] is not a 2-element integer array"),
        (
            "edges",
            ["construct", "expand", "--input", "{path}", "--out", "{out}"],
            "', 0] is not a 2-element integer array",
        ),
    ],
    ids=["awm", "verify", "construct-expand"],
)
def test_a_huge_value_gives_a_short_error_line(capsys, tmp_path, field, argv, ending):
    # The library quotes the offending value in full; main keeps the ends.
    path, out = tmp_path / "huge.json", tmp_path / "out.json"
    huge = "x" * 1_000_000
    path.write_text(json.dumps({"v": 2, "w": 2, "n": 2, field: [[huge, 0]]}))
    code, _, err, usage = invoke(capsys, [a.format(path=path, out=out) for a in argv])
    assert (code, usage) == (2, False)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 512 and err.endswith(ending + "\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--v-range", "1:300", "--w-range", "1:300"],
        ["table", "--v-range", "1:300", "--w-range", "1:300", "--format", "json"],
        ["bound", "--v", "5", "--w", "4"],
    ],
    ids=["table-csv", "table-json", "bound"],
)
def test_closed_stdout_is_an_io_error(argv):
    with cli_process(argv) as proc:
        if argv[0] == "table":
            # The csv header, or the start of the one-line JSON array; the
            # rest of the table is far larger than the pipe holds.
            assert proc.stdout.readline(4096)
        # bound's few lines are still buffered when the reader leaves, so
        # they fail on the final flush instead.
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=60)
    assert code == 2, err
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("where", ["--rho", "--gamma", "entry"])
def test_huge_exponent_exits_at_once(tmp_path, where):
    # Fraction expands 1eN to an exact integer, in time growing with N.
    huge = "1e99999999"
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [[huge if where == "entry" else 1]]}))
    argv = ["awm", str(path), "--rho", "1", "--gamma", "1"]
    if where != "entry":
        argv[argv.index(where) + 1] = huge
    with cli_process(argv) as proc:
        try:
            out, err = proc.communicate(timeout=2)
        finally:
            proc.kill()
    assert proc.returncode == 2 and out == b""
    if where == "entry":
        assert err.decode() == f"error: '{huge}' is not a rational p or p/q\n"
    else:
        assert f"argument {where}: invalid rational value: '{huge}'" in err.decode()


@pytest.mark.parametrize("where", ["entry", "--rho"])
def test_a_numerator_past_the_digit_limit_is_an_input_error(capsys, tmp_path, where):
    # int() refuses a string of more than 4,300 digits with ValueError;
    # rational names the limit, not the Python call that raises it.
    long = "1" * 4301
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"rows": [[long if where == "entry" else 1]]}))
    argv = ["awm", str(path), "--rho", long if where == "--rho" else "1", "--gamma", "1"]
    code, out, err, usage = invoke(capsys, argv)
    assert (code, out, usage) == (2, "", where == "--rho")
    assert "Traceback" not in err
    if where == "entry":
        assert err == (
            "error: rational 111111111111... has more digits than Python converts"
            " to an integer (at most 4300)\n"
        )
    else:
        assert "argument --rho: invalid rational value" in err


@pytest.mark.parametrize(
    "argv",
    [["--v", "1000", "--w", "3"], ["--v", "3", "--w", "1000", "--girth", "6"]],
    ids=["tall", "wide"],
)
def test_search_deeper_than_the_recursion_limit(capsys, argv):
    # The search recurses once per edge; past the recursion limit it is an
    # input error that names the classes and the limit.
    code, out, err, usage = invoke(capsys, ["search", *argv])
    assert (code, out, usage) == (2, "", False)
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith(f"error: search on v={argv[1]} w={argv[3]} recurses once per edge")
    assert f"recursion limit of {sys.getrecursionlimit()}" in err
