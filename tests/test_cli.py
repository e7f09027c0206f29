import ast
import gc
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from helpers import pair_texts_per_pair

from invkl import build_system, cli, laurent, verify
from invkl.canonical import CanonicalBasis
from invkl.cli import main
from invkl.coxeter import CoxeterSystem
from invkl.errors import InvariantError
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.packed import pack, unpack
from invkl.verify import SUITE_NAMES, run_suites

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_a2_all_ones(capsys):
    code, out, _ = run_cli(capsys, "table", "--type", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "table"
    assert payload["system"]["type"] == "A2"
    assert len(payload["entries"]) == 9  # comparable involution pairs of A2
    assert all(e["sigma_poly"] == {"0": "1"} for e in payload["entries"])


def test_table_classic_flag(capsys):
    code, out, _ = run_cli(capsys, "table", "--type", "A1", "--classic")
    assert code == 0
    payload = json.loads(out)
    pair = [
        e for e in payload["entries"] if e["y_word"] == [] and e["w_word"] == [0]
    ]
    assert pair[0]["sigma_poly"] == {"0": "1"}
    assert pair[0]["classic_poly"] == {"0": "1"}


def test_table_csv_format(capsys):
    code, out, _ = run_cli(capsys, "table", "--type", "A3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y_word,w_word,poly"
    assert len(lines) == 1 + 45  # comparable involution pairs of A3
    assert lines[1] == "e,e,0:1"


def test_table_pairs_listed_once(capsys, monkeypatch):
    calls = []
    columns = cli._involution_columns

    def counting_columns(*args):
        calls.append(args)
        return columns(*args)

    monkeypatch.setattr(cli, "_involution_columns", counting_columns)
    code, out, _ = run_cli(
        capsys, "table", "--type", "A3", "--classic", "--format", "csv"
    )
    assert code == 0 and len(calls) == 1
    assert out.splitlines()[0] == "y_word,w_word,poly,classic_poly"
    code, out, _ = run_cli(
        capsys, "table", "--type", "A3", "--classic", "--format", "text"
    )
    assert code == 0 and len(calls) == 2
    lines = out.splitlines()
    assert len(lines) == 1 + 45
    assert lines[1] == "P[e, e] = 1  (classical 1)"
    assert all("(classical " in line for line in lines[1:])


def test_kl_command(capsys):
    code, out, _ = run_cli(capsys, "kl", "--type", "A2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # every comparable pair of S3 has polynomial 1
    assert all(e["poly"] == {"0": "1"} for e in payload["entries"])


def test_max_length_filter(capsys, monkeypatch):
    built = []
    column_recursive = CanonicalBasis.column_recursive

    def recording_column(self, wid):
        built.append(self.system.length_of(wid))
        return column_recursive(self, wid)

    monkeypatch.setattr(CanonicalBasis, "column_recursive", recording_column)
    code, out, _ = run_cli(
        capsys, "table", "--type", "A3", "--max-length", "1"
    )
    payload = json.loads(out)
    assert {tuple(e["w_word"]) for e in payload["entries"]} == {
        (), (0,), (1,), (2,)
    }
    assert sorted(built) == [0, 1, 1, 1]  # no column longer than 1 is built


def test_verify_command(capsys):
    code, out, _ = run_cli(capsys, "verify", "--type", "B2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    names = {s["name"] for s in payload["suites"]}
    assert {"quadratic", "braid", "bar", "parity"} <= names


def test_verify_twisted(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "A3", "--twisted", "delta=2,1,0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_experimental(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--type", "I2(5)", "--experimental", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_character_command(capsys):
    code, out, _ = run_cli(capsys, "character", "--type", "A2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 4
    assert [c["chi_m1"] for c in payload["classes"]] == [4, 0, 1]
    assert payload["induced_matches"] is True
    code, out, _ = run_cli(capsys, "character", "--type", "A3")
    payload = json.loads(out)
    assert all(c["chi_m1"] == c["chi_induced"] for c in payload["classes"])


def test_cells_command(capsys):
    code, out, _ = run_cli(capsys, "cells", "--type", "A2")
    assert code == 0
    payload = json.loads(out)
    assert [c["size"] for c in payload["cells"]] == [1, 4, 1]
    assert [c["involution_count"] for c in payload["cells"]] == [1, 2, 1]


def test_usage_errors(capsys):
    assert run_cli(capsys, "table", "--type", "Q7")[0] == 2
    assert run_cli(capsys, "table", "--type", "I2(5)")[0] == 2  # needs --experimental
    assert run_cli(capsys, "table")[0] == 2  # missing --type
    assert run_cli(capsys, "character", "--type", "A2", "--twisted", "delta=1,0")[0] == 2
    assert run_cli(capsys, "cells", "--type", "A3", "--max-elements", "5")[0] == 2
    assert run_cli(capsys, "cells", "--type", "A5")[0] == 2  # 720 > the default cap
    # each command accepts only the options it reads
    assert run_cli(capsys, "table", "--type", "A2", "--max-length", "-3")[0] == 2
    assert run_cli(capsys, "kl", "--type", "A2", "--max-length", "-1")[0] == 2
    assert run_cli(capsys, "verify", "--type", "A2", "--max-length", "2")[0] == 2
    assert run_cli(capsys, "character", "--type", "A2", "--max-length", "1")[0] == 2
    assert run_cli(capsys, "cells", "--type", "A2", "--max-length", "1")[0] == 2
    assert run_cli(capsys, "verify", "--type", "A2", "--format", "csv")[0] == 2
    assert run_cli(capsys, "table", "--type", "A2", "--jobs", "2")[0] == 2
    # malformed values fail at parse time with a message naming the rule
    for cap in ("-1", "0", "x"):
        code, out, err = run_cli(capsys, "cells", "--type", "A3", "--max-elements", cap)
        assert code == 2 and out == "" and "argument --max-elements" in err
    code, out, err = run_cli(capsys, "table", "--type", "A3", "--twisted", "a,b,c")
    assert code == 2 and out == ""
    assert "comma-separated list of generator indices" in err


def test_cells_gate_fails_fast(capsys):
    """cells on a group far over the cap exits 2 at the gate, writing nothing."""
    code, out, err = run_cli(capsys, "cells", "--type", "E7")
    assert code == 2 and out == "" and "gated at 400" in err


def test_output_file(tmp_path, capsys):
    """--out receives exactly the bytes the command writes to stdout."""
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "table", "--type", "A2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["command"] == "table"
    for argv in [
        "table --type A3",
        "table --type A3 --classic --format csv",
        "table --type B3 --format text",
        "kl --type A3",
        "cells --type B3 --format csv",
        "character --type A3 --format text",
        "verify --type A2",
    ]:
        code, out, _ = run_cli(capsys, *argv.split(), "--out", str(target))
        assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0 and target.read_bytes() == out.encode("utf-8"), argv


def test_table_output_is_deterministic(tmp_path, capsys):
    blobs = []
    for run in range(2):
        target = tmp_path / f"t{run}.json"
        code, _, _ = run_cli(capsys, "table", "--type", "A3", "--out", str(target))
        assert code == 0
        blobs.append(target.read_bytes())
    code, out, _ = run_cli(capsys, "table", "--type", "A3")
    assert code == 0 and blobs[0] == blobs[1] == out.encode("utf-8")


def test_failure_writes_nothing(tmp_path, capsys, monkeypatch):
    """An invariant failure in a late classical column of table --classic
    exits 3 before the first byte: stdout stays empty and no --out file is
    created."""
    column = KLTable.column

    def failing_column(self, wid):
        if self.system.length_of(wid) == 9:  # the longest element of B3
            raise InvariantError("injected failure")
        return column(self, wid)

    monkeypatch.setattr(KLTable, "column", failing_column)
    for fmt in ("json", "csv", "text"):
        argv = ["table", "--type", "B3", "--classic", "--format", fmt]
        target = tmp_path / f"out.{fmt}"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert code == 3 and out == "" and "injected failure" in err
        assert not target.exists()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 3 and out == ""


def test_output_is_streamed(tmp_path):
    """kl writes row by row: its traced peak allocation stays below the size
    of the output it writes, so no whole table or output text is held."""
    target = tmp_path / "kl.json"
    tracemalloc.start()
    try:
        code = main(["kl", "--type", "D4", "--out", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < target.stat().st_size


def test_json_writer_matches_json_dumps():
    head = {"command": "x", "system": {"delta": None, "rank": 0, "words": []}}
    tail = {"ok": False, "note": "caf\u00e9 \"q\"\n", "empty": {}}
    items = [{"a": [], "b": True, "c": -12, "d": {"1": "-3"}}, [[1], []], "s"]
    for listed in (items, []):
        doc = {**head, "entries": listed, **tail}
        texts = (cli._json(item, 2) for item in listed)
        text = "".join(cli._json_chunks(head, "entries", texts, tail))
        assert text == json.dumps(doc, indent=2) + "\n"


def test_json_fast_path_matches_json_dumps():
    """Words (flat lists of ints) and polynomials (flat dicts of strings) are
    joined directly; they, nested lists, tuples and dicts, and the scalars
    that go to ``json.dumps`` read as ``json.dumps(value, indent=2)`` at
    every depth."""
    long_word = [3, 1, 2, 0, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 4, 3, 2, 1, 0] * 3
    values = [
        [], [0], [5], long_word, list(range(12)),
        {}, {"0": "1"}, {"-2": "-1", "0": "3", "4": "-12", "10": "1"},
        {"-7": "-123456789012345678901"},
        [True, 1], [1.5], [None], [[1]], {"k": [1]}, {"k": 1}, {"q\"": "\u00e9\n"},
        0, -7, 2**70, True, None, 1.5, float("inf"), "", "caf\u00e9 \"q\"\n",
        (), (1, 2), ([0], {"k": ()}), [[0, 1], [], [2]], [{}, [], ""],
        {"size": 3, "involution_count": 1, "representatives": [[0, 1], [2]]},
        {"a": {"b": {"c": [1, [2, {"d": None}]]}}, "e": "f", "g": [True, 1.0]},
    ]
    for value in values:
        for depth in range(5):
            want = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
            assert cli._json(value, depth) == want, (value, depth)


def run_python(*args):
    """A fresh interpreter with the package's source on its path."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_script_runs(capsys):
    """``python -m invkl`` writes, byte for byte, what ``main()`` writes in
    process, and exits with its code: 0, and 2 for a bad type and for a
    format the command does not write; the console script runs too."""
    exe = shutil.which("invkl")
    cmd = [exe] if exe else [sys.executable, "-m", "invkl"]
    proc = subprocess.run(
        cmd + ["table", "--type", "A1", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("y_word,w_word,poly")
    for argv, want in (
        ("table --type A3", 0), ("table --type Q3", 2), ("verify --type A3 --format csv", 2),
    ):
        code, out, err = run_cli(capsys, *argv.split())
        proc = run_python("-m", "invkl", *argv.split())
        assert (proc.returncode, code) == (want, want), argv
        assert proc.stdout == out.encode("utf-8"), argv
        assert proc.stderr == err.encode("utf-8"), argv
    assert len(out) == 0 and "invalid choice: 'csv'" in err


def test_the_console_script_is_cli_run():
    """pyproject's ``invkl`` script runs ``cli.run``, as ``python -m invkl`` does."""
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["invkl", "=", '"invkl.cli:run"']


# In a fresh interpreter: the collector state (enabled, frozen objects) after
# importing the package, after a set-up and after main(); then after run(),
# as ``python -m invkl`` runs it.
_GC_STATES = """
import gc, os, runpy, sys
gc.{start}()
gc.freeze() if {frozen} else None
states = [(gc.isenabled(), gc.get_freeze_count())]
import invkl
states.append((gc.isenabled(), gc.get_freeze_count()))
invkl.build_system("F4")
states.append((gc.isenabled(), gc.get_freeze_count()))
from invkl.cli import main
assert main(["table", "--type", "A3", "--out", os.devnull]) == 0
states.append((gc.isenabled(), gc.get_freeze_count()))
sys.argv = ["invkl", "kl", "--type", "A3", "--out", os.devnull]
try:
    runpy.run_module("invkl", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0
states.append((gc.isenabled(), gc.get_freeze_count()))
print(states)
"""


def test_only_run_changes_the_collector_state():
    """Importing the package, building a system and calling ``main()`` leave
    automatic collection and the frozen count as they found them, on or off;
    ``cli.run``, behind ``python -m invkl``, turns collection off and
    freezes every object before the process exits."""
    for start, frozen in (("enable", False), ("disable", True)):
        proc = run_python("-c", _GC_STATES.format(start=start, frozen=frozen))
        assert proc.returncode == 0, proc.stderr
        states = ast.literal_eval(proc.stdout.decode())
        assert len(set(states[:4])) == 1, states
        assert states[0][0] == (start == "enable") and (states[0][1] > 0) == frozen
        assert states[4][0] is False and states[4][1] > states[3][1], states
    enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    assert main(["character", "--type", "A3", "--out", os.devnull]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)


@pytest.mark.parametrize("command", ["table", "kl", "cells", "verify", "character"])
def test_commands_leave_no_garbage_that_grows_with_the_group(command):
    """``cli.run`` turns automatic collection off, which costs no memory
    only while no layer builds reference cycles: with collection off, a
    command on A3 or D5 leaves fewer than 2,000 unreachable objects, and
    no more on D5 (1,920 elements, 156 involutions) than on A3. A cycle per
    element, column, class or cell fails this."""
    extra = ["--max-elements", "2000"] if command == "cells" else []
    enabled = gc.isenabled()
    found = {}
    try:
        for label in ("A2", "A3", "D5"):   # A2 warms the command up
            gc.collect()
            gc.disable()
            assert main([command, "--type", label, "--out", os.devnull, *extra]) == 0
            found[label] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert found["A3"] < 2000 and found["D5"] <= found["A3"], found


class HashingStdout:
    """A stdout stand-in that hashes what is written and keeps each write's size."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.writes = []

    def write(self, text):
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        self.writes.append(len(data))
        return len(text)


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "kl --type A3",
            "022f7712d274ba4ff2b73e0ee509d900c38169c0296789a076be8b7b3f327d5a",
        ),
        (
            "kl --type B3 --format csv",
            "bb0367a120d7633b44befdb89820acc922894df4d71a3fe94400ea4e01932687",
        ),
        (
            "kl --type A3 --max-length 2 --format text",
            "49ffde24136eafbc021a5badb48457ddc1b36b4dc869407629148442e9733813",
        ),
        (
            "cells --type A3",
            "41b4defb4b0fce28f0e7345b270eb77120248e64ca4162d062d70da53a1e95c9",
        ),
        (
            "cells --type B3 --format text",
            "4f9c7285ff670e3c0348c3d1e22f5deab2e8ca2edaf0fcb3b37f6f8b7491c522",
        ),
        (
            "table --type B3 --classic",
            "e1073b804eb9b973b9ccafb26e510f85465eae9c9f1fb9fec791a3d97b1815e6",
        ),
        (
            "kl --type I2(5)xA2 --experimental",
            "fcea756eb9f9ace6652080bc80511364f593ea5908a7b09e9ff9e6ba9dc1bbc0",
        ),
        (
            "table --type A4 --format csv",
            "222f1f8a487e984258d98312ef04b2cf905deffd4ebbe76a3c699ade8ee17fc9",
        ),
        (
            "table --type A3 --twisted 2,1,0",
            "9119d57ac3ca7505237d9f39a18e49709a7396b7a73187d2004bea6f5458c142",
        ),
        (
            "table --type D4 --max-length 5 --format text",
            "830808bd6d78960b692e2de13794825cf8f656e08554d14e096c60cfbad77374",
        ),
        (
            "verify --type A3",
            "f4248f722c7760d454ffada91bda03959ccff438708de4ed8dcdf89d566e2fd0",
        ),
        (
            "verify --type A3 --twisted 2,1,0 --format text",
            "3933800b9ce0d0010a5024dcfea88e4b6f181f16f76842c8de4b43d701de0a26",
        ),
        (
            "table --type A5 --twisted 4,3,2,1,0",
            "3ce5ee4b65489b651a1458eb1740a84d6d0ee848b552566fb59b2f4f3b31e504",
        ),
        (
            "table --type H3 --experimental",
            "43cfcadd9b73242424cab83c1c74ed3c76840025ffb89577eb556b4fdcd2cf8d",
        ),
        (
            "table --type I2(8) --experimental",
            "6e1187ef5620e6de4803319e5e451c44df36f25ea745b671566dc76c3a2c1f77",
        ),
        (
            "table --type B4 --format csv",
            "80e0a23c333571a4ed39d40c9b9ba4b126e4930b7bc81f005bc254e07eb690ac",
        ),
        (
            "table --type D4 --twisted 0,1,3,2 --format text",
            "eba07e1d89a36e647ea0a260a8cd51263b8074e9b5a79fd36a3043ddb934ae67",
        ),
        (
            "character --type A4",
            "43e1cbb1aeafade4609cb8cc6a1d6fcd8c920d9f7e81a6019f3a275c3e4d0a9b",
        ),
        (
            "character --type A4 --format csv",
            "8f3fa18e76e66a4eaf8d17bb7b5b419baf18a8f65e62b4ebc49ad9375327caa0",
        ),
        (
            "character --type A4 --format text",
            "31026ed26a528a5e20fa0766fa8f45adfa6e7de328762f858566f5d7d48f61ef",
        ),
        (
            "cells --type B3 --format csv",
            "1f1dafbbac1b989ffc5c54d6750326122770e31ecf419c433a0b46c4f1066667",
        ),
        (
            "table --type A3 --max-length 0",
            "ed8d965458ebf0cd01138c8c87f1b7a020b9ce54778a2b361574bc595a722e02",
        ),
        (
            "kl --type A3 --max-length 0",
            "ed943ffbfd5d7cbd0ab7542de2440e293b6079b31d50a183f021c4bdf0a4630f",
        ),
        (
            "verify --type B3 --format text",
            "741a408f94a1c367bea5701103fe9801289e31788f972a6577424b859fcbcec0",
        ),
        (
            "kl --type B3 --format text",
            "36cd0dfb0e8b7697068f1c2e676bbfa244c18b3bcf19a7a0b227f0b99d915565",
        ),
        (
            "verify --type B3",
            "3b46737bdc3109df09c3463e12469aa17c22218c9622c87ad82f0c86ee668fc6",
        ),
        (
            "verify --type A3 --twisted 2,1,0",
            "d8e9da36958797b68999705c11702195ef1fe12a17efa1bb3ff61a67754c7133",
        ),
        (
            "verify --type H3 --experimental",
            "481054950870631c388220382f4e3fd1d0bd5fc436a135587cdd5f811f0d1248",
        ),
        (
            "table --type E6",
            "032c1cd59b49d160e2257cf6a28f45ec217ad5c15e91982a10f372704439b83e",
        ),
        (
            "table --type E6 --twisted 5,1,4,3,2,0",
            "f3ae1244f10ee9c7b097b617b0a9b49372eacfffd98aa8b9db1f5f911c12770f",
        ),
        # --max-length walks the involutions only up to that length
        (
            "table --type D5 --max-length 3",
            "d956a95fad55480476839a269da4a58ed92862365398e0adf22277d7c41823d8",
        ),
        (
            "table --type D5 --twisted 0,1,2,4,3 --max-length 3",
            "95f4ab2dc8a044a2d08510a3d12c3126660d5e28d0acafff664c4772412d2f65",
        ),
        (
            "table --type D5 --twisted 0,1,2,4,3 --max-length 3"
            " --format text --classic",
            "4d5445db758f4441efd83ccb30e51df0824466f36a039fd61350dbd2fab5ae2d",
        ),
        (
            "table --type E6 --twisted 5,1,4,3,2,0 --max-length 3",
            "e2b767e662a48bf570a8a0b50820ee8d4060cc9f598ec7aef952648fd8eaa4dc",
        ),
        (
            "table --type E6 --max-length 3 --format csv",
            "bf414fab0c04f588f8b70f4f4d68960f58f60968d47ca8007d670ecbec1df073",
        ),
    ],
)
def test_golden_output_digests(monkeypatch, argv, digest):
    """The whole stdout is pinned by its sha256, so any change is deliberate.

    stdout is hashed as it is written, so the E6 tables (over 100 MB each)
    are neither held in memory nor stored.
    """
    handle = HashingStdout()
    monkeypatch.setattr(cli.sys, "stdout", handle)
    assert main(argv.split()) == 0
    assert handle.sha.hexdigest() == digest


def test_bruhat_order_is_read_from_the_involution_graph(capsys, monkeypatch):
    """table and every suite but canonical-oracle (which decides y <= w in
    the group for its unitriangularity check) run without deciding Bruhat
    order in the group."""
    def no_group_bruhat(self, yid, wid):
        raise AssertionError("bruhat_leq_ids called outside the oracles")

    monkeypatch.setattr(CoxeterSystem, "bruhat_leq_ids", no_group_bruhat)
    names = [n for n in SUITE_NAMES if n != "canonical-oracle"]
    for label, delta in [("B3", None), ("D4", "0,1,3,2")]:
        argv = ["table", "--type", label] + (["--twisted", delta] if delta else [])
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["entries"]
        results = run_suites(build_system(label, delta=delta), names)
        assert all(r.ok() for r in results), label


def test_columns_are_built_without_pair_lookups(capsys, monkeypatch):
    """Column construction pushes whole columns: it never reads a single
    entry through pi."""
    def no_pair_lookup(self, y, w):
        raise AssertionError("pair lookup inside column construction")

    monkeypatch.setattr(CanonicalBasis, "pi", no_pair_lookup)
    for label, delta in [("B3", None), ("D4", [0, 1, 3, 2]), ("H3", None)]:
        module = InvolutionModule(build_system(label, delta=delta))
        basis = CanonicalBasis(module).build()
        assert len(basis._columns) == len(module.involution_ids), label
    code, out, _ = run_cli(capsys, "table", "--type", "B3")
    assert code == 0 and json.loads(out)["entries"]


def test_pair_renderers_match_the_per_pair_oracle():
    """A column renders to parts that join to the texts of its rows, each as
    the per-pair oracle renders it, joined by the format's separator, and
    to a length that the joined text reaches: the json items, csv
    records and text lines of random columns, of a one-row column and of
    the real columns of ``table --classic`` and ``table --max-length 0``."""
    system = build_system("B3")
    rng = random.Random(11)
    ids = system.all_ids()
    identity = system.element_id_from_word([])
    polys = [(), (1,), (0, 1), (1, -1, 2), (-3,), (2**31 - 1, 0, -(2**31))]
    polys += [
        tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5)))
        for _ in range(20)
    ]
    joined = {"item": ",\n    ".join, "record": "\n".join, "line": "\n".join}

    def check(render, poly_key, wid, rows):
        """rows: (y id, u-coefficient tuple, classical tuple or None)."""
        ys = [y for y, _, _ in rows]
        col = {y: pack(p) for y, p, _ in rows if p}
        classic = None
        if rows[0][2] is not None:
            classic = {y: pack(c) for y, _, c in rows if c}
        texts = [
            pair_texts_per_pair(system, poly_key, (y, wid, p, c)) for y, p, c in rows
        ]
        want = {
            "item": [item for item, _, _ in texts],
            "record": [",".join(fields) for _, fields, _ in texts],
            "line": [line for _, _, line in texts],
        }
        for form, join in joined.items():
            parts, least = render[form]((wid, ys, col, classic))
            text = "".join(parts)
            assert text == join(want[form]), (poly_key, form, wid, rows)
            assert least <= len(text), (poly_key, form, wid, rows)

    for poly_key in ("sigma_poly", "poly"):
        render = cli._column_renderers(system, poly_key)
        for _ in range(60):
            wid = rng.choice(ids)
            with_classic = rng.random() < 0.5
            rows = [
                (y, rng.choice(polys), rng.choice(polys) if with_classic else None)
                for y in [identity] + rng.sample(ids[1:], rng.randint(0, 7))
            ]
            check(render, poly_key, wid, rows)
        check(render, poly_key, identity, [(identity, (1,), None)])
        check(render, poly_key, identity, [(identity, (1,), (1,))])

    for max_length, kl in ((None, KLTable(system)), (0, None)):
        module = InvolutionModule(system, max_length)
        basis = CanonicalBasis(module).build()
        render = cli._column_renderers(system, "sigma_poly")
        columns = list(cli._involution_columns(module, basis, kl))
        assert len(columns) == len(module.involution_ids)
        for wid, ys, col, classic in columns:
            rows = [
                (y, unpack(col.get(y, 0)),
                 None if classic is None else unpack(classic.get(y, 0)))
                for y in ys
            ]
            check(render, "sigma_poly", wid, rows)
    assert len(ys) == 1   # --max-length 0: the one column (e, e)


@pytest.mark.parametrize(
    "argv",
    [
        "table --type B3",
        "table --type B3 --classic",
        "table --type D4 --twisted 0,1,3,2",
        "table --type H3 --experimental",
        "table --type A3 --max-length 0",
        "kl --type A3",
        "kl --type I2(5) --experimental",
        "cells --type B3",
        "character --type A4",
        "verify --type A3",
    ],
)
def test_json_output_round_trips(capsys, argv):
    """Every json document reads back to itself through the stdlib encoder."""
    code, out, _ = run_cli(capsys, *argv.split())
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_rows_are_joined_from_texts_rendered_once(capsys, monkeypatch):
    """table and kl build at most one LaurentPoly per distinct u-tuple and
    join or encode each word and each polynomial at most once, per format."""
    spreads, joins, encoded = [], [], []
    spread, word_str, to_json = cli.spread, cli._word_str, cli._json

    def counting_spread(p, step, *rest):
        spreads.append(tuple(p))
        return spread(p, step, *rest)

    def counting_word_str(word):
        joins.append(tuple(word))
        return word_str(word)

    def counting_json(value, depth):
        encoded.append(repr(value))
        return to_json(value, depth)

    monkeypatch.setattr(cli, "spread", counting_spread)
    monkeypatch.setattr(cli, "_word_str", counting_word_str)
    monkeypatch.setattr(cli, "_json", counting_json)
    for argv in ("table --type B3 --classic", "kl --type B4"):
        for fmt in ("json", "csv", "text"):
            for calls in (spreads, joins, encoded):
                calls.clear()
            code, out, _ = run_cli(capsys, *argv.split(), "--format", fmt)
            assert code == 0 and len(out.splitlines()) > 100
            assert spreads and len(spreads) == len(set(spreads)), (argv, fmt)
            words = encoded if fmt == "json" else joins
            assert words and len(words) == len(set(words)), (argv, fmt)


def test_benchmark_commands_keep_their_digests(capsys):
    """The commands of bench/expected.json write the stdout it records."""
    path = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    expected = json.loads(path.read_text())["commands"]
    for argv, want in expected.items():
        code, out, _ = run_cli(capsys, *argv.split())
        assert code == 0, argv
        data = out.encode("utf-8")
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (
            want["sha256"], want["bytes"]
        ), argv


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            "table --type B3",
            "9652593368c2e8e4dafbd93b421acf2f828c9e04845c9b503b2a1e3da85f8586",
        ),
        (
            "table --type D5 --twisted 0,1,2,4,3",
            "f1b67fe11ce343d2b6c9f2819dba052b0805eee8fcb0da21cbf99c6abb235ed9",
        ),
    ],
)
def test_output_leaves_in_64_kib_blocks(monkeypatch, argv, digest):
    """The output is written unchanged in at most ceil(bytes / 65536) + 1
    writes, each but the last of 64 KiB or more (B3 fits in one block, the
    2.5 MB twisted D5 table takes many)."""
    handle = HashingStdout()
    monkeypatch.setattr(cli.sys, "stdout", handle)
    assert main(argv.split()) == 0
    assert handle.sha.hexdigest() == digest
    assert len(handle.writes) <= -(-handle.bytes // 65536) + 1
    assert all(size >= 65536 for size in handle.writes[:-1])


def test_max_length_stops_the_involution_walk(capsys):
    """table --max-length 1 on E8 and A20 interns a few hundred elements,
    not the million of the whole walk, and prints the pairs of length <= 1."""
    for label, rank in (("E8", 8), ("A20", 20)):
        code, out, _ = run_cli(capsys, "table", "--type", label, "--max-length", "1",
                               "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 1 + 1 + 2 * rank, label
        system = build_system(label)
        module = InvolutionModule(system, 1)
        assert len(module.involution_ids) == 1 + rank
        assert system.all_ids(1) == sorted(module.involution_ids)
        assert len(system._lengths) < 4 * rank ** 3, label
    assert len(build_system("E8").lengths) == 1   # building walks nothing


def test_hot_suites_run_no_laurent_arithmetic(monkeypatch):
    """quadratic, braid, bar, canonical-oracle and cs-action pass with the
    LaurentPoly sum and product kernels patched to raise: their module
    arithmetic runs on packed ints."""
    def banned(*args):
        raise AssertionError("LaurentPoly arithmetic in a packed suite")

    names = ["quadratic", "braid", "bar", "canonical-oracle", "cs-action"]
    for label, delta in [("B3", None), ("A3", (2, 1, 0))]:
        system = build_system(label, delta=delta)
        with monkeypatch.context() as patched:
            patched.setattr(laurent, "q_add", banned)
            patched.setattr(laurent, "q_addmul", banned)
            results = run_suites(system, names)
        assert [r.name for r in results] == names
        assert all(r.ok() and r.checks for r in results), label


def test_run_suites_lets_go_of_the_classical_table(monkeypatch):
    """Once parity, its last reader, has run, no suite sees the classical
    table and the context holds none; the results are unchanged."""
    system = build_system("B3")

    def summary(results):
        return [(r.name, r.checks, r.failures, r.skipped) for r in results]

    want = summary(run_suites(system))
    contexts, held = [], []

    class Recording(verify.VerificationContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    def spy(suite):
        def run(ctx):
            held.append(ctx._kl)
            return suite(ctx)
        return run

    monkeypatch.setattr(verify, "VerificationContext", Recording)
    for name in SUITE_NAMES[SUITE_NAMES.index("parity") + 1:]:
        monkeypatch.setitem(verify._SUITES, name, spy(verify._SUITES[name]))
    assert summary(run_suites(system)) == want
    assert held and held == [None] * len(held)
    assert len(contexts) == 1 and contexts[0]._kl is None
    parity = next(r for r in run_suites(system, ["parity"]))
    assert parity.checks and parity.ok()


def test_out_of_memory_exits_2_with_one_line(capsys, monkeypatch):
    """A MemoryError anywhere in a command is exit code 2, one error line
    on stderr and nothing on stdout, as for the element cap."""
    def exhausted(ctx):
        raise MemoryError

    monkeypatch.setitem(verify._SUITES, "parity", exhausted)
    code, out, err = run_cli(capsys, "verify", "--type", "A2")
    assert code == 2 and out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1
