"""Tests for the benchmark's own code (not for invkl)."""

import hashlib
import json
import re
import sys

from bench import ladder, measure, run, spans, traced
from bench.workloads import END_TO_END, PER_LAYER, WORKLOADS, Command, Workload, manifest


class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_spans_nest_under_the_open_span():
    tr = spans.Tracer(clock=FakeClock(0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("a.inner"):
                pass
        with tr.span("b"):
            pass
    root, a, inner, b = tr.spans
    assert (root.parent, a.parent, inner.parent, b.parent) == (None, root.id, a.id, root.id)
    assert [(s.start, s.end) for s in tr.spans] == [(0, 10), (1, 4), (2, 3), (6, 7)]
    # self time = duration - time of the direct children; a grandchild is
    # inside its parent's time and does not count twice
    assert root.duration - spans.child_time(root, tr.spans) == 10 - 3 - 1
    assert a.duration - spans.child_time(a, tr.spans) == 3 - 1
    assert spans.child_time(inner, tr.spans) == 0
    assert spans.totals_by_name(tr.spans) == {"root": 10, "a": 3, "a.inner": 1, "b": 1}


def test_spans_round_trip_through_json():
    tr = spans.Tracer(clock=FakeClock(0.0, 1.0))
    with tr.span("only"):
        tr.count("n", 2)
    tr.count("n", 3)
    data = json.loads(json.dumps(tr.to_json()))
    assert spans.spans_from_json(data["spans"]) == tr.spans
    assert data["counts"] == {"n": 5}


def _python(code):
    return [sys.executable, "-c", code]


def test_check_output_passes_a_matching_digest_and_flag():
    res = measure.run_child(_python("print('{\"ok\": true}')"))
    assert res.exit_code == 0 and res.nbytes == len(res.stdout)
    assert res.sha256 == hashlib.sha256(res.stdout).hexdigest()
    assert measure.check_output(res, res.sha256, "ok") is None


def test_check_output_fails_a_digest_mismatch_and_a_false_flag():
    res = measure.run_child(_python("print('{\"ok\": false}')"))
    assert "digest" in measure.check_output(res, "0" * 64)
    assert "flag" in measure.check_output(res, res.sha256, "ok")
    assert measure.check_output(res, None) == "no recorded digest"


def test_check_output_fails_a_nonzero_exit():
    res = measure.run_child(_python("import sys; sys.stderr.write('boom'); sys.exit(3)"))
    assert res.exit_code == 3
    assert measure.check_output(res, res.sha256).startswith("exit code 3: boom")


def test_run_child_kills_at_the_timeout():
    res = measure.run_child(_python("import time; time.sleep(30)"), timeout=0.5)
    assert res.exit_code < 0 and 0.5 <= res.wall_s < 10


def _tiny_run(*commands):
    run.OUT.mkdir(exist_ok=True)
    return run.Run(Workload("tiny", "test", commands), seed=0, seconds=0)


def test_a_digest_mismatch_counts_as_a_failed_run():
    cmd = Command("table", "A2", "A2")
    r = _tiny_run(cmd)
    r.digests = {cmd.key: {"sha256": "0" * 64}}
    rep = r.rep(with_setup=False)
    assert r.attempted == 1 and len(r.failures) == 1
    assert "digest" in rep["commands"][cmd.key]["failure"]


def test_a_nonzero_exit_counts_as_a_failed_run():
    good, bad = Command("table", "A2", "A2"), Command("table", "Q7", "Q7")
    r = _tiny_run(good, bad)
    probe = r.child(run.cli_argv(good), run.cli_env())
    r.digests = {good.key: {"sha256": probe.sha256}}
    rep = r.rep(with_setup=True)
    # SETUP_SPAWNS set-up spawns and one command run per type; all Q7 runs fail
    n = run.SETUP_SPAWNS
    assert r.attempted == 2 * (n + 1) and len(r.failures) == n + 1
    assert rep["commands"][bad.key]["exit_code"] == 2
    assert rep["commands"][good.key]["failure"] is None
    assert set(rep["setup"]) == {"A2", "Q7"}


def test_times_are_scaled_by_the_calibration_loops_around_the_child(monkeypatch):
    calibs = iter([run.REF_CALIB_S * 2, run.REF_CALIB_S * 4])
    monkeypatch.setattr(run.measure, "calibrate", lambda: next(calibs))
    cmd = Command("table", "A2", "A2")
    r = _tiny_run(cmd)
    r.digests = {cmd.key: {"sha256": None}}
    rep = r.rep(with_setup=False)
    row = rep["commands"][cmd.key]
    # the loops ran 2x and 4x slower than on the reference host: mean 3x
    assert row["scale"] == (1 / 3) ** run.HOST_EXPONENT
    assert rep["wall_s"] == row["wall_s"] * row["scale"] and rep["raw_wall_s"] == row["wall_s"]
    assert 0 < rep["cpu_s"] <= row["wall_s"]


def test_a_capped_ladder_entry_is_recorded_as_exceeded_cap():
    argv = _python(
        "import json, time\n"
        "print(json.dumps({'layer': 'interning', 'seconds': 0.1}), flush=True)\n"
        "time.sleep(30)\n"
    )
    entry = ladder.run_entry("slow", argv, 1.0)
    assert entry["status"] == "exceeded_cap"
    assert entry["layers"] == [{"layer": "interning", "seconds": 0.1}]
    assert 1.0 <= entry["wall_s"] < 10


def test_a_crashing_ladder_entry_is_recorded_as_failed():
    entry = ladder.run_entry("bad", _python("raise SystemExit('no such type')"), 30.0)
    assert entry["status"] == "failed" and "no such type" in entry["error"]


def test_traced_run_covers_every_command_kind():
    kinds = ("table", "kl", "cells", "verify", "character")
    workload = Workload("tiny", "test", tuple(Command(k, "A2", "A2") for k in kinds))
    tr, failures = traced.trace_workload(workload, range(len(kinds)))
    assert failures == []
    roots = [s for s in tr.spans if s.parent is None]
    assert [s.name for s in roots if s.name.startswith("cli.")] == [f"cli.{k}.A2" for k in kinds]
    for s in tr.spans:
        if s.name == "coxeter.build_system":
            assert tr.spans[s.parent].name.startswith("cli.")
    assert tr.counts["coxeter.involutions"] == 4 * 4  # table, cells, verify, character
    assert tr.counts["cells.count"] == 3
    assert tr.counts["verify.A2.quadratic.checks"] > 0
    names = {s.name + "_s" for s in tr.spans} | set(tr.counts)
    declared = {m.name for m in PER_LAYER}
    assert {n for n in names if not n.startswith(("cli.", "verify."))} <= declared


def test_missing_program_exits_nonzero_without_a_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    assert run.main(["--workload", "classical-kl", "--seed", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_is_written_and_within_the_benchmark_limits():
    data = manifest()
    assert json.loads((run.ROOT / "BENCHMARK.json").read_text()) == data
    names = [w["name"] for w in data["workloads"]]
    metrics = data["end_to_end"] + data["per_layer"]
    assert 2 <= len(names) <= 8 and all(len(w["why"]) <= 200 for w in data["workloads"])
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(_NAME.match(n) for n in names + [m["name"] for m in metrics])
    assert all(_UNIT.match(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in data["end_to_end"])
    setup = next(m for m in data["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert 1 <= len(data["per_layer"]) <= 128
    assert set(WORKLOADS) == set(names) and len(END_TO_END) == len(data["end_to_end"])
