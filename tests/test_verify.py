import json
from pathlib import Path

from invkl import build_system
from invkl.verify import VerificationContext, run_suites, suite_descent_stability

EXPECTED = Path(__file__).resolve().parents[1] / "bench" / "expected.json"


def test_b3_suite_counts_match_the_benchmark_manifest():
    """Every verify.B3.<suite>.checks count that the benchmark pins is what
    run_suites gives, so a drift fails here before the traced run."""
    counts = json.loads(EXPECTED.read_text())["counts"]["verify-character"]
    pinned = {
        key.split(".")[2]: value
        for key, value in counts.items()
        if key.startswith("verify.B3.") and key.endswith(".checks")
    }
    assert len(pinned) == 9
    got = {r.name: r.checks for r in run_suites(build_system("B3"))}
    assert {name: got[name] for name in pinned} == pinned


def test_descent_stability_reports_a_corrupted_entry():
    """One stored entry of a built column changed: the stored ints of y and
    its s-partner no longer agree, and the suite records it."""
    ctx = VerificationContext(build_system("B3"))
    clean = suite_descent_stability(ctx)
    assert clean.ok() and clean.checks > 0
    mod, system = ctx.module, ctx.system
    wid = next(
        w for w in mod.involution_ids
        if system.left_descents(w) and len(mod.interval(w)) > 2
    )
    s = system.left_descents(wid)[0]
    yid = next(
        y for y in mod.interval(wid) if mod.action_case(s, y)[2] != y
    )
    col = ctx.canonical.column(wid)
    col[yid] = col.get(yid, 0) + 1
    res = suite_descent_stability(ctx)
    assert res.checks == clean.checks and not res.ok()
    record = {"s": s, "y": list(system.word_of(yid)), "w": list(system.word_of(wid))}
    assert record in res.failures
