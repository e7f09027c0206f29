import json
from pathlib import Path

import pytest

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.laurent import ONE
from invkl.packed import SLOT, pack
from invkl.verify import (
    VerificationContext, run_suites, suite_canonical_oracle, suite_cs_action,
    suite_descent_stability,
)

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
    _check_descent_stability_reports_a_corrupted_entry("B3", None)


def test_descent_stability_is_a_hard_check_on_a_twisted_system():
    """The same on twisted A3: the failure is not advisory, since the
    canonical build copies rows by descent stability for every delta."""
    _check_descent_stability_reports_a_corrupted_entry("A3", (2, 1, 0))


def _check_descent_stability_reports_a_corrupted_entry(label, delta):
    ctx = VerificationContext(build_system(label, delta=delta))
    clean = suite_descent_stability(ctx)
    assert clean.ok() and clean.checks > 0 and not clean.advisory
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
    assert res.checks == clean.checks and not res.ok() and not res.advisory
    record = {"s": s, "y": list(system.word_of(yid)), "w": list(system.word_of(wid))}
    assert record in res.failures


# canonical-oracle and cs-action check counts, as the checks before the
# a-basis rework counted them: two per involution, and one per (w, s)
PINNED_COUNTS = {
    ("B4", None): (152, 304),
    ("F4", None): (280, 560),
    ("D5", None): (312, 780),
    ("H3", None): (64, 96),
    ("A3", (2, 1, 0)): (20, 30),
    ("D4", (0, 1, 3, 2)): (64, 128),
}
FAULT_TYPES = [("A3", None), ("B3", None), ("H3", None), ("A3", (2, 1, 0))]


@pytest.mark.parametrize("label, delta", list(PINNED_COUNTS))
def test_canonical_check_counts_are_pinned(label, delta):
    results = run_suites(build_system(label, delta=delta), ["canonical-oracle", "cs-action"])
    assert all(r.ok() for r in results)
    assert tuple(r.checks for r in results) == PINNED_COUNTS[label, delta]


def _kinds_at(ctx):
    """{w as a word: the failure kinds canonical-oracle reports there}."""
    out = {}
    for f in suite_canonical_oracle(ctx).failures:
        out.setdefault(tuple(f["w"]), set()).add(f["kind"])
    return out


@pytest.mark.parametrize("label, delta", FAULT_TYPES)
def test_canonical_oracle_reports_every_corrupted_entry(label, delta):
    """For every w and every y <= w (w included), the stored P(y, w) of the
    built table is corrupted in turn by +-1 on one coefficient within the
    degree bound and by a term u^((gap+1)/2) past it, and each w gains a
    P = 1 at a shorter y that is not below w in the group.  Each fault is
    reported at w and nowhere else: +-1 below the diagonal breaks only bar
    invariance, the other two unitriangularity.  A_w reads the stored
    column itself, so it sees each fault; every entry is restored."""
    system = build_system(label, delta=delta)
    ctx = VerificationContext(system)
    mod = ctx.module
    assert not _kinds_at(ctx)
    length = system.length_of
    seen = 0
    for wid in mod.involution_ids:
        col = ctx.canonical.column(wid)
        assert ctx.a_vector(wid).ints is col
        word = tuple(system.word_of(wid))
        lw = length(wid)
        for n, yid in enumerate(mod.interval(wid)):
            gap = lw - length(yid)
            p = col[yid]
            bound = (gap + 1) // 2 or 1   # the u-coefficients P(y, w) may have
            k = n % bound
            sign = 1 if n % 2 else -1
            for fault, kind in [
                (p + (sign << (SLOT * k)), "not_bar_invariant" if gap else "not_unitriangular"),
                (p + (1 << (SLOT * ((gap + 1) // 2))), "not_unitriangular"),
            ]:
                col[yid] = fault
                kinds = _kinds_at(ctx)
                col[yid] = p
                assert list(kinds) == [word] and kind in kinds[word], (wid, yid, fault)
                seen += 1
        yid = next(
            (y for y in mod.involution_ids
             if length(y) < lw and not system.bruhat_leq_ids(y, wid)),
            None,
        )
        if yid is not None:
            col[yid] = pack((1,))
            kinds = _kinds_at(ctx)
            del col[yid]
            assert list(kinds) == [word] and "not_unitriangular" in kinds[word]
            seen += 1
    assert not _kinds_at(ctx) and seen > 2 * len(mod.involution_ids)


@pytest.mark.parametrize("label, delta", FAULT_TYPES)
def test_cs_action_reports_exactly_the_pair_of_a_wrong_ms_constant(
    label, delta, monkeypatch
):
    """One nonzero ms_constant(s, x, w) gains 1: that (w, s) is the one
    failure of cs-action, and its error names the row a_x."""
    system = build_system(label, delta=delta)
    ctx = VerificationContext(system)
    clean = suite_cs_action(ctx)
    assert clean.ok()
    s, wid, xid = next(
        (s, w, x)
        for w in ctx.module.involution_ids
        for s in range(system.rank)
        for x in ctx.canonical.ms_constants(s, w)
    )
    ms_constants = CanonicalBasis.ms_constants

    def shifted(self, t, zid):
        out = dict(ms_constants(self, t, zid))
        if (t, zid) == (s, wid):
            out[xid] = out[xid] + ONE
        return out

    monkeypatch.setattr(CanonicalBasis, "ms_constants", shifted)
    res = suite_cs_action(ctx)
    assert res.checks == clean.checks
    assert [(f["s"], f["w"]) for f in res.failures] == [(s, list(system.word_of(wid)))]
    assert f"y = {system.word_of(xid)}:" in res.failures[0]["error"]
