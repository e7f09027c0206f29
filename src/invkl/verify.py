"""Runtime verification suites over a whole Coxeter system.

Each suite re-derives one family of identities and reports how many checks
ran and which failed.  Failures are collected, not raised, so exploratory
runs on experimental systems report counterexamples instead of crashing;
the caller decides whether a failure is fatal.  Advisory suites cover
statements whose twisted variants are expected but not load-bearing.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .canonical import CanonicalBasis
from .errors import InvariantError
from .invmodule import InvolutionModule, MVector, bar_table_dense_solve
from .klclassic import KLTable
from .laurent import LaurentPoly, ONE, ZERO, domination_failure, u_pow
from .specialize import SpecializedModule

__all__ = ["SuiteResult", "VerificationContext", "run_suites", "SUITE_NAMES"]

_RNG_SEED = 987654321


class SuiteResult:
    """One suite's outcome: checks run, failure records, advisory, skip reason."""

    def __init__(self, name, advisory=False):
        self.name = name
        self.checks = 0
        self.failures = []
        self.advisory = advisory
        self.skipped = ""

    def ok(self):
        return not self.failures

    def fail(self, detail):
        self.failures.append(detail)


class VerificationContext:
    """Lazily built shared state for the suites."""

    def __init__(self, system, jobs=1):
        self.system = system
        self.jobs = jobs
        self._module = None
        self._canonical = None
        self._kl = None

    @property
    def module(self):
        if self._module is None:
            self._module = InvolutionModule(self.system)
        return self._module

    @property
    def canonical(self):
        if self._canonical is None:
            self._canonical = CanonicalBasis(self.module).build(jobs=self.jobs)
        return self._canonical

    @property
    def kl(self):
        if self._kl is None:
            self._kl = KLTable(self.system)
        return self._kl

    def random_even_vector(self, rng):
        entries = {}
        for wid in self.module.involution_ids:
            if rng.random() < 0.6:
                poly = ZERO
                for _ in range(3):
                    poly = poly + LaurentPoly(
                        (rng.randint(-4, 4),), 2 * rng.randint(-3, 3)
                    )
                if not poly.is_zero:
                    entries[wid] = poly
        return MVector(entries)


def _word(system, wid):
    return list(system.word_of(wid))


def suite_quadratic(ctx):
    """(T_s + 1)(T_s - u^2) kills every basis vector."""
    res = SuiteResult("quadratic")
    mod = ctx.module
    uu = u_pow(2)
    for wid in mod.involution_ids:
        m = mod.basis(wid)
        for s in range(ctx.system.rank):
            first = mod.ts_action(s, m)
            lhs = mod.ts_action(s, first) - first.scaled(uu - ONE) - m.scaled(uu)
            res.checks += 1
            if not lhs.is_zero:
                res.fail({"s": s, "w": _word(ctx.system, wid)})
    return res


def suite_braid(ctx):
    """Alternating generator products of length m(s,t) agree on the basis."""
    res = SuiteResult("braid")
    mod = ctx.module
    sys = ctx.system
    for s in range(sys.rank):
        for t in range(s + 1, sys.rank):
            m_order = sys.coxeter_matrix[s][t]
            for wid in mod.involution_ids:
                a = mod.basis(wid)
                b = mod.basis(wid)
                for k in range(m_order):
                    a = mod.ts_action(s if k % 2 == 0 else t, a)
                    b = mod.ts_action(t if k % 2 == 0 else s, b)
                res.checks += 1
                if a != b:
                    res.fail({"s": s, "t": t, "w": _word(sys, wid)})
    return res


def suite_bar(ctx):
    """Involutivity, diagonal, triangularity, intertwining, descent choice."""
    res = SuiteResult("bar")
    mod = ctx.module
    sys = ctx.system
    rng = random.Random(_RNG_SEED)
    for wid in mod.involution_ids:
        bw = mod.bar_basis(wid)  # construction already asserts the invariants
        res.checks += 1
        if mod.bar_mvector(bw) != mod.basis(wid):
            res.fail({"kind": "bar_squared", "w": _word(sys, wid)})
        for s in sys.left_descents(wid):
            res.checks += 1
            if mod.bar_basis(wid, choice=s) != bw:
                res.fail(
                    {"kind": "descent_choice", "w": _word(sys, wid), "s": s}
                )
    for _ in range(12):
        m = ctx.random_even_vector(rng)
        bm = mod.bar_mvector(m)
        for s in range(sys.rank):
            lhs = mod.bar_mvector(mod.ts_action(s, m) + m)
            rhs = (mod.ts_action(s, bm) + bm).scaled(u_pow(-2))
            res.checks += 1
            if lhs != rhs:
                res.fail({"kind": "intertwining", "s": s})
    return res


def suite_bar_oracle(ctx):
    """Dense linear-solve recomputation of the bar table (small ranks)."""
    res = SuiteResult("bar-oracle")
    if ctx.system.rank > 3:
        res.skipped = "rank > 3"
        return res
    table = bar_table_dense_solve(ctx.module)
    for wid in ctx.module.involution_ids:
        res.checks += 1
        if table[wid] != ctx.module.bar_basis(wid):
            res.fail({"w": _word(ctx.system, wid)})
    return res


def suite_canonical_oracle(ctx):
    """Recursive columns equal bar-fixed columns; columns are bar-invariant."""
    res = SuiteResult("canonical-oracle")
    cb = ctx.canonical
    mod = ctx.module
    for wid in mod.involution_ids:
        res.checks += 1
        if cb.column_barfix(wid) != cb.column(wid):
            res.fail({"kind": "route_mismatch", "w": _word(ctx.system, wid)})
        av = cb.a_vector(wid)
        res.checks += 1
        if mod.bar_extended(av) != av:
            res.fail({"kind": "not_bar_invariant", "w": _word(ctx.system, wid)})
    return res


def suite_parity(ctx):
    """Coefficientwise domination and parity of P against the involution table.

    A failure names the smallest v-exponent at which it fails.
    """
    res = SuiteResult("parity")
    sys = ctx.system
    cb = ctx.canonical
    kl = ctx.kl
    for wid in ctx.module.involution_ids:
        for yid in ctx.module.interval(wid):
            p = kl.kl_poly_ids(yid, wid)
            ps = cb.sigma_kl(yid, wid)
            res.checks += 1
            if yid == wid and ps != ONE:
                res.fail({"kind": "diagonal", "w": _word(sys, wid)})
                continue
            e = domination_failure(ps, p)
            if e is not None:
                res.fail(
                    {
                        "kind": "domination",
                        "y": _word(sys, yid),
                        "w": _word(sys, wid),
                        "v_exponent": e,
                    }
                )
    return res


def suite_descent_stability(ctx):
    """P(y, w) is constant along the descent moves of each column."""
    res = SuiteResult("descent-stability", advisory=ctx.system.is_twisted)
    sys = ctx.system
    cb = ctx.canonical
    for wid in ctx.module.involution_ids:
        for s in range(sys.rank):
            if not sys.is_left_descent(s, wid):
                continue
            for yid in ctx.module.interval(wid):
                _commuting, _up, other = ctx.module.action_case(s, yid)
                res.checks += 1
                if cb.sigma_kl(yid, wid) != cb.sigma_kl(other, wid):
                    res.fail(
                        {
                            "s": s,
                            "y": _word(sys, yid),
                            "w": _word(sys, wid),
                        }
                    )
    return res


def suite_cs_action(ctx):
    """The generator action on the canonical basis has the predicted shape."""
    res = SuiteResult("cs-action")
    for wid in ctx.module.involution_ids:
        for s in range(ctx.system.rank):
            res.checks += 1
            try:
                ctx.canonical.cs_action_on_A(s, wid)
            except InvariantError as exc:
                res.fail({"s": s, "w": _word(ctx.system, wid), "error": str(exc)})
    return res


def suite_specialize(ctx):
    """u=1 module: axioms, character identities, grading, sign cocycle."""
    res = SuiteResult("specialize-u1")
    if ctx.system.is_twisted:
        res.skipped = "twisted system"
        return res
    if not ctx.system.crystallographic:
        res.skipped = "non-crystallographic system"
        return res
    sys = ctx.system
    spec = SpecializedModule(ctx.module)
    mats = spec.m1_matrices()
    # m1_matrices builds its columns from apply_gen, so squaring each basis
    # vector's image checks that every generator matrix squares to Id.
    for s in mats:
        res.checks += 1
        if any(
            spec.apply_gen(s, spec.apply_gen(s, {w: 1})) != {w: 1}
            for w in spec.basis
        ):
            res.fail({"kind": "involution_matrix", "s": s})
    for cls in sys.conjugacy_classes():
        rep = cls[0]
        a = spec.character_m1(rep)
        b = spec.character_gr_m1(rep)
        c = spec.induced_character_sum(rep)
        res.checks += 1
        if not (a == b == c):
            res.fail(
                {
                    "kind": "character",
                    "class_rep": _word(sys, rep),
                    "values": [a, b, c],
                }
            )
    report = spec.h_grading_check()
    res.checks += (
        report["ascent_instances"]
        + report["filtration_checks"]
        + report["graded_action_checks"]
    )
    for v in report["violations"]:
        res.fail({"kind": "grading", "detail": v})
    rng = random.Random(_RNG_SEED + 1)
    all_ids = sys.all_ids()
    for _ in range(40):
        x = rng.choice(all_ids)
        y = rng.choice(all_ids)
        wid = rng.choice(ctx.module.involution_ids)
        xy = sys.element_id_from_word(sys.word_of(x) + sys.word_of(y))
        res.checks += 1
        lhs = spec.epsilon(xy, wid)
        rhs = spec.epsilon(x, sys.conjugate(y, wid)) * spec.epsilon(y, wid)
        if lhs != rhs:
            res.fail(
                {"kind": "cocycle", "x": _word(sys, x), "y": _word(sys, y)}
            )
    # specialization coherence at a generic rational point: u = t^2
    t_val = Fraction(3, 2)
    for wid in ctx.module.involution_ids:
        for s in range(sys.rank):
            generic = ctx.module.ts_action(s, ctx.module.basis(wid))
            commuting, up, other = ctx.module.action_case(s, wid)
            q = t_val * t_val
            if commuting and up:
                expected = {wid: q, other: q + 1}
            elif commuting:
                expected = {wid: q * q - q - 1, other: q * q - q}
            elif up:
                expected = {other: Fraction(1)}
            else:
                expected = {wid: q * q - 1, other: q * q}
            got = {}
            for y, f in generic.entries.items():
                val = f.specialize(t_val)
                if val:
                    got[y] = val
            expected = {y: v for y, v in expected.items() if v}
            res.checks += 1
            if got != expected:
                res.fail(
                    {"kind": "coherence", "s": s, "w": _word(sys, wid)}
                )
    return res


_SUITES = {
    "quadratic": suite_quadratic,
    "braid": suite_braid,
    "bar": suite_bar,
    "bar-oracle": suite_bar_oracle,
    "canonical-oracle": suite_canonical_oracle,
    "parity": suite_parity,
    "descent-stability": suite_descent_stability,
    "cs-action": suite_cs_action,
    "specialize-u1": suite_specialize,
}

SUITE_NAMES = list(_SUITES)


def run_suites(system, names=None):
    """Run the requested suites; every InvariantError becomes a failure record."""
    ctx = VerificationContext(system)
    results = []
    for name in names or SUITE_NAMES:
        suite = _SUITES[name]
        try:
            results.append(suite(ctx))
        except InvariantError as exc:
            res = SuiteResult(name)
            res.checks += 1
            res.fail({"kind": "invariant_error", "error": str(exc)})
            results.append(res)
    return results
