"""Runtime verification suites over a whole Coxeter system.

Each suite re-derives one family of identities and reports how many checks
ran and which failed.  Failures are collected, not raised, so exploratory
runs on experimental systems report counterexamples instead of crashing;
the caller decides whether a failure is fatal.  No suite is advisory:
the canonical build copies rows by descent stability on every system, so
descent-stability is a hard check there too.

The canonical basis is checked by its definition, in the a-basis: the
canonical-oracle suite holds each column to unitriangularity and bar(A_w) =
A_w, and the cs-action suite compares c_s A_w with its closed form, each
reading A_w from one memo per context (``VerificationContext.a_vector``).

``bar_table_dense_solve``, the bar-oracle suite's independent route, solves
the defining constraints of the bar involution as exact linear systems over
Z, one fraction-free Gauss-Jordan elimination (``specialize.bareiss``) per
column w whose matrix (phi-bar shifted over a window of u-exponents, for
each defining equation) is shared by every row y, each y being one
right-hand side of that elimination.  No suite uses rational arithmetic:
the u=1 coherence check compares packed polynomials, and the solve divides
by a pivot only where the quotient is exact.
"""

from __future__ import annotations

import random
import re

from .canonical import CanonicalBasis
from .errors import InvariantError
from .invmodule import InvolutionModule, MVector, a_vector
from .klclassic import KLTable
from .laurent import LaurentPoly, ONE, domination_failure, spread, u_pow, v_pow
from .packed import in_slots, pack, unpack
from .specialize import SpecializedModule, bareiss, partition_count

__all__ = [
    "SuiteResult", "VerificationContext", "run_suites", "SUITE_NAMES",
    "bar_table_dense_solve",
]

_RNG_SEED = 987654321
_UU = u_pow(2)
_UU_M1 = LaurentPoly((-1, 0, 0, 0, 1))   # u^2 - 1
_V2 = v_pow(2)
_VINV2 = v_pow(-2)
_V_PLUS = LaurentPoly((1, 0, 1), -1)         # v + v^-1
_V2_PLUS = LaurentPoly((1, 0, 0, 0, 1), -2)  # v^2 + v^-2
# T_s a_w = own a_w + partner a_p by the case (commuting, up) of (s, w), p
# its s-partner, as u-coefficients: the literal cases of the module, kept
# apart from ``involutions.CASE_POLYS``.  Packed in 64-bit u-slots, which
# are the 32-bit v-slots of a basis vector's T_s image.
_TS_CASES = {
    case: (pack(own), pack(partner))
    for case, (own, partner) in {
        (True, True): ((0, 1), (1, 1)),            # u a_w + (u+1) a_p
        (True, False): ((-1, -1, 1), (0, -1, 1)),  # (u^2-u-1) a_w + (u^2-u) a_p
        (False, True): ((), (1,)),                 # a_p
        (False, False): ((-1, 0, 1), (0, 0, 1)),   # (u^2-1) a_w + u^2 a_p
    }.items()
}


class SuiteResult:
    """One suite's outcome: checks run, failure records, skip reason.

    ``advisory`` is False for every suite: each failure fails a run.  The
    verify JSON still reports it.
    """

    advisory = False

    def __init__(self, name):
        self.name = name
        self.checks = 0
        self.failures = []
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
        self._a_vectors = {}   # wid -> a_vector(canonical, wid)

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

    def a_vector(self, wid):
        """A_w as a module element (``invmodule.a_vector``); memoized."""
        vec = self._a_vectors.get(wid)
        if vec is None:
            vec = self._a_vectors[wid] = a_vector(self.canonical, wid)
        return vec

    @property
    def kl(self):
        if self._kl is None:
            self._kl = KLTable(self.system)
        return self._kl

    def random_even_vector(self, rng):
        """About 60% of the involutions, each with three terms c u^e,
        |c| <= 4 and |e| <= 3, summed as coefficients of v^-6 .. v^6."""
        entries = {}
        for wid in self.module.involution_ids:
            if rng.random() < 0.6:
                coeffs = [0] * 13
                for _ in range(3):
                    c = rng.randint(-4, 4)
                    coeffs[2 * rng.randint(-3, 3) + 6] += c
                entries[wid] = LaurentPoly(coeffs, -6)
        return MVector(entries)


def _word(system, wid):
    return list(system.word_of(wid))


def suite_quadratic(ctx):
    """(T_s + 1)(T_s - u^2) kills every basis vector."""
    res = SuiteResult("quadratic")
    mod = ctx.module
    for wid in mod.involution_ids:
        m = mod.basis(wid)
        for s in range(ctx.system.rank):
            first = mod.ts_action(s, m)
            lhs = mod.ts_action(s, first) - first.scaled(_UU_M1) - m.scaled(_UU)
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
        for s in range(sys.rank):
            if mod.descent_masks[wid] >> s & 1:
                res.checks += 1
                if mod._bar_step(wid, s) != mod.bar_column(wid):
                    res.fail({"kind": "descent_choice", "w": _word(sys, wid), "s": s})
    for _ in range(12):
        m = ctx.random_even_vector(rng)
        bm = mod.bar_mvector(m)
        for s in range(sys.rank):
            # bar((T_s + 1) m) = u^-2 (T_s + 1) bar(m), with T_s + 1 = v^2 c_s
            lhs = mod.bar_mvector(mod.cs_action(s, m).scaled(_V2))
            rhs = mod.cs_action(s, bm).scaled(_VINV2)
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
    """Each column is the canonical one, by its definition: two checks per w.

    ``unitriangular``: P(w, w) = 1, and every other stored row y has
    l(y) < l(w), u-degree at most (l(w)-l(y)-1)/2 with signed
    ``COEFF_BITS``-bit coefficients (``in_slots``), and y <= w decided
    through the group, not through ``interval``.  ``bar-invariant``:
    bar(A_w) = A_w, one int product per triple.  The bar table is
    unitriangular (checked as it is built, and by the bar suites), so at
    most one bar-invariant element is a'_w plus a v^-1 Z[v^-1] combination
    of the a'_y: the two checks together say that the recursive column is
    the bar-fixed one (Kazhdan-Lusztig 1979; Lusztig 2012).
    """
    res = SuiteResult("canonical-oracle")
    cb = ctx.canonical
    mod = ctx.module
    sys = ctx.system
    length = sys.length_of
    for wid in mod.involution_ids:
        lw = length(wid)
        res.checks += 1
        col = cb.column(wid)
        if col.get(wid) != 1 or not all(
            (gap := lw - length(yid)) > 0
            and in_slots(p, (gap + 1) // 2)
            and sys.bruhat_leq_ids(yid, wid)
            for yid, p in col.items()
            if yid != wid
        ):
            res.fail({"kind": "not_unitriangular", "w": _word(sys, wid)})
        av = ctx.a_vector(wid)
        res.checks += 1
        if mod.bar_extended(av) != av:
            res.fail({"kind": "not_bar_invariant", "w": _word(sys, wid)})
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
    """P(y, w) is constant along the descent moves of each column.

    Stored entries are compared as packed ints, which is exact, since the
    packing is one-to-one.  The canonical build copies the rows it does not
    solve by this identity (proved for every delta in the ``canonical``
    module docstring), so it is not advisory on twisted systems either.
    """
    res = SuiteResult("descent-stability")
    sys = ctx.system
    cb = ctx.canonical
    mod = ctx.module
    for wid in mod.involution_ids:
        col = cb.column(wid)
        below = mod.interval(wid)
        mask = mod.descent_masks[wid]
        for s in range(sys.rank):
            if not mask >> s & 1:
                continue
            cases = mod.cases[s]
            for yid in below:
                other = cases[yid][2]
                res.checks += 1
                if col.get(yid, 0) != col.get(other, 0):
                    res.fail(
                        {
                            "s": s,
                            "y": _word(sys, yid),
                            "w": _word(sys, wid),
                        }
                    )
    return res


def suite_cs_action(ctx):
    """c_s A_w has its closed form, compared in the a-basis.

    That is (v^2 + v^-2) A_w when s is a left descent of w; otherwise A_p,
    p the s-partner of w, times v + v^-1 when s commutes with w, plus
    ms_constant(s, x, w) A_x for each x of ``ms_constants(s, w)``.  One
    check per (w, s).  A failure names the ShortLex-last a_y whose
    coefficients differ: the top of the difference, and so an A_y whose
    coefficient is wrong.
    """
    res = SuiteResult("cs-action")
    sys = ctx.system
    cb = ctx.canonical
    mod = ctx.module
    for wid in mod.involution_ids:
        a_w = ctx.a_vector(wid)
        for s in range(sys.rank):
            res.checks += 1
            try:
                got = mod.cs_action(s, a_w)
                commuting, up, other = mod.action_case(s, wid)
                if up:
                    expected = ctx.a_vector(other).scaled(_V_PLUS if commuting else ONE)
                    for xid, c in cb.ms_constants(s, wid).items():
                        expected = expected + ctx.a_vector(xid).scaled(c)
                else:
                    expected = a_w.scaled(_V2_PLUS)
            except InvariantError as exc:
                res.fail({"s": s, "w": _word(sys, wid), "error": str(exc)})
                continue
            if got != expected:
                yid = next(
                    y for y in reversed(mod.involution_ids)
                    if got.get(y) != expected.get(y)
                )
                res.fail({
                    "s": s,
                    "w": _word(sys, wid),
                    "error": "c_s A_w differs from its closed form at a_y, "
                    f"y = {sys.word_of(yid)}: got {got.get(yid)}, "
                    f"expected {expected.get(yid)}",
                })
    return res


def suite_specialize(ctx):
    """The u=1 module: its action, characters, grading and sign cocycle.

    One pass over the pairs (w, s) reads s . a_w from the u=1 case
    formulas and T_s a_w from the generic module, once each, and checks:
    ``coherence``, T_s a_w at v = 1 equals s . a_w and T_s a_w itself, as
    packed polynomials, equals the literal table of the four cases
    (``_TS_CASES``); ``involution_matrix``, s squares to the identity (one
    check per generator); ``grading``, h rises along commuting ascents, the
    h-filtration is stable and its graded action is the signed
    conjugation.  One pass over the conjugacy classes checks that the
    three character routes agree (``character``) and, on a system
    labelled A<n-1> (not a product, not a raw matrix), that the module is
    a model: sum |C| chi(C)^2 = |W| p(n) (``model``).  Forty random
    triples check the cocycle of epsilon (``cocycle``).
    """
    res = SuiteResult("specialize-u1")
    if ctx.system.is_twisted:
        res.skipped = "twisted system"
        return res
    if not ctx.system.crystallographic:
        res.skipped = "non-crystallographic system"
        return res
    sys = ctx.system
    mod = ctx.module
    spec = SpecializedModule(mod)
    h = spec.h_values()
    squares = [True] * sys.rank
    for wid in mod.involution_ids:
        for s in range(sys.rank):
            img = spec.apply_gen(s, {wid: 1})
            # the image of a basis vector keeps its lo 0 and 32-bit v-slots
            generic = mod.ts_action(s, mod.basis(wid))
            commuting, up, other = mod.action_case(s, wid)
            at_one = {
                y: val
                for y, p in generic.ints.items()
                if (val := sum(unpack(p, 32)))
            }
            own, partner = _TS_CASES[commuting, up]
            expected = {wid: own, other: partner} if own else {other: partner}
            res.checks += 1
            exact = (generic.lo, generic.width, generic.ints) == (0, 32, expected)
            if at_one != img or not exact:
                res.fail({"kind": "coherence", "s": s, "w": _word(sys, wid)})
            if spec.apply_gen(s, img) != {wid: 1}:
                squares[s] = False
            broken = []
            if commuting and up:
                res.checks += 1
                if h[other] <= h[wid]:
                    broken.append("h does not increase")
            res.checks += 2
            if any(h[y] < h[wid] for y in img):
                broken.append("filtration broken")
            graded = {y: c for y, c in img.items() if h[y] == h[wid]}
            sign = -1 if commuting and not up else 1
            if graded != {wid if commuting else other: sign}:
                broken.append("graded action mismatch")
            for what in broken:
                res.fail({
                    "kind": "grading",
                    "detail": f"{what} at s={s}, w={sys.word_of(wid)}",
                })
    for s, ok in enumerate(squares):
        res.checks += 1
        if not ok:
            res.fail({"kind": "involution_matrix", "s": s})
    order = norm = 0
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
        order += len(cls)
        norm += len(cls) * a * a
    type_a = re.fullmatch(r"A(\d+)", sys.type_label or "")
    if type_a:
        n = int(type_a.group(1)) + 1
        res.checks += 1
        if norm != order * partition_count(n):
            res.fail({"kind": "model", "norm": norm, "order": order, "n": n})
    rng = random.Random(_RNG_SEED + 1)
    all_ids = sys.all_ids()
    for _ in range(40):
        x = rng.choice(all_ids)
        y = rng.choice(all_ids)
        wid = rng.choice(mod.involution_ids)
        xy = sys.element_id_from_word(sys.word_of(x) + sys.word_of(y))
        res.checks += 1
        lhs = spec.epsilon(xy, wid)
        rhs = spec.epsilon(x, sys.conjugate(y, wid)) * spec.epsilon(y, wid)
        if lhs != rhs:
            res.fail(
                {"kind": "cocycle", "x": _word(sys, x), "y": _word(sys, y)}
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
_KL_READERS = {"parity"}   # the suites that read the classical table


def run_suites(system, names=None):
    """Run the requested suites; every InvariantError becomes a failure record.

    The classical table is let go once no suite left to run reads it.
    """
    ctx = VerificationContext(system)
    names = list(names or SUITE_NAMES)
    results = []
    for i, name in enumerate(names):
        suite = _SUITES[name]
        try:
            results.append(suite(ctx))
        except InvariantError as exc:
            res = SuiteResult(name)
            res.checks += 1
            res.fail({"kind": "invariant_error", "error": str(exc)})
            results.append(res)
        if not _KL_READERS.intersection(names[i + 1:]):
            ctx._kl = None
    return results


# ---------------------------------------------------------------------------
# independent oracle: solve the defining constraints of bar as linear systems


_UNSOLVABLE = "bar constraints are not uniquely solvable"
_NON_INTEGER = "bar linear solve produced a non-integer coefficient"


def _solve_columns(rows, width, keys):
    """Solve A x = b_key over Z for every key by one Gauss-Jordan elimination.

    ``rows`` lists the rows of A with their right-hand sides, as pairs
    (``width`` coefficients, dict key -> entry of b_key over keys of
    ``keys``; an absent key reads 0).  The right-hand sides are columns of one augmented
    integer matrix, which ``bareiss`` reduces fraction-free; row i of the
    result then reads d_i x_i = b_i, d_i its pivot.  Returns ``(solutions,
    failures)``: each key of ``keys`` is mapped either by ``solutions`` to
    its integer solution x or by ``failures`` to the reason it has none.
    Fewer pivots than unknowns fails every key; a nonzero right-hand side
    on a row that eliminates to zero, or a b_i that d_i does not divide,
    fails that key only.
    """
    index = {key: k for k, key in enumerate(keys, width)}
    aug = []
    for coef, rhs in rows:
        row = list(coef) + [0] * len(index)
        for key, c in rhs.items():
            row[index[key]] = c
        aug.append(row)
    if bareiss(aug, width) < width:
        return {}, dict.fromkeys(keys, _UNSOLVABLE)
    # past the pivots every row is zero in A, so a nonzero b there is inconsistent
    inconsistent = {
        k for row in aug[width:] if any(row) for k, c in enumerate(row) if c
    }
    solutions, failures = {}, {}
    for key, k in index.items():
        sol = [divmod(row[k], row[i]) for i, row in enumerate(aug[:width])]
        if k in inconsistent:
            failures[key] = _UNSOLVABLE
        elif any(rem for _q, rem in sol):
            failures[key] = _NON_INTEGER
        else:
            solutions[key] = [q for q, _rem in sol]
    return solutions, failures


def bar_table_dense_solve(module, pad=2):
    """Recompute every bar(a_w) by solving the defining constraints directly.

    Unknowns are the coefficients of bar(a_w) over a window of u-exponents;
    equations come from bar((T_t+1) a_x) = u^-2 (T_t+1) bar(a_x) for every
    generator t and every involution x whose image contains a_w.  The
    coefficient rows of column w are phi-bar shifted over the window, the
    same for every row y, so each column is one exact elimination with every
    y of length at most l(w) as its own right-hand side; a y whose target has
    a term outside the window meets a zero row with a nonzero right-hand side.
    Columns are solved in length order using previously solved columns only,
    never the production recursion.
    """
    sys = module.system
    table = {0: MVector.basis(0)}
    ids = module.involution_ids
    for wid in ids:
        if wid == 0:
            continue
        lw = sys.length_of(wid)
        lo, hi = -lw - pad, pad  # window of u-exponents
        width = hi - lo + 1
        ys = [yid for yid in ids if sys.length_of(yid) <= lw]
        rows = {}  # (x, t, v-exponent) -> (coefficients, rhs by y)
        for xid in ids:
            lx = sys.length_of(xid)
            if lx not in (lw - 1, lw - 2):
                continue
            for t in range(sys.rank):
                commuting, up, other = module.action_case(t, xid)
                if not up or other != wid:
                    continue
                phi_bar = (u_pow(1) + ONE if commuting else ONE).bar()
                bx = table[xid]
                rhs = (module.ts_action(t, bx) + bx).scaled(u_pow(-2))
                rhs = rhs - bx.scaled(phi_bar)
                for e in range(lo + phi_bar.min_exp // 2,
                               hi + phi_bar.max_exp // 2 + 1):
                    rows[xid, t, 2 * e] = (
                        [phi_bar.coeff(2 * (e - lo - k)) for k in range(width)],
                        {},
                    )
                for yid, target in rhs.entries.items():
                    if sys.length_of(yid) > lw:
                        continue
                    for ex, c in target.terms():
                        row = rows.get((xid, t, ex))
                        if row is None:
                            row = rows[xid, t, ex] = ([0] * width, {})
                        row[1][yid] = c
        if not rows:
            raise InvariantError(
                f"no defining constraints reach column {sys.word_of(wid)}"
            )
        solutions, failures = _solve_columns(list(rows.values()), width, ys)
        entries = {}
        for yid in ys:
            if yid in failures:
                raise InvariantError(
                    f"{failures[yid]} at column {sys.word_of(wid)}, "
                    f"row {sys.word_of(yid)}"
                )
            poly = spread(solutions[yid], 2, 2 * lo)
            if not poly.is_zero:
                entries[yid] = poly
        table[wid] = MVector(entries)
    return table
