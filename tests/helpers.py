"""Brute-force oracles shared by the test modules.

Everything here recomputes a quantity from first principles, avoiding the
code path it is meant to check.
"""

import json
from fractions import Fraction

from invkl.coxeter import _cyclotomic
from invkl.errors import InvariantError, NotDivisible
from invkl.invmodule import MVector
from invkl.klclassic import HeckeAlgebra
from invkl.laurent import (
    LaurentPoly, ONE, ZERO, q_addmul, q_shift, spread, u_pow, v_pow,
)


def subword_bruhat(system, yid, wid):
    """y <= w iff some subword of a reduced word of w is a word for y."""
    word = system.word_of(wid)
    reachable = {0}
    for s in word:
        reachable |= {system.rmul(x, s) for x in reachable}
    return yid in reachable


def brute_twisted_involutions(system):
    """Filter the full group, in ShortLex order, for delta(w) = w^-1."""
    return [
        wid
        for wid in system.all_ids()
        if system.delta_id(wid) == system.inverse_id(wid)
    ]


def ms_constant_by_scan(basis, s, xid, wid):
    """ms_constant(s, x, w) by the pull formula, one mu' lookup per pair.

    An odd gap l(w) - l(x) gives mu'(x, w) (v + v^-1).  An even gap gives
    mu''(x, w) minus the mu' convolution over the whole descent interval,
    plus mu'(sx, w) when sx = x delta(s), minus mu'(x, sw) when
    sw = w delta(s).
    """
    system, module = basis.system, basis.module
    if (system.length_of(xid) - system.length_of(wid)) % 2:
        return basis.mu_prime(xid, wid) * (v_pow(1) + v_pow(-1))
    total = basis.mu_double_prime(xid, wid)
    for x2 in basis._descent_interval(s, wid):
        if x2 != xid:
            total -= basis.mu_prime(xid, x2) * basis.mu_prime(x2, wid)
    commuting, _up, sx = module.action_case(s, xid)
    if commuting:
        total += basis.mu_prime(sx, wid)
    commuting, _up, sw = module.action_case(s, wid)
    if commuting:
        total -= basis.mu_prime(xid, sw)
    return LaurentPoly((total,), 0)


def hecke_selfbar_column(kl, wid):
    """True iff cdot_w is fixed by the bar of the u-parameter Hecke algebra.

    Bar invariance plus the triangularity built into the table pins the
    column uniquely, so this is a complete independent check of P_{., w}.
    """
    alg = kl._h2
    col = kl.cdot(wid)
    return alg.bar_element(col) == col


def cells_by_t_basis(system, kl):
    """Two-sided cells from raw T-basis product supports (no mu shortcut)."""
    alg = HeckeAlgebra(system)
    ids = system.all_ids()
    edges = {wid: set() for wid in ids}
    for wid in ids:
        col = kl.cdot(wid)
        for s in range(system.rank):
            gen = kl.cdot(s_gen_id(system, s))
            left = kl.expand_in_cdot(alg.product(gen, col))
            right = kl.expand_in_cdot(alg.product(col, gen))
            for target in set(left) | set(right):
                if target != wid:
                    edges[wid].add(target)
    # transitive closure, then mutual reachability classes
    closure = {}
    for wid in ids:
        seen = {wid}
        stack = [wid]
        while stack:
            x = stack.pop()
            for t in edges[x]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closure[wid] = seen
    cells = []
    assigned = set()
    for wid in ids:
        if wid in assigned:
            continue
        cell = {
            x for x in closure[wid] if wid in closure[x]
        }
        assigned |= cell
        cells.append(tuple(sorted(cell)))
    return sorted(cells, key=lambda c: (system.length_of(c[0]), c))


def s_gen_id(system, s):
    return system.element_id_from_word([s])


def alternating_word(s, t, count):
    return tuple(s if i % 2 == 0 else t for i in range(count))


def pair_texts_per_pair(system, poly_key, row):
    """The json item, csv fields and text line of a table or kl row.

    ``row`` is (y id, w id, u-coefficients, classical ones or None).  Every
    call builds a ``LaurentPoly`` per polynomial and joins both words anew,
    and the entry dict goes through ``json.dumps(indent=2)`` at its depth
    in the document, so no cache and no entry template of the CLI is used.
    """
    yid, wid, p, classic = row
    y, w = system.word_of(yid), system.word_of(wid)
    polys = [spread(p, 2)] + ([] if classic is None else [spread(classic, 2)])
    entry = {"y_word": list(y), "w_word": list(w), poly_key: polys[0].to_json_obj()}
    if classic is not None:
        entry["classic_poly"] = polys[1].to_json_obj()
    item = json.dumps(entry, indent=2).replace("\n", "\n    ")

    def dotted(word):
        return ".".join(str(s) for s in word) if word else "e"

    fields = [dotted(y), dotted(w)] + [lp.pair_string() for lp in polys]
    line = f"P[{dotted(y)}, {dotted(w)}] = {polys[0]}"
    if classic is not None:
        line += f"  (classical {polys[1]})"
    return item, fields, line


def bar_extended_pairwise(module, m):
    """bar(sum f_w a_w) = sum bar(f_w) bar(a_w), one ``g * bar(f_w)`` product
    and one add per (w, y) pair."""
    out = {}
    for wid, f in m.entries.items():
        fb = f.bar()
        for yid, g in module.bar_basis(wid).entries.items():
            h = out.get(yid, ZERO) + g * fb
            if h.is_zero:
                out.pop(yid, None)
            else:
                out[yid] = h
    return MVector(out)


def solve_exact(rows, rhs):
    """Solve an overdetermined exact linear system; None if inconsistent."""
    n = len(rows[0]) if rows else 0
    aug = [list(map(Fraction, row)) + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][col]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][n]:
            return None
    if len(pivots) < n:
        return None  # underdetermined
    sol = [Fraction(0)] * n
    for i, col in enumerate(pivots):
        sol[col] = aug[i][n]
    return sol


def bar_table_per_pair(module, pad=2):
    """The bar table from its defining constraints, one solve per (y, w).

    The same unknowns and equations as ``bar_table_dense_solve``, but the
    rows are rebuilt for every y and each pair gets its own ``Fraction``
    Gauss-Jordan elimination (``solve_exact``).
    """
    sys = module.system
    u1 = u_pow(1) + ONE
    table = {0: MVector.basis(0)}
    ids = module.involution_ids
    for wid in ids:
        if wid == 0:
            continue
        lw = sys.length_of(wid)
        lo, hi = -lw - pad, pad
        width = hi - lo + 1
        equations = []
        for xid in ids:
            if sys.length_of(xid) not in (lw - 1, lw - 2):
                continue
            for t in range(sys.rank):
                commuting, up, other = module.action_case(t, xid)
                if not up or other != wid:
                    continue
                phi = u1 if commuting else ONE
                bx = table[xid]
                rhs = (module.ts_action(t, bx) + bx).scaled(u_pow(-2))
                rhs = rhs - bx.scaled(phi.bar())
                equations.append((phi.bar(), rhs))
        if not equations:
            raise InvariantError(
                f"no defining constraints reach column {sys.word_of(wid)}"
            )
        entries = {}
        for yid in ids:
            if sys.length_of(yid) > lw:
                continue
            rows, rhs_vals = [], []
            for phi_bar, rhs in equations:
                target = rhs.get(yid)
                exps = set(range(lo + phi_bar.min_exp // 2,
                                 hi + phi_bar.max_exp // 2 + 1))
                exps |= {e // 2 for e, _ in target.terms()}
                for e in sorted(exps):
                    rows.append(
                        [phi_bar.coeff(2 * (e - (lo + k))) for k in range(width)]
                    )
                    rhs_vals.append(target.coeff(2 * e))
            sol = solve_exact(rows, rhs_vals)
            if sol is None:
                raise InvariantError(
                    "bar constraints are not uniquely solvable at column "
                    f"{sys.word_of(wid)}, row {sys.word_of(yid)}"
                )
            if any(val.denominator != 1 for val in sol):
                raise InvariantError(
                    "bar linear solve produced a non-integer coefficient"
                )
            poly = spread([int(val) for val in sol], 2, 2 * lo)
            if not poly.is_zero:
                entries[yid] = poly
        table[wid] = MVector(entries)
    return table


# Schoolbook Laurent arithmetic over (coeffs, min_exp) pairs, the
# coefficient loops ``LaurentPoly`` ran before it moved onto the q kernel.
# Results are untrimmed; ``LaurentPoly(*result)`` trims them.


def schoolbook_add(f, g):
    """f + g: both coefficient lists added into one exponent window."""
    (fc, fe), (gc, ge) = f, g
    if not fc:
        return list(gc), ge
    if not gc:
        return list(fc), fe
    lo = min(fe, ge)
    out = [0] * (max(fe + len(fc), ge + len(gc)) - lo)
    for i, c in enumerate(fc):
        out[fe + i - lo] += c
    for i, c in enumerate(gc):
        out[ge + i - lo] += c
    return out, lo


def schoolbook_mul(f, g):
    """f g: every pair of coefficients multiplied into its exponent."""
    (fc, fe), (gc, ge) = f, g
    if not fc or not gc:
        return [], 0
    out = [0] * (len(fc) + len(gc) - 1)
    for i, a in enumerate(fc):
        for j, b in enumerate(gc):
            out[i + j] += a * b
    return out, fe + ge


def schoolbook_div(f, g):
    """f / g by long division from the top coefficient down.

    f and g are trimmed (first and last coefficient nonzero) and g is not
    zero; raises :class:`NotDivisible` unless the quotient is exact and
    integral.
    """
    (fc, fe), (gc, ge) = f, g
    if not fc:
        return [], 0
    rest = list(fc)
    n, m = len(fc), len(gc)
    if n < m:
        raise NotDivisible(f"{f} is not divisible by {g}")
    q = [0] * (n - m + 1)
    for k in range(n - m, -1, -1):
        c, r = divmod(rest[k + m - 1], gc[-1])
        if r:
            raise NotDivisible(f"{f} is not divisible by {g}")
        q[k] = c
        for j in range(m):
            rest[k + j] -= c * gc[j]
    if any(rest):
        raise NotDivisible(f"{f} is not divisible by {g}")
    return q, fe - ge


# The root-system field and the rank over Q as ``coxeter`` computed them
# before its coordinates became plain ints: every coordinate a ``Fraction``,
# the rank by ``Fraction`` Gauss elimination.


class FractionCycloField:
    """Arithmetic in Q(c) where c = 2cos(pi/N), as Fraction vectors over a power basis."""

    def __init__(self, n_denom):
        self.n_denom = n_denom
        phi = _cyclotomic(2 * n_denom)
        d = (len(phi) - 1) // 2
        p_prev, p_cur = (2,), (0, 1)
        psi = q_addmul((phi[d],), (phi[d + 1],), p_cur)
        for j in range(2, d + 1):
            p_prev, p_cur = p_cur, q_addmul(q_shift(p_cur, 1), (-1,), p_prev)
            psi = q_addmul(psi, (phi[d + j],), p_cur)
        if len(psi) != d + 1 or psi[-1] != 1:
            raise InvariantError(f"2cos(pi/{n_denom}) has no monic minimal polynomial")
        self.degree = d
        self.minpoly = tuple(psi)
        self.zero = (Fraction(0),) * d
        self.one = tuple(Fraction(1 if i == 0 else 0) for i in range(d))
        reductions = [tuple(Fraction(-a) for a in psi[:-1])]
        for _ in range(d - 2):
            shifted = q_shift(reductions[-1], 1)
            reductions.append(q_addmul(shifted[:d], (shifted[d],), reductions[0]))
        self._reductions = reductions

    def mul(self, a, b):
        conv = q_addmul((), a, b)
        out = conv[:self.degree]
        for c, red in zip(conv[self.degree:], self._reductions):
            out = q_addmul(out, (c,), red)
        return out

    def two_cos_pi_over(self, m):
        if m == 2:
            return self.zero
        k, rem = divmod(self.n_denom, m)
        if rem:
            raise ValueError(
                f"Coxeter entry {m} does not divide the field conductor {self.n_denom}"
            )
        p_prev = tuple(Fraction(2 if i == 0 else 0) for i in range(self.degree))
        if k == 0:
            return p_prev
        p_cur = tuple(Fraction(1 if i == 1 else 0) for i in range(self.degree))
        if self.degree == 1:
            p_cur = (Fraction(-self.minpoly[0], self.minpoly[1]),)
        c_elt = p_cur
        for _ in range(k - 1):
            p_prev, p_cur = p_cur, q_addmul(self.mul(c_elt, p_cur), (-1,), p_prev)
        return p_cur


def fraction_rank(rows):
    """Rank of an integer matrix by Gauss elimination over ``Fraction``."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / pv
            if f:
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank
