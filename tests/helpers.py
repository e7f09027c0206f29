"""Brute-force oracles shared by the test modules.

Everything here recomputes a quantity from first principles, avoiding the
code path it is meant to check.
"""

import json
from fractions import Fraction

from invkl.canonical import CanonicalBasis
from invkl.coxeter import _cyclotomic
from invkl.errors import InvariantError, NotDivisible, RecurrenceInconsistent
from invkl.invmodule import MVector, a_vector
from invkl.klclassic import KLTable
from invkl.laurent import (
    LaurentPoly, ONE, ZERO, add_into, q_add, q_addmul, q_div, q_divmod,
    q_shift, q_trim, spread, u_pow, v_pow,
)
from invkl.packed import (
    ONE_PLUS_U, SLOT, check_budget, coeff_at, in_slots, pack, slot_test,
    solve_one_plus_u, unpack,
)
from invkl.specialize import reflection_rep


# The types on which each packed table is compared with its oracle.
ORACLE_TYPES = [
    ("A1", None), ("A2", None), ("A3", None), ("A4", None), ("A5", None),
    ("B2", None), ("B3", None), ("B4", None), ("D4", None), ("F4", None),
    ("G2", None), ("H3", None), ("I2(5)", None), ("I2(8)", None),
    ("A3", [2, 1, 0]), ("A5", [4, 3, 2, 1, 0]), ("D4", [0, 1, 3, 2]),
    ("D5", [0, 1, 2, 4, 3]),
]
ORACLE_TYPES_BUT_F4 = [t for t in ORACLE_TYPES if t[0] != "F4"]


def conjugate_by_products(system, xid, wid):
    """x w x^-1 by ``lmul`` and ``rmul``, one letter of x's word at a time."""
    for s in reversed(system.word_of(xid)):
        wid = system.lmul(s, system.rmul(wid, s))
    return wid


def subword_bruhat(system, yid, wid):
    """y <= w iff some subword of a reduced word of w is a word for y."""
    word = system.word_of(wid)
    reachable = {0}
    for s in word:
        reachable |= {system.rmul(x, s) for x in reachable}
    return yid in reachable


def brute_twisted_involutions(system):
    """Filter the full group, in ShortLex order, for delta(w) = w^-1, with
    delta(w) read from delta applied to each letter of w's word."""
    def delta_of(wid):
        return system.element_id_from_word(
            [system.delta[s] for s in system.word_of(wid)]
        )

    return [
        wid for wid in system.all_ids() if delta_of(wid) == system.inverse_id(wid)
    ]


def mu_at(p, gap):
    """The coefficient of u^((gap-1)/2) in the packed p, or 0 unless gap is
    odd and positive.

    For p = P(y, w) with gap = l(w) - l(y) this is mu(y, w); for P-sigma it
    is mu'(y, w), and ``mu_at(p, gap - 1)`` is mu''(y, w).  The degree bound
    deg P <= (gap-1)/2 makes it the top coefficient whenever it is nonzero.
    """
    return coeff_at(p, gap >> 1) if gap & 1 and gap > 0 else 0


def _stored_entry(basis, yid, wid):
    """P(y, w) packed as column w stores it, and l(w) - l(y)."""
    length = basis.system.length_of
    return basis.column(wid).get(yid, 0), length(wid) - length(yid)


def mu_prime(basis, yid, wid):
    """mu'(y, w), the coefficient of v^-1 in pi(y, w)."""
    return mu_at(*_stored_entry(basis, yid, wid))


def mu_double_prime(basis, yid, wid):
    """mu''(y, w), the coefficient of v^-2 in pi(y, w)."""
    p, gap = _stored_entry(basis, yid, wid)
    return mu_at(p, gap - 1)


def descent_interval(basis, s, wid):
    """For an ascent s of w: the x <= partner_s(w) with l(x) <= l(w) and sx < x.

    This holds every x < sw with sx < x.  Any other member x (there are
    some only when sw != w delta(s)) has x and sx outside [1, w], by
    lifting in W, so its mu' terms and ms_constant are zero.  In
    ``involution_ids`` order, read off the interval of the partner: the
    route by which ``CanonicalBasis`` once found the x of ms_constant.
    """
    module, length = basis.module, basis.system.length_of
    lw = length(wid)
    return tuple(
        x
        for x in module.interval(module.action_case(s, wid)[2])
        if length(x) <= lw and not module.action_case(s, x)[1]
    )


def ms_constant_by_scan(basis, s, xid, wid):
    """ms_constant(s, x, w) by the pull formula, one mu' lookup per pair.

    An odd gap l(w) - l(x) gives mu'(x, w) (v + v^-1).  An even gap gives
    mu''(x, w) minus the mu' convolution over the whole descent interval,
    plus mu'(sx, w) when sx = x delta(s), minus mu'(x, sw) when
    sw = w delta(s).
    """
    system, module = basis.system, basis.module
    if (system.length_of(xid) - system.length_of(wid)) % 2:
        return mu_prime(basis, xid, wid) * (v_pow(1) + v_pow(-1))
    total = mu_double_prime(basis, xid, wid)
    for x2 in descent_interval(basis, s, wid):
        if x2 != xid:
            total -= mu_prime(basis, xid, x2) * mu_prime(basis, x2, wid)
    commuting, _up, sx = module.action_case(s, xid)
    if commuting:
        total += mu_prime(basis, sx, wid)
    commuting, _up, sw = module.action_case(s, wid)
    if commuting:
        total -= mu_prime(basis, xid, sw)
    return LaurentPoly((total,), 0)


# The Hecke algebra in the T basis and its two canonical bases: the oracle of
# the W-graph h/f check of ``cells`` and of the classical table's self-bar
# check.  ``cdot_w = v^{-l(w)} sum_y P_{y,w}(v^2) T_y`` lives in the algebra
# with (T_s+1)(T_s-u) = 0 (u = v^2), and ``c_w = u^{-l(w)} sum_y
# P_{y,w}(u^2) T_y`` in the one with (T_s+1)(T_s-u^2) = 0.

_U = v_pow(2)
_U_MINUS_ONE = _U - ONE
_U_INV = v_pow(-2)
_U_INV_MINUS_ONE = _U_INV - ONE


def expand_unitriangular(system, elem, column):
    """Rewrite ``elem`` ({id: coefficient}) in a unitriangular basis.

    ``column(w)`` is the basis element of w as {y: coefficient} over y <= w,
    with coefficient v^-l(w) at w itself (the cdot basis of the Hecke
    algebra, the A basis of the involution module).  The ShortLex-last
    entry is scaled by v^l(top) and its column subtracted, until nothing is
    left.
    """
    work = dict(elem)
    out = {}
    while work:
        top = max(work, key=system.shortlex_key)
        coeff = work[top] * v_pow(system.length_of(top))
        out[top] = coeff
        for yid, f in column(top).items():
            add_into(work, yid, -coeff * f)
    return out


class HeckeAlgebra:
    """T-basis arithmetic with quadratic relation (T_s+1)(T_s - u) = 0, u = v^2.

    Elements are dicts mapping element ids to Laurent coefficients in v.
    """

    def __init__(self, system):
        self.system = system

    def rmul_gen(self, elem, s):
        sys = self.system
        out = {}
        for wid, f in elem.items():
            ws = sys.rmul(wid, s)
            if sys.length_of(ws) > sys.length_of(wid):
                add_into(out, ws, f)
            else:
                add_into(out, wid, f * _U_MINUS_ONE)
                add_into(out, ws, f * _U)
        return out

    def rmul_element(self, elem, xid):
        """elem * T_x, folding the reduced word of x from the left."""
        for s in self.system.word_of(xid):
            elem = self.rmul_gen(elem, s)
        return elem

    def product(self, a, b):
        """Product of two T-basis dicts: sum_y b_y * (a * T_y)."""
        out = {}
        for yid, g in b.items():
            for wid, f in self.rmul_element(a, yid).items():
                add_into(out, wid, f * g)
        return out

    def rmul_gen_inverse(self, elem, s):
        """elem * T_s^{-1}, using T_s^{-1} = u^{-1} T_s + (u^{-1} - 1)."""
        out = {w: f * _U_INV for w, f in self.rmul_gen(elem, s).items()}
        for wid, f in elem.items():
            add_into(out, wid, f * _U_INV_MINUS_ONE)
        return out

    def bar_t(self, wid):
        """bar(T_w) = (T_{w^-1})^{-1} = T_{s_1}^{-1} ... T_{s_k}^{-1}."""
        out = {0: ONE}
        for s in self.system.word_of(wid):
            out = self.rmul_gen_inverse(out, s)
        return out

    def bar_element(self, elem):
        """Semilinear bar: coefficients v -> v^{-1}, T_w -> (T_{w^-1})^{-1}."""
        out = {}
        for wid, f in elem.items():
            fb = f.bar()
            for xid, g in self.bar_t(wid).items():
                add_into(out, xid, fb * g)
        return out


class HeckeBases:
    """The cdot and c bases of a classical table in the T basis, memoized.

    ``algebra`` is the u-parameter algebra the cdot basis lives in.
    """

    def __init__(self, kl):
        self.kl = kl
        self.system = kl.system
        self.algebra = HeckeAlgebra(kl.system)
        self._cdot = {}
        self._cprime = {}

    def cdot(self, wid):
        """cdot_w = v^{-l(w)} sum_{y<=w} P_{y,w}(v^2) T_y in the u-algebra."""
        cached = self._cdot.get(wid)
        if cached is None:
            lw = self.system.length_of(wid)
            cached = self._cdot[wid] = {
                yid: spread(unpack(p), 2, -lw)
                for yid, p in self.kl.column(wid).items()
            }
        return cached

    def cprime(self, wid):
        """c_w = u^{-l(w)} sum_{y<=w} P_{y,w}(u^2) T_y in the u^2-algebra."""
        cached = self._cprime.get(wid)
        if cached is None:
            lw = self.system.length_of(wid)
            cached = self._cprime[wid] = {
                yid: spread(unpack(p), 4, -2 * lw)
                for yid, p in self.kl.column(wid).items()
            }
        return cached

    def expand_in_cdot(self, elem):
        """Rewrite a T-basis dict (u-algebra) in the cdot basis."""
        return expand_unitriangular(self.system, elem, self.cdot)

    def c_basis_product(self, zid, wid):
        """Expansion of cdot_z * cdot_w in the cdot basis."""
        sys = self.system
        out = self.expand_in_cdot(self.algebra.product(self.cdot(zid), self.cdot(wid)))
        for w2, f in out.items():
            if any(c < 0 for _, c in f.terms()):
                raise InvariantError(
                    "negative structure constant in cdot_z * cdot_w at "
                    f"{sys.word_of(zid)}, {sys.word_of(wid)}, {sys.word_of(w2)}"
                )
        return out

    def h_constants(self, zid, wid):
        """Coefficients of cdot_z cdot_w cdot_{delta(z)^-1} in the cdot basis,
        delta(z)^-1 spelled from z's word reversed, letter by letter."""
        sys = self.system
        twisted = sys.element_id_from_word(
            [sys.delta[s] for s in reversed(sys.word_of(zid))]
        )
        product = self.algebra.product
        pair = product(self.cdot(zid), self.cdot(wid))
        return self.expand_in_cdot(product(pair, self.cdot(twisted)))


def hf_by_t_basis(zid, wid, kl, canonical):
    """(h, f) for one pair by T-basis products: h from ``h_constants``, f the
    A-basis coefficients of c_z A_w, with T_y A_w folded from ``ts_action``
    along y's word.  ``canonical.module`` is an ``InvolutionModule``."""
    module = canonical.module
    bases = HeckeBases(kl)
    a_w = a_vector(canonical, wid)
    acted = MVector()
    for yid, coeff in bases.cprime(zid).items():
        m = a_w
        for s in reversed(kl.system.word_of(yid)):
            m = module.ts_action(s, m)
        acted = acted + m.scaled(coeff)
    return bases.h_constants(zid, wid), expand_in_A_laurent(canonical, acted)


def hecke_selfbar_column(kl, wid):
    """True iff cdot_w is fixed by the bar of the u-parameter Hecke algebra.

    Bar invariance plus the triangularity built into the table pins the
    column uniquely, so this is a complete independent check of P_{., w}.
    """
    bases = HeckeBases(kl)
    col = bases.cdot(wid)
    return bases.algebra.bar_element(col) == col


def cells_by_t_basis(system, kl):
    """Two-sided cells from raw T-basis product supports (no mu shortcut)."""
    alg = HeckeAlgebra(system)
    bases = HeckeBases(kl)
    ids = system.all_ids()
    edges = {wid: set() for wid in ids}
    for wid in ids:
        col = bases.cdot(wid)
        for s in range(system.rank):
            gen = bases.cdot(s_gen_id(system, s))
            left = bases.expand_in_cdot(alg.product(gen, col))
            right = bases.expand_in_cdot(alg.product(col, gen))
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

    ``row`` is (y id, w id, u-coefficient tuple, classical one or None).  Every
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


# The LaurentPoly routes of the module vectors, as ``invmodule`` ran them
# before its vectors were packed: a dict of ``LaurentPoly`` coefficients
# per vector, summed term by term through ``add_into``.


def exact_div(f, g):
    """The q with q g == f, or :class:`NotDivisible`: ``LaurentPoly``'s
    exact division, used by the ``LaurentBar`` recursion."""
    if g.is_zero:
        raise ZeroDivisionError("division of Laurent polynomial by zero")
    return LaurentPoly(q_div(f.coeffs, g.coeffs), f.min_exp - g.min_exp)


def positive_part(f):
    """The truncation f^+ keeping exponents >= 0 only."""
    if f.min_exp >= 0:
        return f
    return LaurentPoly(f.coeffs[-f.min_exp:], 0)


def ts_action_laurent(module, s, m):
    """T_s m, each product a ``LaurentPoly`` product added by ``add_into``."""
    u = u_pow(1)
    out = {}
    for wid, f in m.entries.items():
        commuting, up, other = module.action_case(s, wid)
        if commuting and up:
            add_into(out, wid, f * u)
            add_into(out, other, f * (u + ONE))
        elif commuting:
            add_into(out, wid, f * (u * u - u - ONE))
            add_into(out, other, f * (u * u - u))
        elif up:
            add_into(out, other, f)
        else:
            add_into(out, wid, f * (u * u - ONE))
            add_into(out, other, f * (u * u))
    return MVector(out)


def add_laurent(m, n):
    """m + n, one ``add_into`` per entry of n."""
    out = dict(m.entries)
    for wid, f in n.entries.items():
        add_into(out, wid, f)
    return MVector(out)


def sub_laurent(m, n):
    return add_laurent(m, MVector({w: -f for w, f in n.entries.items()}))


def scaled_laurent(m, f):
    """f m for an integer or ``LaurentPoly`` f, one product per entry."""
    if isinstance(f, int):
        f = LaurentPoly((f,))
    return MVector({w: g * f for w, g in m.entries.items()})


def expand_in_A_laurent(canonical, m):
    """m in the canonical basis of a ``CanonicalBasis``, by
    ``expand_unitriangular`` over the ``LaurentPoly`` entries of each
    ``a_vector(canonical, w)``."""
    return expand_unitriangular(
        canonical.system, m.entries, lambda wid: a_vector(canonical, wid).entries
    )


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


def bar_extended_exponent_map(source, m):
    """bar(sum f_w a_w) with every product of coefficient terms added into
    one exponent map per row, each row's polynomial built once.  ``source``
    gives bar(a_w) through ``bar_basis`` (a module or a ``LaurentBar``)."""
    rows = {}
    for wid, f in m.entries.items():
        f_terms = f.bar().terms()
        for yid, g in source.bar_basis(wid).entries.items():
            row = rows.setdefault(yid, {})
            for ge, gc in g.terms():
                for fe, fc in f_terms:
                    e = ge + fe
                    row[e] = row.get(e, 0) + gc * fc
    out = {}
    for yid, row in rows.items():
        lo = min(row)
        coeffs = [0] * (max(row) - lo + 1)
        for e, c in row.items():
            coeffs[e - lo] = c
        poly = LaurentPoly(coeffs, lo)
        if not poly.is_zero:
            out[yid] = poly
    return MVector(out)


class LaurentBar:
    """The bar table by the ``LaurentPoly`` recursion over left descents:
    bar(a_w) = u^-2 (T_s+1) bar(a_x) - bar(a_x), the first term divided by
    1 + u^-1 first when s commutes, with the module's ``ts_action``.  Each
    bar(a_w) is checked for diagonal u^-l(w), support in ``interval(w)``
    and even support, as the packed table is."""

    def __init__(self, module):
        self.module = module
        self._cache = {}

    def bar_basis(self, wid, choice=None):
        if choice is None and wid in self._cache:
            return self._cache[wid]
        mod, sys = self.module, self.module.system
        if wid == 0:
            result = MVector.basis(0)
        else:
            descents = [
                s for s in range(sys.rank) if sys.is_left_descent(s, wid)
            ]
            s = descents[0] if choice is None else choice
            if s not in descents:
                raise ValueError(
                    f"generator {s} is not a left descent of {sys.word_of(wid)}"
                )
            commuting, _up, xid = mod.action_case(s, wid)
            bx = self.bar_basis(xid)
            lifted = scaled_laurent(
                add_laurent(ts_action_laurent(mod, s, bx), bx), u_pow(-2)
            )
            if commuting:
                lifted = MVector({
                    w: exact_div(f, ONE + u_pow(-1))
                    for w, f in lifted.entries.items()
                })
            result = sub_laurent(lifted, bx)
            if result.get(wid) != u_pow(-sys.length_of(wid)):
                raise InvariantError(
                    f"bar(a_w) diagonal coefficient is not u^-l(w) at "
                    f"{sys.word_of(wid)}"
                )
            below = set(mod.interval(wid))
            for yid, f in result.entries.items():
                if yid not in below:
                    raise InvariantError(
                        f"bar(a_w) support leaves the Bruhat interval at "
                        f"{sys.word_of(wid)}: offending term {sys.word_of(yid)}"
                    )
                if not all(e % 2 == 0 for e, _ in f.terms()):
                    raise InvariantError(
                        f"bar involution: coefficient {f} leaves Z[u, u^-1]"
                    )
        if choice is None:
            self._cache[wid] = result
        return result


class LaurentBarfixBasis(CanonicalBasis):
    """The canonical columns solved from bar(A_w) = A_w in ``LaurentPoly``
    arithmetic on pi, against the ``LaurentBar`` table: rows top down, each
    pi(y, w) the negative part of the residue q, checked by q = pi - bar(pi)
    and converted by the checked ``_p_of_pi``.  y <= w is decided in the
    group, so the route reads nothing of the recursion or of ``interval``."""

    def __init__(self, module):
        super().__init__(module)
        self._bar = LaurentBar(module)

    def _rho(self, yid, xid):
        """bar(a'_x) coefficient at a'_y: v^{l(x)+l(y)} r(y, x)."""
        sys = self.system
        r = self._bar.bar_basis(xid).get(yid)
        if r.is_zero:
            return ZERO
        return r * v_pow(sys.length_of(xid) + sys.length_of(yid))

    def column_barfix(self, wid):
        sys = self.system
        lw = sys.length_of(wid)
        col = {wid: ONE}
        out = {wid: 1}
        rows = sorted(
            (yid for yid in self.module.involution_ids if sys.length_of(yid) < lw),
            key=lambda yid: -sys.length_of(yid),
        )
        for yid in rows:
            q = ZERO
            for xid, pi_xw in col.items():
                rho = self._rho(yid, xid)
                if not rho.is_zero:
                    q = q + pi_xw.bar() * rho
            pi_yw = q - positive_part(q)
            if q != pi_yw - pi_yw.bar():
                raise InvariantError(
                    "bar fixed-point defect at pair "
                    f"{sys.word_of(yid)}, {sys.word_of(wid)}: residue {q}"
                )
            if not pi_yw.is_zero:
                if not sys.bruhat_leq_ids(yid, wid):
                    raise InvariantError(
                        "nonzero coefficient outside the Bruhat interval at "
                        f"{sys.word_of(yid)}, {sys.word_of(wid)}"
                    )
                out[yid] = self._p_of_pi(yid, wid, pi_yw)
                col[yid] = pi_yw
        return out

    def _p_of_pi(self, yid, wid, pi):
        """P(y, w) packed, from pi(y, w) = v^{l(y)-l(w)} P(y, w), y < w.

        Raises ``RecurrenceInconsistent`` unless P has even support, no
        negative power and u-degree at most (l(w)-l(y)-1)/2, and
        ``InvariantError`` when a coefficient leaves the slot bound.
        """
        sys = self.system
        gap = sys.length_of(wid) - sys.length_of(yid)
        p = pi * v_pow(gap)
        if p.min_exp < 0 or p.max_exp > gap - 1 or not p.is_even_support():
            raise RecurrenceInconsistent(
                f"coefficient {pi} at pair {sys.word_of(yid)}, "
                f"{sys.word_of(wid)} violates the degree or parity bounds"
            )
        packed = pack((0,) * (p.min_exp // 2) + p.coeffs[::2])
        if not in_slots(packed, (gap + 1) // 2):
            raise InvariantError(f"P({yid}, {wid}) leaves the signed bits")
        return packed


def evaluate(f, value):
    """f at v = value, a ``Fraction``; the package evaluates nothing."""
    value = Fraction(value)
    return sum((c * value ** e for e, c in f.terms()), Fraction(0))


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
                rhs = scaled_laurent(
                    add_laurent(ts_action_laurent(module, t, bx), bx), u_pow(-2)
                )
                rhs = sub_laurent(rhs, scaled_laurent(bx, phi.bar()))
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
        if m == 3:
            return self.one
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


def dense_bareiss(rows, width):
    """``specialize.bareiss`` as it rewrites every entry of every other row at
    every pivot: (p row - f top) / d, with no shortcut when p = d."""
    rank, prev = 0, 1
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        pv = top[col]
        for i, row in enumerate(rows):
            f = row[col]
            if i != rank and (f or pv != prev):
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        rank += 1
    return rank


def matmul(a, b):
    """The dense product of two integer matrices."""
    cols = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def matrix_along(mats, word):
    """The product of the matrices ``mats[s]`` over ``word``, left to right."""
    n = len(mats[0])
    out = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for s in word:
        out = matmul(out, mats[s])
    return out


def h_value_dense(system, wid):
    """dim ker(M_w + Id), M_w the dense product along w's word, by the
    ``Fraction`` rank."""
    m = matrix_along(reflection_rep(system), system.word_of(wid))
    n = system.rank
    return n - fraction_rank(
        [[m[i][j] + int(i == j) for j in range(n)] for i in range(n)]
    )


# Oracles for the packed tables: the same column recursions with each entry
# a tuple of u-coefficients, each column built by ``q_addmul`` and
# ``q_divmod`` loops.  The packed tables must equal them, mu rows and
# errors included.


def q_mu(p, gap):
    """The coefficient of q^((gap-1)/2) in the tuple p, or 0 when gap is even.

    The tuple twin of ``mu_at``: mu(y, w), mu'(y, w), and with
    ``gap - 1`` mu''(y, w).
    """
    return p[-1] if p and 2 * len(p) == gap + 1 else 0


def solve_row_tuples(row, gap, den, unknown):
    """Solve den * P = row + mu u^(d+1), d = floor((gap-1)/2), on tuples.

    ``den`` is (1, 1) or (1,).  One upward division gives P; the remainder
    must be zero, except that with ``unknown`` it may be -mu u^(d+1) with mu
    the top coefficient of P when the gap is odd.  Returns (P, mu); raises
    ``RecurrenceInconsistent`` otherwise.
    """
    d = (gap - 1) // 2
    p, rest = q_divmod(row, den, d)
    mu = q_mu(p, gap) if unknown else 0
    if rest != (q_shift((-mu,), d + 1) if mu else ()):
        raise RecurrenceInconsistent(
            f"u-coefficients {rest} are left over dividing {row} by {den} "
            f"under the degree bound {d}"
        )
    return p, mu


_CASE_TUPLES = {
    (True, True): ((1, 1), (0, -1, 1)),
    (True, False): ((0, -1, 1), (1, 1)),
    (False, True): ((1,), (0, 0, 1)),
    (False, False): ((0, 0, 1), (1,)),
}


def _add_column_tuples(pending, mult, column):
    for yid, p in column.items():
        pending[yid] = q_addmul(pending.get(yid, ()), mult, p)


class TupleCanonicalBasis(CanonicalBasis):
    """The P-sigma columns on u-coefficient tuples: the descent recursion of
    ``CanonicalBasis`` with tuple arithmetic in place of packed ints, each
    mu' row read off its finished column and each known part of
    ms_constant summed over ``descent_interval``.  Only the layout of
    ``column`` differs.  Rows follow the same rule: a row y of target z that
    ascends some left descent t of z (the smallest) copies P(t.y, z), found
    here by the system's descent test, and every other row is solved."""

    def mu_row(self, wid):
        row = self._mu_rows.get(wid)
        if row is None:
            length = self.system.length_of
            lw = length(wid)
            row = self._mu_rows[wid] = {
                xid: mu
                for xid, p in self.column(wid).items()
                if (mu := q_mu(p, lw - length(xid)))
            }
        return row

    def _known_parts(self, s, wid):
        length = self.system.length_of
        col_w = self.column(wid)
        mu_w = self.mu_row(wid)
        descents = descent_interval(self, s, wid)
        convolution = {}
        for x2 in descents:
            m = mu_w.get(x2)
            if m:
                for xid, m2 in self.mu_row(x2).items():
                    convolution[xid] = convolution.get(xid, 0) + m2 * m
        known = {}
        for xid in descents:
            gap = length(wid) - length(xid)
            if gap % 2:
                m = mu_w.get(xid)
                if m:
                    known[xid] = m
                continue
            total = q_mu(col_w.get(xid, ()), gap - 1) - convolution.get(xid, 0)
            commuting, _up, sx = self.module.action_case(s, xid)
            if commuting:
                total += mu_w.get(sx, 0)
            if total:
                known[xid] = total
        return known

    def column_recursive(self, zid):
        sys = self.system
        if zid == 0:
            return {0: (1,)}
        length = sys.length_of
        s = min(t for t in range(sys.rank) if sys.is_left_descent(t, zid))
        commuting, _up, wid = self.module.action_case(s, zid)
        col_w = self.column(wid)
        lift = length(zid) + 1 if commuting else length(zid)
        pending = {}
        for xid, k in self._known_parts(s, wid).items():
            e = lift - length(xid)
            mult = q_shift((-k, -k) if e % 2 else (-k,), e // 2)
            _add_column_tuples(pending, mult, self.column(xid))
        descents = set(descent_interval(self, s, wid)) if commuting else ()
        den = (1, 1) if commuting else (1,)
        z_descents = sys.left_descents(zid)
        col = {zid: (1,)}
        for yid in reversed(self.module.interval(zid)[:-1]):
            t = next((t for t in z_descents if not sys.is_left_descent(t, yid)), None)
            if t is not None:   # copied from the t-partner, mu' read off the copy
                p = col.get(self.module.action_case(t, yid)[2], ())
                if p:
                    col[yid] = p
                if yid in descents and (mu := q_mu(p, length(zid) - length(yid))):
                    mult = q_shift((mu,), (lift - length(yid)) // 2)
                    _add_column_tuples(pending, mult, self.column(yid))
                continue
            commuting_y, up, other = self.module.action_case(s, yid)
            c_y, c_other = _CASE_TUPLES[commuting_y, up]
            row = q_addmul(pending.get(yid, ()), c_y, col_w.get(yid, ()))
            row = q_addmul(row, c_other, col_w.get(other, ()))
            p, mu = self._solve_row(row, yid, zid, den, yid in descents)
            if mu:
                mult = q_shift((mu,), (lift - length(yid)) // 2)
                _add_column_tuples(pending, mult, self.column(yid))
            if p:
                col[yid] = p
        return col

    def _solve_row(self, row, yid, zid, den, unknown):
        sys = self.system
        gap = sys.length_of(zid) - sys.length_of(yid)
        return solve_row_tuples(row, gap, den, unknown)


class FullRowCanonicalBasis(CanonicalBasis):
    """The packed descent recursion solving every row of every column.

    The row rule of ``CanonicalBasis.column_recursive`` solves a row only
    when its left descents hold those of the target and copies the rest by
    descent stability; this route solves each row from its case terms and a
    pushed accumulator, so the two must give the same columns.  Each mu'
    row is read off its finished column, not recorded by the pass."""

    def mu_row(self, wid):
        row = self._mu_rows.get(wid)
        if row is None:
            lengths = self._lengths
            lw = lengths[wid]
            row = self._mu_rows[wid] = {
                xid: mu
                for xid, p in self.column(wid).items()
                if (mu := mu_at(p, lw - lengths[xid]))
            }
        return row

    def column_recursive(self, zid):
        if zid == 0:
            return {0: 1}
        sys, lengths = self.system, self._lengths
        s = next(t for t in range(sys.rank) if not self.module.action_case(t, zid)[1])
        commuting, _up, wid = self.module.action_case(s, zid)
        col_w = self.column(wid)
        lz = lengths[zid]
        lift = lz + 1 if commuting else lz
        known = self._known_parts(s, wid)
        weight = 3 * (lz // 2) + 4
        spent = 4 + 2 * sum(map(abs, known.values()))
        check_budget(spent * weight, f"column {sys.word_of(zid)}")
        pending = {}
        for xid, k in known.items():
            e = lift - lengths[xid]
            mult = (-k * ONE_PLUS_U if e % 2 else -k) << (SLOT * (e // 2))
            _add_column_packed(pending, mult, self.column(xid))
        tests = [slot_test((lz - ly + 1) >> 1) for ly in range(lz)]
        col = {zid: 1}
        for yid in self.module.interval(zid)[-2::-1]:
            commuting_y, up, other = self.module.action_case(s, yid)
            c_y, c_other = _CASE_PACKED[commuting_y, up]
            row = pending.get(yid, 0) + c_y * col_w.get(yid, 0) + c_other * col_w.get(other, 0)
            if commuting:
                gap = lz - lengths[yid]
                solved = solve_one_plus_u(row, (gap - 1) >> 1, gap & 1 and not up)
            else:
                solved = row, 0
            offset, mask = tests[lengths[yid]]
            if solved is None or (solved[0] + offset) & mask:
                solved = self._solve_row(row, yid, zid, commuting)
            p, mu = solved
            if mu:
                spent += abs(mu)
                check_budget(spent * weight, f"column {sys.word_of(zid)}")
                mult = mu << (SLOT * ((lift - lengths[yid]) // 2))
                _add_column_packed(pending, mult, self.column(yid))
            if p:
                col[yid] = p
        return col


_CASE_PACKED = {case: tuple(map(pack, terms)) for case, terms in _CASE_TUPLES.items()}


def _add_column_packed(pending, mult, column):
    for yid, p in column.items():
        pending[yid] = pending.get(yid, 0) + mult * p


class TupleKLTable(KLTable):
    """Classical KL columns on q-coefficient tuples: ``KLTable.column``'s
    recursion and checks with tuple arithmetic in place of packed ints."""

    def __init__(self, system):
        super().__init__(system)
        self._columns = {0: {0: (1,)}}

    def column(self, wid):
        col = self._columns.get(wid)
        if col is not None:
            return col
        sys = self.system
        length = sys.length_of
        s = sys.left_descents(wid)[0]
        vid = sys.lmul(s, wid)
        acc = {}
        for x, p in self.column(vid).items():
            sx = sys.lmul(s, x)
            if length(sx) < length(x):
                p = q_shift(p, 1)
            acc[x] = q_add(acc[x], p) if x in acc else p
            acc[sx] = q_add(acc[sx], p) if sx in acc else p
        lw = length(wid)
        for zid, m in self.mu_row(vid):
            if sys.is_left_descent(s, zid):
                shift = (lw - length(zid)) // 2
                for x, p in self.column(zid).items():
                    acc[x] = q_addmul(acc[x], q_shift((-m,), shift), p)
        col = {}
        row = []
        for x, p in acc.items():
            p = q_trim(p)
            if any(c < 0 for c in p):
                raise InvariantError(
                    f"negative Kazhdan-Lusztig coefficient at pair "
                    f"{sys.word_of(x)}, {sys.word_of(wid)}"
                )
            gap = lw - length(x)
            if x != wid and len(p) - 1 > (gap - 1) // 2:
                raise InvariantError(
                    f"Kazhdan-Lusztig degree bound violated at pair "
                    f"{sys.word_of(x)}, {sys.word_of(wid)}"
                )
            col[x] = p
            mu = q_mu(p, gap)
            if mu:
                row.append((x, mu))
        self._columns[wid] = col
        self._mu_rows[wid] = tuple(row)
        return col
