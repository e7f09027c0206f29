"""Classical Kazhdan-Lusztig polynomials and the two canonical Hecke bases.

One polynomial table P_{y,w}(q) drives two readouts: the basis
``cdot_w = v^{-l(w)} sum_y P_{y,w}(v^2) T_y`` of the Hecke algebra with
quadratic relation (T_s+1)(T_s-u) = 0 (u = v^2), and the basis
``c_w = u^{-l(w)} sum_y P_{y,w}(u^2) T_y`` of the variant algebra with
relation (T_s+1)(T_s-u^2) = 0.  The table is filled column by column in
length order.
"""

from __future__ import annotations

from .errors import InvariantError
from .laurent import LaurentPoly, ONE, ZERO, v_pow

__all__ = ["KLTable", "HeckeAlgebra"]


def _q_shift(p, k):
    return (0,) * k + tuple(p) if p else ()


def _q_add(a, b):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _q_sub_scaled(a, b, c):
    n = max(len(a), len(b))
    return tuple(
        (a[i] if i < len(a) else 0) - c * (b[i] if i < len(b) else 0)
        for i in range(n)
    )


def _q_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


class HeckeAlgebra:
    """T-basis arithmetic with quadratic relation (T_s+1)(T_s - v^k) = 0.

    Elements are dicts mapping element ids to Laurent coefficients.  k = 2
    gives the algebra with parameter u, k = 4 the one with parameter u^2.
    """

    def __init__(self, system, param_exp):
        self.system = system
        self.param = v_pow(param_exp)
        self.param_minus_one = self.param - ONE

    def rmul_gen(self, elem, s):
        sys = self.system
        out = {}
        for wid, f in elem.items():
            ws = sys.rmul(wid, s)
            if sys.length_of(ws) > sys.length_of(wid):
                out[ws] = out.get(ws, ZERO) + f
            else:
                g = out.get(wid, ZERO) + f * self.param_minus_one
                if g.is_zero:
                    out.pop(wid, None)
                else:
                    out[wid] = g
                g = out.get(ws, ZERO) + f * self.param
                if g.is_zero:
                    out.pop(ws, None)
                else:
                    out[ws] = g
        return {w: f for w, f in out.items() if not f.is_zero}

    def rmul_element(self, elem, xid):
        """elem * T_x, folding the reduced word of x from the left."""
        for s in self.system.word_of(xid):
            elem = self.rmul_gen(elem, s)
        return elem

    def product(self, a, b):
        """Product of two T-basis dicts: sum_y b_y * (a * T_y)."""
        out = {}
        for yid, g in b.items():
            part = self.rmul_element(dict(a), yid)
            for wid, f in part.items():
                acc = out.get(wid, ZERO) + f * g
                if acc.is_zero:
                    out.pop(wid, None)
                else:
                    out[wid] = acc
        return out

    def rmul_gen_inverse(self, elem, s):
        """elem * T_s^{-1}, using T_s^{-1} = Q^{-1} T_s + (Q^{-1} - 1)."""
        qinv = v_pow(-self.param.max_exp)
        out = {w: f * qinv for w, f in self.rmul_gen(elem, s).items()}
        lo = qinv - ONE
        for wid, f in elem.items():
            g = out.get(wid, ZERO) + f * lo
            if g.is_zero:
                out.pop(wid, None)
            else:
                out[wid] = g
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
                acc = out.get(xid, ZERO) + fb * g
                if acc.is_zero:
                    out.pop(xid, None)
                else:
                    out[xid] = acc
        return out


class KLTable:
    """Memoized classical Kazhdan-Lusztig data for one Coxeter system."""

    def __init__(self, system):
        self.system = system
        self._pq = {}  # (y_id, w_id) -> tuple of q-coefficients
        self._h2 = HeckeAlgebra(system, 2)
        self._cdot_cache = {}
        self._cprime_cache = {}
        self._cdot_product_cache = {}
        self._pair_raw_cache = {}
        self._range_cache = {}

    # -- the polynomial recursion -------------------------------------------

    def _pq_poly(self, yid, wid):
        """P_{y,w} as a tuple of coefficients in the parameter q."""
        sys = self.system
        if yid == wid:
            return (1,)
        if not sys.bruhat_leq_ids(yid, wid):
            return ()
        key = (yid, wid)
        cached = self._pq.get(key)
        if cached is not None:
            return cached
        s = min(t for t in range(sys.rank) if sys.is_left_descent(t, wid))
        v = sys.lmul(s, wid)
        sy = sys.lmul(s, yid)
        if sys.length_of(sy) < sys.length_of(yid):
            p = _q_add(self._pq_poly(sy, v), _q_shift(self._pq_poly(yid, v), 1))
        else:
            p = _q_add(_q_shift(self._pq_poly(sy, v), 1), self._pq_poly(yid, v))
        lw = sys.length_of(wid)
        for zid in self._descent_range(s, v):
            if not sys.bruhat_leq_ids(yid, zid):
                continue
            m = self.mu_ids(zid, v)
            if m:
                shift = (lw - sys.length_of(zid)) // 2
                p = _q_sub_scaled(
                    p, _q_shift(self._pq_poly(yid, zid), shift), m
                )
        p = _q_trim(p)
        if any(c < 0 for c in p):
            raise InvariantError(
                f"negative Kazhdan-Lusztig coefficient at pair "
                f"{sys.word_of(yid)}, {sys.word_of(wid)}"
            )
        deg_bound = (lw - sys.length_of(yid) - 1) // 2
        if len(p) - 1 > deg_bound:
            raise InvariantError(
                f"Kazhdan-Lusztig degree bound violated at pair "
                f"{sys.word_of(yid)}, {sys.word_of(wid)}"
            )
        self._pq[key] = p
        return p

    def _descent_range(self, s, vid):
        """Elements z < v with sz < z (candidates for mu corrections)."""
        key = (s, vid)
        cached = self._range_cache.get(key)
        if cached is not None:
            return cached
        sys = self.system
        lv = sys.length_of(vid)
        out = []
        for el in sys.enumerate_up_to_length(max(lv - 1, 0)):
            if sys.is_left_descent(s, el.id) and sys.bruhat_leq_ids(el.id, vid):
                out.append(el.id)
        out = tuple(out)
        self._range_cache[key] = out
        return out

    def kl_poly_ids(self, yid, wid):
        """P_{y,w} as an even-support Laurent polynomial in u = v^2."""
        p = self._pq_poly(yid, wid)
        out = [0] * (2 * len(p) - 1) if p else []
        for i, c in enumerate(p):
            if c:
                out[2 * i] = c
        return LaurentPoly(out, 0)

    def kl_poly(self, y, w):
        sys = self.system
        return self.kl_poly_ids(sys._id_of(y), sys._id_of(w))

    def mu_ids(self, yid, wid):
        sys = self.system
        d = sys.length_of(wid) - sys.length_of(yid) - 1
        if d < 0 or d % 2:
            return 0
        p = self._pq_poly(yid, wid)
        return p[d // 2] if d // 2 < len(p) else 0

    def mu(self, y, w):
        sys = self.system
        return self.mu_ids(sys._id_of(y), sys._id_of(w))

    def build_full(self, jobs=1, max_length=None):
        """Fill the table column by column, in length order.

        ``jobs`` must be at least 1 and has no effect on the result.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        sys = self.system
        if max_length is None:
            elements = sys.enumerate_all()
        else:
            elements = sys.enumerate_up_to_length(max_length)
        for w in elements:
            for y in elements:
                if y.length <= w.length:
                    self._pq_poly(y.id, w.id)
        return elements

    # -- canonical bases in the T-basis ----------------------------------------

    def cdot(self, wid):
        """cdot_w = v^{-l(w)} sum_{y<=w} P_{y,w}(v^2) T_y in the u-algebra."""
        cached = self._cdot_cache.get(wid)
        if cached is not None:
            return cached
        sys = self.system
        scale = v_pow(-sys.length_of(wid))
        out = {}
        for el in sys.enumerate_up_to_length(sys.length_of(wid)):
            p = self.kl_poly_ids(el.id, wid)
            if not p.is_zero:
                out[el.id] = p * scale
        self._cdot_cache[wid] = out
        return out

    def cprime(self, wid):
        """c_w = u^{-l(w)} sum_{y<=w} P_{y,w}(u^2) T_y in the u^2-algebra."""
        cached = self._cprime_cache.get(wid)
        if cached is not None:
            return cached
        sys = self.system
        scale = v_pow(-2 * sys.length_of(wid))
        out = {}
        for el in sys.enumerate_up_to_length(sys.length_of(wid)):
            p = self._pq_poly(el.id, wid)
            if p:
                coeffs = [0] * (4 * len(p) - 3)
                for i, c in enumerate(p):
                    coeffs[4 * i] = c
                out[el.id] = LaurentPoly(coeffs, 0) * scale
        self._cprime_cache[wid] = out
        return out

    def expand_in_cdot(self, elem):
        """Rewrite a T-basis dict (u-algebra) in the cdot basis."""
        sys = self.system
        work = dict(elem)
        out = {}
        while work:
            top = max(
                work, key=lambda w: (sys.length_of(w), sys.word_of(w))
            )
            coeff = work[top] * v_pow(sys.length_of(top))
            out[top] = coeff
            for wid, f in self.cdot(top).items():
                g = work.get(wid, ZERO) - coeff * f
                if g.is_zero:
                    work.pop(wid, None)
                else:
                    work[wid] = g
        return out

    def c_basis_product(self, z, w):
        """Expansion of cdot_z * cdot_w in the cdot basis (memoized)."""
        sys = self.system
        zid, wid = sys._id_of(z), sys._id_of(w)
        key = (zid, wid)
        cached = self._cdot_product_cache.get(key)
        if cached is None:
            raw = self._h2.product(self.cdot(zid), self.cdot(wid))
            cached = self.expand_in_cdot(raw)
            for w2, f in cached.items():
                if any(c < 0 for _, c in f.terms()):
                    raise InvariantError(
                        "negative structure constant in cdot_z * cdot_w at "
                        f"{sys.word_of(zid)}, {sys.word_of(wid)}, {sys.word_of(w2)}"
                    )
            self._cdot_product_cache[key] = cached
        return cached

    def h_constants(self, z, w):
        """Coefficients of cdot_z cdot_w cdot_{z^-1} in the cdot basis."""
        sys = self.system
        zid, wid = sys._id_of(z), sys._id_of(w)
        pair = self._pair_raw_cache.get((zid, wid))
        if pair is None:
            pair = self._h2.product(self.cdot(zid), self.cdot(wid))
            self._pair_raw_cache[(zid, wid)] = pair
        triple = self._h2.product(pair, self.cdot(sys.inverse_id(zid)))
        return self.expand_in_cdot(triple)
