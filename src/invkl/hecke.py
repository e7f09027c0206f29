"""The Hecke algebra in the T basis and its two canonical bases.

A classical table (``klclassic.KLTable``) drives two readouts: the basis
``cdot_w = v^{-l(w)} sum_y P_{y,w}(v^2) T_y`` of the Hecke algebra with
quadratic relation (T_s+1)(T_s-u) = 0 (u = v^2), and the basis
``c_w = u^{-l(w)} sum_y P_{y,w}(u^2) T_y`` of the variant algebra with
relation (T_s+1)(T_s-u^2) = 0.  ``HeckeBases`` builds both from the
table's columns, and expands products of cdot elements back in the cdot
basis; the h-constants of ``cells.check_hf_relation`` are such products.

Only that check and the tests read this module, so the ``kl`` and
``cells`` commands never compile it.
"""

from __future__ import annotations

from .errors import InvariantError
from .laurent import ONE, add_into, spread, v_pow
from .packed import unpack

__all__ = ["HeckeAlgebra", "HeckeBases", "expand_unitriangular"]

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
        """Coefficients of cdot_z cdot_w cdot_{z^-1} in the cdot basis."""
        product = self.algebra.product
        pair = product(self.cdot(zid), self.cdot(wid))
        triple = product(pair, self.cdot(self.system.inverse_id(zid)))
        return self.expand_in_cdot(triple)
