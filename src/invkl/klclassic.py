"""Classical Kazhdan-Lusztig polynomials and the two canonical Hecke bases.

One polynomial table P_{y,w}(q) drives two readouts: the basis
``cdot_w = v^{-l(w)} sum_y P_{y,w}(v^2) T_y`` of the Hecke algebra with
quadratic relation (T_s+1)(T_s-u) = 0 (u = v^2), and the basis
``c_w = u^{-l(w)} sum_y P_{y,w}(u^2) T_y`` of the variant algebra with
relation (T_s+1)(T_s-u^2) = 0.

The table is stored as columns over Bruhat intervals: column w holds
P_{y,w} for exactly the y <= w, beside a sparse mu row of the z with
mu(z, w) != 0 (the layout of du Cloux's Coxeter 3).  Column w is built
from column sw and the mu row of sw, so Bruhat order is never tested pair
by pair; the interval itself falls out of the recursion.

Each P_{y,w} is stored by the kernel of ``packed``: the one int
P_{y,w}(2^64), a 64-bit slot per q-coefficient, so the recursion is int
shifts, sums and products.  Every entry is checked as it is stored, by one
AND with the mask ``forbidden(d + 1)``: P >= 0 with no bit set at or above
``COEFF_BITS`` in any slot (non-negativity, and the bound that keeps slots
from carrying), and P >> 64(d+1) == 0 with d = (l(w)-l(y)-1)/2 (the degree
bound).  Once that AND has passed, mu(y, w) is the top slot itself,
P >> 64d for odd l(w)-l(y), with no rounding.  The mu multipliers of a
column are weighed against ``BUDGET`` before they are used.  Polynomials
are unpacked only at the API boundary (``kl_poly_ids``, ``cdot``,
``cprime`` and the CLI renderers).

A column is one pass over plain lists: s.x comes from the system's
per-generator table (``CoxeterSystem.generator_tables``) and l(x) from its
length list, with ``lmul`` only where the table has no entry yet (a group
that is not enumerated, as under ``table --classic``), and the masks are
built once per table.
"""

from __future__ import annotations

from .errors import InvariantError
from .laurent import ONE, add_into, spread, v_pow
from .packed import BUDGET, SLOT, check_budget, forbidden, unpack

__all__ = ["KLTable", "HeckeAlgebra", "expand_unitriangular"]

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


class KLTable:
    """Classical Kazhdan-Lusztig data as columns over Bruhat intervals.

    ``_columns[w]`` maps exactly the y <= w to P_{y,w} packed, and
    ``_mu_rows[w]`` lists the (z, mu(z, w)) with mu(z, w) != 0.  Column w
    is built from column v = sw, where s is the smallest left descent of w,
    and from the columns of v's mu row; every reader (polynomials, mu, the cdot and c bases, cells, the CLI) looks
    the data up here.
    """

    def __init__(self, system):
        self.system = system
        self._columns = {0: {0: 1}}  # w_id -> {y_id: P_{y,w} packed}
        self._mu_rows = {0: ()}  # w_id -> ((z_id, mu(z, w)), ...), mu != 0
        self._left = system.generator_tables()[0]  # _left[s][x] = sx, live
        self._masks = []  # forbidden mask of a row, by gap l(w) - l(y)
        self._h2 = HeckeAlgebra(system)
        self._cdot_cache = {}
        self._cprime_cache = {}

    # -- the column recursion -------------------------------------------------

    def column(self, wid):
        """{y: P_{y,w} packed} over exactly the y <= w (memoized).

        With s the smallest left descent of w and v = sw, every x <= v adds
        q^[sx<x] P_{x,v} at x and at sx (this is C'_s C'_v), and then
        mu(z, v) q^((l(w)-l(z))/2) P_{., z} is subtracted for each z in v's
        mu row with sz < z.  A coefficient of the sum is at most 2 + the sum
        of those |mu(z, v)| stored coefficients, which is what the budget
        weighs.
        """
        col = self._columns.get(wid)
        if col is not None:
            return col
        sys = self.system
        length = sys.lengths
        s = sys.left_descents(wid)[0]
        left = self._left[s]
        vid = sys.lmul(s, wid)
        acc = {}
        for x, p in self.column(vid).items():
            sx = left[x]
            if sx is None:
                sx = sys.lmul(s, x)
            if length[sx] < length[x]:
                p <<= SLOT
            acc[x] = acc.get(x, 0) + p
            acc[sx] = acc.get(sx, 0) + p
        lw = length[wid]
        # v's mu row lies in column v, so the loop above filled left[z]
        subtracted = [
            (zid, m) for zid, m in self.mu_row(vid) if length[left[zid]] < length[zid]
        ]
        spent = 2 + sum(abs(m) for _, m in subtracted)
        if spent >= BUDGET:  # the word is spelled out only for the message
            check_budget(spent, f"column {sys.word_of(wid)}")
        for zid, m in subtracted:
            mult = -m << (SLOT * ((lw - length[zid]) // 2))
            for x, p in self.column(zid).items():
                acc[x] += mult * p
        masks = self._masks
        if len(masks) <= lw:
            masks.extend(
                forbidden((gap + 1) // 2 or 1) for gap in range(len(masks), lw + 1)
            )
        row = []
        for x, p in acc.items():
            gap = lw - length[x]
            if p & masks[gap]:
                self._reject(x, wid, p)
            if gap & 1:
                mu = p >> (SLOT * (gap >> 1))
                if mu:
                    row.append((x, mu))
        self._columns[wid] = acc
        self._mu_rows[wid] = tuple(row)
        return acc

    def _reject(self, x, wid, p):
        """Raise the ``InvariantError`` that names why P_{x,w} failed its check."""
        sys = self.system
        coeffs = unpack(p)
        if any(c < 0 for c in coeffs):
            problem = "negative Kazhdan-Lusztig coefficient"
        elif x != wid and 2 * len(coeffs) > sys.length_of(wid) - sys.length_of(x) + 1:
            problem = "Kazhdan-Lusztig degree bound violated"
        else:
            problem = "Kazhdan-Lusztig coefficient beyond the packed slot bound"
        raise InvariantError(
            f"{problem} at pair {sys.word_of(x)}, {sys.word_of(wid)}"
        )

    def mu_row(self, wid):
        """The pairs (z, mu(z, w)) with mu(z, w) != 0, in column order."""
        self.column(wid)
        return self._mu_rows[wid]

    def kl_poly_ids(self, yid, wid):
        """P_{y,w} as an even-support Laurent polynomial in u = v^2.

        Zero unless y <= w.
        """
        return spread(unpack(self.column(wid).get(yid, 0)), 2)

    def mu_ids(self, yid, wid):
        """mu(y, w), read from the mu row of w (0 when it is not listed)."""
        return dict(self.mu_row(wid)).get(yid, 0)

    def build_full(self, jobs=1, max_length=None):
        """Build every column of length at most ``max_length``, in ShortLex order.

        Returns the ids of those columns, in that order.  ``jobs`` must be at
        least 1 and has no effect on the result.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        ids = self.system.all_ids(max_length)
        for wid in ids:
            self.column(wid)
        return ids

    # -- canonical bases in the T-basis ----------------------------------------

    def cdot(self, wid):
        """cdot_w = v^{-l(w)} sum_{y<=w} P_{y,w}(v^2) T_y in the u-algebra."""
        cached = self._cdot_cache.get(wid)
        if cached is not None:
            return cached
        lw = self.system.length_of(wid)
        out = {yid: spread(unpack(p), 2, -lw) for yid, p in self.column(wid).items()}
        self._cdot_cache[wid] = out
        return out

    def cprime(self, wid):
        """c_w = u^{-l(w)} sum_{y<=w} P_{y,w}(u^2) T_y in the u^2-algebra."""
        cached = self._cprime_cache.get(wid)
        if cached is not None:
            return cached
        lw = self.system.length_of(wid)
        out = {
            yid: spread(unpack(p), 4, -2 * lw) for yid, p in self.column(wid).items()
        }
        self._cprime_cache[wid] = out
        return out

    def expand_in_cdot(self, elem):
        """Rewrite a T-basis dict (u-algebra) in the cdot basis."""
        return expand_unitriangular(self.system, elem, self.cdot)

    def c_basis_product(self, zid, wid):
        """Expansion of cdot_z * cdot_w in the cdot basis."""
        sys = self.system
        out = self.expand_in_cdot(self._h2.product(self.cdot(zid), self.cdot(wid)))
        for w2, f in out.items():
            if any(c < 0 for _, c in f.terms()):
                raise InvariantError(
                    "negative structure constant in cdot_z * cdot_w at "
                    f"{sys.word_of(zid)}, {sys.word_of(wid)}, {sys.word_of(w2)}"
                )
        return out

    def h_constants(self, zid, wid):
        """Coefficients of cdot_z cdot_w cdot_{z^-1} in the cdot basis."""
        h2 = self._h2
        pair = h2.product(self.cdot(zid), self.cdot(wid))
        triple = h2.product(pair, self.cdot(self.system.inverse_id(zid)))
        return self.expand_in_cdot(triple)
