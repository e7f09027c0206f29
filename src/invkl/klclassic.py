"""Classical Kazhdan-Lusztig polynomials P_{y,w}(q) of a finite Coxeter group.

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
are unpacked only at the API boundary (``kl_poly_ids`` and the CLI
renderers); the cells graph and the W-graph h/f check read the mu rows.

A column is one pass over plain lists: s.x comes from the system's
per-generator table (``CoxeterSystem.generator_tables``) and l(x) from its
length list, with ``lmul`` only where the table has no entry yet (a group
that is not enumerated, as under ``table --classic``), and the masks are
built once per table.
"""

from __future__ import annotations

from .errors import InvariantError
from .laurent import spread
from .packed import BUDGET, SLOT, check_budget, forbidden, unpack

__all__ = ["KLTable"]


class KLTable:
    """Classical Kazhdan-Lusztig data as columns over Bruhat intervals.

    ``_columns[w]`` maps exactly the y <= w to P_{y,w} packed, and
    ``_mu_rows[w]`` lists the (z, mu(z, w)) with mu(z, w) != 0.  Column w
    is built from column v = sw, where s is the smallest left descent of w,
    and from the columns of v's mu row; every reader (polynomials, mu,
    cells and the h/f check, the CLI) looks the data up here.
    """

    def __init__(self, system):
        self.system = system
        self._columns = {0: {0: 1}}  # w_id -> {y_id: P_{y,w} packed}
        self._mu_rows = {0: ()}  # w_id -> ((z_id, mu(z, w)), ...), mu != 0
        self._left = system.generator_tables()[0]  # _left[s][x] = sx, live
        self._masks = []  # forbidden mask of a row, by gap l(w) - l(y)

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
