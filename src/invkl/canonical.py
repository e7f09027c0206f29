"""The canonical basis A_w of the involution module and its polynomials.

Writing a'_y = v^{-l(y)} a_y, each column is

    A_w = sum_{y <= w} pi(y, w) a'_y,   pi(w, w) = 1,
    pi(y, w) in v^-1 Z[v^-1] for y < w,

and P(y, w) = v^{l(w)-l(y)} pi(y, w) is a polynomial in u = v^2 of u-degree
at most (l(w)-l(y)-1)/2.  Columns are characterized by bar invariance and
this triangularity.  This module builds them by the descent recursion
(``column_recursive``): with s the smallest left descent of the target z,
either z = sw with sw = w delta(s) (then each row is divided by 1 + u, one
row per descent carrying the unknown mu'(y, z)), or z = s w delta(s) (then
each row is a closed formula over shorter columns).  The recursion reads
only the involution index (``involutions.Involutions``), never the module
arithmetic.  The canonical-oracle suite of ``verify`` checks each column
against the definition, unitriangularity and bar invariance under the bar
table of the module, and the tests hold it to an independent bar-fixed
route.

A column is stored as ``KLTable`` stores one, after du Cloux's Coxeter 3
(Experiment. Math. 11, 2002): {y: P(y, w) packed} over the y <= w, each
P(y, w) being the one int P(2^64) of the ``packed`` kernel, a 64-bit
slot per u-coefficient.  A solved row y of target z is the equation for
pi(y, z) times v^{l(z)-l(y)}, times one more v when z = sw, so every
coefficient is in Z[u] and the whole row is one int: the T_s case of y
gives a fixed combination c_y P(y, w) + c_p P(p, w), p the s-partner of y
and c_y, c_p the polynomials of ``involutions.CASE_POLYS`` for the cases
of y and p (such as (1+u) P(y, w) + (u^2-u) P(sy, w)), packed once into
``_CASE_TERMS``, an int product per term, and a shorter column x enters
as an integer times a u-shift, times 1 + u when l(w) - l(x) is odd.  A
commuting target then solves (1 + u) P(y, z) = row + mu'(y, z)
u^((gap+1)/2) under the degree bound floor((gap-1)/2) by
``solve_one_plus_u`` (one residue and one exact division by 2^64 + 1),
where the mu' term is allowed only at an odd gap (a solved row of a
commuting target has s as a left descent, as the mu' terms of c_s A_w
need); anything else raises ``RecurrenceInconsistent``.  Stored
coefficients stay signed ``COEFF_BITS``-bit numbers and each column's
multipliers stay within ``BUDGET``, so no slot carries into the next; past
either bound the build raises ``InvariantError``.  ``LaurentPoly`` values
are built only at the API boundary (``pi``, ``sigma_kl`` and
``ms_constants``), each by one read of its slots, with no ``LaurentPoly``
arithmetic.

Only the descent-extremal rows of a column are solved, after the extremal
pairs of Coxeter 3: row y of target z is solved when every left descent of
z is a left descent of y, and copied otherwise, P(y, z) = P(t.y, z) for the
smallest left descent t of z that y ascends, t.y being its t-partner.  It
is longer than y and below z (lifting), so the top-down pass has already
set it.  Most rows are copies (on E6 about nine in ten), and a copy needs
no case terms, no accumulator and no checks: it equals a longer row of the
same column, already checked.  mu'(y, z) is the top slot of the copy
P(t.y, z), which lies above its degree bound unless t.y = z: it is 1 when
t.y = z at gap 1 and zero otherwise.

The copy is descent stability, and it holds for every delta.  On
span{a_y, a_{t.y}} the case table gives

    (T_t + 1)(p a_y + q a_{t.y}) = (c_y p + c_{t.y} q)(a_y + a_{t.y}).

For a left descent t of z, c_t A_z = (v^2 + v^-2) A_z with c_t = v^-2 (T_t
+ 1), that is (T_t + 1) A_z = (u^2 + 1) A_z, by induction on l(z).  The
closed form of c_t A_{t.z} (the one the recursion solves from s, and the
cs-action suite checks) is (v + v^-1)^e A_z, e = 1 when t commutes with
t.z and 0 otherwise, plus multiples of A_x with x shorter than z and t a
left descent of x.  Since c_t^2 = (v^2 + v^-2) c_t and c_t multiplies each
such A_x by v^2 + v^-2 (induction), it multiplies (v + v^-1)^e A_z by the
same, and the module has no Z[v, v^-1]-torsion.  So (u^2 + 1) p = c_y p +
c_{t.y} q = (u^2 + 1) q for the a-coefficients p, q of y and t.y in A_z,
and p = q; times v^l(z) these are P(y, z) and P(t.y, z).

Each column w keeps a sparse mu' row {x: mu'(x, w) != 0}, recorded by the
pass that sets its rows, as ``KLTable`` records its mu rows: a solved row
gives its top slot at an odd gap (in the commuting case the mu' that the
division returns), a copied row its 1 at t.y = z.  For an ascent s of w,
the part of ms_constant(s, x, w) known before column sw exists is read
from column w and these rows alone: mu'(x, w) or mu''(x, w) at the x of
column w with sx < x, the mu' convolution over the mu' rows of the x' of
w's row with sx' < x', and mu'(sx, w) at the commuting ascents of w's
row.  Each term reads P(x, w), P(x', w) with x <= x', or P(sx, w), so an
x with neither x <= w nor sx <= w has known part zero, and every x named
lies below sw (lifting) with sx < x.  ``ms_constants`` subtracts the mu'
row of sw the same way.  A
new column z keeps its accumulator as a list of (multiplier, column x)
pairs, starting with -k_x for every x with a nonzero known part k_x; the
commuting branch adds (mu'(x, z), column x) as soon as row x is set when
s is a left descent of x, and each solved row y pulls the sum of
multiplier * P(y, x) over the list, so the copied rows cost the
accumulator nothing.

Each column is one pass over the rows y < z of ``Involutions.interval``,
with no method call per row.  It reads the tables of the index as they
stand: ``cases[s][y]``, the case (commuting, ascending) of y and its
s-partner, whose two multipliers are looked up in ``_CASE_TERMS`` by case,
and ``descent_masks[y]``, the left descents of y as one bit mask; lengths
are read from the system's length list.  A
non-commuting target has no unknown mu', so its rows do not depend on one
another: each solved row is P(y, z) itself.  A commuting target divides
each solved row by 1 + u and adds its mu' terms row by row.  Either way
P(y, z) is tested against the degree and slot bounds at once, by one
addition and one AND with the masks of ``slot_test`` for its slot count,
and only a row that fails goes through ``_solve_row``, which raises the
row's error.  The known parts are a pass of the same kind over column w
and the mu' rows it names.
"""

from __future__ import annotations

from .errors import InvariantError, RecurrenceInconsistent
from .involutions import CASE_POLYS
from .laurent import LaurentPoly, spread
from .packed import (
    BUDGET, ONE_PLUS_U, SLOT, check_budget, coeff_at, degree_at_most, in_slots, pack,
    slot_test, solve_one_plus_u, unpack,
)

__all__ = ["CanonicalBasis"]

# The scaled row y of a target column: the packed polynomials multiplying
# P(y, w) and P(partner of y, w), by the T_s case (commuting, up) of y.  They
# are c_y and c_partner, and the partner's case differs from y's only in up.
_CASE_TERMS = {
    (commuting, up): (pack(c), pack(CASE_POLYS[commuting, not up]))
    for (commuting, up), c in CASE_POLYS.items()
}


class CanonicalBasis:
    """Bar-invariant basis columns, built per involution and memoized.

    ``module`` is the involution index (``Involutions``) or the module that
    extends it; the build reads its ids, case table, descent masks and
    intervals only.
    """

    def __init__(self, module):
        self.module = module
        self.system = module.system
        self._lengths = module.system.lengths
        self._columns = {}   # wid -> {yid: P(y, w) packed}, over y <= w
        self._mu_rows = {0: {}}   # wid -> {xid: mu'(x, w)}, mu' != 0, set with column w

    # -- table management -------------------------------------------------------

    def build(self, jobs=1):
        """Fill the column of every involution of the module, bottom-up.

        ``jobs`` must be at least 1 and has no effect on the result: columns
        are built one at a time by the descent recursion, in ShortLex
        order.  A module built with ``max_length`` bounds the columns.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        for wid in self.module.involution_ids:
            self.column(wid)
        return self

    def column(self, wid):
        """Column w as {y: P(y, w) packed} over the y <= w.

        Built on first use; empty when w is not a (twisted) involution of
        the module.
        """
        col = self._columns.get(wid)
        if col is None:
            if not self.module.is_involution(wid):
                return {}
            col = self._columns[wid] = self.column_recursive(wid)
        return col

    def mu_row(self, wid):
        """{x: mu'(x, w)} over the x with mu'(x, w) != 0, recorded with column w.

        Empty when w is not a (twisted) involution of the module.
        """
        self.column(wid)
        return self._mu_rows.get(wid, {})

    # -- lookups ------------------------------------------------------------------

    def _entry(self, yid, wid):
        """P(y, w) packed (0 unless y <= w) and l(w) - l(y)."""
        length = self.system.length_of
        return self.column(wid).get(yid, 0), length(wid) - length(yid)

    def pi(self, y, w):
        """pi(y, w) = v^{l(y)-l(w)} P(y, w); zero unless both are involutions, y <= w."""
        p, gap = self._entry(y, w)
        return spread(unpack(p), 2, -gap)

    def sigma_kl(self, y, w):
        """The polynomial P(y, w) in u attached to a pair of involutions."""
        return spread(unpack(self._entry(y, w)[0]), 2)

    # -- structure constants -----------------------------------------------------

    def ms_constants(self, s, wid):
        """{x: ms_constant(s, x, w)} over the x where it is nonzero.

        ms_constant(s, x, w) is the bar-invariant correction constant of
        c_s A_w for an ascent s of w (Kazhdan-Lusztig 1979): by the parity
        of l(w) - l(x), the multiple mu'(x, w) (v + v^-1) or an integer
        combination of mu'' and mu', nonzero only at x < sw with sx < x.
        It is the known part of ``_known_parts``, less mu'(x, sw) when s
        commutes with w, read from the mu' row of the finished column sw.
        For a left descent s of w the map is empty, as c_s A_w = (v^2 +
        v^-2) A_w.  Read one entry as ``ms_constants(s, w).get(x, ZERO)``;
        raises ``ValueError`` when w is not an involution of the module.
        """
        self.module._require(wid)
        cases = self.module.cases[s]
        commuting, up, sw = cases[wid]
        if not up:
            return {}
        known = self._known_parts(s, wid)
        if commuting:
            for xid, m in self.mu_row(sw).items():
                if not cases[xid][1]:
                    known[xid] = known.get(xid, 0) - m
        lengths = self._lengths
        lw = lengths[wid]
        return {
            xid: LaurentPoly((m, 0, m), -1) if (lw - lengths[xid]) & 1 else LaurentPoly((m,))
            for xid, m in known.items()
            if m
        }

    def _known_parts(self, s, wid):
        """ms_constant(s, x, w) less its mu'(x, sw) term, for an ascent s of w.

        Read from column w and the mu' rows, as {x: integer k}; some k may
        be zero.  Every term has x <= w or sx <= w.  An odd gap l(w) - l(x)
        stands for k (v + v^-1) with k = mu'(x, w); an even gap gives the
        integer mu''(x, w) - sum_{x'} mu'(x, x') mu'(x', w) + mu'(sx, w),
        the last term only when sx = x delta(s).  mu''(x, w), the
        coefficient of u^((gap-2)/2) in P(x, w), is read at the x of column
        w with sx < x, and mu'(x, w) from w's mu' row; the convolution runs
        over the mu' rows of the x' of w's mu' row with sx' < x', and
        mu'(sx, w) is read at the commuting ascents of w's mu' row.
        """
        lengths, cases = self._lengths, self.module.cases[s]
        lw = lengths[wid]
        known = {}
        for xid, p in self.column(wid).items():
            gap = lw - lengths[xid]
            if not gap & 1 and not cases[xid][1] and (m := coeff_at(p, (gap - 1) >> 1)):
                known[xid] = m   # mu''(x, w)
        for xid, m in self.mu_row(wid).items():
            commuting, up, partner = cases[xid]
            if up:
                if commuting:   # the mu'(sp, w) term of its partner p, sp = x
                    known[partner] = known.get(partner, 0) + m
                continue
            known[xid] = m
            for x2, m2 in self.mu_row(xid).items():
                if not cases[x2][1]:
                    known[x2] = known.get(x2, 0) - m2 * m
        return known

    # -- construction: the descent recursion -----------------------------------------

    def column_recursive(self, zid):
        """Build column z from strictly shorter columns via the smallest descent.

        With s the smallest left descent of z and w its s-partner, c_s A_w
        is A_z (times v + v^-1 in the commuting case) plus the ms_constant
        multiples of the A_x, x < z with sx < x.  Row y is scaled by
        v^(lift-l(y)), lift being l(z) plus one in the commuting case, so
        that all of it is in Z[u] and packs into one int.  The accumulator
        is a list of (multiplier, column x) pairs, starting with -k_x for
        every nonzero known part k_x.  The rows y < z are then set top down
        in one pass, which also records the mu' row of z.

        A row whose left descents hold those of z is solved: its
        ``_CASE_TERMS`` combination (read from the case table of s) plus
        the sum it pulls from the accumulator.  A non-commuting target has
        no unknown, so that row is P(y, z) itself, and mu'(y, z) is its top
        slot at an odd gap.  In the commuting case the row is divided by
        1 + u, which gives mu'(y, z) at an odd gap, and (mu'(y, z), column
        y) joins the accumulator for the rows below y.  One AND tests each
        solved P(y, z) against the degree and slot bounds; a row that fails
        goes to ``_solve_row``, which raises its error.

        Any other row is copied: P(y, z) = P(t.y, z), t the smallest left
        descent of z that y ascends and t.y its t-partner, set earlier in
        the pass, by descent stability (proved in the module docstring).
        Its mu'(y, z) is 1 when t.y = z at gap 1 and zero otherwise, and in
        the commuting case it joins the accumulator when s is a left
        descent of y.

        The multipliers are weighed against ``BUDGET`` before they are used:
        a row sums at most ``spent`` stored entries, counted with their
        multipliers, and its division by 1 + u multiplies that by at most
        3d + 4.
        """
        if zid == 0:
            return {0: 1}
        sys, lengths, module = self.system, self._lengths, self.module
        all_cases, left = module.cases, module.descent_masks
        on_z = left[zid]
        s = module.smallest_descent(zid)
        cases = all_cases[s]
        commuting, _up, wid = cases[zid]
        col_w = self.column(wid)
        lz = lengths[zid]
        lift = lz + 1 if commuting else lz  # row y: v^(lift-l(y))
        known = self._known_parts(s, wid)
        weight = 3 * (lz // 2) + 4
        spent = 4 + 2 * sum(map(abs, known.values()))
        if spent * weight >= BUDGET:  # the word is spelled out only for the message
            check_budget(spent * weight, f"column {sys.word_of(zid)}")
        pulls = []   # (mult, column x's get): each solved row y adds mult * P(y, x)
        for xid, k in known.items():
            if k:
                e = lift - lengths[xid]
                mult = (-k * ONE_PLUS_U if e % 2 else -k) << (SLOT * (e // 2))
                pulls.append((mult, self.column(xid).get))
        # by l(y): the in_slots test of P(y, z), degree < (l(z) - l(y) + 1) / 2
        tests = [slot_test((lz - ly + 1) >> 1) for ly in range(lz)]
        at_w = col_w.get
        col = {zid: 1}
        at_z = col.get
        mu_z = {}
        for yid in module.interval(zid)[-2::-1]:
            gap = lz - lengths[yid]
            ascents = on_z & ~left[yid]
            if ascents:   # copied from t.y
                other = all_cases[(ascents & -ascents).bit_length() - 1][yid][2]
                p = at_z(other, 0)
                # mu' is the copy's top slot: 1 if t.y = z at gap 1, else past its degree
                mu = int(gap == 1 and other == zid)
            else:
                commuting_y, up, other = cases[yid]
                c_y, c_other = _CASE_TERMS[commuting_y, up]
                row = c_y * at_w(yid, 0) + c_other * at_w(other, 0)
                for mult, at in pulls:
                    row += mult * at(yid, 0)
                if commuting:
                    solved = solve_one_plus_u(row, (gap - 1) >> 1, gap & 1)
                else:
                    solved = row, 0
                offset, mask = tests[lengths[yid]]
                if solved is None or (solved[0] + offset) & mask:   # _solve_row raises
                    solved = self._solve_row(row, yid, zid, commuting)
                p, mu = solved
                if gap & 1 and not commuting:
                    mu = coeff_at(p, gap >> 1)
            if mu:
                mu_z[yid] = mu
                if commuting and left[yid] >> s & 1:
                    spent += abs(mu)
                    if spent * weight >= BUDGET:
                        check_budget(spent * weight, f"column {sys.word_of(zid)}")
                    mult = mu << (SLOT * ((lift - lengths[yid]) // 2))
                    pulls.append((mult, self.column(yid).get))
            if p:
                col[yid] = p
        self._mu_rows[zid] = mu_z
        return col

    def _solve_row(self, row, yid, zid, commuting):
        """Solve P(y, z) from its packed row: (1 + u) P = row + mu u^(d+1), or P = row.

        The first equation is a commuting target's, the second any other
        target's; d = floor((gap-1)/2) bounds the u-degree of P(y, z), gap
        being l(z) - l(y).  The mu term is allowed only at an odd gap, and
        then mu = mu'(y, z) is the top coefficient of P; a solved row of a
        commuting target has s as a left descent, so it may carry mu'.
        Returns (P, mu); raises ``RecurrenceInconsistent`` when the row has
        no such solution and ``InvariantError`` when P leaves the slot
        bound.
        """
        sys = self.system
        gap = sys.length_of(zid) - sys.length_of(yid)
        d = (gap - 1) // 2
        if commuting:
            solved = solve_one_plus_u(row, d, gap % 2 == 1)
        else:
            solved = (row, 0) if degree_at_most(row, d) else None
        if solved is None:
            raise RecurrenceInconsistent(
                f"row {sys.word_of(yid)} of column {sys.word_of(zid)}: "
                f"u-coefficients {unpack(row)} have no solution "
                + ("divided by 1 + u" if commuting else "as they stand")
                + f" under the degree bound {d}"
            )
        if not in_slots(solved[0], d + 1):
            raise InvariantError(
                f"P({sys.word_of(yid)}, {sys.word_of(zid)}) has a coefficient of "
                "more than the packed table's signed bits"
            )
        return solved

