"""The Hecke module spanned by (twisted) involutions and its bar involution.

For a generator s and a twisted involution w (meaning delta(w) = w^{-1}),
the action of T_s on the basis vector a_w is, with ws* short for
w*delta(s):

* sw = ws* > w:   T_s a_w = u a_w + (u+1) a_{sw}
* sw = ws* < w:   T_s a_w = (u^2-u-1) a_w + (u^2-u) a_{sw}
* sw != ws* > w:  T_s a_w = a_{s w s*}
* sw != ws* < w:  T_s a_w = (u^2-1) a_w + u^2 a_{s w s*}

which satisfies (T_s+1)(T_s-u^2) = 0 and the braid relations.  Which case
applies, and the partner sw or s w s*, is decided once per (s, w) by the
involution enumeration (``CoxeterSystem.involution_action``); this module,
the canonical basis, the verify suites and the u=1 module all read that
table through ``InvolutionModule.action_case``.  Bruhat order on the
involutions is read from the same table: ``InvolutionModule.interval(w)``
lists the y <= w by the lifting property, without leaving the involutions.
The module is defined over Z[u, u^-1]; every coefficient produced here must
have even v-support, and the bar operations check that.

The bar involution is the unique Z-linear map with bar(u^n m) = u^-n bar(m),
bar(a_1) = a_1 and bar((T_s+1)m) = u^-2 (T_s+1) bar(m).  Its table is
stored as the P-sigma columns are, in the 64-bit balanced slots of
``packed``: bar(a_w) = sum_y u^-l(w) R(y, w) a_y with R(y, w) in Z[u] of
degree at most l(w) - l(y), and ``bar_column(w)`` is {y: R(y, w)(2^64)}.
Since (T_s+1) a_y = c_y (a_y + a_p), p the s-partner of y and c_y one of
1+u, u^2-u, 1 and u^2 by the case of y, a left descent s of w with partner
x gives R_w = Sigma - u^2 R_x, or Sigma / (1+u) - u R_x when it commutes,
Sigma being u^l(x) (T_s+1) bar(a_x): a column is a sum of int products,
with one checked exact division by 2^64 + 1 per row when s commutes.  Each
column is checked to have R(w, w) = 1, support in ``interval(w)`` and
coefficients within the slot bound.  ``bar_basis(w)`` is the
``LaurentPoly`` view of a column, built once per w.  The semilinear
extension ``bar_extended`` adds bar(f_w) R(y, w) into row y as one int
product per (w, y), in v-slots wide enough for the row's coefficient
bound, and reads each row back as one polynomial.  ``packed`` is imported
inside the bar-table code only, so the u=1 module does not load it.

``bar_table_dense_solve`` is an independent cross-check on small ranks: it
solves the same defining constraints as exact linear systems, one Gauss-Jordan
elimination per column w whose matrix (phi-bar shifted over a window of
u-exponents, for each defining equation) is shared by every row y, each y
being one right-hand side of that elimination.
"""

from __future__ import annotations

import struct
from functools import cache

from .errors import InvariantError, NotDivisible
from .laurent import LaurentPoly, ONE, ZERO, add_into, spread, u_pow, v_pow

__all__ = ["MVector", "InvolutionModule", "bar_table_dense_solve"]

_U = u_pow(1)
_U1 = _U + ONE                 # u + 1
_UU = u_pow(2)                 # u^2
_UU_M1 = _UU - ONE             # u^2 - 1
_UU_MU = _UU - _U              # u^2 - u
_UU_MU_M1 = _UU - _U - ONE     # u^2 - u - 1
_UINV2 = u_pow(-2)
_VINV2 = v_pow(-2)


class MVector:
    """A finitely supported map from involution ids to Laurent coefficients."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        if entries is None:
            entries = {}
        self.entries = {
            w: f for w, f in entries.items() if not f.is_zero
        }

    @classmethod
    def basis(cls, wid):
        v = cls.__new__(cls)
        v.entries = {wid: ONE}
        return v

    @classmethod
    def _raw(cls, entries):
        v = cls.__new__(cls)
        v.entries = entries
        return v

    @property
    def is_zero(self):
        return not self.entries

    def get(self, wid):
        return self.entries.get(wid, ZERO)

    def __add__(self, other):
        out = dict(self.entries)
        for w, f in other.entries.items():
            add_into(out, w, f)
        return MVector._raw(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MVector._raw({w: -f for w, f in self.entries.items()})

    def scaled(self, f):
        if isinstance(f, int):
            f = LaurentPoly((f,), 0)
        if f.is_zero:
            return MVector._raw({})
        return MVector._raw({w: g * f for w, g in self.entries.items()})

    def __eq__(self, other):
        return isinstance(other, MVector) and self.entries == other.entries

    def __repr__(self):
        items = ", ".join(
            f"{w}: {f}" for w, f in sorted(self.entries.items())
        )
        return f"MVector({{{items}}})"


class InvolutionModule:
    """The module over the u^2-Hecke algebra with basis the twisted involutions.

    The whole module structure is the system's T_s case table
    (:meth:`CoxeterSystem.involution_action`), read through
    :meth:`action_case`.  ``layers`` groups the involutions by length, in
    ``involution_ids`` order, and :meth:`interval` gives the Bruhat interval
    below an involution, read from the same table.  With ``max_length``
    the module holds only the involutions of at most that length (the
    Bruhat interval below each of them lies among them), and the walk that
    finds them stops there.
    """

    def __init__(self, system, max_length=None):
        self.system = system
        self.involution_ids = system.twisted_involution_ids(max_length)
        self._action = system.involution_action(max_length)
        self._position = {w: i for i, w in enumerate(self.involution_ids)}
        by_length = {}
        for wid in self.involution_ids:
            by_length.setdefault(system.length_of(wid), []).append(wid)
        self.layers = list(by_length.values())
        self._intervals = {0: (0,)}
        self._bar = {0: {0: 1}}   # wid -> bar_column(wid)
        self._bar_views = {}      # wid -> bar_basis(wid)
        self._bar_tops = {}       # wid -> _bar_top(wid)

    # -- case analysis -------------------------------------------------------

    def is_involution(self, wid):
        """True iff w is a twisted involution of this module."""
        return wid in self._position

    def _require(self, wid):
        if wid not in self._position:
            raise ValueError(f"id {wid} is not a twisted involution")

    def action_case(self, s, wid):
        """(commuting, ascending, partner) for the T_s action on a_w."""
        return self._action[wid][s]

    def interval(self, wid):
        """The involutions y <= w in Bruhat order, in ``involution_ids`` order.

        Decided inside the involution graph by the lifting property for
        twisted involutions (Richardson-Springer 1990; Hultman, Adv. Math.
        2005): with s the smallest left descent of w and x its partner, the
        y <= w are the y <= x together with their s-partners.  Memoized.
        """
        cached = self._intervals.get(wid)
        if cached is None:
            cases = self._action[wid]
            s = next(s for s, case in enumerate(cases) if not case[1])
            below = self.interval(cases[s][2])
            members = set(below)
            members.update(self._action[y][s][2] for y in below)
            cached = self._intervals[wid] = tuple(
                sorted(members, key=self._position.__getitem__)
            )
        return cached

    def basis(self, wid):
        self._require(wid)
        return MVector.basis(wid)

    # -- module structure -----------------------------------------------------

    def ts_action(self, s, m):
        """T_s applied to an arbitrary module element."""
        out = {}
        for wid, f in m.entries.items():
            commuting, up, other = self.action_case(s, wid)
            if commuting and up:
                add_into(out, wid, f * _U)
                add_into(out, other, f * _U1)
            elif commuting:
                add_into(out, wid, f * _UU_MU_M1)
                add_into(out, other, f * _UU_MU)
            elif up:
                add_into(out, other, f)
            else:
                add_into(out, wid, f * _UU_M1)
                add_into(out, other, f * _UU)
        return MVector._raw(out)

    def tw_action(self, xid, m):
        """T_x applied along a reduced word; independent of the word chosen."""
        for s in reversed(self.system.word_of(xid)):
            m = self.ts_action(s, m)
        return m

    def cs_action(self, s, m):
        """c_s = v^{-2} (T_s + 1) applied to m (coefficients may be odd)."""
        return (self.ts_action(s, m) + m).scaled(_VINV2)

    # -- bar involution ---------------------------------------------------------

    def _check_even(self, m, context):
        for wid, f in m.entries.items():
            if not f.is_even_support():
                raise InvariantError(
                    f"{context}: coefficient {f} at {self.system.word_of(wid)} "
                    "leaves Z[u, u^-1]"
                )

    def bar_column(self, wid):
        """bar(a_w) as {y: R(y, w) packed}, R(y, w) = u^l(w) r(y, w); memoized.

        Built by ``_bar_step`` over the smallest left descent of w; a w that
        is not an involution of the module raises ``ValueError``.
        """
        col = self._bar.get(wid)
        if col is None:
            self._require(wid)
            s = next(s for s, case in enumerate(self._action[wid]) if not case[1])
            col = self._bar[wid] = self._bar_step(wid, s)
        return col

    def _bar_step(self, wid, s):
        """R(., w) from R(., x), x the s-partner of w, for a left descent s of w.

        Row y of Sigma = u^l(x) (T_s + 1) bar(a_x) is c_y R(y, x) plus
        c_p R(p, x), p the s-partner of y.  A non-commuting descent gives
        R_w = Sigma - u^2 R_x, a commuting one R_w = Sigma / (1 + u) - u R_x;
        both are pushed entry by entry with the multipliers of
        ``_bar_terms``, and the division by 2^64 + 1 is checked to be exact.
        The result is checked to have R(w, w) = 1, support in
        ``interval(w)`` and, by ``in_slots``, u-degree at most l(w) - l(y)
        with signed ``COEFF_BITS``-bit coefficients: together with the
        bound on R_x this keeps every slot of the push below 2^63.
        """
        from .packed import SLOT, in_slots, unpack

        sys = self.system
        commuting, _up, xid = self._action[wid][s]
        terms = _bar_terms(commuting)
        action = self._action
        pushed = {}
        for yid, r in self.bar_column(xid).items():
            commuting_y, up, pid = action[yid][s]
            own, partner = terms[commuting_y, up]
            pushed[yid] = pushed.get(yid, 0) + own * r
            pushed[pid] = pushed.get(pid, 0) + partner * r
        if commuting:
            one_plus_u = (1 << SLOT) + 1
            for yid, r in pushed.items():
                q, rem = divmod(r, one_plus_u)
                if rem:
                    raise NotDivisible(
                        f"bar(a_w) at {sys.word_of(wid)}, row {sys.word_of(yid)}: "
                        f"u-coefficients {unpack(r)} are not divisible by 1 + u"
                    )
                pushed[yid] = q
        col = {yid: r for yid, r in pushed.items() if r}
        if col.get(wid) != 1:
            raise InvariantError(
                f"bar(a_w) diagonal coefficient is not u^-l(w) at {sys.word_of(wid)}"
            )
        below = set(self.interval(wid))
        lw = sys.length_of(wid)
        for yid, r in col.items():
            if yid not in below:
                raise InvariantError(
                    f"bar(a_w) support leaves the Bruhat interval at "
                    f"{sys.word_of(wid)}: offending term {sys.word_of(yid)}"
                )
            if not in_slots(r, lw - sys.length_of(yid) + 1):
                raise InvariantError(
                    f"bar(a_w) at {sys.word_of(wid)}, row {sys.word_of(yid)}: "
                    "u^l(w) r(y, w) leaves the packed table's degree or "
                    "signed-bit bound"
                )
        return col

    def bar_basis(self, wid, choice=None):
        """bar(a_w) as a module element: a view of ``bar_column``, built once per w.

        ``choice`` overrides the generator used for the recursion step and is
        meant for well-definedness checks; any left descent is admissible.
        """
        if choice is None:
            view = self._bar_views.get(wid)
            if view is None:
                view = self._bar_views[wid] = self._bar_view(
                    wid, self.bar_column(wid)
                )
            return view
        self._require(wid)
        if choice not in [s for s, case in enumerate(self._action[wid]) if not case[1]]:
            raise ValueError(
                f"generator {choice} is not a left descent of "
                f"{self.system.word_of(wid)}"
            )
        return self._bar_view(wid, self._bar_step(wid, choice))

    def _bar_view(self, wid, col):
        # a stored R(y, w) read in v-slots is R(y, w)(v^2)
        lo = -2 * self.system.length_of(wid)
        view = MVector._raw(
            {yid: LaurentPoly(_unpack_slots(r, _VSLOT), lo) for yid, r in col.items()}
        )
        self._check_even(view, "bar involution")
        return view

    def _bar_top(self, wid):
        """max |coefficient| over the column w, read off the ``bar_basis`` view."""
        top = self._bar_tops.get(wid)
        if top is None:
            top = self._bar_tops[wid] = max(
                abs(c) for f in self.bar_basis(wid).entries.values() for c in f.coeffs
            )
        return top

    def _bar_vslots(self, wid, width):
        """{y: R(y, w)(v^2) packed in width-bit v-slots}, from the ``bar_basis`` view.

        At ``_VSLOT`` bits this is ``bar_column(w)`` itself.
        """
        shift = 2 * self.system.length_of(wid)
        return {
            yid: _pack_slots(f.coeffs, width) << (width * (f.min_exp + shift))
            for yid, f in self.bar_basis(wid).entries.items()
        }

    def bar_mvector(self, m):
        """Semilinear extension: bar(sum f_y a_y) = sum bar(f_y) bar(a_y)."""
        self._check_even(m, "bar input")
        return self.bar_extended(m)

    def bar_extended(self, m):
        """The same semilinear bar on the v-extended module (odd powers allowed).

        bar(f_w) is v^-max(f_w) times f_w's coefficients reversed, so each
        (w, y) adds one int product, bar(f_w) R(y, w), into row y, every
        row packed in v-slots above the smallest exponent lo.  A row
        coefficient is at most the sum over w of |f_w|_1 max|R_w|.  Below
        2^30 the slots are ``_VSLOT`` = 32 bits, half a table slot, so
        R(y, w)(v^2) is the stored int itself; otherwise they are wide
        enough for that bound, and R is repacked from the view.  The balanced
        read-back of each row into one ``LaurentPoly`` is then exact for
        every input, and a row that cancels is not stored.
        """
        entries = m.entries.items()
        if not entries:
            return MVector._raw({})
        length = self.system.length_of
        lo = min(-2 * length(w) - f.max_exp for w, f in entries)
        bound = sum(sum(map(abs, f.coeffs)) * self._bar_top(w) for w, f in entries)
        width = _VSLOT if bound < 1 << (_VSLOT - 2) else bound.bit_length() + 2
        rows = {}
        for wid, f in entries:
            if width == _VSLOT:
                col = self.bar_column(wid)
            else:
                col = self._bar_vslots(wid, width)
            shift = width * (-2 * length(wid) - f.max_exp - lo)
            mult = _pack_slots(f.coeffs[::-1], width)
            for yid, r in col.items():
                rows[yid] = rows.get(yid, 0) + (mult * r << shift)
        return MVector._raw(
            {
                yid: LaurentPoly(_unpack_slots(p, width), lo)
                for yid, p in rows.items()
                if p
            }
        )


_VSLOT = 32  # bits per v-coefficient of bar_extended's rows, when they fit

# c_y of (T_s + 1) a_y = c_y (a_y + a_partner), by the T_s case (commuting, up)
# of y, as u-coefficients
_C_Y = {
    (True, True): (1, 1),        # 1 + u
    (True, False): (0, -1, 1),   # u^2 - u
    (False, True): (1,),         # 1
    (False, False): (0, 0, 1),   # u^2
}


@cache
def _bar_terms(commuting):
    """{case of y: (own, partner)}, packed: the multipliers of R(y, x) in rows y
    and partner(y) of Sigma - (u + u^2 or u^2) R_x, for a commuting or other
    descent step of ``InvolutionModule._bar_step``.  ``partner`` is c_y."""
    from .packed import pack

    drop = pack((0, 1, 1) if commuting else (0, 0, 1))
    return {case: (pack(c) - drop, pack(c)) for case, c in _C_Y.items()}


def _pack_slots(coeffs, width):
    """``packed.pack`` with width-bit slots."""
    p = 0
    for c in reversed(coeffs):
        p = (p << width) + c
    return p


def _unpack_slots(p, width):
    """``packed.unpack`` with width-bit slots, trailing zeros allowed.

    Adding 2^(width-1) to every slot leaves each an unsigned digit with no
    borrow, and flipping each top bit then gives the two's complement of
    the balanced digit, so ``_VSLOT``-bit slots are read by one ``struct``
    call.  Wider slots are read one at a time.
    """
    if width == _VSLOT:
        n = p.bit_length() // _VSLOT + 1
        halves = _halves(n)
        return struct.unpack(f"<{n}i", ((p + halves) ^ halves).to_bytes(4 * n, "little"))
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    while p:
        c = ((p + half) & mask) - half
        out.append(c)
        p = (p - c) >> width
    return out


@cache
def _halves(n):
    """2^(_VSLOT-1) in each of n ``_VSLOT``-bit slots."""
    return ((1 << (_VSLOT * n)) - 1) // ((1 << _VSLOT) - 1) << (_VSLOT - 1)


# ---------------------------------------------------------------------------
# independent oracle: solve the defining constraints of bar as linear systems


_UNSOLVABLE = "bar constraints are not uniquely solvable"
_NON_INTEGER = "bar linear solve produced a non-integer coefficient"


def _solve_columns(rows, width, keys):
    """Solve A x = b_key exactly for every key by one Gauss-Jordan elimination.

    ``rows`` lists the rows of A with their right-hand sides, as pairs
    (``width`` coefficients, dict key -> entry of b_key; absent keys read 0).
    The rows are consumed.  Returns ``(solutions, failures)``: each key of
    ``keys`` is mapped either by ``solutions`` to its integer solution x or by
    ``failures`` to the reason it has none.  Fewer pivots than unknowns fails
    every key; a nonzero right-hand side on a row that eliminates to zero, or
    a non-integer solution, fails that key only.
    """
    from fractions import Fraction

    r = 0
    for col in range(width):
        piv = next((i for i in range(r, len(rows)) if rows[i][0][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        coef, rhs = rows[r]
        pv = coef[col]
        if pv != 1:
            coef = [Fraction(x) / pv for x in coef]
            rhs = {key: Fraction(c) / pv for key, c in rhs.items()}
            rows[r] = (coef, rhs)
        for i, (other, other_rhs) in enumerate(rows):
            f = other[col]
            if i == r or not f:
                continue
            for key, c in rhs.items():
                c = other_rhs.get(key, 0) - f * c
                if c:
                    other_rhs[key] = c
                else:
                    other_rhs.pop(key, None)
            rows[i] = ([x - f * y for x, y in zip(other, coef)], other_rhs)
        r += 1
    if r < width:
        return {}, dict.fromkeys(keys, _UNSOLVABLE)
    inconsistent = {
        key for _coef, rhs in rows[width:] for key, c in rhs.items() if c
    }
    solutions, failures = {}, {}
    for key in keys:
        if key in inconsistent:
            failures[key] = _UNSOLVABLE
            continue
        sol = [rhs.get(key, 0) for _coef, rhs in rows[:width]]
        if any(x.denominator != 1 for x in sol):
            failures[key] = _NON_INTEGER
        else:
            solutions[key] = [int(x) for x in sol]
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
                phi_bar = (_U1 if commuting else ONE).bar()
                bx = table[xid]
                rhs = (module.ts_action(t, bx) + bx).scaled(_UINV2)
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
