"""The Hecke module spanned by (twisted) involutions and its bar involution.

For a generator s and a twisted involution w (meaning delta(w) = w^{-1}),
the action of T_s on the basis vector a_w is, with ws* short for
w*delta(s):

* sw = ws* > w:   T_s a_w = u a_w + (u+1) a_{sw}
* sw = ws* < w:   T_s a_w = (u^2-u-1) a_w + (u^2-u) a_{sw}
* sw != ws* > w:  T_s a_w = a_{s w s*}
* sw != ws* < w:  T_s a_w = (u^2-1) a_w + u^2 a_{s w s*}

which satisfies (T_s+1)(T_s-u^2) = 0 and the braid relations.  The case
and the partner of each (s, w), the left-descent masks and the Bruhat
intervals come from the index that ``InvolutionModule`` extends
(``involutions.Involutions``): the T_s action and the bar step read its
case table ``cases`` directly, and ``bar_column`` takes the smallest left
descent from its masks.  This module adds the arithmetic.  The
module is defined over Z[u, u^-1]; every coefficient produced here must
have even v-support, and the bar operations check that.

A module element (``MVector``) is stored packed, by Kronecker substitution
(Harvey, J. Symbolic Comput. 2009): one v-offset ``lo`` for the whole
vector and, per involution, one int sum_i c_i 2^(width i) in balanced
width-bit slots, standing for sum_i c_i v^(lo+i); the slots are packed and
read by ``packed.pack`` and ``packed.unpack``, as the tables' are.  The
width is 32 bits unless the coefficients need more.  Multiplying by v^k
only moves ``lo``, a u-polynomial multiplier is one int product, and two
vectors are added or compared entry by entry after the one with the
higher ``lo`` is shifted up.
The int arithmetic is always exact, but reading slots back, dropping an
entry that sums to zero and comparing two vectors are exact only while every
|c_i| < 2^(width-1).  So each vector carries ``bound`` >= every |c_i|, each
operation first bounds its result (a sum adds the bounds, T_s multiplies
by 5: 3 from an entry's own multiplier and 2 from its partner's, T_s + 1
by 4) and widens its operands' slots when that bound would reach the slot
limit; a result wider than 32 bits is measured and narrowed again when its
coefficients allow.  ``LaurentPoly`` values are built only at the API
boundary: ``MVector({w: f})`` packs them, ``get`` and ``entries`` read
them back.

The bar involution is the unique Z-linear map with bar(u^n m) = u^-n bar(m),
bar(a_1) = a_1 and bar((T_s+1)m) = u^-2 (T_s+1) bar(m).  Its table is
stored as the P-sigma columns are, in the 64-bit balanced slots of
``packed``: bar(a_w) = sum_y u^-l(w) R(y, w) a_y with R(y, w) in Z[u] of
degree at most l(w) - l(y), and ``bar_column(w)`` is {y: R(y, w)(2^64)}.
Since (T_s+1) a_y = c_y (a_y + a_p), p the s-partner of y and c_y one of
1+u, u^2-u, 1 and u^2 by the case of y (``involutions.CASE_POLYS``, from
which the multipliers of the T_s action and of the bar step are packed),
a left descent s of w with partner x gives R_w = Sigma - u^2 R_x, or
Sigma / (1+u) - u R_x when it commutes, Sigma being u^l(x) (T_s+1)
bar(a_x): a column is a sum of int products, with one checked exact
division by 2^64 + 1 per row when s commutes.  Each
column is checked to have R(w, w) = 1, support in ``interval(w)`` and
coefficients within the slot bound.  A stored R(y, w) read in 32-bit
v-slots is R(y, w)(v^2), so ``bar_basis(w)`` is the column itself with
lo = -2 l(w).  The semilinear extension ``bar_extended`` reverses each
input entry's slots for bar(f_w) and adds bar(f_w) R(y, w) into row y as
one int product per (w, y), in v-slots wide enough for the row's
coefficient bound.

``a_vector(basis, w)`` reads a column of a ``CanonicalBasis`` as the module
element A_w: P(y, w)(2^64) read in 32-bit v-slots is P(y, w)(v^2), so A_w
is ``column(w)`` with lo = -l(w) and the coefficient bound of the column.
"""

from __future__ import annotations

from functools import cache

from .errors import InvariantError, NotDivisible
from .involutions import CASE_POLYS, Involutions
from .laurent import LaurentPoly, ZERO
from .packed import ONE_PLUS_U, in_slots, pack, unpack

__all__ = ["MVector", "InvolutionModule", "a_vector"]

_VSLOT = 32                    # bits per v-coefficient, when the coefficients fit
_LIMIT = 1 << (_VSLOT - 1)     # a bound below this fits _VSLOT-bit slots


class MVector:
    """A finitely supported map from involution ids to Laurent coefficients.

    ``ints[w]`` packs the coefficient of a_w in ``width``-bit v-slots above
    the exponent ``lo``; ``bound`` is at least every coefficient's absolute
    value and below 2^(width-1), so the packing is exact and one-to-one.
    No stored int is zero.
    """

    __slots__ = ("ints", "lo", "width", "bound")

    def __init__(self, entries=None):
        polys = [(w, f) for w, f in (entries or {}).items() if not f.is_zero]
        self.lo = lo = min((f.min_exp for _w, f in polys), default=0)
        self.bound = max((abs(c) for _w, f in polys for c in f.coeffs), default=0)
        self.width = width = _width_for(self.bound)
        self.ints = {
            w: pack(f.coeffs, width) << (width * (f.min_exp - lo))
            for w, f in polys
        }

    @classmethod
    def _of(cls, ints, lo, width, bound):
        """The vector of packed ``ints``; a width over 32 bits is narrowed
        to what the measured coefficients need."""
        v = cls.__new__(cls)
        if width > _VSLOT and ints:
            bound = max(
                max(map(abs, unpack(p, width))) for p in ints.values()
            )
            narrow = _width_for(bound)
            if narrow < width:
                ints, width = _repack(ints, width, narrow), narrow
        v.ints, v.lo, v.width, v.bound = ints, lo, width, bound
        return v

    @classmethod
    def basis(cls, wid):
        return cls._of({wid: 1}, 0, _VSLOT, 1)

    @property
    def is_zero(self):
        return not self.ints

    @property
    def entries(self):
        """{w: coefficient} as ``LaurentPoly`` values, read from the slots."""
        return {w: self._poly(p) for w, p in self.ints.items()}

    def get(self, wid):
        p = self.ints.get(wid)
        return ZERO if p is None else self._poly(p)

    def _poly(self, p):
        return LaurentPoly(unpack(p, self.width), self.lo)

    def _at(self, width):
        """``ints`` in ``width``-bit slots, ``width`` at least ``self.width``."""
        return self.ints if width == self.width else _repack(self.ints, self.width, width)

    def _aligned(self, other, bound):
        """Both ``ints`` at one width fitting ``bound``, and the smaller lo."""
        width = max(self.width, other.width, _width_for(bound))
        lo = min(self.lo, other.lo)
        a, b = self._at(width), other._at(width)
        if self.lo != lo:
            a = {w: p << (width * (self.lo - lo)) for w, p in a.items()}
        if other.lo != lo:
            b = {w: p << (width * (other.lo - lo)) for w, p in b.items()}
        return a, b, lo, width

    def _plus(self, other, sign):
        bound = self.bound + other.bound
        a, b, lo, width = self._aligned(other, bound)
        out = dict(a)
        _add_multiple(out, sign, b)
        return MVector._of(out, lo, width, bound)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scaled(-1)

    def scaled(self, f):
        """f m for an integer or ``LaurentPoly`` f: one int product per entry,
        none when f is +-v^k, which moves ``lo`` only."""
        if isinstance(f, int):
            f = LaurentPoly((f,))
        if f.is_zero or not self.ints:
            return MVector()
        lo = self.lo + f.min_exp
        if f.coeffs in ((1,), (-1,)):
            ints = self.ints if f.coeffs[0] == 1 else {w: -p for w, p in self.ints.items()}
            return MVector._of(ints, lo, self.width, self.bound)
        bound = self.bound * sum(map(abs, f.coeffs))
        width = max(self.width, _width_for(bound))
        mult = pack(f.coeffs, width)
        ints = {w: mult * p for w, p in self._at(width).items()}
        return MVector._of(ints, lo, width, bound)

    def __eq__(self, other):
        if not isinstance(other, MVector):
            return False
        a, b, _lo, _width = self._aligned(other, 0)
        return a == b

    def __repr__(self):
        items = ", ".join(f"{w}: {f}" for w, f in sorted(self.entries.items()))
        return f"MVector({{{items}}})"


class InvolutionModule(Involutions):
    """The module over the u^2-Hecke algebra with basis the twisted involutions.

    The index (:class:`Involutions`) gives the basis, its T_s cases and its
    Bruhat intervals; this class adds the T_s and c_s actions on packed
    module vectors and the bar involution.  With ``max_length`` the module
    holds only the involutions of at most that length.
    """

    def __init__(self, system, max_length=None):
        super().__init__(system, max_length)
        self._bar = {0: {0: 1}}   # wid -> bar_column(wid)
        self._bar_tops = {}       # wid -> _bar_top(wid)

    def basis(self, wid):
        self._require(wid)
        return MVector.basis(wid)

    # -- module structure -----------------------------------------------------

    def ts_action(self, s, m):
        """T_s applied to an arbitrary module element."""
        return self._act(s, m, False)

    def cs_action(self, s, m):
        """c_s = v^{-2} (T_s + 1) applied to m (coefficients may be odd)."""
        return self._act(s, m, True)

    def _act(self, s, m, plus_one):
        """T_s m, or c_s m = v^-2 (T_s + 1) m with ``plus_one``.

        Each entry f at w adds own * f into row w and partner * f into the
        row of its s-partner, both one int product (``_action_terms``).  A
        row is fed by its own entry and its partner's, so the result's
        bound is 5 times m's for T_s and 4 times for T_s + 1.
        """
        bound = m.bound * (4 if plus_one else 5)
        width = max(m.width, _width_for(bound))
        terms = _action_terms(width, plus_one)
        cases = self.cases[s]
        out = {}
        for wid, f in m._at(width).items():
            commuting, up, other = cases[wid]
            own, partner = terms[commuting, up]
            if own:
                out[wid] = out.get(wid, 0) + own * f
            out[other] = out.get(other, 0) + partner * f
        out = {wid: p for wid, p in out.items() if p}
        return MVector._of(out, m.lo - 2 if plus_one else m.lo, width, bound)

    # -- bar involution ---------------------------------------------------------

    def _check_even(self, m, context):
        """Every slot of m at an odd v-exponent is zero."""
        for wid, p in m.ints.items():
            if any(unpack(p, m.width)[(m.lo + 1) % 2::2]):
                raise InvariantError(
                    f"{context}: coefficient {m.get(wid)} at "
                    f"{self.system.word_of(wid)} leaves Z[u, u^-1]"
                )

    def bar_column(self, wid):
        """bar(a_w) as {y: R(y, w) packed}, R(y, w) = u^l(w) r(y, w); memoized.

        Built by ``_bar_step`` over the smallest left descent of w; a w that
        is not an involution of the module raises ``ValueError``.
        """
        col = self._bar.get(wid)
        if col is None:
            self._require(wid)
            col = self._bar[wid] = self._bar_step(wid, self.smallest_descent(wid))
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
        sys = self.system
        cases = self.cases[s]
        commuting, _up, xid = cases[wid]
        terms = _bar_terms(commuting)
        pushed = {}
        for yid, r in self.bar_column(xid).items():
            commuting_y, up, pid = cases[yid]
            own, partner = terms[commuting_y, up]
            pushed[yid] = pushed.get(yid, 0) + own * r
            pushed[pid] = pushed.get(pid, 0) + partner * r
        if commuting:
            for yid, r in pushed.items():
                q, rem = divmod(r, ONE_PLUS_U)
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

    def bar_basis(self, wid):
        """bar(a_w) as a module element: ``bar_column`` read in v-slots."""
        lo = -2 * self.system.length_of(wid)
        return table_vector(self.bar_column(wid), lo, self._bar_top(wid))

    def _bar_top(self, wid):
        """max |coefficient| over the column w, read off its v-slots; memoized."""
        top = self._bar_tops.get(wid)
        if top is None:
            top = self._bar_tops[wid] = column_top(self.bar_column(wid))
        return top

    def _bar_vslots(self, wid, width):
        """{y: R(y, w)(v^2) packed in width-bit v-slots}: ``bar_column(w)``
        itself at ``_VSLOT`` bits."""
        return {
            yid: pack(unpack(r), 2 * width)
            for yid, r in self.bar_column(wid).items()
        }

    def bar_mvector(self, m):
        """Semilinear extension: bar(sum f_y a_y) = sum bar(f_y) bar(a_y)."""
        self._check_even(m, "bar input")
        return self.bar_extended(m)

    def bar_extended(self, m):
        """The same semilinear bar on the v-extended module (odd powers allowed).

        An entry f_w = sum c_i v^(lo+i), i < n, has bar(f_w) = sum c_i
        v^-(lo+i): its slots reversed, above v^-(lo+n-1).  So each (w, y)
        adds one int product, bar(f_w) R(y, w), into row y.  A row
        coefficient is at most the sum over w of |f_w|_1 max|R_w|.  While
        that is below 2^31 the slots are ``_VSLOT`` = 32 bits, half a table
        slot, so R(y, w)(v^2) is the stored int itself; otherwise they are
        wide enough for that bound and the columns are repacked.  A row that
        cancels is not stored.
        """
        length = self.system.length_of
        rows = []   # (w, coefficients of f_w, lowest exponent of bar(f_w) bar(a_w))
        bound = 0
        for wid, p in m.ints.items():
            coeffs = unpack(p, m.width)
            bound += sum(map(abs, coeffs)) * self._bar_top(wid)
            rows.append((wid, coeffs, -m.lo - len(coeffs) + 1 - 2 * length(wid)))
        if not rows:
            return MVector()
        width = _width_for(bound)
        lo = min(e for _w, _c, e in rows)
        out = {}
        get = out.get
        for wid, coeffs, e in rows:
            if width == _VSLOT:
                col = self.bar_column(wid)
            else:
                col = self._bar_vslots(wid, width)
            shift = width * (e - lo)
            mult = pack(coeffs[::-1], width)
            for yid, r in col.items():
                out[yid] = get(yid, 0) + (mult * r << shift)
        return MVector._of({y: p for y, p in out.items() if p}, lo, width, bound)


def a_vector(basis, wid):
    """A_w = sum_y v^-l(w) P(y, w) a_y of a ``CanonicalBasis``, as a module
    element: ``column(w)`` itself, read in v-slots from v^-l(w).  Raises
    ``ValueError`` when w is not an involution of the basis's module."""
    basis.module._require(wid)
    col = basis.column(wid)
    return table_vector(col, -basis.system.length_of(wid), column_top(col))


def table_vector(col, lo, top):
    """The module element of a table column {y: P(u) packed in 64-bit u-slots}:
    read in v-slots from v^lo, with ``top`` its largest |coefficient|."""
    if top < _LIMIT:
        return MVector._of(col, lo, _VSLOT, top)
    # a stored coefficient of -2^31 reads back exactly at 32 bits
    return MVector._of(_repack(col, _VSLOT, _width_for(top)), lo, _width_for(top), top)


def column_top(col):
    """The largest |coefficient| of a table column, read in v-slots."""
    return max(max(map(abs, unpack(p, _VSLOT))) for p in col.values())


def _width_for(bound):
    """The slot width in which coefficients of absolute value <= bound read back."""
    return _VSLOT if bound < _LIMIT else bound.bit_length() + 1


@cache
def _action_terms(width, plus_one):
    """{case (commuting, up): (own, partner)}: T_s a_w = own a_w + partner
    a_partner, or (T_s + 1) a_w with ``plus_one``, in width-bit v-slots.

    (T_s + 1) a_w = c_w (a_w + a_partner), so partner = c_w and own is c_w,
    less 1 for T_s; a u-slot of c_w spans two v-slots.
    """
    packed = {case: pack(c, 2 * width) for case, c in CASE_POLYS.items()}
    drop = 0 if plus_one else 1
    return {case: (c - drop, c) for case, c in packed.items()}


@cache
def _bar_terms(commuting):
    """{case of y: (own, partner)}, packed: the multipliers of R(y, x) in rows y
    and partner(y) of Sigma - (u + u^2 or u^2) R_x, for a commuting or other
    descent step of ``InvolutionModule._bar_step``.  ``partner`` is c_y."""
    drop = pack((0, 1, 1) if commuting else (0, 0, 1))
    return {case: (pack(c) - drop, pack(c)) for case, c in CASE_POLYS.items()}


def _add_multiple(ints, mult, other):
    """ints[w] += mult * other[w] for every w of ``other``, in place; an
    entry that sums to zero is dropped."""
    for w, p in other.items():
        q = ints.get(w, 0) + mult * p
        if q:
            ints[w] = q
        else:
            del ints[w]


def _repack(ints, width, new):
    """{w: p} moved from width-bit to new-bit slots."""
    return {w: pack(unpack(p, width), new) for w, p in ints.items()}
