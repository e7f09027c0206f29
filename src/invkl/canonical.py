"""The canonical basis A_w of the involution module and its polynomials.

Writing a'_y = v^{-l(y)} a_y, each column is

    A_w = sum_{y <= w} pi(y, w) a'_y,   pi(w, w) = 1,
    pi(y, w) in v^-1 Z[v^-1] for y < w,

and P(y, w) = v^{l(w)-l(y)} pi(y, w) is a polynomial in u = v^2 of u-degree
at most (l(w)-l(y)-1)/2.  Columns are characterized by bar invariance and
this triangularity, which gives two independent construction routes:

* ``column_barfix`` solves the fixed-point condition against the rescaled
  bar matrix directly (the reference implementation);
* ``column_recursive`` runs the descent recursion: with s the smallest left
  descent of the target z, either z = sw with sw = w delta(s) (then a
  coefficient recurrence with one unknown integer per row is solved), or
  z = s w delta(s) (then each row is a closed formula over shorter columns).

Both produce identical tables; the test and verification suites insist on it.

The recursion pushes whole columns instead of pulling single entries, as
du Cloux's Coxeter 3 does for classical KL (Experiment. Math. 11, 2002).
Each column w keeps a sparse mu' row {x: mu'(x, w) != 0}.  For an ascent s
of w, the part of ms_constant(s, x, w) known before column sw exists is
computed once from these rows and memoized per (s, w); a new column z then
starts from an accumulator holding -k_x * column(x) for every x with a
nonzero known part k_x, the commuting branch adds mu'(x, z) * column(x)
as soon as row x is solved, and row y is its case term plus its
accumulator entry.  Every T_s case (commuting, ascending, partner) is read
from ``InvolutionModule.action_case`` and every Bruhat interval from
``InvolutionModule.interval``; only ``column_barfix`` scans every shorter
involution and decides y <= w through the group.
"""

from __future__ import annotations

from .errors import InconsistentBar, NotDivisible, RecurrenceInconsistent, TheoremMismatch
from .invmodule import MVector
from .laurent import LaurentPoly, ONE, ZERO, v_pow

__all__ = ["CanonicalBasis"]

_VPV = v_pow(1) + v_pow(-1)      # v + v^-1
_VMV = v_pow(1) - v_pow(-1)      # v - v^-1
_CASE_UP_COMM = ONE + v_pow(-2)  # 1 + v^-2
_V2_M1 = v_pow(2) - ONE          # v^2 - 1
_V2 = v_pow(2)
_VINV2 = v_pow(-2)
_V2PVINV2 = v_pow(2) + v_pow(-2)


class CanonicalBasis:
    """Bar-invariant basis columns, built per involution and memoized."""

    def __init__(self, module):
        self.module = module
        self.system = module.system
        self._columns = {}   # wid -> {yid: pi poly}, over y <= w
        self._mu_rows = {}   # wid -> {xid: mu'(x, w)}, mu' != 0
        self._known = {}     # (s, w) -> {xid: known part of ms_constant}, nonzero
        self._a_vectors = {}
        self._descents = {}  # (s, w) -> _descent_interval(s, w)

    # -- table management -------------------------------------------------------

    def build(self, jobs=1, max_length=None):
        """Fill all columns of length at most ``max_length``, bottom-up.

        ``jobs`` must be at least 1 and has no effect on the result: columns
        are built one at a time by the descent recursion, in (length, word)
        order.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        length = self.system.length_of
        for layer in self.module.layers:
            if max_length is not None and length(layer[0]) > max_length:
                break
            for wid in layer:
                self.column(wid)
        return self

    def column(self, wid):
        """Column w as {y: pi(y, w)} over the y <= w, built on first use.

        Empty when w is not a (twisted) involution.
        """
        col = self._columns.get(wid)
        if col is None:
            if wid not in self.system._tw_inv_set:
                return {}
            col = self._columns[wid] = self.column_recursive(wid)
        return col

    def mu_row(self, wid):
        """{x: mu'(x, w)} over the x with mu'(x, w) != 0, read off column w."""
        row = self._mu_rows.get(wid)
        if row is None:
            row = self._mu_rows[wid] = {
                xid: mu
                for xid, pi in self.column(wid).items()
                if (mu := pi.coeff(-1))
            }
        return row

    def _descent_interval(self, s, wid):
        """For an ascent s of w: the x <= partner_s(w) with l(x) <= l(w), sx < x.

        This holds every x < sw with sx < x.  Any other member x (there are
        some only when sw != w delta(s)) has x and sx outside [1, w], by
        lifting in W, so its mu' terms and ``ms_constant`` are zero.  In
        ``involution_ids`` order, memoized per (s, w).
        """
        key = (s, wid)
        cached = self._descents.get(key)
        if cached is None:
            mod = self.module
            length = self.system.length_of
            cached = self._descents[key] = tuple(
                x
                for x in mod.interval(mod.action_case(s, wid)[2])
                if length(x) <= length(wid) and not mod.action_case(s, x)[1]
            )
        return cached

    # -- lookups ------------------------------------------------------------------

    def pi(self, y, w):
        """pi(y, w) = v^{l(y)-l(w)} P(y, w); zero unless both are involutions, y <= w."""
        sys = self.system
        return self.column(sys._id_of(w)).get(sys._id_of(y), ZERO)

    def sigma_kl(self, y, w):
        """The polynomial P(y, w) in u attached to a pair of involutions."""
        sys = self.system
        yid, wid = sys._id_of(y), sys._id_of(w)
        p = self.column(wid).get(yid, ZERO)
        if p.is_zero:
            return ZERO
        return p * v_pow(sys.length_of(wid) - sys.length_of(yid))

    def mu_prime(self, y, w):
        sys = self.system
        return self.column(sys._id_of(w)).get(sys._id_of(y), ZERO).coeff(-1)

    def mu_double_prime(self, y, w):
        sys = self.system
        return self.column(sys._id_of(w)).get(sys._id_of(y), ZERO).coeff(-2)

    # -- structure constants -----------------------------------------------------

    def ms_constant(self, s, y, w):
        """The bar-invariant correction constant for the pair y < sw > w.

        Parity of l(y) and l(w) selects between an integer combination of
        mu'' and mu' convolutions and the multiple mu'(y,w) (v + v^-1).
        Zero unless y lies in ``_descent_interval(s, w)``.
        """
        sys = self.system
        return self._ms_constants(s, sys._id_of(w)).get(sys._id_of(y), ZERO)

    def _ms_constants(self, s, wid):
        """{x: ms_constant(s, x, w)} over the x where it is nonzero.

        The known parts are memoized; the commuting case subtracts
        mu'(x, sw), read from the mu' row of the finished column sw.
        """
        known = self._known_parts(s, wid)
        commuting, _up, sw = self.module.action_case(s, wid)
        if not commuting:
            return known
        length = self.system.length_of
        mu_sw = self.mu_row(sw)
        out = {}
        for xid in self._descent_interval(s, wid):
            m = known.get(xid, ZERO)
            if not (length(xid) - length(wid)) % 2:
                m = m - mu_sw.get(xid, 0)
            if not m.is_zero:
                out[xid] = m
        return out

    def _known_parts(self, s, wid):
        """ms_constant(s, x, w) less its mu'(x, sw) term, over the descent interval.

        Only the nonzero values are kept, memoized per (s, w).  An odd gap
        l(w) - l(x) gives mu'(x, w) (v + v^-1); an even gap gives the
        integer mu''(x, w) - sum_{x'} mu'(x, x') mu'(x', w) + mu'(sx, w), the
        last term only when sx = x delta(s).  The convolution over the x' of
        the descent interval is pushed from the mu' rows of w and of x'.
        """
        key = (s, wid)
        known = self._known.get(key)
        if known is not None:
            return known
        length = self.system.length_of
        col_w = self.column(wid)
        mu_w = self.mu_row(wid)
        descents = self._descent_interval(s, wid)
        convolution = {}
        for x2 in descents:
            m = mu_w.get(x2)
            if m:
                for xid, m2 in self.mu_row(x2).items():
                    convolution[xid] = convolution.get(xid, 0) + m2 * m
        known = {}
        for xid in descents:
            if (length(xid) - length(wid)) % 2:
                m = mu_w.get(xid)
                if m:
                    known[xid] = m * _VPV
                continue
            total = col_w.get(xid, ZERO).coeff(-2) - convolution.get(xid, 0)
            commuting, _up, sx = self.module.action_case(s, xid)
            if commuting:
                total += mu_w.get(sx, 0)
            if total:
                known[xid] = LaurentPoly((total,), 0)
        self._known[key] = known
        return known

    # -- construction: bar-fixing against the rescaled bar matrix -------------------

    def _rho(self, yid, xid):
        """bar(a'_x) coefficient at a'_y: v^{l(x)+l(y)} r(y, x)."""
        sys = self.system
        r = self.module.bar_basis(xid).get(yid)
        if r.is_zero:
            return ZERO
        return r * v_pow(sys.length_of(xid) + sys.length_of(yid))

    def column_barfix(self, wid):
        """Solve bar(A_w) = A_w row by row, top down."""
        sys = self.system
        lw = sys.length_of(wid)
        col = {wid: ONE}
        rows = [
            yid
            for layer in reversed(self.module.layers)
            if sys.length_of(layer[0]) < lw
            for yid in layer
        ]
        for yid in rows:
            q = ZERO
            for xid, pi_xw in col.items():
                rho = self._rho(yid, xid)
                if not rho.is_zero:
                    q = q + pi_xw.bar() * rho
            pi_yw = q - q.positive_part()
            if q != pi_yw - pi_yw.bar():
                raise InconsistentBar(
                    "bar fixed-point defect at pair "
                    f"{sys.word_of(yid)}, {sys.word_of(wid)}: residue {q}"
                )
            if not pi_yw.is_zero:
                if not sys.bruhat_leq_ids(yid, wid):
                    raise InconsistentBar(
                        "nonzero coefficient outside the Bruhat interval at "
                        f"{sys.word_of(yid)}, {sys.word_of(wid)}"
                    )
                self._validate_pi(yid, wid, pi_yw)
                col[yid] = pi_yw
        return col

    # -- construction: the descent recursion -----------------------------------------

    def _case_term(self, s, yid, col_w):
        """Column-w data entering the row-y equation for the target column."""
        commuting, up, other = self.module.action_case(s, yid)
        pi_y = col_w.get(yid, ZERO)
        pi_other = col_w.get(other, ZERO)
        if commuting:
            if up:
                return pi_y * _CASE_UP_COMM + pi_other * _VMV
            return pi_other * _VPV + pi_y * _V2_M1
        if up:
            return pi_y * _VINV2 + pi_other
        return pi_other + pi_y * _V2

    def column_recursive(self, zid):
        """Build column z from strictly shorter columns via the smallest descent.

        With s the smallest left descent of z and w its s-partner, c_s A_w
        is A_z (times v + v^-1 in the commuting case) plus the ms_constant
        multiples of the A_x, x in ``_descent_interval(s, w)``.  The
        accumulator starts as -k_x * column(x) summed over the nonzero
        known parts k_x; the rows y < z are then solved top down, each from
        its case term plus its accumulator entry.  In the commuting case
        row y of the descent interval also carries the unknown mu'(y, z),
        which ``_solve_with_unknown`` pins; once it is known, mu'(y, z) *
        column(y) is added into the accumulator for the rows below y.
        """
        sys = self.system
        if zid == 0:
            return {0: ONE}
        s = min(t for t in range(sys.rank) if sys.is_left_descent(t, zid))
        commuting, _up, wid = self.module.action_case(s, zid)
        col_w = self.column(wid)
        pending = {}
        for xid, k in self._known_parts(s, wid).items():
            _add_column(pending, -k, self.column(xid))
        descents = set(self._descent_interval(s, wid)) if commuting else ()
        col = {zid: ONE}
        for yid in reversed(self.module.interval(zid)[:-1]):
            acc = self._case_term(s, yid, col_w) + pending.get(yid, ZERO)
            if not commuting:
                pi_yz = acc
            elif yid in descents:
                pi_yz, mu = self._solve_with_unknown(acc, yid, zid)
                if mu:
                    _add_column(pending, mu, self.column(yid))
            else:
                pi_yz = self._divide_row(acc, yid, zid)
            if not pi_yz.is_zero:
                self._validate_pi(yid, zid, pi_yz)
                col[yid] = pi_yz
        return col

    def _validate_pi(self, yid, wid, pi):
        sys = self.system
        gap = sys.length_of(wid) - sys.length_of(yid)
        if (
            pi.max_exp > -1
            or pi.min_exp < -gap
            or any((e + gap) % 2 for e, _ in pi.terms())
        ):
            raise RecurrenceInconsistent(
                f"coefficient {pi} at pair {sys.word_of(yid)}, "
                f"{sys.word_of(wid)} violates the degree or parity bounds"
            )

    def _divide_row(self, acc, yid, zid):
        if acc.is_zero:
            return ZERO
        try:
            pi = acc.exact_div(_VPV)
        except NotDivisible as exc:
            raise RecurrenceInconsistent(
                f"row {self.system.word_of(yid)} of column "
                f"{self.system.word_of(zid)}: {exc}"
            ) from exc
        if pi.max_exp > -1:
            raise RecurrenceInconsistent(
                f"row {self.system.word_of(yid)} of column "
                f"{self.system.word_of(zid)} is not strictly triangular"
            )
        return pi

    def _solve_with_unknown(self, spade, yid, zid):
        """Solve (v + v^-1) pi - mu = spade with pi in v^-1 Z[v^-1], mu = [v^-1] pi.

        Writing pi = sum_{n>=1} c_n v^-n, the coefficient chain is
        c_2 = [v^-1] spade, c_{n+1} + c_{n-1} = [v^-n] spade, and finite
        support pins the odd chain from the tail.
        """
        def fail(msg):
            raise RecurrenceInconsistent(
                f"row {self.system.word_of(yid)} of column "
                f"{self.system.word_of(zid)}: {msg} (spade {spade})"
            )

        if spade.is_zero:
            return ZERO, 0
        if spade.max_exp > 0 or spade.coeff(0) != 0:
            fail("known side has forbidden nonnegative terms")
        depth = -spade.min_exp
        c = {0: 0}
        # even-index coefficients, driven forward
        j = 1
        while j <= depth:
            c[j + 1] = spade.coeff(-j) - c[j - 1]
            j += 2
        last_even = j - 1  # the topmost driven even index
        if c.get(last_even, 0) != 0:
            fail("even coefficient chain does not terminate")
        # odd-index coefficients, driven backward from the finite-support tail
        j = depth if depth % 2 == 0 else depth + 1
        while j >= 2:
            c[j - 1] = spade.coeff(-j) - c.get(j + 1, 0)
            j -= 2
        coeffs = {}
        for n, val in c.items():
            if n >= 1 and val:
                coeffs[-n] = val
        pi = ZERO
        for e in sorted(coeffs):
            pi = pi + LaurentPoly((coeffs[e],), e)
        if (_VPV * pi - pi.coeff(-1)) != spade:
            fail("recurrence solution does not satisfy the equation")
        return pi, pi.coeff(-1)

    # -- the basis as module elements, and the generator action ----------------------

    def a_vector(self, w):
        """A_w as an element of the module in the plain a-basis."""
        sys = self.system
        wid = sys._id_of(w)
        cached = self._a_vectors.get(wid)
        if cached is not None:
            return cached
        vec = MVector(
            {
                yid: pi * v_pow(-sys.length_of(yid))
                for yid, pi in self.column(wid).items()
            }
        )
        self._a_vectors[wid] = vec
        return vec

    def expand_in_A(self, m):
        """Rewrite a module element in the canonical basis (unitriangular)."""
        sys = self.system
        work = dict(m.entries)
        out = {}
        while work:
            top = max(work, key=lambda w: (sys.length_of(w), sys.word_of(w)))
            coeff = work[top] * v_pow(sys.length_of(top))
            out[top] = coeff
            for yid, f in self.a_vector(top).entries.items():
                g = work.get(yid, ZERO) - coeff * f
                if g.is_zero:
                    work.pop(yid, None)
                else:
                    work[yid] = g
        return out

    def cs_action_on_A(self, s, w):
        """Expand c_s A_w in the canonical basis and check the closed form.

        The expected right-hand side is (v^2 + v^-2) A_w when sw < w,
        otherwise (v + v^-1) A_{sw} (when sw = w delta(s)) or A_{s w delta(s)},
        plus ms_constant corrections over z with sz < z < sw.
        """
        sys = self.system
        wid = sys._id_of(w)
        got = self.expand_in_A(self.module.cs_action(s, self.a_vector(wid)))
        expected = {}
        commuting, up, other = self.module.action_case(s, wid)
        if not up:
            expected[wid] = _V2PVINV2
        else:
            expected[other] = _VPV if commuting else ONE
            expected.update(self._ms_constants(s, wid))
        if got != expected:
            raise TheoremMismatch(
                f"c_s A_w expansion mismatch at s={s}, w={sys.word_of(wid)}: "
                f"got { {sys.word_of(k): str(v) for k, v in got.items()} }, "
                f"expected { {sys.word_of(k): str(v) for k, v in expected.items()} }"
            )
        return got


def _add_column(pending, k, column):
    """pending[y] += k * column[y] for every row y of ``column``."""
    for yid, pi in column.items():
        pending[yid] = pending.get(yid, ZERO) + k * pi
