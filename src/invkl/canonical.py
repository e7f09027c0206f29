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
Every T_s case (commuting, ascending, partner) is read from
``InvolutionModule.action_case`` and every Bruhat interval from
``InvolutionModule.interval``: ``column(z)`` is built lazily over the rows
y <= z only, and for an ascent s of w the involutions x with sx < x that
can enter the recursion are memoized per (s, w).  Only ``column_barfix``
scans every shorter involution and decides y <= w through the group.
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
        """Column w as {y: pi(y, w)} over the y <= w, built on first use."""
        col = self._columns.get(wid)
        if col is None:
            col = self._columns[wid] = self.column_recursive(wid)
        return col

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
        yid, wid = sys._id_of(y), sys._id_of(w)
        if wid not in sys._tw_inv_set or yid not in sys._tw_inv_set:
            return ZERO
        return self.column(wid).get(yid, ZERO)

    def sigma_kl(self, y, w):
        """The polynomial P(y, w) in u attached to a pair of involutions."""
        sys = self.system
        yid, wid = sys._id_of(y), sys._id_of(w)
        p = self.pi(yid, wid)
        if p.is_zero:
            return ZERO
        return p * v_pow(sys.length_of(wid) - sys.length_of(yid))

    def mu_prime(self, y, w):
        return self.pi(y, w).coeff(-1)

    def mu_double_prime(self, y, w):
        return self.pi(y, w).coeff(-2)

    # -- structure constants -----------------------------------------------------

    def ms_constant(self, s, y, w):
        """The bar-invariant correction constant for the pair y < sw > w.

        Parity of l(y) and l(w) selects between an integer combination of
        mu'' and mu' convolutions and the multiple mu'(y,w) (v + v^-1).
        """
        sys = self.system
        yid, wid = sys._id_of(y), sys._id_of(w)
        known = self._ms_known_part(s, yid, wid)
        commuting, _up, sw = self.module.action_case(s, wid)
        if commuting and not (sys.length_of(yid) - sys.length_of(wid)) % 2:
            known = known - LaurentPoly((self.mu_prime(yid, sw),), 0)
        return known

    def _mu_convolution(self, s, yid, wid):
        # pi(y, x) is zero unless y <= x, so no Bruhat test is needed
        total = 0
        for xid in self._descent_interval(s, wid):
            if xid != yid:
                total += self.mu_prime(yid, xid) * self.mu_prime(xid, wid)
        return total

    def _ms_known_part(self, s, xid, wid):
        """ms_constant with the still-unknown mu'(x, sw) term left out."""
        sys = self.system
        if (sys.length_of(xid) - sys.length_of(wid)) % 2:
            return self.mu_prime(xid, wid) * _VPV
        total = self.mu_double_prime(xid, wid)
        total -= self._mu_convolution(s, xid, wid)
        commuting, _up, sx = self.module.action_case(s, xid)
        if commuting:
            total += self.mu_prime(sx, wid)
        return LaurentPoly((total,), 0)

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

    def _case_term(self, s, yid, wid):
        """Column-w data entering the row-y equation for the target column."""
        col_w = self.column(wid)
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

        The rows are the y < z, top down.
        """
        sys = self.system
        if zid == 0:
            return {0: ONE}
        s = min(t for t in range(sys.rank) if sys.is_left_descent(t, zid))
        commuting, _up, wid = self.module.action_case(s, zid)
        ids_below = reversed(self.module.interval(zid)[:-1])
        x_range = self._descent_interval(s, wid)
        col = {zid: ONE}
        mu1 = {zid: 0}
        if commuting:
            known = {x: self._ms_known_part(s, x, wid) for x in x_range}
            for yid in ids_below:
                acc = self._case_term(s, yid, wid)
                has_self = False
                for xid in x_range:
                    if xid == yid:
                        has_self = True  # unknown mu'(y, z) handled below
                        continue
                    pi_yx = self.pi(yid, xid)
                    if pi_yx.is_zero:
                        continue
                    acc = acc - known[xid] * pi_yx
                    m = mu1.get(xid, 0)
                    if m:
                        acc = acc + m * pi_yx
                if has_self:
                    acc = acc - known[yid]  # pi(y, y) = 1
                    pi_yz, mu = self._solve_with_unknown(acc, yid, zid)
                else:
                    pi_yz = self._divide_row(acc, yid, zid)
                    mu = pi_yz.coeff(-1)
                self._store_row(col, mu1, yid, zid, pi_yz, mu)
        else:
            ms = {}
            for xid in x_range:
                m = self.ms_constant(s, xid, wid)
                if not m.is_zero:
                    ms[xid] = m
            for yid in ids_below:
                acc = self._case_term(s, yid, wid)
                for xid, m in ms.items():
                    pi_yx = self.pi(yid, xid)
                    if not pi_yx.is_zero:
                        acc = acc - m * pi_yx
                self._store_row(col, mu1, yid, zid, acc, acc.coeff(-1))
        return col

    def _store_row(self, col, mu1, yid, zid, pi_yz, mu):
        if pi_yz.is_zero:
            return
        self._validate_pi(yid, zid, pi_yz)
        col[yid] = pi_yz
        mu1[yid] = mu

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
            for zid in self._descent_interval(s, wid):
                mz = self.ms_constant(s, zid, wid)
                if not mz.is_zero:
                    expected[zid] = mz
        if got != expected:
            raise TheoremMismatch(
                f"c_s A_w expansion mismatch at s={s}, w={sys.word_of(wid)}: "
                f"got { {sys.word_of(k): str(v) for k, v in got.items()} }, "
                f"expected { {sys.word_of(k): str(v) for k, v in expected.items()} }"
            )
        return got
