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

    def __init__(self, module, method="recursive"):
        if method not in ("recursive", "barfix"):
            raise ValueError(f"unknown construction method {method!r}")
        self.module = module
        self.system = module.system
        self.method = method
        self._columns = {}   # wid -> {yid: pi poly}
        self._mu1 = {}       # wid -> {yid: int}
        self._built_length = -1
        self._a_vectors = {}

    # -- table management -------------------------------------------------------

    def _layers(self):
        by_length = {}
        for wid in self.module.involution_ids:
            by_length.setdefault(self.system.length_of(wid), []).append(wid)
        return [by_length[k] for k in sorted(by_length)]

    def build(self, jobs=1, method=None, max_length=None):
        """Fill all columns of length at most ``max_length``, bottom-up.

        ``jobs`` must be at least 1 and has no effect on the result: columns
        are built one at a time, in (length, word) order.
        """
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        method = method or self.method
        compute = (
            self.column_recursive if method == "recursive" else self.column_barfix
        )
        for layer in self._layers():
            length = self.system.length_of(layer[0])
            if max_length is not None and length > max_length:
                break
            if length <= self._built_length:
                continue
            for wid in layer:
                if wid not in self._columns:
                    self._install(wid, compute(wid))
            self._built_length = length
        return self

    def _install(self, wid, col):
        self._columns[wid] = col
        self._mu1[wid] = {y: f.coeff(-1) for y, f in col.items()}

    def _ensure(self, wid):
        if wid not in self._columns:
            self.build(max_length=self.system.length_of(wid))

    # -- lookups ------------------------------------------------------------------

    def pi(self, y, w):
        """pi(y, w) = v^{l(y)-l(w)} P(y, w); zero unless both are involutions, y <= w."""
        sys = self.system
        yid, wid = sys._id_of(y), sys._id_of(w)
        if wid not in self.system._tw_inv_set or yid not in self.system._tw_inv_set:
            return ZERO
        self._ensure(wid)
        return self._columns[wid].get(yid, ZERO)

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
        self._ensure(wid)
        if (sys.length_of(yid) - sys.length_of(wid)) % 2:
            return self.mu_prime(yid, wid) * _VPV
        total = self.mu_double_prime(yid, wid)
        total -= self._mu_convolution(s, yid, wid)
        sw = sys.lmul(s, wid)
        if sys.rmul(sw, sys.delta_gen(s)) == wid:  # sw = w delta(s)
            total -= self.mu_prime(yid, sw)
        sy = sys.lmul(s, yid)
        if sy == sys.rmul(yid, sys.delta_gen(s)):
            total += self.mu_prime(sy, wid)
        return LaurentPoly((total,), 0)

    def _mu_convolution(self, s, yid, wid):
        sys = self.system
        total = 0
        for xid in self.module.involution_ids:
            if not sys.is_left_descent(s, xid):
                continue
            if xid in (yid, wid):
                continue
            if not (
                sys.bruhat_leq_ids(yid, xid) and sys.bruhat_leq_ids(xid, wid)
            ):
                continue
            total += self.mu_prime(yid, xid) * self.mu_prime(xid, wid)
        return total

    def _ms_known_part(self, s, xid, wid):
        """ms_constant with the still-unknown mu'(x, sw) term left out."""
        sys = self.system
        if (sys.length_of(xid) - sys.length_of(wid)) % 2:
            return self.mu_prime(xid, wid) * _VPV
        total = self.mu_double_prime(xid, wid)
        total -= self._mu_convolution(s, xid, wid)
        sx = sys.lmul(s, xid)
        if sx == sys.rmul(xid, sys.delta_gen(s)):
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
        col = {wid: ONE}
        rows = [
            yid
            for yid in self.module.involution_ids
            if sys.length_of(yid) < sys.length_of(wid)
        ]
        rows.sort(key=lambda y: -sys.length_of(y))
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
        sys = self.system
        col_w = self._columns.get(wid, {})
        sy = sys.lmul(s, yid)
        up = sys.length_of(sy) > sys.length_of(yid)
        yds = sys.rmul(yid, sys.delta_gen(s))
        pi_y = col_w.get(yid, ZERO)
        if sy == yds:
            pi_sy = col_w.get(sy, ZERO)
            if up:
                return pi_y * _CASE_UP_COMM + pi_sy * _VMV
            return pi_sy * _VPV + pi_y * _V2_M1
        sys_ds = sys.rmul(sy, sys.delta_gen(s))
        pi_sys = col_w.get(sys_ds, ZERO)
        if up:
            return pi_y * _VINV2 + pi_sys
        return pi_sys + pi_y * _V2

    def column_recursive(self, zid):
        """Build column z from strictly shorter columns via the smallest descent."""
        sys = self.system
        if zid == 0:
            return {0: ONE}
        if self._built_length < sys.length_of(zid) - 1:
            self.build(max_length=sys.length_of(zid) - 1)
        s = min(t for t in range(sys.rank) if sys.is_left_descent(t, zid))
        sz = sys.lmul(s, zid)
        commuting = sz == sys.rmul(zid, sys.delta_gen(s))
        wid = sz if commuting else sys.rmul(sz, sys.delta_gen(s))
        sw = zid if commuting else sys.rmul(zid, sys.delta_gen(s))
        lsw = sys.length_of(sw)
        ids_below = [
            x
            for x in self.module.involution_ids
            if sys.length_of(x) < sys.length_of(zid)
        ]
        ids_below.sort(key=lambda y: (-sys.length_of(y), sys.word_of(y)))
        x_range = [
            x
            for x in ids_below
            if sys.is_left_descent(s, x)
            and sys.length_of(x) < lsw
            and sys.bruhat_leq_ids(x, sw)
        ]
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
            ms = {x: self.ms_constant(s, x, wid) for x in x_range}
            for yid in ids_below:
                acc = self._case_term(s, yid, wid)
                for xid in x_range:
                    pi_yx = self.pi(yid, xid)
                    if not pi_yx.is_zero:
                        acc = acc - ms[xid] * pi_yx
                self._store_row(col, mu1, yid, zid, acc, acc.coeff(-1))
        return col

    def _store_row(self, col, mu1, yid, zid, pi_yz, mu):
        sys = self.system
        if pi_yz.is_zero:
            return
        if not sys.bruhat_leq_ids(yid, zid):
            raise RecurrenceInconsistent(
                "nonzero coefficient outside the Bruhat interval at "
                f"{sys.word_of(yid)}, {sys.word_of(zid)}"
            )
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
        self._ensure(wid)
        vec = MVector(
            {
                yid: pi * v_pow(-sys.length_of(yid))
                for yid, pi in self._columns[wid].items()
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
        if sys.is_left_descent(s, wid):
            expected[wid] = _V2PVINV2
        else:
            commuting, _up, other = self.module.action_case(s, wid)
            sw = sys.lmul(s, wid)
            expected[other] = _VPV if commuting else ONE
            lsw = sys.length_of(sw)
            for zid in self.module.involution_ids:
                if (
                    sys.length_of(zid) < lsw
                    and sys.is_left_descent(s, zid)
                    and sys.bruhat_leq_ids(zid, sw)
                ):
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
