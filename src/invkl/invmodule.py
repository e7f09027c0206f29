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
bar(a_1) = a_1 and bar((T_s+1)m) = u^-2 (T_s+1) bar(m).  It is computed by
recursion over left descents, and each bar(a_w) is checked to have
diagonal u^-l(w) and support in ``interval(w)``.  Its semilinear extension
``bar_extended`` adds every product of coefficient terms into one
exponent map per row and builds each row's polynomial once.

``bar_table_dense_solve`` is an independent cross-check on small ranks: it
solves the same defining constraints as exact linear systems, one Gauss-Jordan
elimination per column w whose matrix (phi-bar shifted over a window of
u-exponents, for each defining equation) is shared by every row y, each y
being one right-hand side of that elimination.
"""

from __future__ import annotations

from .errors import InvariantError
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
_ONE_PLUS_UINV = ONE + u_pow(-1)


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
        self._bar_cache = {}

    # -- case analysis -------------------------------------------------------

    def is_involution(self, wid):
        """True iff w is a twisted involution of this module."""
        return wid in self._position

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
        if not self.is_involution(wid):
            raise ValueError(f"id {wid} is not a twisted involution")
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

    def bar_basis(self, wid, choice=None):
        """bar(a_w) as a module element, memoized for the default descent.

        ``choice`` overrides the generator used for the recursion step and is
        meant for well-definedness checks; any left descent is admissible.
        """
        if choice is None:
            cached = self._bar_cache.get(wid)
            if cached is not None:
                return cached
        sys = self.system
        if wid == 0:
            result = MVector.basis(0)
        else:
            descents = [
                s for s in range(sys.rank) if sys.is_left_descent(s, wid)
            ]
            s = descents[0] if choice is None else choice
            if s not in descents:
                raise ValueError(
                    f"generator {s} is not a left descent of {sys.word_of(wid)}"
                )
            commuting, _up, xid = self.action_case(s, wid)
            bx = self.bar_basis(xid)
            if commuting:
                lifted = (self.ts_action(s, bx) + bx).scaled(_UINV2)
                quotient = MVector._raw(
                    {
                        w: f.exact_div(_ONE_PLUS_UINV)
                        for w, f in lifted.entries.items()
                    }
                )
                result = quotient - bx
            else:
                result = (self.ts_action(s, bx) + bx).scaled(_UINV2) - bx
            self._validate_bar(wid, result)
        if choice is None:
            self._bar_cache[wid] = result
        return result

    def _validate_bar(self, wid, result):
        sys = self.system
        if result.get(wid) != u_pow(-sys.length_of(wid)):
            raise InvariantError(
                f"bar(a_w) diagonal coefficient is not u^-l(w) at {sys.word_of(wid)}"
            )
        below = set(self.interval(wid))
        for yid in result.entries:
            if yid not in below:
                raise InvariantError(
                    f"bar(a_w) support leaves the Bruhat interval at "
                    f"{sys.word_of(wid)}: offending term {sys.word_of(yid)}"
                )
        self._check_even(result, "bar involution")

    def bar_mvector(self, m):
        """Semilinear extension: bar(sum f_y a_y) = sum bar(f_y) bar(a_y)."""
        self._check_even(m, "bar input")
        return self.bar_extended(m)

    def bar_extended(self, m):
        """The same semilinear bar on the v-extended module (odd powers allowed)."""
        rows = {}
        for wid, f in m.entries.items():
            f_terms = f.bar().terms()
            for yid, g in self.bar_basis(wid).entries.items():
                row = rows.setdefault(yid, {})
                for ge, gc in g.terms():
                    for fe, fc in f_terms:
                        e = ge + fe
                        row[e] = row.get(e, 0) + gc * fc
        out = {}
        for yid, row in rows.items():
            lo = min(row)
            coeffs = [0] * (max(row) - lo + 1)
            for e, c in row.items():
                coeffs[e - lo] = c
            poly = LaurentPoly(coeffs, lo)
            if not poly.is_zero:
                out[yid] = poly
        return MVector._raw(out)


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
