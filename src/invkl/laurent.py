"""Exact integer Laurent polynomials in the indeterminate v, and the q-tuple kernel.

Every scalar in this package lives in Z[v, v^-1].  The ring Z[u, u^-1] with
u = v^2 is embedded as the polynomials with even support; callers that need
u-membership test it with :meth:`LaurentPoly.is_even_support`.

The ``q_*`` functions work on plain coefficient tuples ``(c_0, c_1, ...)``
of a polynomial in one variable q with no negative powers.  ``LaurentPoly``
adds, multiplies and divides its coefficient tuple through them and keeps
only the ``min_exp`` bookkeeping, and the root-system ring Z[2cos(pi/N)] of
``coxeter`` runs its int arithmetic on them too, with no ``Fraction``.
Sparse sums of ``LaurentPoly`` values keyed by element or involution id go
through ``add_into``, which never stores a zero.

The classical P, P-sigma and bar tables do not store ``LaurentPoly``
values or tuples: each entry is one Kronecker-packed int, built by the
kernel of ``packed``, and ``spread(unpack(p), ...)`` or a read of its
v-slots turns it into a ``LaurentPoly`` at the API boundary.  The module
vectors of ``invmodule`` are packed by the same kernel, one int per
involution in v-slots above one offset per vector, so T_s, c_s, the bar
involution and the expansion in the canonical basis are int products too.
``LaurentPoly`` is the type at the API boundary: its own arithmetic is
left to the W-graph h/f check of ``cells`` and to the dense-solve oracle
of ``verify``.  Nothing here evaluates a polynomial at a point: two
polynomials are compared coefficient by coefficient, and a value at v = 1
is the sum of the coefficients.

Coefficients are arbitrary-precision Python integers, storage is dense with
an exponent offset (the polynomials handled here are short and dense), and
values are immutable.
"""

from __future__ import annotations

from .errors import NotDivisible

__all__ = [
    "LaurentPoly", "ZERO", "ONE", "V", "U", "v_pow", "u_pow", "spread",
    "q_shift", "q_add", "q_addmul", "q_trim", "q_divmod", "q_div",
    "add_into", "domination_failure",
]


class LaurentPoly:
    """An integer Laurent polynomial ``sum(coeffs[i] * v**(min_exp+i))``.

    Stored coefficients are trimmed so the first and last are nonzero; the
    zero polynomial has an empty coefficient tuple and ``min_exp == 0``.

    >>> f = LaurentPoly((1, 0, 1), -1)        # v^-1 + v
    >>> print(f * f)
    v^-2 + 2 + v^2
    >>> print(f.bar())
    v^-1 + v
    """

    __slots__ = ("coeffs", "min_exp")

    def __init__(self, coeffs=(), min_exp=0):
        coeffs = list(coeffs)
        lo, hi = 0, len(coeffs)
        while lo < hi and coeffs[lo] == 0:
            lo += 1
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.coeffs = ()
            self.min_exp = 0
        else:
            self.coeffs = tuple(coeffs[lo:hi])
            self.min_exp = min_exp + lo

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def max_exp(self):
        if not self.coeffs:
            return 0
        return self.min_exp + len(self.coeffs) - 1

    def coeff(self, exp):
        """Coefficient of v**exp (0 outside the stored window)."""
        i = exp - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def terms(self):
        """List of (exponent, coefficient) pairs, ascending, zeros skipped."""
        return [
            (self.min_exp + i, c) for i, c in enumerate(self.coeffs) if c
        ]

    def is_even_support(self):
        """True iff the polynomial lies in Z[u, u^-1], u = v^2."""
        return self.min_exp % 2 == 0 and not any(self.coeffs[1::2])

    # -- ring operations --------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly((other,), 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        a, b = (self, other) if self.min_exp <= other.min_exp else (other, self)
        shifted = q_shift(b.coeffs, b.min_exp - a.min_exp)
        return LaurentPoly(q_add(a.coeffs, shifted), a.min_exp)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly([-c for c in self.coeffs], self.min_exp)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(
            q_addmul((), self.coeffs, other.coeffs), self.min_exp + other.min_exp
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs and self.min_exp == other.min_exp

    def __hash__(self):
        return hash((self.coeffs, self.min_exp))

    # -- the operations the tables are built from -------------------------

    def bar(self):
        """Exponent reversal v -> v^-1; an involutive ring automorphism."""
        if self.is_zero:
            return self
        return LaurentPoly(tuple(reversed(self.coeffs)), -self.max_exp)

    # -- serialization and printing ---------------------------------------

    def to_json_obj(self):
        """JSON encoding: v-exponent (decimal string) -> coefficient string."""
        return {str(e): str(c) for e, c in self.terms()}

    def pair_string(self):
        """Compact text encoding ``e:c;e:c`` with ascending exponents."""
        return ";".join(f"{e}:{c}" for e, c in self.terms())

    def _pretty(self, var, step=1):
        parts = []
        for e, c in self.terms():
            k = e // step
            if k == 0:
                body = str(abs(c))
            else:
                head = var if k == 1 else f"{var}^{k}"
                body = head if abs(c) == 1 else f"{abs(c)}*{head}"
            parts.append(("- " if c < 0 else "+ ") + body)
        if not parts:
            return "0"
        first = parts[0]
        first = "-" + first[2:] if first.startswith("- ") else first[2:]
        return " ".join([first] + parts[1:])

    def __str__(self):
        if not self.is_zero and self.is_even_support():
            return self._pretty("u", 2)
        return self._pretty("v", 1)

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r}, {self.min_exp!r})"


def v_pow(n):
    """The monomial v**n."""
    return LaurentPoly((1,), n)


def u_pow(n):
    """The monomial u**n = v**(2n)."""
    return LaurentPoly((1,), 2 * n)


def spread(p, step, min_exp=0):
    """The q-coefficients p as a Laurent polynomial in v, with q = v^step.

    ``p[i]`` becomes the coefficient of ``v^(min_exp + step*i)``.
    """
    coeffs = [0] * (step * (len(p) - 1) + 1) if p else []
    coeffs[::step] = p
    return LaurentPoly(coeffs, min_exp)


def q_shift(p, k):
    """q^k p; the empty tuple stays empty."""
    return (0,) * k + tuple(p) if p else ()


def q_add(a, b):
    """a + b, untrimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return tuple(out)


def q_addmul(a, b, c):
    """a + b c, untrimmed; b is the short factor, its zero coefficients are skipped."""
    if not b or not c:
        return a
    out = list(a)
    n = len(b) + len(c) - 1
    if n > len(out):
        out.extend([0] * (n - len(out)))
    for i, bi in enumerate(b):
        if bi:
            for j, cj in enumerate(c, i):
                out[j] += bi * cj
    return tuple(out)


def q_trim(p):
    """p without its trailing zeros."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def q_divmod(p, den, deg):
    """Divide p by den upward from the constant term, as power series.

    Returns the trimmed q of degree at most ``deg`` for which p - den q
    vanishes in degrees 0..deg, and that remainder, trimmed.  Raises
    :class:`NotDivisible` when a quotient coefficient is not an integer.
    """
    rest = list(p)
    n = deg + len(den)
    if n > len(rest):
        rest.extend([0] * (n - len(rest)))
    lead = den[0]
    q = [0] * (deg + 1)
    for k in range(deg + 1):
        c, r = divmod(rest[k], lead)
        if r:
            raise NotDivisible(f"{tuple(p)} is not divisible by {tuple(den)}")
        if c:
            q[k] = c
            for j, d in enumerate(den, k):
                rest[j] -= c * d
    return q_trim(q), q_trim(rest)


def q_div(p, den):
    """The exact quotient p / den; :class:`NotDivisible` when den does not divide p."""
    q, rest = q_divmod(p, den, len(p) - len(den))
    if rest:
        raise NotDivisible(f"{tuple(p)} is not divisible by {tuple(den)}")
    return q


def add_into(out, key, f):
    """out[key] += f on a sparse dict of LaurentPoly values; a zero sum is dropped."""
    g = out.get(key)
    if g is not None:
        f = g + f
    if f.is_zero:
        out.pop(key, None)
    else:
        out[key] = f


def domination_failure(f, g):
    """The smallest v-exponent e where |f_e| <= g_e or f_e = g_e (mod 2) fails.

    None when g dominates f with the same parity at every exponent; in
    particular f must vanish wherever g does.  This is the coefficientwise
    comparison of P-sigma with classical P and of f- with h-constants.
    """
    for e in sorted({e for e, _ in f.terms()} | {e for e, _ in g.terms()}):
        a, b = g.coeff(e), f.coeff(e)
        if abs(b) > a or (a - b) % 2:
            return e
    return None


ZERO = LaurentPoly()
ONE = LaurentPoly((1,), 0)
V = v_pow(1)
U = u_pow(1)
