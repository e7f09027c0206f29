"""Packed polynomials: a table entry P(u) is stored as the one int P(2^64).

This is Kronecker substitution, as in FLINT's ``fmpz_poly`` (Harvey,
J. Symbolic Comput. 2009): each 64-bit slot of the int holds one
u-coefficient.  Evaluation at u = 2^64 is a ring homomorphism, so adding a
multiple of a column is ``pending[y] += mult * p``, a product of
polynomials is an int product and a u-shift is a left shift.  Slots are
balanced: a coefficient c borrows from the slot above when negative, and
``unpack`` and ``coeff_at`` read it back as long as every coefficient lies
in (-2^63, 2^63); mu, mu' and mu'' are reads of one slot.
``solve_one_plus_u`` is the checked division by 1 + u of the canonical
recursion.

``pack`` and ``unpack`` take the slot width as an argument, so they are
the one packer at every width: the module vectors of ``invmodule`` pack
v-coefficients in slots of 32 bits or more, and a u-slot that spans two
of them is 2 * width bits.  At 32 bits one ``struct`` call packs or reads
all the slots: adding 2^31 to every balanced slot leaves each an unsigned
digit with no borrow, and flipping each top bit then gives the two's
complement of the balanced digit, which is the ``struct`` format ``i``.

A carry between slots would change a table silently.  So the tables keep
every stored coefficient below COEFF_BITS bits (``forbidden`` for the
classical table, ``in_slots`` for P-sigma), and every column's weighted
sum of multipliers under ``BUDGET`` (``check_budget``).  Together these
keep every intermediate coefficient below 2^63 in absolute value, and
anything outside raises ``InvariantError``.

The kernel is a module of its own so that building a Coxeter system, which
imports ``laurent``, does not compile it.
"""

from __future__ import annotations

import struct
from functools import cache

from .errors import InvariantError

__all__ = [
    "SLOT", "COEFF_BITS", "BUDGET", "ONE_PLUS_U", "pack", "unpack", "coeff_at",
    "solve_one_plus_u", "degree_at_most", "forbidden", "in_slots", "slot_test",
    "check_budget",
]

SLOT = 64                              # bits per u-coefficient
COEFF_BITS = 32                        # bits of a stored coefficient
BUDGET = 1 << (SLOT - 1 - COEFF_BITS)  # bound on a column's coefficient growth
_HALF = 1 << (SLOT - 1)
_MASK = (1 << SLOT) - 1
ONE_PLUS_U = (1 << SLOT) + 1           # 1 + u, packed
_WORD = 32                             # the slot width of the struct route


def pack(coeffs, width=SLOT):
    """The coefficients ``(c_0, c_1, ...)`` as the int sum c_i 2^(width i).

    At 32 bits every coefficient must lie in [-2^31, 2^31).
    """
    if width == _WORD:
        halves = _halves(len(coeffs))
        digits = struct.pack(f"<{len(coeffs)}i", *coeffs)
        return (int.from_bytes(digits, "little") ^ halves) - halves
    p = 0
    for c in reversed(coeffs):
        p = (p << width) + c
    return p


def unpack(p, width=SLOT):
    """The balanced slots of p as a trimmed coefficient tuple; ``unpack(0) == ()``.

    Each slot is read in [-2^(width-1), 2^(width-1)), so
    ``unpack(pack(c, width), width) == c`` for every trimmed c whose
    coefficients lie in that range.
    """
    if width == _WORD:
        # at most one slot more than p needs (one zero slot for p = 0)
        n = p.bit_length() // _WORD + 1
        halves = _halves(n)
        out = struct.unpack(f"<{n}i", ((p + halves) ^ halves).to_bytes(4 * n, "little"))
        return out if out[-1] else out[:-1]
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    out = []
    while p:
        c = ((p + half) & mask) - half
        out.append(c)
        p = (p - c) >> width
    return tuple(out)


@cache
def _halves(n):
    """2^31 in each of n 32-bit slots."""
    return ((1 << (_WORD * n)) - 1) // ((1 << _WORD) - 1) << (_WORD - 1)


def coeff_at(p, k):
    """The balanced coefficient of u^k in p (k >= 0).

    Rounding the lower slots away instead of unpacking them is exact while
    each of them lies in (-2^63, 2^63).
    """
    if k:
        p = ((p >> (SLOT * k - 1)) + 1) >> 1
    return ((p + _HALF) & _MASK) - _HALF


def solve_one_plus_u(row, d, top_is_mu):
    """Solve (1 + u) P = row + mu u^(d+1) with deg P <= d; return (P, mu) or None.

    At u = 2^64 the unknown term is mu (-1)^(d+1) modulo 2^64 + 1, so the
    balanced residue r of row gives mu = (-1)^d r, and one exact division
    gives P.  The degree bound is |P| < 2^(64(d+1)-1).  mu must be 0, or,
    with ``top_is_mu``, the coefficient of u^d in P; anything else, and a
    P over the degree bound, is a row with no solution and gives None.
    """
    r = row % ONE_PLUS_U
    if r > _HALF:
        r -= ONE_PLUS_U
    mu = -r if d & 1 else r
    p = (row + (mu << (SLOT * (d + 1)))) // ONE_PLUS_U
    if not degree_at_most(p, d) or mu != (coeff_at(p, d) if top_is_mu else 0):
        return None
    return p, mu


def degree_at_most(p, d):
    """The degree bound: |p| < 2^(64(d+1)-1), so p packs a degree-d polynomial.

    Exact while every coefficient lies in (-2^63, 2^63).
    """
    return not (abs(p) << 1) >> (SLOT * (d + 1))


@cache
def _ones(n):
    """1 + u + ... + u^(n-1), packed."""
    return ((1 << (SLOT * n)) - 1) // _MASK


@cache
def forbidden(n):
    """Every bit but the low COEFF_BITS of slots 0..n-1 (above them, all).

    ``not p & forbidden(n)`` is ``p >= 0 and not p & TOPBITS and
    p >> 64n == 0`` in one AND, TOPBITS being the bits of each slot at and
    above COEFF_BITS: p packs a polynomial of degree < n with coefficients
    in [0, 2^COEFF_BITS).  Exact while every coefficient of p lies in
    (-2^63, 2^63).
    """
    return ~(((1 << COEFF_BITS) - 1) * _ones(n))


@cache
def slot_test(n):
    """(offset, mask) with ``in_slots(p, n) == not (p + offset) & mask``.

    A loop over many rows reads this pair once per slot count and tests
    each row with one addition and one AND.
    """
    return _ones(n) << (COEFF_BITS - 1), forbidden(n)


def in_slots(p, n):
    """True iff p packs a polynomial of degree < n whose coefficients lie in
    [-2^(COEFF_BITS-1), 2^(COEFF_BITS-1)): the test of ``forbidden`` after
    adding 2^(COEFF_BITS-1) to every slot.
    """
    offset, mask = slot_test(n)
    return not (p + offset) & mask


def check_budget(spent, where):
    """Raise ``InvariantError`` unless ``spent < BUDGET``.

    ``spent`` bounds the largest coefficient a column can form, in units of
    2^COEFF_BITS; under ``BUDGET`` it stays below 2^63, so every slot reads
    back exactly and no slot carries into its neighbour unseen.
    """
    if spent >= BUDGET:
        raise InvariantError(
            f"{where}: multipliers of weight {spent} could carry between the "
            f"{SLOT}-bit slots of the packed table (bound {BUDGET})"
        )
