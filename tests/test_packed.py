"""The packed kernel against the q-tuple functions and oracles."""

import random

import pytest
from helpers import mu_at, q_mu, solve_row_tuples

from invkl import build_system, canonical, invmodule
from invkl.canonical import CanonicalBasis
from invkl.errors import InvariantError, RecurrenceInconsistent
from invkl.invmodule import InvolutionModule
from invkl.laurent import q_add, q_addmul, q_shift, q_trim
from invkl.packed import (
    BUDGET, COEFF_BITS, ONE_PLUS_U, SLOT, check_budget, coeff_at, degree_at_most,
    forbidden, in_slots, pack, solve_one_plus_u, unpack,
)


def rand_packable(rng, bound, length=8):
    """A trimmed tuple of up to ``length`` coefficients in [-bound, bound)."""
    p = [rng.randrange(-bound, bound) for _ in range(rng.randint(0, length))]
    return q_trim(p)


def test_pack_unpack_round_trip_with_negative_coefficients():
    """unpack(pack(c)) == c across the balanced slot range, the extremes
    -2^63 and 2^63 - 1 included, and coeff_at reads every slot of the open
    range (-2^63, 2^63)."""
    rng = random.Random(64)
    edges = [-(2**63), 2**63 - 1, -1, 1]
    for _ in range(2000):
        c = rand_packable(rng, rng.choice([2, 2**31, 2**63]))
        if c and rng.random() < 0.3:
            c = q_trim(c[:-1] + (rng.choice(edges),))
        p = pack(c)
        assert unpack(p) == c, c
        if -(2**63) in c:   # coeff_at rounds, which needs the open range
            continue
        for k in range(len(c) + 2):
            assert coeff_at(p, k) == (c[k] if k < len(c) else 0), (c, k)
    assert pack(()) == 0 and unpack(0) == ()
    assert unpack(pack((-1,))) == (-1,) and pack((0, -1)) == -(2**64)


def test_packed_ring_operations_match_the_q_kernel():
    """pack is a ring homomorphism: sums, u-shifts and products of packed
    ints unpack to the q-tuple results while no coefficient leaves a slot."""
    rng = random.Random(1109)
    for _ in range(1000):
        a, b = rand_packable(rng, 2**28), rand_packable(rng, 2**28)
        k = rng.randrange(-(2**20), 2**20)
        assert unpack(pack(a) + pack(b)) == q_trim(q_add(a, b))
        assert unpack(pack(a) * pack(b)) == q_trim(q_addmul((), a, b))
        assert unpack(pack(a) + k * pack(b)) == q_trim(q_addmul(a, (k,), b))
        assert unpack(pack(a) << (SLOT * 3)) == q_shift(a, 3)


def test_mu_at_matches_q_mu():
    """The packed slot read of mu, mu' and mu'' (``mu_at``) agrees with the
    tuple rule on every polynomial that keeps its degree bound."""
    rng = random.Random(7)
    for _ in range(1000):
        gap = rng.randint(-1, 12)
        d = (gap - 1) // 2
        c = rand_packable(rng, 2**31, length=max(d + 1, 0))
        for g in (gap, gap - 1):
            assert mu_at(pack(c), g) == q_mu(c, g), (c, g)
    assert mu_at(pack((1, 3)), 3) == 3 and mu_at(pack((1, 3)), 4) == 0
    assert mu_at(pack((1,)), 3) == 0 and mu_at(0, -1) == 0


def test_solve_one_plus_u_matches_the_tuple_division():
    """The packed (1+u) solve against ``solve_row_tuples``: rows (1+u) P,
    rows (1+u) P - mu' u^(d+1) with mu' the top coefficient of P, and
    random and perturbed rows that both routes accept alike or reject."""
    rng = random.Random(4606)
    accepted = rejected = with_mu = 0
    for _ in range(3000):
        gap = rng.randint(1, 13)
        d = (gap - 1) // 2
        unknown = rng.random() < 0.5
        top_is_mu = unknown and gap % 2 == 1
        p = rand_packable(rng, 2**20, length=d + 1)
        row = q_addmul((), (1, 1), p)
        if top_is_mu and len(p) == d + 1:
            row = q_trim(row[: d + 1])   # drops mu' u^(d+1), mu' = p[d]
        case = rng.randrange(4)
        if case == 1:                    # one coefficient perturbed
            bump = q_shift((rng.choice([-1, 1, 7]),), rng.randint(0, d + 2))
            row = q_trim(q_add(row, bump))
        elif case == 2:                  # an arbitrary row
            row = rand_packable(rng, 2**20, length=d + 3)
        try:
            want = solve_row_tuples(row, gap, (1, 1), unknown)
        except RecurrenceInconsistent:
            want = None
        got = solve_one_plus_u(pack(row), d, top_is_mu)
        expected = None if want is None else (pack(want[0]), want[1])
        assert got == expected, (row, gap, unknown)
        if want is None:
            rejected += 1
        else:
            accepted += 1
            with_mu += want[1] != 0
    assert accepted > 1000 and rejected > 500 and with_mu > 200


def test_rejected_rows_raise_on_both_routes():
    """A row the recursion cannot solve raises RecurrenceInconsistent from
    ``CanonicalBasis._solve_row`` and from the tuple oracle alike."""
    system = build_system("A5")
    basis = CanonicalBasis(InvolutionModule(system))
    top = system.all_ids()[-1]                        # the longest element, length 15
    rng = random.Random(3)
    raised = 0
    for yid in rng.sample(system.all_ids()[:-1], 60):
        gap = system.length_of(top) - system.length_of(yid)
        d = (gap - 1) // 2
        for commuting in (True, False):
            low = rand_packable(rng, 50, length=d + 1)
            row = low + (0,) * (d + 2 - len(low)) + (1,)   # a u^(d+2) term
            den = (1, 1) if commuting else (1,)
            # only a commuting target's row may carry mu', as in the build
            with pytest.raises(RecurrenceInconsistent):
                solve_row_tuples(row, gap, den, commuting)
            with pytest.raises(RecurrenceInconsistent):
                basis._solve_row(pack(row), yid, top, commuting)
            raised += 1
    assert raised == 120


def test_slot_bounds_and_budget():
    """``forbidden`` holds a classical coefficient to [0, 2^COEFF_BITS) and
    ``in_slots`` a P-sigma one to COEFF_BITS signed bits, both under the
    degree bound; check_budget stops a column whose coefficients could
    reach a neighbouring slot."""
    big = 1 << COEFF_BITS
    half = big >> 1
    assert not pack((0, big - 1, 5)) & forbidden(3)
    assert pack((0, big, 5)) & forbidden(3)
    assert pack((1, -1)) & forbidden(3)          # negative
    assert pack((1, 2, 3)) & forbidden(2)        # degree
    assert in_slots(pack((-half, half - 1)), 2)
    assert not in_slots(pack((-half - 1, 1)), 2)
    assert not in_slots(pack((1, half)), 2)
    assert not in_slots(pack((1, 2, 3)), 2)
    assert degree_at_most(pack((1, -(2**62))), 1)
    assert not degree_at_most(pack((1, 0, 1)), 1)
    check_budget(BUDGET - 1, "test")
    with pytest.raises(InvariantError, match="carry"):
        check_budget(BUDGET, "test")
    # what the bounds are for: a coefficient of 2^64 carries into the next
    # slot, and the packed int cannot tell the two polynomials apart
    assert pack((2**64,)) == pack((0, 1))


@pytest.mark.parametrize("width", [32, 33, 64, 97])
def test_pack_unpack_round_trip_at_every_width(width):
    """unpack(pack(c, w), w) == c for trimmed c in the balanced range
    [-2^(w-1), 2^(w-1)), its extremes included; unpack trims trailing zero
    slots and reads 0 as ()."""
    rng = random.Random(width)
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    edges = [lo, hi, lo + 1, hi - 1, -1, 1, 0]
    cases = [(lo,), (hi,), (lo, lo), (hi, hi), (0, lo), (0, 0, hi), (lo, 0, hi)]
    for _ in range(500):
        c = [rng.choice(edges) if rng.random() < 0.4 else rng.randrange(lo, hi + 1)
             for _ in range(rng.randint(0, 6))]
        cases.append(q_trim(c))
    for c in cases:
        assert unpack(pack(c, width), width) == c, c
        # trailing zero coefficients pack to the same int and are trimmed
        assert unpack(pack(c + (0, 0), width), width) == c
    assert unpack(0, width) == ()
    assert pack((), width) == 0
    # the slots are Kronecker substitution at 2^width
    assert pack((3, -2, 1), width) == 3 - 2 * (1 << width) + (1 << (2 * width))


def test_one_plus_u_is_packed_one_plus_u():
    assert ONE_PLUS_U == pack((1, 1)) == (1 << SLOT) + 1


# The case multipliers as literal tables, written out from the T_s action
# of the paper: the oracles for the tables derived from CASE_POLYS.
_LITERAL_CASE_TERMS = {
    (True, True): (pack((1, 1)), pack((0, -1, 1))),    # (1+u) P(y,w) + (u^2-u) P(sy,w)
    (True, False): (pack((0, -1, 1)), pack((1, 1))),   # (u^2-u) P(y,w) + (1+u) P(sy,w)
    (False, True): (1, pack((0, 0, 1))),               # P(y,w) + u^2 P(sy delta(s),w)
    (False, False): (pack((0, 0, 1)), 1),              # u^2 P(y,w) + P(sy delta(s),w)
}


def _literal_action_terms(width, plus_one):
    u = 1 << (2 * width)
    if plus_one:   # c_w (a_w + a_partner)
        return {
            (True, True): (1 + u, 1 + u),
            (True, False): (u * u - u, u * u - u),
            (False, True): (1, 1),
            (False, False): (u * u, u * u),
        }
    return {
        (True, True): (u, 1 + u),
        (True, False): (u * u - u - 1, u * u - u),
        (False, True): (0, 1),
        (False, False): (u * u - 1, u * u),
    }


def _literal_bar_terms(commuting):
    u = 1 << SLOT
    drop = u + u * u if commuting else u * u
    c_y = {(True, True): 1 + u, (True, False): u * u - u, (False, True): 1,
           (False, False): u * u}
    return {case: (c - drop, c) for case, c in c_y.items()}


def test_case_tables_derived_from_case_polys_equal_the_literal_tables():
    assert canonical._CASE_TERMS == _LITERAL_CASE_TERMS
    for width in (32, 40):
        for plus_one in (False, True):
            assert invmodule._action_terms(width, plus_one) == _literal_action_terms(
                width, plus_one
            ), (width, plus_one)
    for commuting in (False, True):
        assert invmodule._bar_terms(commuting) == _literal_bar_terms(commuting)
