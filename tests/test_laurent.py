import random
from fractions import Fraction

import pytest
from helpers import (
    evaluate, exact_div, positive_part, q_mu, schoolbook_add, schoolbook_div,
    schoolbook_mul,
)

from invkl.errors import NotDivisible
from invkl.laurent import (
    LaurentPoly, ONE, U, V, ZERO, domination_failure, q_add, q_addmul, q_div,
    q_divmod, q_shift, q_trim, spread, u_pow, v_pow,
)


def rand_poly(rng, width=6, span=4):
    return LaurentPoly(
        [rng.randint(-5, 5) for _ in range(width)], rng.randint(-span, span)
    )


def test_ring_examples():
    f = v_pow(1) + v_pow(-1)
    g = v_pow(1) - v_pow(-1)
    assert f * g == v_pow(2) - v_pow(-2)
    assert rand_poly(random.Random(0)) + ZERO == rand_poly(random.Random(0))
    assert (ONE + U) * (ONE + U) == ONE + 2 * v_pow(2) + v_pow(4)


def test_ring_axioms_randomized():
    rng = random.Random(411)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == ZERO
        assert a * ONE == a


def test_bar():
    assert v_pow(3).bar() == v_pow(-3)
    assert (ONE + U).bar() == ONE + u_pow(-1)
    rng = random.Random(5)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        assert f.bar().bar() == f
        assert (f * g).bar() == f.bar() * g.bar()
        assert (f + g).bar() == f.bar() + g.bar()


def test_exact_div():
    assert exact_div(u_pow(2) - ONE, U + ONE) == U - ONE
    pi = LaurentPoly((3, 0, -2), -1)
    f = v_pow(1) + v_pow(-1)
    assert exact_div(f * pi, f) == pi
    with pytest.raises(NotDivisible):
        exact_div(ONE, U + ONE)
    with pytest.raises(ZeroDivisionError):
        exact_div(ONE, ZERO)
    rng = random.Random(12)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        if g.is_zero:
            continue
        assert exact_div(f * g, g) == f


def test_positive_part():
    f = v_pow(2) + ONE + v_pow(-1)
    assert positive_part(f) == v_pow(2) + ONE
    assert positive_part(LaurentPoly((1, 2), -3)) == ZERO
    assert positive_part(ONE + v_pow(5)) == ONE + v_pow(5)
    rng = random.Random(3)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        assert positive_part(positive_part(f)) == positive_part(f)
        assert positive_part(f + g) == positive_part(f) + positive_part(g)
        tail = f - positive_part(f)
        assert tail.is_zero or tail.max_exp < 0


def test_coeff_specialize_parity():
    f = v_pow(-3) + 2 * V
    assert f.coeff(-3) == 1 and f.coeff(1) == 2 and f.coeff(0) == 0
    assert evaluate(u_pow(2) - U, 1) == sum((u_pow(2) - U).coeffs) == 0
    assert evaluate(f, Fraction(1, 2)) == 9
    assert not (V + v_pow(-1)).is_even_support()
    assert (u_pow(3) + u_pow(-1)).is_even_support()


def test_even_support_matches_the_termwise_definition():
    """The slice test agrees with "every term has an even exponent", on odd
    and negative min_exp, on sparse polynomials and on zero."""
    rng = random.Random(1109)
    cases = [ZERO, ONE, V, v_pow(-3), u_pow(-2), LaurentPoly((1, 0, 0, 0, 1), -5)]
    for _ in range(500):
        coeffs = [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(rng.randint(0, 8))]
        cases.append(LaurentPoly(coeffs, rng.randint(-9, 9)))
    parities = set()
    for f in cases:
        want = all(e % 2 == 0 for e, _ in f.terms())
        assert f.is_even_support() == want, f
        parities.add((f.min_exp % 2, f.min_exp < 0, want))
    # an odd min_exp is itself an odd exponent; every other combination occurs
    assert len(parities) == 6 and all(not even for odd, _, even in parities if odd)


def test_json_round_trip():
    f = v_pow(-3) + 2 * V
    assert f.to_json_obj() == {"-3": "1", "1": "2"}
    assert f.pair_string() == "-3:1;1:2"
    assert ZERO.to_json_obj() == {}
    assert LaurentPoly((-5, 0, 0, 7), 2).to_json_obj() == {"2": "-5", "5": "7"}
    assert (v_pow(-1) - 3 * v_pow(4)).to_json_obj() == {"-1": "1", "4": "-3"}
    assert LaurentPoly((2**70,), -2).to_json_obj() == {"-2": str(2**70)}
    rng = random.Random(77)
    for _ in range(50):
        f = rand_poly(rng)
        obj = f.to_json_obj()
        back = ZERO
        for e, c in obj.items():
            back = back + LaurentPoly((int(c),), int(e))
        assert back == f and "0" not in obj.values()


def rand_q(rng):
    """A coefficient tuple of length 0-17, small or over 64 bits, maybe zero-padded."""
    bound = rng.choice([1, 5, 2**70])
    p = [rng.randint(-bound, bound) for _ in range(rng.randint(0, 17))]
    return tuple(p + [0] * rng.randint(0, 2))


def rand_laurent(rng):
    return LaurentPoly(rand_q(rng), rng.randint(-6, 6))


def cancelling(rng, f):
    """-f, or -f with the terms on one side of a random cut replaced."""
    neg = [-c for c in f.coeffs]
    cut = rng.randint(0, len(neg))
    other = [rng.randint(-2**70, 2**70) for _ in range(rng.randint(0, 4))]
    case = rng.randrange(3)
    if case == 0:
        return LaurentPoly(neg, f.min_exp)
    if case == 1:  # cancels the terms of f below the cut
        return LaurentPoly(neg[:cut] + other, f.min_exp)
    return LaurentPoly(other + neg[cut:], f.min_exp + cut - len(other))


def rand_divisor(rng):
    """A trimmed q-tuple with nonzero constant term, as ``q_div`` divides by."""
    p = q_trim(rand_q(rng)[:5])
    return (rng.choice([-2, -1, 1, 3]),) + p


def pair(f):
    return f.coeffs, f.min_exp


def as_poly(p):
    """The tuple p as a LaurentPoly in q = v."""
    return spread(p, 1)


def as_tuple(f):
    """A LaurentPoly without negative powers as its trimmed coefficient tuple."""
    return (0,) * f.min_exp + f.coeffs


def school(result):
    """A schoolbook (coeffs, min_exp) result as a LaurentPoly."""
    return LaurentPoly(*result)


def test_q_kernel_against_schoolbook():
    """Every q_* function agrees with the schoolbook loops in q = v."""
    rng = random.Random(1109)
    raised = 0
    for _ in range(400):
        a, c = rand_q(rng), rand_q(rng)
        b = rng.choice([rand_q(rng), tuple(-x for x in a)])
        k = rng.randint(-2**66, 2**66)
        shift = rng.randint(0, 4)
        assert as_poly(q_add(a, b)) == school(schoolbook_add((a, 0), (b, 0)))
        assert as_poly(q_addmul(a, (-k,), b)) == school(
            schoolbook_add((a, 0), schoolbook_mul(((-k,), 0), (b, 0)))
        )
        assert as_poly(q_addmul(a, b, c)) == school(
            schoolbook_add((a, 0), schoolbook_mul((b, 0), (c, 0)))
        )
        assert as_poly(q_shift(a, shift)) == school(
            schoolbook_mul((a, 0), ((1,), shift))
        )
        assert q_trim(a) == as_tuple(LaurentPoly(a, 0))
        # exact division, by 1 + u and by a random divisor, of a multiple
        # and of an arbitrary tuple; both routes raise on the same inputs
        for den in [(1, 1), rand_divisor(rng)]:
            product, _ = schoolbook_mul((b, 0), (den, 0))
            assert q_div(tuple(product), den) == q_trim(b)
            try:
                expected = school(schoolbook_div(pair(as_poly(a)), (den, 0)))
            except NotDivisible:
                raised += 1
                with pytest.raises(NotDivisible):
                    q_div(a, den)
            else:
                assert q_div(a, den) == as_tuple(expected)
        # the upward division: a = (1 + u) q + rest, rest zero up to the degree bound
        deg = rng.randint(-1, 6)
        q, rest = q_divmod(a, (1, 1), deg)
        assert len(q) <= deg + 1 and all(not c for c in rest[: deg + 1])
        assert as_poly(a) == school(
            schoolbook_add(schoolbook_mul(((1, 1), 0), (q, 0)), (rest, 0))
        )
        assert q == q_trim(q) and rest == q_trim(rest)
    assert raised > 100


def test_laurent_poly_against_schoolbook():
    """LaurentPoly's +, -, * and the exact_div helper agree with the schoolbook loops.

    Inputs have negative exponents, up to 17 terms and coefficients over
    64 bits; half the sums cancel to zero or at one end.  Each product is
    divided back, and so is the product plus a monomial, which both routes
    must reject with NotDivisible or both divide alike.
    """
    rng = random.Random(4606)
    raised = divided = 0
    for _ in range(400):
        f = rand_laurent(rng)
        for g in [rand_laurent(rng), cancelling(rng, f)]:
            assert f + g == school(schoolbook_add(pair(f), pair(g)))
            assert f - g == school(schoolbook_add(pair(f), pair(-g)))
            product = school(schoolbook_mul(pair(f), pair(g)))
            assert f * g == product
            if g.is_zero:
                continue
            assert exact_div(product, g) == f
            bumped = school(schoolbook_add(pair(product), ((1,), rng.randint(-8, 8))))
            try:
                expected = school(schoolbook_div(pair(bumped), pair(g)))
            except NotDivisible:
                raised += 1
                with pytest.raises(NotDivisible):
                    exact_div(bumped, g)
            else:
                divided += 1
                assert exact_div(bumped, g) == expected
    assert raised > 100 and divided > 10


def test_q_div_examples():
    assert q_div((1, 2, 1), (1, 1)) == (1, 1)
    assert q_div((-1, 0, 1), (-1, 1)) == (1, 1)
    assert q_div((), (1, 1)) == ()
    for bad in [(1,), (1, 1, 1), (0, 1)]:
        with pytest.raises(NotDivisible):
            q_div(bad, (1, 1))
    with pytest.raises(NotDivisible):
        q_div((1, 1), (2, 1))  # a quotient coefficient 1/2
    assert q_mu((1, 3), 3) == 3 and q_mu((1, 3), 4) == 0 and q_mu((1,), 3) == 0
    assert q_mu((), -1) == 0


def test_domination_failure_on_hand_made_pairs():
    """The smallest v-exponent where |f_e| <= g_e or f_e = g_e (mod 2) fails."""
    g = LaurentPoly((3, 0, 1), -2)                          # 3v^-2 + 1
    # dominated pairs, a negative f coefficient included
    assert domination_failure(LaurentPoly((1, 0, 1), -2), g) is None
    assert domination_failure(LaurentPoly((-3, 0, -1), -2), g) is None
    assert domination_failure(ZERO, LaurentPoly((2, 0, 4), -1)) is None
    assert domination_failure(ZERO, ZERO) is None
    assert domination_failure(g, g) is None
    # a negative g coefficient fails even where f vanishes
    assert domination_failure(ZERO, LaurentPoly((2, 0, -2), 0)) == 2
    # a negative f coefficient larger than g in absolute value
    assert domination_failure(LaurentPoly((-5,), -2), g) == -2
    # an odd difference
    assert domination_failure(ONE, LaurentPoly((2,), 0)) == 0
    assert domination_failure(LaurentPoly((1, 0, 0), -2), g) == 0
    # f nonzero where g is zero
    assert domination_failure(LaurentPoly((2,), 3), LaurentPoly((2,), 0)) == 3
    assert domination_failure(V, ZERO) == 1
    # several failures: the smallest exponent is named
    f = v_pow(-4) + LaurentPoly((2,), 2)
    assert domination_failure(f, v_pow(2)) == -4
    assert domination_failure(LaurentPoly((2,), 2), 2 * v_pow(-4) + v_pow(2)) == 2
