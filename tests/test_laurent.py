import random

import pytest

from invkl.errors import NotDivisible
from invkl.laurent import (
    LaurentPoly, ONE, U, V, ZERO, q_add, q_addmul, q_div, q_divmod, q_mu,
    q_shift, q_trim, spread, u_pow, v_pow,
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
    assert (u_pow(2) - ONE).exact_div(U + ONE) == U - ONE
    pi = LaurentPoly((3, 0, -2), -1)
    f = v_pow(1) + v_pow(-1)
    assert (f * pi).exact_div(f) == pi
    with pytest.raises(NotDivisible):
        ONE.exact_div(U + ONE)
    rng = random.Random(12)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        if g.is_zero:
            continue
        assert (f * g).exact_div(g) == f


def test_positive_part():
    f = v_pow(2) + ONE + v_pow(-1)
    assert f.positive_part() == v_pow(2) + ONE
    assert LaurentPoly((1, 2), -3).positive_part() == ZERO
    assert (ONE + v_pow(5)).positive_part() == ONE + v_pow(5)
    rng = random.Random(3)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        assert f.positive_part().positive_part() == f.positive_part()
        assert (f + g).positive_part() == f.positive_part() + g.positive_part()
        tail = f - f.positive_part()
        assert tail.is_zero or tail.max_exp < 0


def test_coeff_specialize_parity():
    f = v_pow(-3) + 2 * V
    assert f.coeff(-3) == 1 and f.coeff(1) == 2 and f.coeff(0) == 0
    assert (u_pow(2) - U).specialize(1) == 0
    assert not (V + v_pow(-1)).is_even_support()
    assert (u_pow(3) + u_pow(-1)).is_even_support()
    with pytest.raises(ZeroDivisionError):
        v_pow(-1).specialize(0)


def test_json_round_trip():
    f = v_pow(-3) + 2 * V
    assert f.to_json_obj() == {"-3": "1", "1": "2"}
    assert LaurentPoly.from_json_obj(f.to_json_obj()) == f
    assert f.pair_string() == "-3:1;1:2"
    rng = random.Random(77)
    for _ in range(50):
        f = rand_poly(rng)
        assert LaurentPoly.from_json_obj(f.to_json_obj()) == f


def rand_q(rng):
    """A coefficient tuple: short or long, small or over 64 bits, maybe zero-padded."""
    n = rng.choice([0, 1, 2, 3, 5, 9, 17])
    bound = rng.choice([1, 5, 2**70])
    p = [rng.randint(-bound, bound) for _ in range(n)]
    return tuple(p + [0] * rng.randint(0, 2))


def as_poly(p):
    """The tuple p as a LaurentPoly in q = v."""
    return spread(p, 1)


def as_tuple(f):
    """A LaurentPoly without negative powers as its trimmed coefficient tuple."""
    return (0,) * f.min_exp + f.coeffs


def test_q_kernel_against_laurent_poly():
    """Every q_* function agrees with LaurentPoly arithmetic in q = v."""
    rng = random.Random(1109)
    one_plus_u = ONE + V
    for _ in range(400):
        a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
        k = rng.randint(-2**66, 2**66)
        shift = rng.randint(0, 4)
        assert as_poly(q_add(a, b)) == as_poly(a) + as_poly(b)
        assert as_poly(q_addmul(a, (-k,), b)) == as_poly(a) - k * as_poly(b)
        assert as_poly(q_addmul(a, b, c)) == as_poly(a) + as_poly(b) * as_poly(c)
        assert as_poly(q_shift(a, shift)) == as_poly(a) * v_pow(shift)
        assert q_trim(a) == as_tuple(as_poly(a))
        # exact division by 1 + u, of a multiple and of an arbitrary tuple
        product = as_tuple(one_plus_u * as_poly(b))
        assert q_div(product, (1, 1)) == q_trim(b)
        try:
            expected = as_tuple(as_poly(a).exact_div(one_plus_u))
        except NotDivisible:
            with pytest.raises(NotDivisible):
                q_div(a, (1, 1))
        else:
            assert q_div(a, (1, 1)) == expected
        # the upward division: a = (1 + u) q + rest, rest zero up to the degree bound
        deg = rng.randint(-1, 6)
        q, rest = q_divmod(a, (1, 1), deg)
        assert len(q) <= deg + 1 and all(not c for c in rest[: deg + 1])
        assert as_poly(a) == one_plus_u * as_poly(q) + as_poly(rest)
        assert q == q_trim(q) and rest == q_trim(rest)


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
