import pytest

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.errors import RecurrenceInconsistent
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.laurent import ONE, ZERO, v_pow

from helpers import ms_constant_by_scan


def make(label, delta=None):
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)
    return system, module, CanonicalBasis(module).build()


def test_base_columns():
    system, module, basis = make("A1")
    s = system.element_id_from_word([0])
    assert {y: basis.pi(y, 0) for y in basis.column(0)} == {0: ONE}
    assert {y: basis.pi(y, s) for y in basis.column(s)} == {s: ONE, 0: v_pow(-1)}
    assert basis.sigma_kl(0, s) == ONE


def test_a2_longest_column(a2, a2_canonical):
    sts = a2.element_id_from_word([0, 1, 0])
    s = a2.element_id_from_word([0])
    t = a2.element_id_from_word([1])
    col = {y: a2_canonical.pi(y, sts) for y in a2_canonical.column(sts)}
    assert col == {sts: ONE, s: v_pow(-2), t: v_pow(-2), 0: v_pow(-3)}
    for y in (0, s, t):
        assert a2_canonical.sigma_kl(y, sts) == ONE
    assert a2_canonical.sigma_kl(s, t) == ZERO  # incomparable pair


def test_two_routes_agree():
    for label, delta in [
        ("A2", None),
        ("B2", None),
        ("A3", None),
        ("G2", None),
        ("B3", None),
        ("H3", None),
        ("I2(5)", None),
        ("I2(8)", None),
        ("I2(5)xA2", None),
        ("A3", [2, 1, 0]),
        ("D4", [0, 1, 3, 2]),
        ("A4", [3, 2, 1, 0]),
        ("A5", [4, 3, 2, 1, 0]),
    ]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            assert basis.column_barfix(wid) == basis.column(wid), (label, wid)


def test_columns_bar_invariant_unitriangular_bounded():
    for label, delta in [("A3", None), ("B3", None), ("A3", [2, 1, 0])]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            vec = basis.a_vector(wid)
            assert module.bar_extended(vec) == vec
            col = {y: basis.pi(y, wid) for y in basis.column(wid)}
            assert col[wid] == ONE
            for yid, pi in col.items():
                if yid == wid:
                    continue
                gap = system.length_of(wid) - system.length_of(yid)
                assert pi.max_exp <= -1
                assert pi.min_exp >= -gap
                p = basis.sigma_kl(yid, wid)
                assert p.is_even_support() and p.min_exp >= 0
                assert p.max_exp <= gap - 1  # u-degree <= (gap-1)/2


def test_columns_hold_int_tuples():
    for label, delta in [("B3", None), ("A3", [2, 1, 0]), ("I2(5)", None)]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            for p in basis.column(wid).values():
                assert type(p) is tuple and p and p[-1]
                assert all(type(c) is int for c in p)


def test_row_division_by_one_plus_u(a2, a2_canonical):
    """(1+u) P = row + mu u^(d+1): the mu term only on descent rows of odd gap."""
    basis = a2_canonical
    s = a2.element_id_from_word([0])
    sts = a2.element_id_from_word([0, 1, 0])
    # gap 3, so deg P <= 1: (1+u)(1+2u) = 1 + 3u + 2u^2
    assert basis._solve_row((1, 3, 2), 0, sts, (1, 1), False) == ((1, 2), 0)
    # on a descent row the unknown top term comes back as mu'
    assert basis._solve_row((1, 3), 0, sts, (1, 1), True) == ((1, 2), 2)
    for row, unknown in [
        ((1, 3, 2, 5), False),  # residual above the allowed degree
        ((1, 3, 2, 0), True),   # a descent row has no u^2 term of its own
        ((1, 3), False),        # the mu' term off the descent interval
        ((1, 3, 1), True),      # a residual that is not -mu' u^2
    ]:
        with pytest.raises(RecurrenceInconsistent):
            basis._solve_row(row, 0, sts, (1, 1), unknown)
    # gap 2 has no mu', even on a descent row
    assert basis._solve_row((1, 1), s, sts, (1, 1), True) == ((1,), 0)
    with pytest.raises(RecurrenceInconsistent):
        basis._solve_row((1,), s, sts, (1, 1), True)
    # a non-commuting target divides by 1: the row is P, under the bound
    assert basis._solve_row((1, 2, 0), 0, sts, (1,), False) == ((1, 2), 0)
    with pytest.raises(RecurrenceInconsistent):
        basis._solve_row((1, 2, 3), 0, sts, (1,), False)


def test_pi_to_p_conversion_is_checked(a2, a2_canonical):
    sts = a2.element_id_from_word([0, 1, 0])
    convert = a2_canonical._p_of_pi
    assert convert(0, sts, v_pow(-3)) == (1,)
    assert convert(0, sts, v_pow(-1) + 2 * v_pow(-3)) == (2, 1)
    for bad in [v_pow(-2), v_pow(1), v_pow(-5), v_pow(-1) + v_pow(-2)]:
        with pytest.raises(RecurrenceInconsistent):  # parity, degree, negative power
            convert(0, sts, bad)


def test_mu_readouts(a2, a2_canonical):
    a1_sys, a1_mod, a1_basis = make("A1")
    s1 = a1_sys.element_id_from_word([0])
    assert a1_basis.mu_prime(0, s1) == 1
    s = a2.element_id_from_word([0])
    sts = a2.element_id_from_word([0, 1, 0])
    assert a2_canonical.mu_double_prime(s, sts) == 1
    assert a2_canonical.mu_prime(s, sts) == 0  # same parity forbids mu'
    assert a2_canonical.mu_double_prime(0, sts) == 0  # opposite parity forbids mu''


def test_mu_parity_constraints():
    system, module, basis = make("B3")
    for wid in module.involution_ids:
        for yid in module.involution_ids:
            gap = system.length_of(wid) - system.length_of(yid)
            if basis.mu_prime(yid, wid) and yid != wid:
                assert gap % 2 == 1
            if basis.mu_double_prime(yid, wid):
                assert gap % 2 == 0


def test_ms_constants_are_bar_invariant():
    system, module, basis = make("B2")
    vpv = v_pow(1) + v_pow(-1)
    seen = 0
    for wid in module.involution_ids:
        for s in range(system.rank):
            if system.is_left_descent(s, wid):
                continue
            sw = system.lmul(s, wid)
            for zid in module.involution_ids:
                if (
                    system.is_left_descent(s, zid)
                    and system.length_of(zid) < system.length_of(sw)
                    and system.bruhat_leq_ids(zid, sw)
                ):
                    m = basis.ms_constant(s, zid, wid)
                    assert m.bar() == m
                    seen += 1
    assert seen > 0


def test_cs_action_examples(a2, a2_canonical):
    s = a2.element_id_from_word([0])
    t = a2.element_id_from_word([1])
    sts = a2.element_id_from_word([0, 1, 0])
    vpv = v_pow(1) + v_pow(-1)
    assert a2_canonical.cs_action_on_A(0, s) == {s: v_pow(2) + v_pow(-2)}
    assert a2_canonical.cs_action_on_A(0, 0) == {s: vpv}
    assert a2_canonical.cs_action_on_A(0, t) == {sts: ONE, s: ONE}


def test_cs_action_closed_form_exhaustive():
    for label, delta in [("A3", None), ("B2", None), ("A3", [2, 1, 0])]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            for s in range(system.rank):
                basis.cs_action_on_A(s, wid)  # raises on mismatch


def test_domination_and_parity_against_classical():
    for label in ("A1", "A2", "A3", "B2", "B3", "G2"):
        system, module, basis = make(label)
        kl = KLTable(system)
        for wid in module.involution_ids:
            for yid in module.involution_ids:
                if not system.bruhat_leq_ids(yid, wid):
                    continue
                p = kl.kl_poly_ids(yid, wid)
                ps = basis.sigma_kl(yid, wid)
                exps = {e for e, _ in p.terms()} | {e for e, _ in ps.terms()}
                for e in exps:
                    a, b = p.coeff(e), ps.coeff(e)
                    assert (a + b) % 2 == 0 and (a - b) % 2 == 0
                    assert (a + b) // 2 >= 0 and (a - b) // 2 >= 0


def test_descent_stability():
    for label, delta in [("A3", None), ("B3", None), ("A3", [2, 1, 0])]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            for s in range(system.rank):
                if not system.is_left_descent(s, wid):
                    continue
                for yid in module.involution_ids:
                    if not system.bruhat_leq_ids(yid, wid):
                        continue
                    sy = system.lmul(s, yid)
                    if sy == system.rmul(yid, system.delta[s]):
                        other = sy
                    else:
                        other = system.rmul(sy, system.delta[s])
                    assert basis.sigma_kl(yid, wid) == basis.sigma_kl(other, wid)


def test_expand_in_A_round_trip(a2_canonical, a2_module):
    for wid in a2_module.involution_ids:
        vec = a2_canonical.a_vector(wid)
        assert a2_canonical.expand_in_A(vec) == {wid: ONE}


def test_nontrivial_entries_appear_in_rank_four():
    system, module, basis = make("A4")
    nontrivial = set()
    for wid in module.involution_ids:
        for yid in basis.column(wid):
            p = basis.sigma_kl(yid, wid)
            if not p.is_zero and p != ONE:
                nontrivial.add(str(p))
    assert nontrivial  # the table is not all ones from rank 4 on


def test_parallel_build_matches_serial():
    system = build_system("B3")
    module = InvolutionModule(system)
    serial = CanonicalBasis(module).build(jobs=1)
    parallel = CanonicalBasis(InvolutionModule(build_system("B3"))).build(jobs=4)
    for wid in module.involution_ids:
        assert serial.column(wid) == parallel.column(wid)


def test_descent_interval_covers_the_bruhat_set():
    """For every ascent s of w, _descent_interval(s, w) holds every x < sw
    with sx < x; each extra member has ms_constant zero."""
    for label, delta in [
        ("B3", None),
        ("D4", None),
        ("I2(5)xA2", None),
        ("A3", [2, 1, 0]),
        ("D4", [0, 1, 3, 2]),
        ("A5", [4, 3, 2, 1, 0]),
    ]:
        system, module, basis = make(label, delta)
        extras = 0
        for wid in module.involution_ids:
            for s in range(system.rank):
                if system.is_left_descent(s, wid):
                    continue
                sw = system.lmul(s, wid)
                got = basis._descent_interval(s, wid)
                old = [
                    x
                    for x in module.involution_ids
                    if system.is_left_descent(s, x)
                    and system.length_of(x) < system.length_of(sw)
                    and system.bruhat_leq_ids(x, sw)
                ]
                assert set(old) <= set(got), (label, wid, s)
                for xid in set(got) - set(old):
                    assert basis.ms_constant(s, xid, wid).is_zero
                    extras += 1
        assert extras > 0, label  # the extra members do occur


def test_mu_rows_and_ms_constants_match_the_pair_scan():
    """Each mu' row equals a scan of mu_prime over the Bruhat interval, and
    ms_constant equals the pull formula on every ascent and descent member."""
    for label, delta in [
        ("B3", None),
        ("D4", None),
        ("H3", None),
        ("I2(5)xA2", None),
        ("A3", [2, 1, 0]),
        ("D4", [0, 1, 3, 2]),
        ("A5", [4, 3, 2, 1, 0]),
    ]:
        system, module, basis = make(label, delta)
        nonzero = 0
        for wid in module.involution_ids:
            scan = {
                xid: mu
                for xid in module.interval(wid)
                if (mu := basis.mu_prime(xid, wid))
            }
            assert basis.mu_row(wid) == scan, (label, wid)
            for s in range(system.rank):
                if system.is_left_descent(s, wid):
                    continue
                for xid in basis._descent_interval(s, wid):
                    m = basis.ms_constant(s, xid, wid)
                    assert m == ms_constant_by_scan(basis, s, xid, wid), (
                        label, s, xid, wid
                    )
                    nonzero += not m.is_zero
        assert nonzero > 0, label
