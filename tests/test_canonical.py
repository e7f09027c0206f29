import random

import pytest

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.errors import InvariantError, RecurrenceInconsistent
from invkl.invmodule import InvolutionModule, a_vector
from invkl.klclassic import KLTable
from invkl.laurent import ONE, ZERO, q_add, q_shift, q_trim, v_pow
from invkl.packed import pack, unpack
from invkl.verify import VerificationContext, run_suites, suite_canonical_oracle

from helpers import (
    ORACLE_TYPES, ORACLE_TYPES_BUT_F4, FullRowCanonicalBasis, LaurentBarfixBasis,
    TupleCanonicalBasis, descent_interval, expand_in_A_laurent, ms_constant_by_scan,
    mu_double_prime, mu_prime, solve_row_tuples,
)


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
    """The recursion equals the LaurentPoly bar-fix oracle."""
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
        oracle = LaurentBarfixBasis(InvolutionModule(system))
        for wid in module.involution_ids:
            assert oracle.column_barfix(wid) == basis.column(wid), (label, wid)


def test_columns_bar_invariant_unitriangular_bounded():
    for label, delta in [("A3", None), ("B3", None), ("A3", [2, 1, 0])]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            vec = a_vector(basis, wid)
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


def test_columns_hold_packed_ints():
    for label, delta in [("B3", None), ("A3", [2, 1, 0]), ("I2(5)", None)]:
        system, module, basis = make(label, delta)
        for wid in module.involution_ids:
            for yid, p in basis.column(wid).items():
                gap = system.length_of(wid) - system.length_of(yid)
                coeffs = unpack(p)
                assert type(p) is int and p and pack(coeffs) == p
                assert coeffs[0] == 1 and 2 * len(coeffs) <= gap + 1 or gap == 0


def test_row_division_by_one_plus_u(a2, a2_canonical):
    """(1+u) P = row + mu u^(d+1): the mu term only at an odd gap.

    A solved row of a commuting target has s as a left descent, so at an
    odd gap it may carry mu'; a non-commuting target divides by 1.  Each
    case runs on the packed route (``_solve_row``) and on the tuple oracle
    (``solve_row_tuples``), which must agree, errors included.
    """
    basis = a2_canonical
    s = a2.element_id_from_word([0])
    sts = a2.element_id_from_word([0, 1, 0])
    gaps = {0: 3, s: 2}

    def both(row, yid, commuting):
        den = (1, 1) if commuting else (1,)
        want = solve_row_tuples(row, gaps[yid], den, commuting)
        got = basis._solve_row(pack(row), yid, sts, commuting)
        assert got == (pack(want[0]), want[1])
        return want

    def rejected(row, yid, commuting):
        den = (1, 1) if commuting else (1,)
        with pytest.raises(RecurrenceInconsistent):
            solve_row_tuples(row, gaps[yid], den, commuting)
        with pytest.raises(RecurrenceInconsistent):
            basis._solve_row(pack(row), yid, sts, commuting)

    # gap 3, so deg P <= 1: the unknown top term comes back as mu'
    assert both((1, 3), 0, True) == ((1, 2), 2)
    for row in [
        (1, 3, 2, 5),  # residual above the allowed degree
        (1, 3, 2),     # a row with a u^2 term of its own: (1+u)(1+2u) has no mu'
        (1, 3, 1),     # a residual that is not -mu' u^2
    ]:
        rejected(row, 0, True)
    # gap 2 has no mu'
    assert both((1, 1), s, True) == ((1,), 0)
    rejected((1,), s, True)
    # a non-commuting target divides by 1: the row is P, under the bound
    assert both((1, 2, 0), 0, False) == ((1, 2), 0)
    rejected((1, 2, 3), 0, False)


def test_pi_to_p_conversion_is_checked(a2, a2_module):
    """The checked conversion of the LaurentPoly bar-fix oracle."""
    sts = a2.element_id_from_word([0, 1, 0])
    convert = LaurentBarfixBasis(a2_module)._p_of_pi
    assert convert(0, sts, v_pow(-3)) == pack((1,))
    assert convert(0, sts, v_pow(-1) + 2 * v_pow(-3)) == pack((2, 1))
    for bad in [v_pow(-2), v_pow(1), v_pow(-5), v_pow(-1) + v_pow(-2)]:
        with pytest.raises(RecurrenceInconsistent):  # parity, degree, negative power
            convert(0, sts, bad)


def test_mu_readouts(a2, a2_canonical):
    a1_sys, a1_mod, a1_basis = make("A1")
    s1 = a1_sys.element_id_from_word([0])
    assert mu_prime(a1_basis, 0, s1) == 1
    s = a2.element_id_from_word([0])
    sts = a2.element_id_from_word([0, 1, 0])
    assert mu_double_prime(a2_canonical, s, sts) == 1
    assert mu_prime(a2_canonical, s, sts) == 0  # same parity forbids mu'
    assert mu_double_prime(a2_canonical, 0, sts) == 0  # opposite parity forbids mu''


def test_mu_parity_constraints():
    system, module, basis = make("B3")
    for wid in module.involution_ids:
        for yid in module.involution_ids:
            gap = system.length_of(wid) - system.length_of(yid)
            if mu_prime(basis, yid, wid) and yid != wid:
                assert gap % 2 == 1
            if mu_double_prime(basis, yid, wid):
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
                    m = basis.ms_constants(s, wid).get(zid, ZERO)
                    assert m.bar() == m
                    seen += 1
    assert seen > 0


def test_cs_action_examples(a2, a2_canonical):
    s = a2.element_id_from_word([0])
    t = a2.element_id_from_word([1])
    sts = a2.element_id_from_word([0, 1, 0])
    vpv = v_pow(1) + v_pow(-1)

    def cs_on_a(wid):
        m = a2_canonical.module.cs_action(0, a_vector(a2_canonical, wid))
        return expand_in_A_laurent(a2_canonical, m)

    assert cs_on_a(s) == {s: v_pow(2) + v_pow(-2)}
    assert cs_on_a(0) == {s: vpv}
    assert cs_on_a(t) == {sts: ONE, s: ONE}


def test_cs_action_closed_form_exhaustive():
    for label, delta in [("A3", None), ("B2", None), ("A3", [2, 1, 0])]:
        system = build_system(label, delta=delta)
        res = run_suites(system, ["cs-action"])[0]
        assert res.ok() and res.checks == system.rank * len(
            system.twisted_involution_ids()
        ), label


def test_cs_action_suite_reports_a_wrong_expansion(monkeypatch):
    """A wrong ms constant is a failure record {s, w, error} of each pair
    that reads it, not a raise, naming the a-basis row that differs."""
    system = build_system("B3")
    ms_constants = CanonicalBasis.ms_constants

    def shifted(self, s, wid):
        out = dict(ms_constants(self, s, wid))
        if s == 0 and wid == 0:
            out[0] = ONE
        return out

    monkeypatch.setattr(CanonicalBasis, "ms_constants", shifted)
    res = run_suites(system, ["cs-action"])[0]
    assert res.checks == 3 * len(system.twisted_involution_ids())
    assert [(f["s"], f["w"]) for f in res.failures] == [(0, [])]
    assert res.failures[0]["error"].startswith(
        "c_s A_w differs from its closed form at a_y, y = ()"
    )


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
        vec = a_vector(a2_canonical, wid)
        assert expand_in_A_laurent(a2_canonical, vec) == {wid: ONE}


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


def test_ms_constants_lie_on_the_bruhat_set():
    """For every ascent s of w, ms_constants(s, w) is supported on the
    x < sw with sx < x, decided by ``bruhat_leq_ids``."""
    for label, delta in [
        ("B3", None),
        ("D4", None),
        ("I2(5)xA2", None),
        ("A3", [2, 1, 0]),
        ("D4", [0, 1, 3, 2]),
        ("A5", [4, 3, 2, 1, 0]),
    ]:
        system, module, basis = make(label, delta)
        nonzero = 0
        for wid in module.involution_ids:
            for s in range(system.rank):
                if system.is_left_descent(s, wid):
                    continue
                sw = module.action_case(s, wid)[2]
                for xid in basis.ms_constants(s, wid):
                    assert system.is_left_descent(s, xid), (label, wid, s, xid)
                    assert system.length_of(xid) < system.length_of(sw)
                    assert system.bruhat_leq_ids(xid, sw), (label, wid, s, xid)
                    nonzero += 1
        assert nonzero > 0, label


@pytest.mark.parametrize(
    "label, delta", [("B3", None), ("H3", None), ("F4", None), ("A3", [2, 1, 0])]
)
def test_ms_constants_are_empty_at_a_descent(label, delta):
    """c_s A_w = (v^2 + v^-2) A_w for a left descent s of w, so every such
    pair has no ms_constant."""
    system, module, basis = make(label, delta)
    pairs = 0
    for wid in module.involution_ids:
        for s in system.left_descents(wid):
            assert basis.ms_constants(s, wid) == {}, (label, wid, s)
            pairs += 1
    assert pairs > 0


def test_mu_rows_and_ms_constants_match_the_pair_scan():
    """Each mu' row equals a scan of mu' over the Bruhat interval, and
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
                if (mu := mu_prime(basis, xid, wid))
            }
            assert basis.mu_row(wid) == scan, (label, wid)
            for s in range(system.rank):
                if system.is_left_descent(s, wid):
                    continue
                members = descent_interval(basis, s, wid)
                assert set(basis.ms_constants(s, wid)) <= set(members)
                for xid in members:
                    m = basis.ms_constants(s, wid).get(xid, ZERO)
                    assert m == ms_constant_by_scan(basis, s, xid, wid), (
                        label, s, xid, wid
                    )
                    nonzero += not m.is_zero
        assert nonzero > 0, label


@pytest.mark.parametrize("label, delta", ORACLE_TYPES)
def test_packed_columns_equal_the_tuple_oracle(label, delta):
    """Every packed column and mu' row equals the q-tuple recursion's."""
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)
    packed = CanonicalBasis(module).build()
    oracle = TupleCanonicalBasis(module).build()
    for wid in module.involution_ids:
        want = {yid: pack(p) for yid, p in oracle.column(wid).items()}
        assert packed.column(wid) == want, (label, wid)
        assert packed.mu_row(wid) == oracle.mu_row(wid), (label, wid)


@pytest.mark.parametrize(
    "label, delta, max_length",
    [("E6", [5, 1, 4, 3, 2, 0], 20), ("I2(7)", None, None)],
)
def test_capped_and_dihedral_columns_equal_the_tuple_oracle(label, delta, max_length):
    """The packed columns and mu' rows equal the q-tuple recursion's on
    twisted E6 below a length cap and on the dihedral group I2(7)."""
    module = InvolutionModule(build_system(label, delta=delta), max_length)
    packed = CanonicalBasis(module).build()
    oracle = TupleCanonicalBasis(module).build()
    assert len(module.involution_ids) > 7
    for wid in module.involution_ids:
        want = {yid: pack(p) for yid, p in oracle.column(wid).items()}
        assert packed.column(wid) == want, (label, wid)
        assert packed.mu_row(wid) == oracle.mu_row(wid), (label, wid)


@pytest.mark.parametrize(
    "label, delta, max_length",
    [
        ("F4", None, None), ("D5", [0, 1, 2, 4, 3], None), ("E6", None, None),
        ("E6", [5, 1, 4, 3, 2, 0], None), ("A3", [2, 1, 0], None),
        ("A4", [3, 2, 1, 0], None), ("D4", [0, 1, 3, 2], None), ("H3", None, None),
        ("I2(5)", None, None), ("H4", None, 30),
    ],
)
def test_copied_rows_equal_the_full_row_oracle(label, delta, max_length):
    """Every column and mu' row of the build, which copies each row that
    ascends a left descent of its target, equals the recursion that solves
    every row; some rows are copied and some solved on every system."""
    module = InvolutionModule(build_system(label, delta=delta), max_length)
    built = CanonicalBasis(module).build()
    oracle = FullRowCanonicalBasis(module).build()
    solved = sum(len(_solved_rows(module, z)) for z in module.involution_ids)
    rows = sum(len(module.interval(z)) - 1 for z in module.involution_ids)
    assert 0 < solved < rows, label
    for wid in module.involution_ids:
        assert built.column(wid) == oracle.column(wid), (label, wid)
        assert built.mu_row(wid) == oracle.mu_row(wid), (label, wid)


def _solved_rows(module, zid):
    """The rows y < z that the build solves: every left descent of z is one
    of y.  The other rows copy a longer row of column z."""
    system = module.system
    on_z = set(system.left_descents(zid))
    return [
        y for y in reversed(module.interval(zid)[:-1])
        if on_z <= set(system.left_descents(y))
    ]


def _bad_row(module, commuting):
    """(z, w, y0, first, unread): a target z of the given kind, w its partner
    under its smallest left descent s, a y0 < w with l(w) - l(y0) >= 3 whose
    s-case is (commuting, ascending) when z is commuting, ``first``, the
    top-most solved row of z that reads P(y0, w) (y0 itself or a row
    partnered with it), and ``unread``, every other such y0 that no solved
    row of z reads (some exist)."""
    system = module.system
    length = system.length_of
    for zid in module.involution_ids:
        s = min(system.left_descents(zid), default=None)
        if s is None or module.action_case(s, zid)[0] != commuting:
            continue
        wid = module.action_case(s, zid)[2]
        read = {}   # y0 -> the first solved row of z that reads P(y0, w)
        for y in _solved_rows(module, zid):
            for y0 in (y, module.action_case(s, y)[2]):
                read.setdefault(y0, y)
        candidates = [
            y0 for y0 in module.interval(wid)
            if length(wid) - length(y0) >= 3
            and (not commuting or module.action_case(s, y0)[:2] == (True, True))
        ]
        unread = [y0 for y0 in candidates if y0 not in read]
        y0 = next((y0 for y0 in candidates if y0 in read), None)
        if y0 is not None and unread:
            return zid, wid, y0, read[y0], unread
    raise AssertionError("no such target")


@pytest.mark.parametrize("commuting", [False, True])
def test_build_raises_on_a_bad_row(commuting):
    """A stored column perturbed under the recursion makes ``build()`` stop
    at the first solved row that reads it, with that row's error and
    message: a term above the degree bound is RecurrenceInconsistent, a
    coefficient of 2^40 (times 1 + u on a commuting target, so the division
    keeps it) an InvariantError for the slot bound.  The perturbations stay
    off the mu' and mu'' slots, so the known parts are the true ones.  The
    same perturbation of an entry that no solved row of z reads leaves
    column z as it was, and canonical-oracle reports it at w and nowhere
    else."""
    system = build_system("B4")
    word = system.word_of
    clean = CanonicalBasis(InvolutionModule(system)).build()
    ctx = VerificationContext(system)
    ctx._module, ctx._canonical = clean.module, clean
    assert suite_canonical_oracle(ctx).ok()
    for bump, error in ((None, RecurrenceInconsistent), (2**40, InvariantError)):
        module = InvolutionModule(system)
        zid, wid, y0, first, unread = _bad_row(module, commuting)
        basis = CanonicalBasis(module)
        ids = module.involution_ids
        for xid in ids[: ids.index(zid)]:
            basis.column(xid)
        if bump is None:   # u^l(z): above every degree bound of column z
            bump = pack((0,) * system.length_of(zid) + (1,))
        basis.column(wid)[y0] = basis.column(wid).get(y0, 0) + bump
        with pytest.raises(error) as info:
            basis.build()
        gap = system.length_of(zid) - system.length_of(first)
        if error is RecurrenceInconsistent:
            how = "divided by 1 + u" if commuting else "as they stand"
            assert str(info.value).startswith(
                f"row {word(first)} of column {word(zid)}: u-coefficients ("
            )
            assert str(info.value).endswith(
                f") have no solution {how} under the degree bound {(gap - 1) // 2}"
            )
        else:
            assert not isinstance(info.value, RecurrenceInconsistent)
            assert str(info.value) == (
                f"P({word(first)}, {word(zid)}) has a coefficient of more than "
                "the packed table's signed bits"
            )
        assert zid not in basis._columns
        col_w = clean.column(wid)
        for y1 in unread:
            p = col_w.get(y1, 0)
            col_w[y1] = p + bump
            ctx._a_vectors.clear()
            try:
                assert clean.column_recursive(zid) == clean.column(zid), (zid, y1)
                failed_at = {tuple(f["w"]) for f in suite_canonical_oracle(ctx).failures}
                assert failed_at == {tuple(word(wid))}, (wid, y1)
            finally:
                if p:
                    col_w[y1] = p
                else:
                    del col_w[y1]
        ctx._a_vectors.clear()


def test_corrupted_columns_fail_alike_on_both_routes():
    """A perturbed finished column makes the packed and the tuple recursion
    fail with the same error class at the same column, or agree on the rest
    of the table; both routes copy and solve the same rows, on twisted
    systems too, and both outcomes occur."""
    rng = random.Random(17)
    outcomes = set()
    for label, delta in (
        ("B3", None), ("A4", None), ("D4", None), ("A3", [2, 1, 0]), ("D4", [0, 1, 3, 2]),
    ):
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        for _ in range(8):
            wid = rng.choice([
                w for w in module.involution_ids if 2 <= system.length_of(w) <= 4
            ])
            yid = rng.choice([y for y in module.interval(wid) if y != wid])
            bump = q_shift((rng.choice([-1, 1, 2]),), rng.randint(0, 3))
            results = []
            for cls, read, write in (
                (CanonicalBasis, unpack, pack),
                (TupleCanonicalBasis, tuple, tuple),
            ):
                basis = cls(module)
                col = basis.column(wid)
                col[yid] = write(q_trim(q_add(read(col[yid]), bump)))
                try:
                    basis.build()
                except InvariantError as exc:
                    results.append((type(exc), frozenset(basis._columns)))
                else:
                    results.append({
                        w: {y: read(p) for y, p in basis.column(w).items()}
                        for w in module.involution_ids
                    })
            assert results[0] == results[1], (label, wid, yid, bump)
            outcomes.add(results[0][0] if isinstance(results[0], tuple) else "table")
    assert outcomes == {RecurrenceInconsistent, "table"}


@pytest.mark.parametrize("label, delta", [("F4", None), ("E6", (5, 1, 4, 3, 2, 0))])
def test_the_build_spells_no_word_under_the_budget(label, delta, monkeypatch):
    """The budget guard spells a column's word only for its message: a build
    that stays under the budget never calls ``word_of``."""
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)

    def banned(wid):
        raise AssertionError("word_of called by the canonical build")

    monkeypatch.setattr(system, "word_of", banned)
    assert len(CanonicalBasis(module).build().column(module.involution_ids[-1])) > 1


def test_overflow_guard_raises_instead_of_carrying(a2, a2_canonical, monkeypatch):
    """An oversized mu' or an oversized coefficient raises InvariantError:
    the guard stops before a slot could carry into its neighbour."""
    sts = a2.element_id_from_word([0, 1, 0])
    # a solution with a coefficient beyond the signed slot bound
    with pytest.raises(InvariantError, match="signed bits") as info:
        a2_canonical._solve_row(pack((2**40,)), 0, sts, False)
    assert not isinstance(info.value, RecurrenceInconsistent)
    # known parts of ms_constant (mu' combinations) of 2^40 would push the
    # next column past the budget
    system, module, _ = make("B3")
    basis = CanonicalBasis(module)
    zid = next(w for w in module.involution_ids if system.length_of(w) == 3)
    s = system.left_descents(zid)[0]
    wid = module.action_case(s, zid)[2]
    members = descent_interval(basis, s, wid)
    assert members
    monkeypatch.setattr(
        basis, "_known_parts", lambda t, w: dict.fromkeys(members, 2**40)
    )
    # the message spells the word of the column that stops
    with pytest.raises(InvariantError, match=r"^column \(\d+(, \d+)*,?\): .* carry"):
        basis.column(zid)


@pytest.mark.parametrize("label, delta", ORACLE_TYPES_BUT_F4)
def test_packed_barfix_equals_the_laurent_barfix(label, delta):
    """The packed columns of the recursion equal the LaurentPoly bar-fix
    over its own bar table everywhere (F4 is left out: its LaurentPoly
    bar-fix takes seconds)."""
    system = build_system(label, delta=delta)
    packed = CanonicalBasis(InvolutionModule(system))
    oracle = LaurentBarfixBasis(InvolutionModule(system))
    for wid in packed.module.involution_ids:
        assert oracle.column_barfix(wid) == packed.column(wid), (label, wid)


@pytest.mark.parametrize("label, delta", ORACLE_TYPES)
def test_packed_expansion_equals_the_dict_route(label, delta):
    """c_s A_w, formed on packed ints, expands by the dict route
    (``expand_unitriangular`` over LaurentPoly entries) into the closed form
    that the cs-action suite compares in the a-basis: (v^2 + v^-2) A_w for
    a descent, else the partner (times v + v^-1 when s commutes) plus
    ``ms_constants(s, w)``."""
    system, module, basis = make(label, delta)
    for wid in module.involution_ids:
        for s in range(system.rank):
            commuting, up, other = module.action_case(s, wid)
            if up:
                want = {other: v_pow(1) + v_pow(-1) if commuting else ONE}
                want.update(basis.ms_constants(s, wid))
            else:
                want = {wid: v_pow(2) + v_pow(-2)}
            m = module.cs_action(s, a_vector(basis, wid))
            assert expand_in_A_laurent(basis, m) == want, (label, wid, s)
