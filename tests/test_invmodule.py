import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import (
    ORACLE_TYPES, ORACLE_TYPES_BUT_F4, LaurentBar, add_laurent,
    bar_extended_exponent_map, bar_extended_pairwise, bar_table_per_pair,
    evaluate, scaled_laurent, sub_laurent, solve_exact, ts_action_laurent,
)

from invkl import build_system, verify
from invkl.errors import InvariantError, NotDivisible
from invkl.canonical import CanonicalBasis
from invkl.involutions import Involutions
from invkl.invmodule import InvolutionModule, MVector, a_vector, table_vector
from invkl.verify import bar_table_dense_solve
from invkl.laurent import LaurentPoly, ONE, ZERO, u_pow, v_pow
from invkl.packed import COEFF_BITS, pack

U = u_pow(1)


def even_poly(rng):
    p = ZERO
    for _ in range(3):
        p = p + LaurentPoly((rng.randint(-4, 4),), 2 * rng.randint(-3, 3))
    return p


def rand_vector(module, rng):
    return MVector(
        {
            w: even_poly(rng)
            for w in module.involution_ids
            if rng.random() < 0.7
        }
    )


def test_action_cases(a2, a2_module):
    s = a2.element_id_from_word([0])
    t = a2.element_id_from_word([1])
    sts = a2.element_id_from_word([0, 1, 0])
    assert a2_module.ts_action(0, a2_module.basis(0)) == MVector(
        {0: U, s: U + ONE}
    )
    assert a2_module.ts_action(0, a2_module.basis(t)) == MVector({sts: ONE})
    assert a2_module.ts_action(0, a2_module.basis(sts)) == MVector(
        {sts: u_pow(2) - ONE, t: u_pow(2)}
    )
    # descending commuting case on a_s
    assert a2_module.ts_action(0, a2_module.basis(s)) == MVector(
        {s: u_pow(2) - U - ONE, 0: u_pow(2) - U}
    )


def test_action_is_linear_and_word_independent(a2, a2_module):
    """T_w folded from ``ts_action`` over either reduced word of the longest
    element gives one vector."""

    def along(word, m):
        for s in reversed(word):
            m = a2_module.ts_action(s, m)
        return m

    rng = random.Random(2024)
    sts = a2.element_id_from_word([0, 1, 0])
    tst = a2.element_id_from_word([1, 0, 1])
    assert sts == tst
    for _ in range(10):
        m = rand_vector(a2_module, rng)
        assert along((), m) == m  # T_1
        via_st = a2_module.ts_action(0, a2_module.ts_action(1, m))
        assert along(a2.word_of(a2.element_id_from_word([0, 1])), m) == via_st
        assert along(a2.word_of(sts), m) == along((0, 1, 0), m) == along((1, 0, 1), m)


def test_quadratic_and_braid_on_basis():
    for label, delta in [("A3", None), ("B2", None), ("G2", None), ("A3", [2, 1, 0])]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        uu = u_pow(2)
        for wid in module.involution_ids:
            m = module.basis(wid)
            for s in range(system.rank):
                ts = module.ts_action(s, m)
                quad = module.ts_action(s, ts) - ts.scaled(uu - ONE) - m.scaled(uu)
                assert quad.is_zero
            for s in range(system.rank):
                for t in range(s + 1, system.rank):
                    a, b = m, m
                    for k in range(system.coxeter_matrix[s][t]):
                        a = module.ts_action(s if k % 2 == 0 else t, a)
                        b = module.ts_action(t if k % 2 == 0 else s, b)
                    assert a == b


def test_bar_base_cases(a2_module):
    assert a2_module.bar_basis(0) == MVector.basis(0)
    a1 = build_system("A1")
    mod = InvolutionModule(a1)
    s = a1.element_id_from_word([0])
    assert mod.bar_basis(s) == MVector(
        {s: u_pow(-1), 0: u_pow(-1) - ONE}
    )


def test_bar_diagonal_and_support():
    for label, delta in [("A3", None), ("B3", None), ("A3", [2, 1, 0])]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        for wid in module.involution_ids:
            bw = module.bar_basis(wid)
            assert bw.get(wid) == u_pow(-system.length_of(wid))
            for yid in bw.entries:
                assert system.bruhat_leq_ids(yid, wid)
                assert bw.get(yid).is_even_support()


def test_bar_is_involutive(a2_module):
    for wid in a2_module.involution_ids:
        assert a2_module.bar_mvector(a2_module.bar_basis(wid)) == MVector.basis(wid)
    rng = random.Random(99)
    for _ in range(15):
        m = rand_vector(a2_module, rng)
        assert a2_module.bar_mvector(a2_module.bar_mvector(m)) == m


def test_bar_semilinearity(a2_module):
    # bar(u a_1) = u^-1 a_1 since a_1 is fixed
    assert a2_module.bar_mvector(MVector({0: U})) == MVector({0: u_pow(-1)})


def test_bar_intertwines_generators():
    rng = random.Random(31415)
    for label, delta in [("A2", None), ("B2", None), ("A3", [2, 1, 0])]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        for _ in range(10):
            m = rand_vector(module, rng)
            bm = module.bar_mvector(m)
            for s in range(system.rank):
                lhs = module.bar_mvector(module.ts_action(s, m) + m)
                rhs = (module.ts_action(s, bm) + bm).scaled(u_pow(-2))
                assert lhs == rhs


def test_bar_descent_choice_independent():
    """The bar step along every left descent gives the stored column, and
    the LaurentPoly recursion along that descent gives its view."""
    for label, delta in [("A3", None), ("B3", None), ("G2", None), ("A3", [2, 1, 0]), ("I2(5)", None)]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        oracle = LaurentBar(module)
        for wid in module.involution_ids:
            default = module.bar_basis(wid)
            for s in system.left_descents(wid):
                assert module._bar_step(wid, s) == module.bar_column(wid)
                assert oracle.bar_basis(wid, choice=s) == default


def test_bar_step_along_an_ascent_fails_its_checks():
    """A bar step along a generator that is not a left descent of w breaks
    the diagonal or the division by 1 + u, and raises."""
    for label, delta in [("A2", None), ("B3", None), ("A3", [2, 1, 0])]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        ascents = 0
        for wid in module.involution_ids:
            for s in set(range(system.rank)) - set(system.left_descents(wid)):
                with pytest.raises(InvariantError):
                    module._bar_step(wid, s)
                ascents += 1
        assert ascents


def test_bar_input_must_live_over_u(a2_module):
    odd = MVector({0: LaurentPoly((1,), 1)})
    with pytest.raises(InvariantError):
        a2_module.bar_mvector(odd)


def test_dense_solve_oracle_matches():
    """One elimination per column gives the table of the per-pair solve and
    of the recursion."""
    for label, delta in [
        ("A1", None),
        ("A2", None),
        ("B2", None),
        ("G2", None),
        ("A3", None),
        ("B3", None),
        ("H3", None),
        ("I2(5)", None),
        ("A3", [2, 1, 0]),
        ("D4", None),
    ]:
        system = build_system(label, delta=delta)
        module = InvolutionModule(system)
        table = bar_table_dense_solve(module)
        per_pair = bar_table_per_pair(module)
        for wid in module.involution_ids:
            assert table[wid] == per_pair[wid] == module.bar_basis(wid), (label, wid)


def test_dense_solve_never_reads_the_recursion(monkeypatch):
    """The oracle never calls bar_basis and runs exactly one elimination per
    non-identity column."""
    module = InvolutionModule(build_system("B3"))
    widths = []
    solve_columns = verify._solve_columns

    def counting_solve(rows, width, keys):
        widths.append(width)
        return solve_columns(rows, width, keys)

    def no_recursion(self, wid):
        raise AssertionError("bar_basis read by the dense solve")

    monkeypatch.setattr(InvolutionModule, "bar_basis", no_recursion)
    monkeypatch.setattr(verify, "_solve_columns", counting_solve)
    table = bar_table_dense_solve(module)
    monkeypatch.undo()
    assert len(widths) == len(module.involution_ids) - 1
    for wid in module.involution_ids:
        assert table[wid] == module.bar_basis(wid)


def test_dense_solve_window_too_small_fails_like_the_per_pair_solve():
    """With the window cut below the support of bar(a_s), both routes
    report the same column and row."""
    module = InvolutionModule(build_system("B3"))
    messages = []
    for solve in (bar_table_dense_solve, bar_table_per_pair):
        with pytest.raises(InvariantError) as err:
            solve(module, pad=-1)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("bar constraints are not uniquely solvable at column")


def test_solve_columns_inconsistent_rhs_fails_that_key_only():
    rows = [
        ([1, 0], {"a": 1, "b": 2}),
        ([1, 1], {"a": 3, "b": 5, "c": 1}),
        ([0, 1], {"a": 2, "b": 4, "c": 1}),  # b: x1 = 3 above, 4 here
        ([0, 0], {"c": 1}),  # a term no unknown can reach
    ]
    solutions, failures = verify._solve_columns(rows, 2, ["a", "b", "c", "d"])
    assert solutions == {"a": [1, 2], "d": [0, 0]}
    assert failures == dict.fromkeys("bc", verify._UNSOLVABLE)


def test_solve_columns_rank_deficient_fails_every_key():
    rows = [([1, 1], {"a": 2}), ([2, 2], {"a": 4, "b": 1}), ([3, 3], {})]
    solutions, failures = verify._solve_columns(rows, 2, ["a", "b", "c"])
    assert solutions == {}
    assert failures == dict.fromkeys("abc", verify._UNSOLVABLE)


def test_solve_columns_rejects_a_non_integer_solution():
    rows = [([2, 1], {"a": 1, "b": 4}), ([0, 1], {"b": 2})]
    solutions, failures = verify._solve_columns(rows, 2, ["a", "b"])
    assert solutions == {"b": [1, 2]}
    assert failures == {"a": verify._NON_INTEGER}


def _solved_by_fractions(rows, width, keys):
    """What ``_solve_columns`` should return, one ``solve_exact`` per key."""
    solutions, failures = {}, {}
    for key in keys:
        sol = solve_exact([coef for coef, _rhs in rows],
                          [rhs.get(key, 0) for _coef, rhs in rows])
        if sol is None or len(sol) < width:
            failures[key] = verify._UNSOLVABLE
        elif any(x.denominator != 1 for x in sol):
            failures[key] = verify._NON_INTEGER
        else:
            solutions[key] = [int(x) for x in sol]
    return solutions, failures


@pytest.mark.parametrize(
    "label, delta",
    [("A2", None), ("B2", None), ("A3", None), ("B3", None), ("G2", None),
     ("H3", None), ("I2(5)", None), ("I2(8)", None), ("A3", (2, 1, 0))],
)
def test_integer_solve_equals_the_fraction_solve_on_the_bar_systems(
    label, delta, monkeypatch
):
    """Every system the bar oracle solves, solved over Z, equals the
    ``Fraction`` Gauss-Jordan solve key by key."""
    systems = []
    solve_columns = verify._solve_columns

    def recording(rows, width, keys):
        systems.append((rows, width, keys))
        return solve_columns(rows, width, keys)

    monkeypatch.setattr(verify, "_solve_columns", recording)
    module = InvolutionModule(build_system(label, delta=delta))
    bar_table_dense_solve(module)
    assert len(systems) == len(module.involution_ids) - 1
    for rows, width, keys in systems:
        want = _solved_by_fractions(rows, width, keys)
        assert solve_columns(rows, width, keys) == want


def test_integer_solve_equals_the_fraction_solve_on_built_systems():
    """Singular systems, inconsistent and non-integer keys, and pivots
    other than +-1, on random integer systems with a known solution."""
    rng = random.Random(1968)
    kinds = set()
    for trial in range(200):
        width = rng.randint(1, 5)
        height = width + rng.randint(0, 3)
        rank = width if trial % 4 else rng.randint(0, width - 1)
        # a product through a rank-wide middle, so some systems are singular
        left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(height)]
        right = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(rank)]
        coefs = [
            [sum(row[k] * right[k][j] for k in range(rank)) for j in range(width)]
            for row in left
        ]
        rhs = [{} for _ in range(height)]
        for key in range(4):
            x = [rng.randint(-5, 5) for _ in range(width)]
            for i, coef in enumerate(coefs):
                rhs[i][key] = sum(a * b for a, b in zip(coef, x))
            rhs[rng.randrange(height)][key] += key % 2 * rng.randint(1, 2)
        rows = list(zip(coefs, rhs))
        got = verify._solve_columns(rows, width, range(4))
        assert got == _solved_by_fractions(rows, width, range(4)), rows
        kinds.update(got[1].values())
        kinds.update("integer" for _key in got[0])
    assert kinds == {"integer", verify._UNSOLVABLE, verify._NON_INTEGER}


def _v_extended_poly(rng):
    """Odd and even exponents, negative and above-2^64 coefficients."""
    p = ZERO
    for _ in range(rng.randint(1, 4)):
        big = rng.choice((1, -1)) * rng.randint(2**64, 2**70)
        c = rng.choice([rng.randint(-5, 5), big])
        p = p + LaurentPoly((c,), rng.randint(-7, 7))
    return p


@pytest.mark.parametrize(
    "label, delta", [("B3", None), pytest.param("A3", (2, 1, 0), id="A3-twisted")]
)
def test_bar_extended_matches_the_pairwise_oracle(label, delta):
    """One accumulation pass per row gives the pairwise sum, and stores no
    entry whose terms cancel to zero."""
    module = InvolutionModule(build_system(label, delta=delta))
    ids = module.involution_ids
    rng = random.Random(4606)
    for trial in range(40):
        x = MVector(
            {w: _v_extended_poly(rng) for w in rng.sample(ids, rng.randint(1, 3))}
        )
        # bar(bar(x)) = x, so every row outside x's support cancels to zero
        for m in (x, bar_extended_pairwise(module, x)):
            got = module.bar_extended(m)
            assert got == bar_extended_pairwise(module, m), (label, trial)
            assert all(not f.is_zero for f in got.entries.values())
        assert module.bar_extended(bar_extended_pairwise(module, x)) == x


def test_specialization_coherence(a2_module):
    # substituting v = 3/2 (so u = 9/4) into the generic action reproduces
    # the case formulas run directly with the scalar q = 9/4
    from fractions import Fraction

    q = Fraction(9, 4)
    for wid in a2_module.involution_ids:
        for s in range(2):
            generic = a2_module.ts_action(s, a2_module.basis(wid))
            commuting, up, other = a2_module.action_case(s, wid)
            if commuting and up:
                expected = {wid: q, other: q + 1}
            elif commuting:
                expected = {wid: q * q - q - 1, other: q * q - q}
            elif up:
                expected = {other: Fraction(1)}
            else:
                expected = {wid: q * q - 1, other: q * q}
            got = {
                y: evaluate(f, Fraction(3, 2))
                for y, f in generic.entries.items()
            }
            got = {y: val for y, val in got.items() if val}
            assert got == {y: val for y, val in expected.items() if val}


@pytest.mark.parametrize(
    "label, delta",
    [
        ("A1", None),
        ("A2", None),
        ("A3", None),
        ("A4", None),
        ("B2", None),
        ("B3", None),
        ("D4", None),
        ("G2", None),
        ("F4", None),
        ("I2(5)", None),
        ("H3", None),
        pytest.param("A2", (1, 0), id="A2-twisted"),
        pytest.param("A3", (2, 1, 0), id="A3-twisted"),
        pytest.param("D4", (0, 1, 3, 2), id="D4-twisted"),
        pytest.param("A5", (4, 3, 2, 1, 0), id="A5-twisted"),
        pytest.param("D5", (0, 1, 2, 4, 3), id="D5-twisted"),
        pytest.param("E6", (5, 1, 4, 3, 2, 0), id="E6-twisted"),
    ],
)
def test_action_table_matches_products(label, delta):
    """The walk's T_s case table against a derivation from products: it has
    one entry per generator and involution, and no other."""
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)
    assert len(module.cases) == system.rank
    for table in module.cases:
        assert set(table) == set(module.involution_ids)
    for wid in module.involution_ids:
        for s in range(system.rank):
            assert module.action_case(s, wid) == _case_by_products(system, s, wid)


def _case_by_products(system, s, wid):
    """(commuting, up, partner) of the T_s case of w, from lmul and rmul."""
    sw = system.lmul(s, wid)
    up = system.length_of(sw) > system.length_of(wid)
    ds = system.delta[s]
    commuting = sw == system.rmul(wid, ds)
    return commuting, up, sw if commuting else system.rmul(sw, ds)


@pytest.mark.parametrize(
    "label, delta, cap",
    [
        pytest.param("A3", (2, 1, 0), 3, id="A3-twisted"),
        ("B3", None, 4),
        pytest.param("D4", (0, 1, 3, 2), 5, id="D4-twisted"),
        ("F4", None, 8),
        ("H3", None, 7),
        ("I2(5)", None, 2),
        ("E6", None, 6),
    ],
)
def test_the_index_reads_the_products_and_a_capped_walk_restricts_it(label, delta, cap):
    """On the full index and on one capped at ``cap``, every descent mask,
    case and partner equals what ``is_left_descent``, ``lmul`` and ``rmul``
    give; and the capped index is the full one restricted to the involutions
    of length at most ``cap``: the same ids, cases and intervals."""
    system = build_system(label, delta=delta)
    full, capped = Involutions(system), Involutions(system, cap)
    for index in (full, capped):
        for wid in index.involution_ids:
            assert index.descent_masks[wid] == sum(
                1 << s for s in range(system.rank) if system.is_left_descent(s, wid)
            )
            for s in range(system.rank):
                assert index.cases[s][wid] == _case_by_products(system, s, wid)
    kept = tuple(w for w in full.involution_ids if system.length_of(w) <= cap)
    assert capped.involution_ids == kept and len(kept) < len(full.involution_ids)
    for s in range(system.rank):
        assert capped.cases[s] == {w: full.cases[s][w] for w in kept}
    for wid in kept:
        assert capped.interval(wid) == full.interval(wid)


@pytest.mark.parametrize(
    "label, delta, max_length",
    [
        ("F4", None, None),
        pytest.param("D5", (0, 1, 2, 4, 3), None, id="D5-twisted"),
        pytest.param("A3", (2, 1, 0), None, id="A3-twisted"),
        ("E6", None, None),
        ("E8", None, 2),
    ],
)
def test_the_walk_interns_only_the_involutions(label, delta, max_length):
    """On a fresh system the index interns exactly its involutions and, under
    a cap, the ascent partners past it: no sw on the way, and no element to
    spell the ShortLex words.  Each word is the one ``word_of`` straightens
    on a system that interns by products.  On every (s, w) the case that the
    walk records, commuting read from a payload (w^-1(alpha_s) =
    alpha_delta(s) for an ascent s), is the one the products give, with
    lmul(s, w) == rmul(w, delta(s)) deciding commuting; and
    ``twisted_ascent`` names the same partner."""
    system = build_system(label, delta=delta)
    index = Involutions(system, max_length)
    ids = index.involution_ids
    beyond = {
        z for table in index.cases for _, up, z in table.values()
        if up and not index.is_involution(z)
    }
    assert (max_length is None) == (not beyond)
    assert len(system.lengths) == len(ids) + len(beyond)
    oracle = build_system(label, delta=delta)
    for wid in ids:
        word = system.word_of(wid)
        assert oracle.word_of(oracle.element_id_from_word(word)) == word
    assert len(system.lengths) == len(ids) + len(beyond)
    for wid in ids:
        for s in range(system.rank):
            commuting, up, partner = index.cases[s][wid]
            assert (commuting, up, partner) == _case_by_products(system, s, wid)
            if up:
                assert system.twisted_ascent(s, wid) == (commuting, partner)


@pytest.mark.parametrize(
    "label, delta",
    [
        ("A3", None),
        ("B3", None),
        ("D4", None),
        ("F4", None),
        ("G2", None),
        ("H3", None),
        ("I2(5)", None),
        ("I2(5)xA2", None),
        pytest.param("A3", (2, 1, 0), id="A3-twisted"),
        pytest.param("A5", (4, 3, 2, 1, 0), id="A5-twisted"),
        pytest.param("D4", (0, 1, 3, 2), id="D4-twisted"),
        pytest.param("D5", (0, 1, 2, 4, 3), id="D5-twisted"),
    ],
)
def test_interval_matches_bruhat_oracle(label, delta):
    """The involution-graph intervals against Bruhat order decided in W."""
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)
    ids = module.involution_ids
    for wid in ids:
        expected = tuple(y for y in ids if system.bruhat_leq_ids(y, wid))
        assert module.interval(wid) == expected, system.word_of(wid)


@pytest.mark.parametrize(
    "label, delta",
    [("F4", None), ("I2(7)", None), pytest.param("E6", (5, 1, 4, 3, 2, 0), id="E6-twisted")],
)
def test_interval_order_equals_the_keyed_sort(label, delta):
    """Every interval equals its members, gathered from the partner's interval
    and their s-partners, sorted by ``involution_ids`` position with a key
    function."""
    module = InvolutionModule(build_system(label, delta=delta))
    position = {w: i for i, w in enumerate(module.involution_ids)}
    rank = module.system.rank
    for wid in module.involution_ids[1:]:
        s = next(s for s in range(rank) if not module.action_case(s, wid)[1])
        below = module.interval(module.action_case(s, wid)[2])
        members = set(below) | {module.action_case(s, y)[2] for y in below}
        want = tuple(sorted(members, key=position.__getitem__))
        assert module.interval(wid) == want, module.system.word_of(wid)


@pytest.mark.parametrize(
    "label, delta, max_length",
    [
        ("A3", None, None),
        ("B3", None, None),
        ("F4", None, None),
        ("I2(5)xA2", None, None),
        ("H3", None, None),
        pytest.param("D5", (0, 1, 2, 4, 3), None, id="D5-twisted"),
        pytest.param("E6", (5, 1, 4, 3, 2, 0), 12, id="E6-twisted-capped"),
    ],
)
def test_the_index_and_the_module_agree(label, delta, max_length):
    """The involution index alone and the module built on it, each on its own
    system, give the same ids, cases, descent masks and intervals, and a
    canonical basis built on either has the same columns."""
    index = Involutions(build_system(label, delta=delta), max_length)
    module = InvolutionModule(build_system(label, delta=delta), max_length)
    assert not hasattr(index, "bar_column")
    assert index.involution_ids == module.involution_ids
    assert index.cases == module.cases
    assert index.descent_masks == module.descent_masks
    for wid in index.involution_ids:
        assert index.interval(wid) == module.interval(wid)
    on_index = CanonicalBasis(index).build()
    on_module = CanonicalBasis(module).build()
    for wid in index.involution_ids:
        assert on_index.column(wid) == on_module.column(wid)


@pytest.mark.parametrize("label", ["A2", "B2"])
def test_cancelling_sums_store_no_zero(label):
    """Sums whose terms cancel drop the entry instead of storing a zero.

    For a commuting ascent s of w with partner x = sw,
    T_s((1 - u) a_w + a_x) = -u a_x: the a_w terms cancel.
    """
    system = build_system(label)
    module = InvolutionModule(system)
    rng = random.Random(3)
    m = rand_vector(module, rng)
    half = MVector({w: f for w, f in m.entries.items() if w % 2})
    assert (m + (-m)).entries == {} and (m - m).entries == {}
    assert (m - half).entries == {
        w: f for w, f in m.entries.items() if not w % 2
    }
    cases = 0
    for w in module.involution_ids:
        for s in range(system.rank):
            commuting, up, x = module.action_case(s, w)
            if commuting and up:
                m = MVector({w: ONE - U, x: ONE})
                assert module.ts_action(s, m).entries == {x: -U}
                cases += 1
    assert cases


# -- the packed bar table against the LaurentPoly routes ------------------------

@pytest.mark.parametrize("label, delta", ORACLE_TYPES)
def test_packed_bar_table_equals_the_laurent_recursion(label, delta):
    """Every view equals the LaurentPoly recursion, the bar step along every
    left descent equals the stored column, and a stored int read in 32-bit
    v-slots is its view."""
    system = build_system(label, delta=delta)
    module = InvolutionModule(system)
    oracle = LaurentBar(module)
    for wid in module.involution_ids:
        want = oracle.bar_basis(wid)
        assert module.bar_basis(wid) == want, (label, wid)
        for s in system.left_descents(wid):
            assert module._bar_step(wid, s) == module.bar_column(wid)
            assert oracle.bar_basis(wid, choice=s) == want
        assert module._bar_vslots(wid, 32) == module.bar_column(wid)


def _v_vector(module, rng, odd, bits):
    """Entries on about half the involutions, three terms each, with odd
    exponents when ``odd`` and coefficients up to 2^bits."""
    step = 1 if odd else 2
    return MVector({
        w: sum(
            (LaurentPoly((rng.randint(-(2**bits), 2**bits),), step * rng.randint(-4, 4))
             for _ in range(3)),
            ZERO,
        )
        for w in module.involution_ids
        if rng.random() < 0.5
    })


@pytest.mark.parametrize("label, delta", ORACLE_TYPES_BUT_F4)
def test_bar_extended_equals_the_exponent_map(label, delta):
    """On random even and odd vectors and on every bar column, the packed
    bar_extended equals the exponent-map route over the LaurentPoly table."""
    module = InvolutionModule(build_system(label, delta=delta))
    oracle = LaurentBar(module)
    rng = random.Random(1109)
    vectors = [module.bar_basis(w) for w in module.involution_ids]
    vectors += [_v_vector(module, rng, odd, 3) for odd in (False, True) * 3]
    for m in vectors:
        assert module.bar_extended(m) == bar_extended_exponent_map(oracle, m)


def test_corrupted_action_partner_fails_on_both_routes():
    """Pointing the smallest left descent of w at another involution of the
    partner's length raises InvariantError on the packed table and on the
    LaurentPoly recursion.  Each module owns its case table, so the fault
    stays in the module it is injected into."""
    for label in ("B3", "A4", "D4"):
        system = build_system(label)
        seen = 0
        for wid in InvolutionModule(system).involution_ids[1:]:
            module = InvolutionModule(system)
            s = module.smallest_descent(wid)
            commuting, up, xid = module.cases[s][wid]
            others = [
                x for x in module.involution_ids
                if x != xid and system.length_of(x) == system.length_of(xid)
            ]
            if not others:
                continue
            module.cases[s][wid] = (commuting, up, others[0])
            with pytest.raises(InvariantError):
                module.bar_column(wid)
            with pytest.raises(InvariantError):
                LaurentBar(module).bar_basis(wid)
            seen += 1
        assert seen > 0, label


def test_bar_support_outside_the_interval_raises():
    """With one row y < w dropped from interval(w), the column of w fails
    its support check."""
    system = build_system("B3")
    module = InvolutionModule(system)
    ids, length = module.involution_ids, system.length_of
    wid = ids[-1]
    below_top = max(length(x) for x in ids if length(x) < length(wid))
    xid = next(x for x in ids if length(x) == below_top)
    yid = next(y for y in module.bar_column(xid) if y)
    module = InvolutionModule(system)
    module._intervals[wid] = tuple(y for y in module.interval(wid) if y != yid)
    with pytest.raises(InvariantError, match="support leaves the Bruhat interval"):
        module.bar_column(wid)


def test_bar_extended_widens_its_slots_for_large_coefficients(monkeypatch):
    """Coefficients of 2^200 and more take slots wider than 32 bits, and the
    result still equals the exponent-map route."""
    module = InvolutionModule(build_system("B3"))
    oracle = LaurentBar(module)
    widths = []
    vslots = InvolutionModule._bar_vslots

    def spy(self, wid, width):
        widths.append(width)
        return vslots(self, wid, width)

    monkeypatch.setattr(InvolutionModule, "_bar_vslots", spy)
    rng = random.Random(200)
    for odd in (False, True):
        entries = _v_vector(module, rng, odd, 200).entries
        entries[0] = LaurentPoly((2**200 + 1, 0, -(2**201)), -3)
        m = MVector(entries)
        assert module.bar_extended(m) == bar_extended_exponent_map(oracle, m)
    assert widths and min(widths) > 200


def test_bar_extended_odd_exponents_cancellation_and_the_empty_vector():
    """Odd exponents match the exponent map, bar(bar(x)) = x stores no
    cancelled row, and the empty vector maps to itself."""
    module = InvolutionModule(build_system("A3", delta=(2, 1, 0)))
    oracle = LaurentBar(module)
    assert module.bar_extended(MVector()) == MVector()
    rng = random.Random(7)
    for _ in range(10):
        x = _v_vector(module, rng, True, 5)
        bx = module.bar_extended(x)
        assert bx == bar_extended_exponent_map(oracle, x)
        # bar(bar(x)) = x: every row off x's support cancels, and none is stored
        back = module.bar_extended(bx)
        assert back == x
        assert all(not f.is_zero for f in back.entries.values())


_SLOT_GUARD = """
from invkl import build_system
from invkl.errors import InvariantError
from invkl.invmodule import InvolutionModule
module = InvolutionModule(build_system("B3"))
wid = next(w for w in module.involution_ids if module.system.length_of(w) >= 2)
s = module.smallest_descent(wid)
xid = module.cases[s][wid][2]
col = dict(module.bar_column(xid))
yid = next(y for y in col if y != xid)
col[yid] += BUMP
module._bar[xid] = col
try:
    module.bar_column(wid)
except InvariantError as exc:
    print(type(exc).__name__, exc)
"""


def test_bar_entry_past_the_slot_bound_raises():
    """An entry of a shorter column pushed past COEFF_BITS makes the next
    column fail the slot check, with and without ``python -O``."""
    bump = pack((1 << COEFF_BITS, 1 << COEFF_BITS))  # 2^COEFF_BITS (1 + u)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _SLOT_GUARD.replace("BUMP", str(bump))],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("InvariantError "), (flags, proc.stdout)
        assert "signed-bit bound" in proc.stdout


def test_bar_division_by_one_plus_u_is_checked():
    """An entry of a shorter column off by 1 leaves a row of a commuting step
    that 1 + u does not divide: NotDivisible, not a silent quotient."""
    system = build_system("B3")
    seen = 0
    for wid in InvolutionModule(system).involution_ids[1:]:
        module = InvolutionModule(system)
        s = module.smallest_descent(wid)
        commuting, _up, xid = module.cases[s][wid]
        col = dict(module.bar_column(xid))
        yid = next(
            (y for y in col if y != xid and module.cases[s][y][:2] != (True, True)),
            None,
        )
        if not commuting or yid is None:
            continue
        col[yid] += 1
        module._bar[xid] = col
        with pytest.raises(NotDivisible, match="not divisible by 1 \\+ u"):
            module.bar_column(wid)
        seen += 1
    assert seen > 0


def _non_involutions(*more):
    """(module, id) pairs of elements outside the module: 10 and 01 of A2,
    then those of ``more`` (label, max_length, word).  Each is named by its
    word, since the order of interning fixes no id."""
    named = [("A2", None, (1, 0)), ("A2", None, (0, 1))] + list(more)
    cases = []
    for label, max_length, word in named:
        module = InvolutionModule(build_system(label), max_length)
        cases.append((module, module.system.element_id_from_word(word)))
    return cases


def test_a_vector_rejects_non_involutions():
    """a_vector, ``Involutions.interval`` and ``ms_constants`` name an id that
    is no involution of the module (10 and 01 of A2, 01 of B3, 010 of A3
    beyond max_length 2), as ``basis`` does."""
    cases = _non_involutions(("B3", None, (0, 1)), ("A3", 2, (0, 1, 0)))
    for module, wid in cases:
        basis = CanonicalBasis(module)
        for call in (
            lambda: a_vector(basis, wid),
            lambda: module.interval(wid),
            lambda: basis.ms_constants(0, wid),
        ):
            with pytest.raises(ValueError, match=f"id {wid} is not a twisted involution"):
                call()


@pytest.mark.parametrize("entry", ["bar_basis", "bar_mvector", "bar_extended"])
def test_bar_entry_points_reject_non_involutions(entry):
    """10 and 01 of A2 are no involutions, and 010 of A3 lies beyond
    max_length 2: each raises ValueError, as ``basis`` does."""
    for module, wid in _non_involutions(("A3", 2, (0, 1, 0))):
        with pytest.raises(ValueError, match=f"id {wid} is not a twisted involution"):
            if entry == "bar_basis":
                module.bar_basis(wid)
            else:
                getattr(module, entry)(MVector({0: ONE, wid: U}))


# -- packed module vectors against the LaurentPoly routes ------------------------

def _near_the_slot_limit(module, rng):
    """Coefficients of +-(2^31 - 1): they fit 32-bit slots, T_s of them does not."""
    return MVector({
        w: LaurentPoly((rng.choice((1, -1)) * (2**31 - 1), 0, 1), -2)
        for w in module.involution_ids
        if rng.random() < 0.5
    })


@pytest.mark.parametrize("label, delta", ORACLE_TYPES)
def test_packed_vectors_equal_the_laurent_routes(label, delta):
    """T_s, c_s, +, - and scaled on packed vectors equal the LaurentPoly
    routes, on even and odd vectors, on coefficients of 2^200 and more, on
    coefficients at the 32-bit slot limit, on sums that cancel to zero and
    on vectors equal up to their offset lo."""
    module = InvolutionModule(build_system(label, delta=delta))
    rng = random.Random(1109)
    vectors = [
        _v_vector(module, rng, odd, bits) for odd in (False, True) for bits in (3, 200)
    ]
    vectors.append(_near_the_slot_limit(module, rng))
    scalars = (7, -1, ONE, v_pow(-3), LaurentPoly((3, 0, -1), -1), LaurentPoly((2**210, 1), 2))
    for m in vectors:
        n = rng.choice(vectors)
        for s in range(module.system.rank):
            ts = ts_action_laurent(module, s, m)
            assert module.ts_action(s, m).entries == ts.entries
            cs = scaled_laurent(add_laurent(ts, m), v_pow(-2))
            assert module.cs_action(s, m).entries == cs.entries
            assert module.ts_action(s, m) == ts and module.cs_action(s, m) == cs
        assert (m + n).entries == add_laurent(m, n).entries
        assert (m - n).entries == sub_laurent(m, n).entries
        for f in scalars:
            assert m.scaled(f).entries == scaled_laurent(m, f).entries
        # cancelling sums store nothing
        assert (m - m).is_zero and ((m + n) - n - m).entries == {}
        assert (module.ts_action(0, m) - ts_action_laurent(module, 0, m)).is_zero
        # equal values above a lower offset compare equal, both ways
        low = MVector({w: v_pow(-40) for w in m.entries})
        shifted = m + low - low
        assert shifted.lo < m.lo and shifted == m and m == shifted
        assert shifted.entries == m.entries
        assert m != m + MVector({0: v_pow(-40)})


def test_slots_widen_before_the_bound_reaches_the_limit():
    """A vector at the 32-bit limit is acted on in wider slots, and a
    result whose coefficients fit 32 bits again is narrowed back."""
    module = InvolutionModule(build_system("B3"))
    m = _near_the_slot_limit(module, random.Random(5))
    assert m.width == 32 and m.bound == 2**31 - 1
    ts = module.ts_action(0, m)
    assert ts.width > 32 and ts.bound >= max(
        abs(c) for f in ts.entries.values() for c in f.coeffs
    )
    back = m.scaled(2**40).scaled(LaurentPoly((1,), 0)) - m.scaled(2**40 - 1)
    assert back == m and back.width == 32
    assert back.bound == m.bound
    # the zero vector times a scalar past the 32-bit slots is zero
    for f in (2**40, LaurentPoly((2**40, -3), -2)):
        assert MVector().scaled(f).is_zero and (m - m).scaled(f) == MVector()


@pytest.mark.parametrize("label, delta", [("B3", None), ("A3", (2, 1, 0)), ("H3", None)])
def test_even_support_is_a_slot_test(label, delta):
    """bar_mvector rejects exactly the vectors with a coefficient off
    Z[u, u^-1], at every offset parity and slot width."""
    module = InvolutionModule(build_system(label, delta=delta))
    rng = random.Random(8)
    for odd, bits in [(False, 3), (True, 3), (False, 200), (True, 200)] * 3:
        m = _v_vector(module, rng, odd, bits)
        for v in (m, m.scaled(v_pow(1)), m.scaled(v_pow(-3))):
            even = all(f.is_even_support() for f in v.entries.values())
            if even:
                module.bar_mvector(v)
            else:
                with pytest.raises(InvariantError, match="leaves Z\\[u, u\\^-1\\]"):
                    module.bar_mvector(v)


def test_random_even_vector_keeps_its_draws():
    """verify's random vectors are the LaurentPoly sums they were, from the
    same rng draws in the same order."""
    ctx = verify.VerificationContext(build_system("B3"))
    rng, old = random.Random(7), random.Random(7)
    for _ in range(5):
        want = {}
        for wid in ctx.module.involution_ids:
            if old.random() < 0.6:
                poly = ZERO
                for _ in range(3):
                    poly = poly + LaurentPoly((old.randint(-4, 4),), 2 * old.randint(-3, 3))
                if not poly.is_zero:
                    want[wid] = poly
        assert ctx.random_even_vector(rng).entries == want
    assert rng.random() == old.random()


@pytest.mark.parametrize(
    "label, delta", [("B3", None), pytest.param("A3", (2, 1, 0), id="A3-twisted")]
)
def test_table_vectors_carry_their_coefficient_bound(label, delta):
    """bar_basis and a_vector are their table columns read in 32-bit
    v-slots, each bounded by its largest coefficient; a coefficient of
    -2^31 fits the table's signed slots but takes a wider vector."""
    module = InvolutionModule(build_system(label, delta=delta))
    basis = CanonicalBasis(module).build()
    for wid in module.involution_ids:
        for v, col in [
            (module.bar_basis(wid), module.bar_column(wid)),
            (a_vector(basis, wid), basis.column(wid)),
        ]:
            assert v.width == 32 and v.ints is col
            assert v.bound == max(abs(c) for f in v.entries.values() for c in f.coeffs)
    low = table_vector({0: pack((-(2**31), 1))}, -2, 2**31)
    assert low.width > 32 and low.entries == {0: LaurentPoly((-(2**31), 0, 1), -2)}
