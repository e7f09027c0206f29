import itertools
import os
import random

import pytest

from invkl import build_system, klclassic
from invkl.cli import main
from invkl.errors import InvariantError
from invkl.klclassic import KLTable
from invkl.laurent import ONE, ZERO, q_add, q_shift, q_trim, v_pow
from invkl.packed import pack, unpack

from helpers import (
    HeckeAlgebra, HeckeBases, TupleKLTable, hecke_selfbar_column, s_gen_id,
)


def test_normalization_and_support(a2, a2_kl):
    sts = a2.element_id_from_word([0, 1, 0])
    s = s_gen_id(a2, 0)
    for el in a2.enumerate_all():
        assert a2_kl.kl_poly_ids(el.id, el.id) == ONE
    assert a2_kl.kl_poly_ids(0, sts) == ONE
    assert a2_kl.kl_poly_ids(s, a2.element_id_from_word([1])) == ZERO


def test_mu_values(a2, a2_kl):
    s = s_gen_id(a2, 0)
    t = a2.element_id_from_word([1])
    sts = a2.element_id_from_word([0, 1, 0])
    st = a2.element_id_from_word([0, 1])
    ts = a2.element_id_from_word([1, 0])
    assert dict(a2_kl.mu_row(st)) == {s: 1, t: 1}  # length gap one
    # not the identity (P = 1, u-degree 0 < bound 1), nor s, t (even gap)
    assert dict(a2_kl.mu_row(sts)) == {st: 1, ts: 1}
    assert dict(a2_kl.mu_row(t)) == {0: 1}  # s is not below t


def test_degree_bound_positivity_and_small_gaps():
    for label in ("A1", "A2", "A3", "B2", "G2", "B3", "I2(5)"):
        system = build_system(label)
        kl = KLTable(system)
        ids = system.all_ids()
        for y, w in itertools.product(ids, ids):
            p = kl.kl_poly_ids(y, w)
            if not system.bruhat_leq_ids(y, w):
                assert p.is_zero
                continue
            # with the zero check above, this pins each column's support
            # to the Bruhat interval below w
            assert p.coeff(0) == 1
            assert all(c > 0 for _, c in p.terms())
            gap = system.length_of(w) - system.length_of(y)
            if y != w:
                assert p.max_exp <= gap - 1  # u-degree <= (gap-1)/2
            if gap <= 2:
                assert p == ONE


@pytest.mark.parametrize("label", ["A3", "B3", "I2(5)xA2"])
def test_mu_rows_match_polynomials(label):
    system = build_system(label)
    kl = KLTable(system)
    ids = system.all_ids()
    for w in ids:
        expected = set()
        for y in ids:
            gap = system.length_of(w) - system.length_of(y)
            if gap > 0 and gap % 2:
                mu = kl.kl_poly_ids(y, w).coeff(gap - 1)  # u-degree (gap-1)/2
                if mu:
                    expected.add((y, mu))
        assert len(kl.mu_row(w)) == len(expected)
        assert set(kl.mu_row(w)) == expected


def test_columns_are_bar_invariant():
    # bar invariance + triangularity determine the column, so this is an
    # independent certification of the whole table
    for label in ("A2", "B2", "A3", "G2"):
        system = build_system(label)
        kl = KLTable(system)
        for el in system.enumerate_all():
            assert hecke_selfbar_column(kl, el.id)


def test_b3_has_nontrivial_polynomials():
    system = build_system("B3")
    kl = KLTable(system)
    kl.build_full()
    found = set()
    for y in system.all_ids():
        for w in system.all_ids():
            p = kl.kl_poly_ids(y, w)
            if not p.is_zero and p != ONE:
                found.add(str(p))
    assert "1 + u" in found


def test_cdot_product_examples(a2, a2_kl):
    s = s_gen_id(a2, 0)
    sts = a2.element_id_from_word([0, 1, 0])
    vpv = v_pow(1) + v_pow(-1)
    bases = HeckeBases(a2_kl)
    for el in a2.enumerate_all():
        assert bases.c_basis_product(0, el.id) == {el.id: ONE}
    assert bases.c_basis_product(s, s) == {s: vpv}
    assert bases.c_basis_product(s, sts) == {sts: vpv}


def test_cdot_product_constants_nonnegative(b2):
    bases = HeckeBases(KLTable(b2))
    ids = b2.all_ids()
    for z, w in itertools.product(ids, ids):
        for f in bases.c_basis_product(z, w).values():
            assert all(c > 0 for _, c in f.terms())


def test_h_constants_unit(a2, a2_kl):
    bases = HeckeBases(a2_kl)
    for w in a2.twisted_involution_ids():
        assert bases.h_constants(0, w) == {w: ONE}


def test_parallel_build_matches_serial():
    serial = KLTable(build_system("A3"))
    serial.build_full(jobs=1)
    parallel = KLTable(build_system("A3"))
    parallel.build_full(jobs=4)
    sys_a = serial.system
    sys_b = parallel.system
    for ya, yb in zip(sys_a.enumerate_all(), sys_b.enumerate_all()):
        for wa, wb in zip(sys_a.enumerate_all(), sys_b.enumerate_all()):
            assert serial.kl_poly_ids(ya.id, wa.id) == parallel.kl_poly_ids(
                yb.id, wb.id
            )


def test_cancelling_sums_store_no_zero(a3):
    """Hecke sums whose terms cancel drop the entry instead of storing a zero."""
    alg = HeckeAlgebra(a3)
    bases = HeckeBases(KLTable(a3))
    u, u_inv = v_pow(2), v_pow(-2)
    for s in range(a3.rank):
        sid = s_gen_id(a3, s)
        # T_s T_s = (u - 1) T_s + u: the T_s terms cancel
        assert alg.rmul_gen({0: ONE - u, sid: ONE}, s) == {0: u}
        assert alg.product({sid: ONE}, {0: ONE - u, sid: ONE}) == {0: u}
        # T_s^-1 = u^-1 T_s + u^-1 - 1: the constant terms cancel
        assert alg.rmul_gen_inverse({0: ONE, sid: ONE - u_inv}, s) == {sid: u_inv}
        assert alg.bar_element({sid: ONE, 0: ONE - u}) == {sid: u_inv}
    for w in a3.all_ids():
        # every term of the work dict cancels as its column is subtracted
        assert bases.expand_in_cdot(bases.cdot(w)) == {w: ONE}


@pytest.mark.parametrize(
    "label",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "D4", "F4", "G2", "H3",
     "I2(5)", "I2(8)"],
)
def test_packed_columns_equal_the_tuple_oracle(label):
    """Every packed column and mu row equals the q-tuple recursion's, over
    the whole group."""
    system = build_system(label)
    packed, oracle = KLTable(system), TupleKLTable(system)
    for wid in packed.build_full():
        want = {yid: pack(p) for yid, p in oracle.column(wid).items()}
        assert packed.column(wid) == want, (label, wid)
        assert packed.mu_row(wid) == oracle.mu_row(wid), (label, wid)


@pytest.mark.parametrize(
    "argv",
    [
        "table --type B3 --classic",
        "table --type B3 --classic --max-length 3",
        "table --type D5 --twisted 0,1,2,4,3 --classic",
        "table --type D5 --twisted 0,1,2,4,3 --classic --max-length 4",
        "kl --type F4 --max-length 3",
    ],
)
def test_lazily_built_columns_equal_the_tuple_oracle(argv, monkeypatch):
    """The columns that ``table --classic`` and ``kl --max-length`` build
    before the group is enumerated, when the generator tables are still
    partial, equal the q-tuple recursion's; a capped command enumerates
    nothing past its cap."""
    built = []

    class Recorded(KLTable):
        def __init__(self, system):
            super().__init__(system)
            built.append(self)

    monkeypatch.setattr(klclassic, "KLTable", Recorded)
    assert main(argv.split() + ["--out", os.devnull]) == 0
    (kl,) = built
    system = kl.system
    oracle = TupleKLTable(system)
    columns = dict(kl._columns)
    for wid, col in columns.items():
        assert {y: unpack(p) for y, p in col.items()} == oracle.column(wid), wid
        assert kl.mu_row(wid) == oracle.mu_row(wid), wid
    if "--max-length" in argv:
        cap = int(argv.split()[-1])
        assert max(map(system.length_of, columns)) == cap
        assert not system._complete


def test_corrupted_columns_fail_alike_on_both_routes():
    """A perturbed column makes both recursions raise the same error (the
    negativity or the degree check) or agree on the table built from it."""
    rng = random.Random(5)
    messages = set()
    for label in ("A3", "B3"):
        system = build_system(label)
        ids = system.all_ids()
        for _ in range(12):
            wid = rng.choice([w for w in ids if 1 <= system.length_of(w) <= 4])
            results = []
            for cls, read, write in (
                (KLTable, unpack, pack), (TupleKLTable, tuple, tuple),
            ):
                kl = cls(system)
                col = kl.column(wid)
                if not results:
                    yid = rng.choice(list(col))
                    bump = q_shift((rng.choice([-3, -1, 1]),), rng.randint(0, 3))
                col[yid] = write(q_trim(q_add(read(col[yid]), bump)))
                try:
                    kl.build_full()
                except InvariantError as exc:
                    results.append(str(exc))
                else:
                    results.append([
                        {y: read(p) for y, p in kl.column(w).items()} for w in ids
                    ])
            assert results[0] == results[1], (label, wid, yid, bump)
            if isinstance(results[0], str):
                messages.add(results[0].split(" at pair")[0])
    assert messages == {
        "negative Kazhdan-Lusztig coefficient",
        "Kazhdan-Lusztig degree bound violated",
    }


def test_overflow_guard_raises_instead_of_carrying():
    """An oversized mu or coefficient raises InvariantError before any slot
    could carry into the next one."""
    system = build_system("B3")
    ids = system.all_ids()
    top = ids[-1]
    s = system.left_descents(top)[0]
    vid = system.lmul(s, top)
    kl = KLTable(system)
    row = kl.mu_row(vid)
    assert any(system.is_left_descent(s, z) for z, _ in row)
    kl._mu_rows[vid] = tuple((z, 2**40) for z, _ in row)
    with pytest.raises(InvariantError, match="carry"):
        kl.column(top)
    kl = KLTable(system)
    col = kl.column(vid)
    col[0] = pack((2**40,))
    with pytest.raises(InvariantError, match="packed slot bound"):
        kl.column(top)
