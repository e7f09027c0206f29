"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
in the captured output of a failure).  All comparisons are exact integer
arithmetic; the stated wall-clock budgets are asserted where given.
"""

import json
import random
import time

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.cells import check_hf_relation, compute_cells, involutions_per_cell
from invkl.cli import main as cli_main
from invkl.invmodule import InvolutionModule, MVector, bar_table_dense_solve
from invkl.klclassic import KLTable
from invkl.laurent import LaurentPoly, ONE, ZERO, u_pow, v_pow
from invkl.specialize import SpecializedModule, model_check_typeA
from invkl.verify import run_suites

AXIOM_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "G2"]
TWISTED_CASES = [
    ("A2", [1, 0]),
    ("A3", [2, 1, 0]),
    ("D4", [0, 1, 3, 2]),
]

_modules = {}
_bases = {}
_kls = {}


def module_for(label, delta=None):
    key = (label, tuple(delta) if delta else None)
    if key not in _modules:
        _modules[key] = InvolutionModule(build_system(label, delta=delta))
    return _modules[key]


def basis_for(label, delta=None):
    key = (label, tuple(delta) if delta else None)
    if key not in _bases:
        _bases[key] = CanonicalBasis(module_for(label, delta)).build()
    return _bases[key]


def kl_for(label, delta=None):
    # shares the interned element universe with module_for(label, delta);
    # the classical table itself never looks at delta
    key = (label, tuple(delta) if delta else None)
    if key not in _kls:
        _kls[key] = KLTable(module_for(label, delta).system)
    return _kls[key]


def report(num, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description}")
    assert passed, f"criterion {num} failed: {description}"


def check_module_axioms(module):
    system = module.system
    uu = u_pow(2)
    for wid in module.involution_ids:
        m = module.basis(wid)
        for s in range(system.rank):
            ts = module.ts_action(s, m)
            if not (module.ts_action(s, ts) - ts.scaled(uu - ONE) - m.scaled(uu)).is_zero:
                return False
        for s in range(system.rank):
            for t in range(s + 1, system.rank):
                a, b = m, m
                for k in range(system.coxeter_matrix[s][t]):
                    a = module.ts_action(s if k % 2 == 0 else t, a)
                    b = module.ts_action(t if k % 2 == 0 else s, b)
                if a != b:
                    return False
    return True


def check_bar(module, rng):
    system = module.system
    for wid in module.involution_ids:
        bw = module.bar_basis(wid)
        if module.bar_mvector(bw) != module.basis(wid):
            return False
        if bw.get(wid) != u_pow(-system.length_of(wid)):
            return False
        if any(not system.bruhat_leq_ids(y, wid) for y in bw.entries):
            return False
        for s in system.left_descents(wid):
            if module.bar_basis(wid, choice=s) != bw:
                return False
    for _ in range(8):
        entries = {}
        for wid in module.involution_ids:
            if rng.random() < 0.6:
                poly = ZERO
                for _ in range(3):
                    poly = poly + LaurentPoly(
                        (rng.randint(-4, 4),), 2 * rng.randint(-3, 3)
                    )
                if not poly.is_zero:
                    entries[wid] = poly
        m = MVector(entries)
        bm = module.bar_mvector(m)
        for s in range(system.rank):
            lhs = module.bar_mvector(module.ts_action(s, m) + m)
            rhs = (module.ts_action(s, bm) + bm).scaled(u_pow(-2))
            if lhs != rhs:
                return False
    if system.rank <= 3:
        table = bar_table_dense_solve(module)
        for wid in module.involution_ids:
            if table[wid] != module.bar_basis(wid):
                return False
    return True


def check_canonical(module, basis):
    system = module.system
    for wid in module.involution_ids:
        col = basis._columns[wid]
        if basis.column_barfix(wid) != col:
            return False
        vec = basis.a_vector(wid)
        if module.bar_extended(vec) != vec:
            return False
        if col[wid] != ONE:
            return False
        for yid, pi in col.items():
            if yid == wid:
                continue
            gap = system.length_of(wid) - system.length_of(yid)
            if pi.max_exp > -1 or pi.min_exp < -gap:
                return False
            p = basis.sigma_kl(yid, wid)
            if not p.is_even_support() or p.min_exp < 0:
                return False
    return True


def check_p_vs_sigma(label, delta=None):
    """Domination, parity and descent stability, through verify's suites.

    The descent-stability suite is advisory on twisted systems, but these
    cases must pass it anyway.
    """
    system = module_for(label, delta).system
    results = run_suites(system, ["parity", "descent-stability"])
    return all(r.ok() and r.checks > 0 for r in results)


def test_criterion_1_module_axioms():
    start = time.monotonic()
    ok = all(check_module_axioms(module_for(label)) for label in AXIOM_TYPES)
    elapsed = time.monotonic() - start
    report(1, f"module axioms on {', '.join(AXIOM_TYPES)} ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_2_bar_involution():
    start = time.monotonic()
    rng = random.Random(20120915)
    ok = all(check_bar(module_for(label), rng) for label in AXIOM_TYPES)
    elapsed = time.monotonic() - start
    report(2, f"bar involution with dense-solve oracle ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_3_canonical_basis():
    start = time.monotonic()
    ok = True
    for label in AXIOM_TYPES:
        ok = ok and check_canonical(module_for(label), basis_for(label))
    a4_start = time.monotonic()
    CanonicalBasis(InvolutionModule(build_system("A4"))).build()
    a4_elapsed = time.monotonic() - a4_start
    elapsed = time.monotonic() - start
    report(
        3,
        f"canonical basis routes agree on {', '.join(AXIOM_TYPES)}; "
        f"fresh A4 table in {a4_elapsed:.1f}s",
        ok and a4_elapsed < 60,
    )


def test_criterion_4_p_versus_sigma():
    ok = all(check_p_vs_sigma(label) for label in AXIOM_TYPES)
    report(4, "domination, parity and descent stability of the tables", ok)


def test_criterion_5_specific_values():
    a2 = module_for("A2").system
    basis = basis_for("A2")
    ok = True
    for wid in module_for("A2").involution_ids:
        for yid in module_for("A2").involution_ids:
            if a2.bruhat_leq_ids(yid, wid):
                ok = ok and basis.sigma_kl(yid, wid) == ONE
    a1 = module_for("A1").system
    ok = ok and basis_for("A1").sigma_kl(0, a1.element_id_from_word([0])) == ONE
    report(5, "A2 table all ones; A1 base value", ok)


def test_criterion_6_generator_action_closed_form():
    ok = True
    for label in ("A3", "B2"):
        module = module_for(label)
        basis = basis_for(label)
        for wid in module.involution_ids:
            for s in range(module.system.rank):
                try:
                    basis.cs_action_on_A(s, wid)
                except Exception:
                    ok = False
    report(6, "c_s action matches its closed form on A3 and B2", ok)


def test_criterion_7_u1_module():
    start = time.monotonic()
    ok = True
    for label in ("A2", "A3", "A4", "B2", "B3"):
        spec = SpecializedModule(module_for(label))
        mats = spec.m1_matrices().gen_matrices
        n = len(spec.basis)
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )

        def mul(a, b):
            return tuple(
                tuple(
                    sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)
                )
                for i in range(n)
            )

        for s, mat in mats.items():
            ok = ok and mul(mat, mat) == ident
        for s in mats:
            for t in mats:
                if s >= t:
                    continue
                prod = mul(mats[s], mats[t])
                power, order = prod, 1
                while power != ident:
                    power = mul(power, prod)
                    order += 1
                ok = ok and order == spec.system.coxeter_matrix[s][t]
        for cls in spec.system.conjugacy_classes():
            rep = cls[0]
            chi = spec.character_m1(rep)
            ok = ok and chi == spec.induced_character_sum(rep)
        grading = spec.h_grading_check()
        ok = ok and not grading["violations"]
    elapsed = time.monotonic() - start
    report(7, f"u=1 module and induced characters ({elapsed:.1f}s)",
           ok and elapsed < 30)


def test_criterion_8_model_property():
    expected = {2: (2, 2), 3: (4, 3), 4: (10, 5), 5: (26, 7)}
    ok = all(model_check_typeA(n) == expected[n] for n in (2, 3, 4, 5))
    report(8, "type A model property for n = 2..5", ok)


def test_criterion_9_cells_and_hf():
    start = time.monotonic()
    a2 = module_for("A2").system
    kl2 = kl_for("A2")
    part = compute_cells(kl2)
    words = [tuple(sorted(a2.word_of(w) for w in cell)) for cell in part.cells]
    ok = words == [((),), ((0,), (0, 1), (1,), (1, 0)), ((0, 1, 0),)]
    ok = ok and involutions_per_cell(part, module_for("A2")) == [1, 2, 1]
    for label in ("A2", "B2", "A3"):
        kl = kl_for(label)
        module = module_for(label)
        basis = basis_for(label)
        for z in kl.system.all_ids():
            for w in module.involution_ids:
                try:
                    check_hf_relation(z, w, kl, basis)
                except Exception:
                    ok = False
    elapsed = time.monotonic() - start
    report(9, f"cells and h/f domination ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_10_twisted_mode():
    rng = random.Random(20120916)
    ok = True
    for label, delta in TWISTED_CASES:
        module = module_for(label, delta)
        basis = basis_for(label, delta)
        ok = ok and check_module_axioms(module)
        ok = ok and check_bar(module, rng)
        ok = ok and check_canonical(module, basis)
        ok = ok and check_p_vs_sigma(label, delta)
    report(10, "criteria 1-4 under the diagram flips of A2, A3, D4", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    blobs = []
    for jobs in ("1", "4", "8"):
        target = tmp_path / f"jobs{jobs}.json"
        code = cli_main(
            ["table", "--type", "A3", "--jobs", jobs, "--out", str(target)]
        )
        assert code == 0
        blobs.append(target.read_bytes())
    capsys.readouterr()
    ok = blobs[0] == blobs[1] == blobs[2] and json.loads(blobs[0])
    report(11, "table output byte-identical across --jobs 1/4/8", bool(ok))
