"""Acceptance criteria, one test per criterion.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s`` or
in the captured output of a failure).  All comparisons are exact integer
arithmetic; the stated wall-clock budgets are asserted where given.
"""

import json
import time

from invkl import build_system, verify
from invkl.canonical import CanonicalBasis
from invkl.cells import check_hf_relation, compute_cells, involutions_per_cell
from invkl.cli import main as cli_main
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.laurent import ONE
from invkl.specialize import SpecializedModule
from invkl.verify import run_suites

AXIOM_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "D4", "G2"]
TWISTED_CASES = [
    ("A2", [1, 0]),
    ("A3", [2, 1, 0]),
    ("D4", [0, 1, 3, 2]),
]
# the verify suites that check each criterion
AXIOM_SUITES = ["quadratic", "braid"]
BAR_SUITES = ["bar", "bar-oracle"]
CANONICAL_SUITES = ["canonical-oracle"]
P_VS_SIGMA_SUITES = ["parity", "descent-stability"]

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


def suites_pass(system, names):
    """Every named suite of verify passes and ran checks.

    Two suites may run none: braid has no pair of generators at rank 1,
    and bar-oracle is skipped above rank 3.
    """
    may_be_empty = {"braid"} if system.rank < 2 else set()
    if system.rank > 3:
        may_be_empty.add("bar-oracle")
    return all(
        r.ok() and (r.checks > 0 or r.name in may_be_empty)
        for r in run_suites(system, names)
    )


def check_p_vs_sigma(label, delta=None):
    """Domination, parity and descent stability, through verify's suites.

    Descent stability holds for every delta, and the canonical build copies
    rows by it, so the suite is load-bearing on twisted systems too.
    """
    return suites_pass(module_for(label, delta).system, P_VS_SIGMA_SUITES)


def test_criterion_1_module_axioms():
    start = time.monotonic()
    ok = all(
        suites_pass(module_for(label).system, AXIOM_SUITES)
        for label in AXIOM_TYPES
    )
    elapsed = time.monotonic() - start
    report(1, f"module axioms on {', '.join(AXIOM_TYPES)} ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_2_bar_involution():
    start = time.monotonic()
    ok = all(
        suites_pass(module_for(label).system, BAR_SUITES)
        for label in AXIOM_TYPES
    )
    elapsed = time.monotonic() - start
    report(2, f"bar involution with dense-solve oracle ({elapsed:.1f}s)",
           ok and elapsed < 10)


def test_criterion_3_canonical_basis():
    start = time.monotonic()
    ok = all(
        suites_pass(module_for(label).system, CANONICAL_SUITES)
        for label in AXIOM_TYPES
    )
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
        res = run_suites(module_for(label).system, ["cs-action"])[0]
        ok = ok and res.ok() and res.checks > 0
    report(6, "c_s action matches its closed form on A3 and B2", ok)


def test_criterion_7_u1_module():
    start = time.monotonic()
    ok = True
    for label in ("A2", "A3", "A4", "B2", "B3"):
        spec = SpecializedModule(module_for(label))
        mats = spec.m1_matrices()
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
        ok = ok and suites_pass(spec.system, ["specialize-u1"])
    elapsed = time.monotonic() - start
    report(7, f"u=1 module and induced characters ({elapsed:.1f}s)",
           ok and elapsed < 30)


def test_criterion_8_model_property(monkeypatch):
    """The specialize-u1 suite checks <chi, chi> = p(n) on A_{n-1}."""
    original = verify.partition_count
    seen = {}

    def recording(n):
        seen[n] = original(n)
        return seen[n]

    monkeypatch.setattr(verify, "partition_count", recording)
    dims = {}
    ok = True
    for n in range(2, 7):
        system = build_system(f"A{n - 1}")
        ok = ok and suites_pass(system, ["specialize-u1"])
        dims[n] = len(system.twisted_involution_ids())
    ok = ok and seen == {2: 2, 3: 3, 4: 5, 5: 7, 6: 11}
    ok = ok and dims == {2: 2, 3: 4, 4: 10, 5: 26, 6: 76}
    report(8, "type A model property for n = 2..6", ok)


def test_criterion_9_cells_and_hf():
    start = time.monotonic()
    a2 = module_for("A2").system
    kl2 = kl_for("A2")
    part = compute_cells(kl2)
    words = [tuple(sorted(a2.word_of(w) for w in cell)) for cell in part.cells]
    ok = words == [((),), ((0,), (0, 1), (1,), (1, 0)), ((0, 1, 0),)]
    ok = ok and involutions_per_cell(part, module_for("A2")) == [1, 2, 1]
    for label, delta in (
        ("A2", None), ("B2", None), ("A3", None), ("B3", None), ("A3", [2, 1, 0]),
    ):
        kl = kl_for(label, delta)
        basis = basis_for(label, delta)
        for w in module_for(label, delta).involution_ids:
            try:
                pairs = check_hf_relation(w, kl, basis)
            except Exception:
                ok = False
            else:
                ok = ok and len(pairs) == len(kl.system.all_ids())
    elapsed = time.monotonic() - start
    report(9, f"cells and h/f domination ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_10_twisted_mode():
    ok = all(
        suites_pass(
            module_for(label, delta).system,
            AXIOM_SUITES + BAR_SUITES + CANONICAL_SUITES + P_VS_SIGMA_SUITES,
        )
        for label, delta in TWISTED_CASES
    )
    report(10, "criteria 1-4 under the diagram flips of A2, A3, D4", ok)


def test_criterion_11_determinism(tmp_path, capsys):
    blobs = []
    for run in range(2):
        target = tmp_path / f"run{run}.json"
        code = cli_main(["table", "--type", "A3", "--out", str(target)])
        assert code == 0
        blobs.append(target.read_bytes())
    code = cli_main(["table", "--type", "A3"])
    out = capsys.readouterr().out.encode("utf-8")
    ok = code == 0 and blobs[0] == blobs[1] == out and json.loads(blobs[0])
    report(11, "table --out byte-identical across runs and to stdout", bool(ok))
