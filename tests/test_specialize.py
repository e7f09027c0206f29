import random

import pytest

from invkl import build_system, verify
from invkl.invmodule import InvolutionModule, MVector
from invkl.involutions import Involutions
from invkl.laurent import u_pow
from invkl.specialize import (
    SpecializedModule,
    bareiss,
    h_value,
    partition_count,
    reflection_rep,
)
from invkl.verify import run_suites

from helpers import dense_bareiss, fraction_rank, h_value_dense, matmul


def spec_for(label):
    return SpecializedModule(InvolutionModule(build_system(label)))


def test_partition_count():
    assert [partition_count(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_a1_generator_matrix():
    spec = SpecializedModule(Involutions(build_system("A1")))
    assert spec.m1_matrices() == {0: ((1, 0), (2, -1))}


def test_matrices_are_involutions_satisfying_braid():
    for label in ("A2", "A3", "B2"):
        spec = spec_for(label)
        mats = spec.m1_matrices()
        n = len(spec.basis)
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))

        def mul(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )

        for s, mat in mats.items():
            assert mul(mat, mat) == ident
        for s in mats:
            for t in mats:
                if s == t:
                    continue
                prod = mul(mats[s], mats[t])
                power = prod
                order = 1
                while power != ident:
                    power = mul(power, prod)
                    order += 1
                assert order == spec.system.coxeter_matrix[s][t]


def test_a2_trace_of_generator():
    spec = spec_for("A2")
    mat = spec.m1_matrices()[0]
    assert sum(mat[i][i] for i in range(4)) == 0


def test_character_routes_agree():
    for label in ("A2", "A3", "B2", "B3"):
        spec = spec_for(label)
        for cls in spec.system.conjugacy_classes():
            rep = cls[0]
            chi = spec.character_m1(rep)
            assert chi == spec.character_gr_m1(rep)
            assert chi == spec.induced_character_sum(rep)


def test_character_at_identity_is_dimension():
    for label, dim in [("A2", 4), ("A3", 10)]:
        spec = spec_for(label)
        assert spec.character_m1(0) == dim
        assert spec.induced_character_sum(0) == dim


def test_a2_class_function_values():
    spec = spec_for("A2")
    rows = spec.class_function_report()
    assert [r["chi_m1"] for r in rows] == [4, 0, 1]
    assert [r["class_size"] for r in rows] == [1, 3, 2]


def test_epsilon_cocycle_randomized():
    spec = spec_for("A3")
    system = spec.system
    rng = random.Random(64)
    ids = system.all_ids()
    for _ in range(120):
        x, y = rng.choice(ids), rng.choice(ids)
        wid = rng.choice(spec.basis)
        xy = system.element_id_from_word(system.word_of(x) + system.word_of(y))
        assert spec.epsilon(xy, wid) == spec.epsilon(
            x, system.conjugate(y, wid)
        ) * spec.epsilon(y, wid)


def test_epsilon_on_generators():
    spec = spec_for("B2")
    system = spec.system
    for wid in spec.basis:
        for s in range(system.rank):
            sw = system.lmul(s, wid)
            expected = (
                -1
                if sw == system.rmul(wid, s)
                and system.length_of(sw) < system.length_of(wid)
                else 1
            )
            assert spec.epsilon(system.element_id_from_word([s]), wid) == expected


def specialize_suite(system):
    return run_suites(system, ["specialize-u1"])[0]


def test_grading_through_verify():
    """h rises along commuting ascents, the filtration is stable and the
    graded action is the signed conjugation, as the suite checks them."""
    for label in ("A1", "A2", "A3", "A4", "A5", "B2", "B3"):
        res = specialize_suite(build_system(label))
        assert res.ok() and res.checks > 0, label
    a2 = spec_for("A2")
    assert [h_value(a2.system, w) for w in a2.basis] == [0, 1, 1, 1]
    assert a2.h_values() == dict(zip(a2.basis, [0, 1, 1, 1]))


def test_type_a_model_property_through_verify(monkeypatch):
    """On A_{n-1} the suite checks sum |C| chi(C)^2 = |W| p(n), once."""
    calls = []

    def recording(n):
        calls.append(n)
        return partition_count(n)

    monkeypatch.setattr(verify, "partition_count", recording)
    for n, dim in [(2, 2), (3, 4), (4, 10), (5, 26), (6, 76)]:
        system = build_system(f"A{n - 1}")
        res = specialize_suite(system)
        assert res.ok(), n
        assert calls == [n] and len(system.twisted_involution_ids()) == dim
        calls.clear()
    # products, other types and twisted systems get no model check
    for label, delta in [("B3", None), ("D4", None), ("A2xA1", None),
                         ("A3", [2, 1, 0])]:
        res = specialize_suite(build_system(label, delta=delta))
        assert res.ok() and not calls, label


@pytest.mark.parametrize(
    "label, checks",
    [("B3", 247), ("D4", 617), ("F4", 1829), ("A1", 51), ("A2", 72),
     ("A3", 145), ("A4", 380), ("A5", 1247)],
)
def test_specialize_check_counts(label, checks):
    """The check counts: type A_{n-1} carries the one model check."""
    res = specialize_suite(build_system(label))
    assert res.ok() and res.checks == checks


def _double(original):
    def wrong(self, *args):
        return {w: 2 * c for w, c in original(self, *args).items()}
    return wrong


@pytest.mark.parametrize(
    "target, name, wrong, kinds",
    [
        (SpecializedModule, "apply_gen", _double(SpecializedModule.apply_gen),
         {"coherence", "involution_matrix"}),
        (SpecializedModule, "h_values",
         lambda self: dict.fromkeys(self.basis, 0), {"grading"}),
        (SpecializedModule, "induced_character_sum",
         lambda self, xid: -1, {"character"}),
        (verify, "partition_count", lambda n: 1, {"model"}),
        (SpecializedModule, "epsilon", lambda self, xid, wid: -1, {"cocycle"}),
    ],
    ids=["apply_gen", "h_values", "induced_character_sum", "partition_count",
         "epsilon"],
)
def test_every_check_kind_fires(monkeypatch, target, name, wrong, kinds):
    """A wrong value from each route is reported as its kind of failure,
    not raised."""
    monkeypatch.setattr(target, name, wrong)
    res = specialize_suite(build_system("A3"))
    assert kinds <= {f["kind"] for f in res.failures}


def test_coherence_compares_whole_polynomials(monkeypatch):
    """T_s a_w perturbed by (4u^2 - 13u + 9) a_w, which vanishes at u = 1
    and at u = 9/4 (v = 3/2), is a coherence failure of that pair only."""
    system = build_system("B3")
    module = InvolutionModule(system)
    wid = module.involution_ids[5]
    extra = MVector({wid: 4 * u_pow(2) - 13 * u_pow(1) + 9})
    ts_action = InvolutionModule.ts_action

    def perturbed(self, s, m):
        out = ts_action(self, s, m)
        return out + extra if s == 1 and m == MVector.basis(wid) else out

    monkeypatch.setattr(InvolutionModule, "ts_action", perturbed)
    res = specialize_suite(system)
    assert res.failures == [
        {"kind": "coherence", "s": 1, "w": list(system.word_of(wid))}
    ]


def test_one_generic_image_per_pair(monkeypatch):
    """The suite computes T_s a_w once per (w, s) and never builds the
    dense generator matrices."""
    calls = []
    ts_action = InvolutionModule.ts_action

    def counting(self, s, m):
        calls.append(s)
        return ts_action(self, s, m)

    def no_matrices(self):
        raise AssertionError("m1_matrices called by the suite")

    monkeypatch.setattr(InvolutionModule, "ts_action", counting)
    monkeypatch.setattr(SpecializedModule, "m1_matrices", no_matrices)
    res = specialize_suite(build_system("B3"))
    assert res.ok() and len(calls) == 20 * 3


def test_m1_matrices_read_only_the_index():
    system = build_system("A3")
    mats = SpecializedModule(Involutions(system)).m1_matrices()
    assert mats == SpecializedModule(InvolutionModule(system)).m1_matrices()


def test_twisted_systems_are_rejected():
    module = InvolutionModule(build_system("A3", delta=[2, 1, 0]))
    with pytest.raises(ValueError):
        SpecializedModule(module)


def test_reflection_rep_invariants():
    for label in ("A2", "B2", "G2", "A3", "D4"):
        system = build_system(label)
        rep = reflection_rep(system)
        n = system.rank
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        for s, mat in rep.items():
            assert matmul(mat, mat) == ident
            for t in range(n):
                if t == s:
                    continue
                prod = matmul(mat, rep[t])
                power = prod
                order = 1
                while power != ident:
                    power = matmul(power, prod)
                    order += 1
                assert order == system.coxeter_matrix[s][t]


def test_h_values(a2):
    assert h_value(a2, 0) == 0
    a1 = build_system("A1")
    assert h_value(a1, a1.element_id_from_word([0])) == 1
    sts = a2.element_id_from_word([0, 1, 0])
    assert h_value(a2, sts) == 1
    assert [h_value(a2, w) for w in a2.twisted_involution_ids()] == [0, 1, 1, 1]
    with pytest.raises(ValueError):
        h_value(build_system("I2(5)"), 0)


@pytest.mark.parametrize("label", ["B3", "D4", "F4"])
def test_h_value_equals_the_dense_product(label):
    system = build_system(label)
    dense = {w: h_value_dense(system, w) for w in system.twisted_involution_ids()}
    assert {w: h_value(system, w) for w in dense} == dense
    assert SpecializedModule(Involutions(system)).h_values() == dense


def test_integer_rank_matches_fraction_elimination():
    rng = random.Random(20110921)
    deficient = 0
    for trial in range(300):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        bound = 10 ** rng.choice((1, 3, 20))
        if trial % 3 == 0 and rows and cols:
            # a product through a thin middle has rank at most its width
            k = rng.randint(0, min(rows, cols) - 1)
            left = [[rng.randint(-bound, bound) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(k)]
            mat = [
                [sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                if k else [0] * cols
                for row in left
            ]
        else:
            mat = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        rank = bareiss([list(row) for row in mat], cols)
        assert rank == fraction_rank(mat), mat
        deficient += rank < min(rows, cols)
    assert deficient >= 50


def test_bareiss_matches_the_dense_elimination():
    """Rewriting only the pivot row's support when the pivot repeats (p = d)
    leaves the same rows and rank as the dense update, on random integer
    matrices, many of them with repeated pivots, rank deficiency or extra
    right-hand columns past ``width``."""
    rng = random.Random(20261021)
    repeated = 0
    for trial in range(400):
        rows, cols = rng.randint(0, 7), rng.randint(0, 7)
        width = rng.randint(0, cols)
        bound = rng.choice((1, 2, 10 ** 3))
        sparse = rng.random() < 0.5
        mat = [
            [0 if sparse and rng.random() < 0.6 else rng.randint(-bound, bound)
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if trial % 4 == 0 and rows > 1:
            mat[-1] = [a + b for a, b in zip(mat[0], mat[1])]
        elif trial % 4 == 1 and rows and cols:
            mat[0][0] = 1
        fast, dense = [list(row) for row in mat], [list(row) for row in mat]
        rank = bareiss(fast, width)
        assert (rank, fast) == (dense_bareiss(dense, width), dense), (mat, width)
        assert rank == fraction_rank([row[:width] for row in mat]), mat
        # the first pivot repeats d = 1 when it is 1 and another row meets it
        first = next((col for col in list(zip(*mat))[:width] if any(col)), ())
        nonzero = [x for x in first if x]
        repeated += bool(nonzero) and nonzero[0] == 1 and len(nonzero) > 1
    assert repeated >= 50
