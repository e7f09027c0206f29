import random

import pytest

from invkl import build_system
from invkl.invmodule import InvolutionModule
from invkl.specialize import (
    SpecializedModule,
    _matmul,
    _rational_rank,
    h_value,
    model_check_typeA,
    partition_count,
    reflection_rep,
)

from helpers import fraction_rank


def spec_for(label):
    return SpecializedModule(InvolutionModule(build_system(label)))


def test_partition_count():
    assert [partition_count(n) for n in range(1, 8)] == [1, 2, 3, 5, 7, 11, 15]


def test_a1_generator_matrix():
    spec = spec_for("A1")
    m = spec.m1_matrices()
    assert m[0] == ((1, 0), (2, -1))


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


def test_h_grading_report():
    for label in ("A2", "A3", "B2", "B3"):
        spec = spec_for(label)
        report = spec.h_grading_check()
        assert report["violations"] == []
        assert report["ascent_instances"] > 0
    a2 = spec_for("A2")
    assert [h_value(a2.system, w) for w in a2.basis] == [0, 1, 1, 1]


def test_model_property():
    assert model_check_typeA(2) == (2, 2)
    assert model_check_typeA(3) == (4, 3)
    assert model_check_typeA(4) == (10, 5)
    assert model_check_typeA(5) == (26, 7)


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
            assert _matmul(mat, mat, n) == ident
            for t in range(n):
                if t == s:
                    continue
                prod = _matmul(mat, rep[t], n)
                power = prod
                order = 1
                while power != ident:
                    power = _matmul(power, prod, n)
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
        rank = _rational_rank(mat)
        assert rank == fraction_rank(mat), mat
        deficient += rank < min(rows, cols)
    assert deficient >= 50
