import itertools

import pytest

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.cells import (
    check_hf_relation, compute_cells, involutions_per_cell, members_per_cell,
)
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.laurent import ONE

from helpers import cells_by_t_basis


def setup(label):
    system = build_system(label)
    kl = KLTable(system)
    module = InvolutionModule(system)
    basis = CanonicalBasis(module).build()
    return system, kl, module, basis


def test_a2_partition(a2, a2_kl, a2_module):
    part = compute_cells(a2_kl)
    words = [
        tuple(sorted(a2.word_of(w) for w in cell)) for cell in part.cells
    ]
    assert words == [
        ((),),
        ((0,), (0, 1), (1,), (1, 0)),
        ((0, 1, 0),),
    ]
    assert involutions_per_cell(part, a2_module) == [1, 2, 1]
    # identity and longest element are singleton cells
    assert part.cells[0] == (0,)
    assert len(part.cells[-1]) == 1


def test_partition_properties():
    for label in ("A3", "B2"):
        system, kl, module, _ = setup(label)
        part = compute_cells(kl)
        all_members = sorted(w for cell in part.cells for w in cell)
        assert all_members == sorted(system.all_ids())
        counts = involutions_per_cell(part, module)
        assert sum(counts) == len(module.involution_ids)
        assert members_per_cell(part, system.twisted_involution_ids()) == counts
        # the preorder is a partial order on cells
        n = len(part.cells)
        for i in range(n):
            assert (i, i) in part.preorder
        for i, j in itertools.product(range(n), range(n)):
            if (i, j) in part.preorder and (j, i) in part.preorder:
                assert i == j
        for i, j, k in itertools.product(range(n), repeat=3):
            if (i, j) in part.preorder and (j, k) in part.preorder:
                assert (i, k) in part.preorder


def test_partition_matches_t_basis_oracle():
    for label in ("A2", "B2"):
        system, kl, module, _ = setup(label)
        part = compute_cells(kl)
        oracle = cells_by_t_basis(system, kl)
        assert sorted(tuple(sorted(c)) for c in part.cells) == sorted(
            tuple(sorted(c)) for c in oracle
        )


def test_cell_cap():
    system, kl, _, _ = setup("A3")
    with pytest.raises(ValueError):
        compute_cells(kl, cap=10)


def test_cell_cap_fails_before_enumerating_the_group():
    """E7 (2,903,040 elements) is rejected at the default cap once its first
    length layers pass it, with the gate message."""
    system = build_system("E7")
    with pytest.raises(ValueError, match="gated at 400"):
        compute_cells(KLTable(system))
    assert len(system.lengths) < 2000


def test_hf_unit(a2, a2_kl, a2_module, a2_canonical):
    for wid in a2_module.involution_ids:
        report = check_hf_relation(0, wid, a2_kl, a2_canonical)
        assert report[wid] == (ONE, ONE)
        assert all(
            h.is_zero and f.is_zero
            for w2, (h, f) in report.items()
            if w2 != wid
        )


def test_hf_relation_exhaustive():
    for label in ("A2", "B2", "A3"):
        system, kl, module, basis = setup(label)
        for z in system.all_ids():
            for w in module.involution_ids:
                check_hf_relation(z, w, kl, basis)  # raises on violation
