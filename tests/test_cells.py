import itertools

import pytest

from invkl import build_system
from invkl.canonical import CanonicalBasis
from invkl.cells import (
    check_hf_relation, compute_cells, hf_expansions, involutions_per_cell,
    members_per_cell,
)
from invkl.invmodule import InvolutionModule
from invkl.klclassic import KLTable
from invkl.laurent import ONE

from helpers import cells_by_t_basis, hf_by_t_basis


def setup(label, delta=None):
    system = build_system(label, delta=delta)
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
        report = check_hf_relation(wid, a2_kl, a2_canonical)
        assert list(report) == a2.all_ids()
        assert report[0] == {wid: (ONE, ONE)}


def test_hf_relation_rejects_a_non_involution(a2, a2_kl, a2_canonical):
    """The h side relies on cdot_w being fixed by cdot_x -> cdot_{delta(x)^-1}."""
    with pytest.raises(ValueError, match="not a twisted involution"):
        check_hf_relation(a2.element_id_from_word([0, 1]), a2_kl, a2_canonical)


def test_hf_relation_exhaustive():
    for label in ("A2", "B2", "A3", "B3"):
        system, kl, module, basis = setup(label)
        for w in module.involution_ids:
            check_hf_relation(w, kl, basis)  # raises on violation


@pytest.mark.parametrize(
    "label, delta, pairs",
    [("A2", [1, 0], 24), ("A3", [2, 1, 0], 240), ("I2(5)", [1, 0], 60)],
)
def test_hf_relation_twisted(label, delta, pairs):
    """Twisted systems conjugate by cdot_{delta(z)^-1}; with cdot_{z^-1} the
    h side fails domination on some pairs of each of these."""
    system, kl, module, basis = setup(label, delta)
    checked = sum(
        len(check_hf_relation(w, kl, basis)) for w in module.involution_ids
    )
    assert checked == pairs == len(system.all_ids()) * len(module.involution_ids)


@pytest.mark.parametrize(
    "label, delta",
    [("A2", None), ("B2", None), ("A3", None), ("G2", None), ("I2(5)", None),
     ("A2xA1", None), ("A2", [1, 0]), ("A3", [2, 1, 0]), ("I2(5)", [1, 0])],
)
def test_hf_expansions_equal_the_t_basis_oracle(label, delta):
    """Both W-graph expansions equal the T-basis products entry by entry,
    the h side's non-involution entries included."""
    system, kl, module, basis = setup(label, delta)
    for w in module.involution_ids:
        seen = []
        for z, h, f in hf_expansions(w, kl, basis):
            assert (h, f) == hf_by_t_basis(z, w, kl, basis), (z, w)
            seen.append(z)
        assert seen == system.all_ids()


def test_hf_expansions_along_a_mu_two_edge_equal_the_t_basis_oracle():
    """mu(x, w) = 2 for the B5 involution w below and x = s0 s1 s0 s3 s4 s3 s4,
    with s0 and s4 ascents of w and descents of x, so cdot_s cdot_w carries
    2 cdot_x.  None of B3, B4, D4, D5, F4, H3 and A5 has a W-graph edge of
    mu 2 that a generator acts along."""
    system = build_system("B5")
    kl = KLTable(system)
    basis = CanonicalBasis(InvolutionModule(system))
    w = system.element_id_from_word((1, 0, 3, 2, 1, 4, 3, 2, 1, 0, 4, 3, 2, 1, 4, 3))
    x = system.element_id_from_word((0, 1, 0, 3, 4, 3, 4))
    assert (x, 2) in kl.mu_row(w)
    for z, h, f in hf_expansions(w, kl, basis):
        if system.length_of(z) > 1:
            break
        assert (h, f) == hf_by_t_basis(z, w, kl, basis), z
