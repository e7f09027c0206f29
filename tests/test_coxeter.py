import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import invkl
from invkl import build_system, coxeter
from invkl.coxeter import _CycloField
from invkl.specialize import h_value, reflection_rep

from helpers import (
    FractionCycloField, brute_twisted_involutions, conjugate_by_products,
    matrix_along, subword_bruhat,
)


def test_classification_examples():
    a2 = build_system("A2")
    assert a2.rank == 2 and a2.coxeter_matrix[0][1] == 3
    b2 = build_system("B2")
    assert b2.rank == 2 and b2.coxeter_matrix[0][1] == 4
    a3 = build_system("A3", delta="delta=2,1,0")
    assert a3.delta == (2, 1, 0) and a3.is_twisted


def test_build_errors():
    with pytest.raises(ValueError):
        build_system("H5")
    with pytest.raises(ValueError):
        build_system("A2", delta=[1, 1])
    with pytest.raises(ValueError):
        build_system("A3", delta=[1, 0, 2])  # breaks m(0,2) = 2 vs m(1,2) = 3
    with pytest.raises(ValueError):
        build_system([[1, 3], [3, 2]], finite=True)
    with pytest.raises(ValueError):
        build_system([[1, 3], [3, 1]])  # raw matrix without finite=True


def test_lmul_rmul_and_lengths(a2):
    s = a2.lmul(0, 0)
    assert a2.word_of(s) == (0,) and a2.length_of(s) == 1
    st = a2.rmul(s, 1)
    assert a2.word_of(st) == (0, 1)
    # cancellation: s * (st) = t
    t = a2.lmul(0, st)
    assert a2.word_of(t) == (1,)
    sts = a2.rmul(st, 0)
    assert a2.length_of(sts) == 3
    for wid in a2.all_ids():
        for g in range(2):
            assert abs(a2.length_of(a2.lmul(g, wid)) - a2.length_of(wid)) == 1


def test_defining_relations_exhaustive():
    for label in ("A2", "B2", "A3"):
        system = build_system(label)
        for el in system.enumerate_all():
            for s in range(system.rank):
                assert system.lmul(s, system.lmul(s, el.id)) == el.id
            for s in range(system.rank):
                for t in range(system.rank):
                    if s == t:
                        continue
                    m = system.coxeter_matrix[s][t]
                    a = el.id
                    b = el.id
                    for k in range(m):
                        a = system.lmul(s if k % 2 == 0 else t, a)
                        b = system.lmul(t if k % 2 == 0 else s, b)
                    assert a == b


def test_inverse_descents(a2, b2):
    sts = a2.element_id_from_word([0, 1, 0])
    assert a2.inverse_id(sts) == sts
    assert a2.left_descents(sts) == (0, 1)
    assert a2.left_descents(0) == ()
    assert a2.length_of(0) == 0
    w0 = b2.element_id_from_word([0, 1, 0, 1])
    assert b2.length_of(w0) == 4
    assert b2.inverse_id(w0) == w0


def _inverse_by_word(system, wid):
    """The word-walk oracle: w^-1 as the product of w's word reversed."""
    return system.element_id_from_word(tuple(reversed(system.word_of(wid))))


@pytest.mark.parametrize(
    "label, delta, max_length",
    [("F4", None, None), ("H3", None, None), ("I2(7)", None, None),
     ("E6", [5, 1, 4, 3, 2, 0], 6)],
)
def test_inverse_is_the_word_walk(label, delta, max_length):
    """On every element of the group, or every element a capped twisted walk
    interned, w^-1 is the word-walk oracle and inverting twice gives w."""
    system = build_system(label, delta=delta)
    if max_length is None:
        ids = system.all_ids()
    else:
        system.twisted_involution_ids(max_length)
        ids = range(len(system.lengths))
    for wid in ids:
        inv = system.inverse_id(wid)
        assert system.length_of(inv) == system.length_of(wid)
        assert system.inverse_id(inv) == wid
        assert inv == _inverse_by_word(system, wid), (label, wid)
    if max_length is not None:
        assert len(system.lengths) < 51840


def test_inverse_interns_a_new_element_under_the_cap():
    """On a fresh partial walk w^-1 is interned at l(w), once; with the cap
    binding, interning it raises the cap error."""
    system = build_system("E6")
    wid = system.element_id_from_word((0, 2, 3, 4, 5))
    n = len(system.lengths)
    inv = system.inverse_id(wid)
    assert inv == n and len(system.lengths) == n + 1
    assert system.length_of(inv) == 5
    assert system.inverse_id(wid) == inv and system.inverse_id(inv) == wid
    assert len(system.lengths) == n + 1
    assert inv == _inverse_by_word(system, wid)

    capped = build_system("A3", max_elements=6)   # A3 has 6 positive roots
    w = capped.element_id_from_word((0, 1, 2))
    s, t = capped.element_id_from_word((1,)), capped.element_id_from_word((2,))
    assert len(capped.lengths) == 6
    assert capped.inverse_id(s) == s and capped.inverse_id(t) == t
    with pytest.raises(ValueError, match="element cap"):
        capped.inverse_id(w)
    assert len(capped.lengths) == 6


def test_shortlex_words():
    a3 = build_system("A3")
    for el in a3.enumerate_all():
        # the stored word is reduced and ShortLex-minimal among all reduced words
        assert len(el.word) == el.length
        words = _all_reduced_words(a3, el.id)
        assert el.word == min(words)


def _all_reduced_words(system, wid):
    if wid == 0:
        return {()}
    out = set()
    for s in system.left_descents(wid):
        for rest in _all_reduced_words(system, system.lmul(s, wid)):
            out.add((s,) + rest)
    return out


def test_bruhat_examples(a2):
    s = a2.element_id_from_word([0])
    t = a2.element_id_from_word([1])
    sts = a2.element_id_from_word([0, 1, 0])
    for wid in a2.all_ids():
        assert a2.bruhat_leq_ids(0, wid)
    assert a2.bruhat_leq_ids(s, sts)
    assert not a2.bruhat_leq_ids(s, t)


def test_bruhat_matches_subword_criterion():
    for label in ("A2", "B2", "A3"):
        system = build_system(label)
        ids = system.all_ids()
        for y, w in itertools.product(ids, ids):
            assert system.bruhat_leq_ids(y, w) == subword_bruhat(system, y, w)


def test_bruhat_refines_length(a3):
    ids = a3.all_ids()
    for y, w in itertools.product(ids, ids):
        if a3.bruhat_leq_ids(y, w):
            assert a3.length_of(y) <= a3.length_of(w)
            if a3.length_of(y) == a3.length_of(w):
                assert y == w


def test_enumeration_counts():
    assert len(build_system("A1").enumerate_all()) == 2
    assert len(build_system("A2").enumerate_all()) == 6
    assert len(build_system("A3").enumerate_all()) == 24
    assert len(build_system("A2×A1").enumerate_all()) == 12
    a3 = build_system("A3")
    up2 = [a3.length_of(w) for w in a3.all_ids(2)]
    assert up2 == sorted(up2)
    assert len(up2) == 1 + 3 + 5


def test_involutions_match_brute_force():
    cases = [
        ("A1", None, 2),
        ("A2", None, 4),
        ("A3", None, 10),
        ("A3", [2, 1, 0], None),
        ("B2", None, 6),
        ("D4", [0, 1, 3, 2], None),
    ]
    for label, delta, count in cases:
        system = build_system(label, delta=delta)
        fast = list(system.twisted_involution_ids())
        assert fast == brute_twisted_involutions(system)
        if count is not None:
            assert len(fast) == count
        lengths = [system.length_of(w) for w in fast]
        assert lengths == sorted(lengths)


def test_involutions_closed_under_twisting():
    for label, delta in [("A3", None), ("A3", [2, 1, 0]), ("B2", None)]:
        system = build_system(label, delta=delta)
        members = set(system.twisted_involution_ids())
        for wid in members:
            for s in range(system.rank):
                z = system.rmul(system.lmul(s, wid), system.delta[s])
                assert z in members


def test_commuting_ascent_increases_h():
    # h(sw) > h(w) whenever sw = ws > w, checked on every instance
    for label in ("A2", "A3", "B2", "B3", "G2"):
        system = build_system(label)
        for wid in system.twisted_involution_ids():
            for s in range(system.rank):
                sw = system.lmul(s, wid)
                if sw == system.rmul(wid, s) and system.length_of(sw) > system.length_of(wid):
                    assert h_value(system, sw) > h_value(system, wid)


H3 = [[1, 5, 2], [5, 1, 3], [2, 3, 1]]
H4 = [[1, 5, 2, 2], [5, 1, 3, 2], [2, 3, 1, 3], [2, 2, 3, 1]]


@pytest.mark.parametrize(
    "spec, order, longest, involutions",
    [
        pytest.param("I2(5)", 10, 5, 6, id="I2(5)"),
        pytest.param("I2(7)", 14, 7, 8, id="I2(7)"),
        pytest.param("I2(8)", 16, 8, 10, id="I2(8)"),
        pytest.param(H3, 120, 15, 32, id="H3"),
        pytest.param(H4, 14400, 60, 572, id="H4"),
        pytest.param("H3", 120, 15, 32, id="H3-label"),
        pytest.param("H4", 14400, 60, 572, id="H4-label"),
        pytest.param("E6", 51840, 36, 892, id="E6"),
    ],
)
def test_known_group_orders(spec, order, longest, involutions):
    """Group order, length of the longest element (|positive roots|), involutions."""
    system = build_system(spec, finite=True)
    elements = system.enumerate_all()
    assert len(elements) == order
    assert elements[-1].length == longest
    assert len(system.twisted_involution_ids()) == involutions


def test_h_labels_match_raw_matrices():
    """H3 and H4 labels: Bourbaki numbering, 5 on the first edge."""
    assert build_system("H3").coxeter_matrix == tuple(map(tuple, H3))
    assert build_system("H4").coxeter_matrix == tuple(map(tuple, H4))
    assert not build_system("H3").crystallographic


def test_root_engine_matches_reflection_matrices():
    """Descents and lengths against root signs in the integer representation."""
    for label in ("A3", "B3", "D4", "G2", "F4"):
        system = build_system(label)
        mats = reflection_rep(system)
        n = system.rank
        for el in system.enumerate_all():
            assert system.length_of(el.id) == len(system.word_of(el.id))
            m = matrix_along(mats, el.word)
            minv = matrix_along(mats, el.word[::-1])
            for s in range(n):
                # ws < w iff w(alpha_s) < 0; sw < w iff w^-1(alpha_s) < 0
                right = system.length_of(system.rmul(el.id, s)) < el.length
                assert right == all(row[s] <= 0 for row in m)
                assert system.is_left_descent(s, el.id) == all(
                    row[s] <= 0 for row in minv
                )


def test_field_checks_survive_optimize():
    """The conductor check raises under python -O, where asserts vanish."""
    src = str(Path(invkl.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "from invkl.coxeter import _CycloField; _CycloField(12).two_cos_pi_over(5)"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode != 0
    assert "ValueError" in proc.stderr


@pytest.mark.parametrize(
    "label",
    ["A3", "B3", "G2", "F4", "E6", "H3", "H4", "I2(5)", "I2(8)", "I2(7)xA2"],
)
def test_integer_root_ring_matches_the_fraction_field(label, monkeypatch):
    """Int coordinates give the root numbering that Fraction ones gave.

    Every root coordinate is a field constant or a ``q_add``/``q_addmul``
    result (the simple roots are ``one``/``zero``, and reflecting replaces
    one coordinate by such a sum), so recording those results sees them all.
    """
    outputs = []

    def recording(fn):
        def call(*args):
            out = fn(*args)
            outputs.append(out)
            return out
        return call

    with monkeypatch.context() as m:
        m.setattr(coxeter, "q_add", recording(coxeter.q_add))
        m.setattr(coxeter, "q_addmul", recording(coxeter.q_addmul))
        system = build_system(label)
    assert outputs
    field = _CycloField(coxeter._conductor(system.coxeter_matrix))
    outputs += [field.zero, field.one]
    assert all(type(x) is int for out in outputs for x in out)
    engine = system._engine
    monkeypatch.setattr(coxeter, "_CycloField", FractionCycloField)
    oracle = build_system(label)._engine
    assert (engine.npos, engine.perms, engine.refl) == (
        oracle.npos, oracle.perms, oracle.refl,
    )


@pytest.mark.parametrize("label", ["F4", "B3", "B5", "G2", "H3", "H4", "I2(5)xA2"])
def test_the_smaller_field_gives_the_same_root_permutations(label, monkeypatch):
    """Only the Coxeter entries above 3 set the field: the conductor that
    took every entry above 2 numbered the roots the same way."""
    system = build_system(label)
    conductor = coxeter._conductor(system.coxeter_matrix)
    engine = system._engine
    monkeypatch.setattr(
        coxeter, "_conductor",
        lambda cox: max(math.lcm(*{m for row in cox for m in row if m > 2}), 3),
    )
    wide = build_system(label)
    assert coxeter._conductor(wide.coxeter_matrix) > conductor or label == "G2"
    assert (engine.npos, engine.perms, engine.refl) == (
        wide._engine.npos, wide._engine.perms, wide._engine.refl,
    )


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10, 12])
def test_two_cos_pi_over_evaluates_to_the_cosine(n):
    field = _CycloField(n)
    c = 2 * math.cos(math.pi / n)
    for m in range(1, n + 1):
        if n % m == 0:
            coords = field.two_cos_pi_over(m)
            assert all(type(x) is int for x in coords)
            value = sum(x * c ** i for i, x in enumerate(coords))
            assert abs(value - 2 * math.cos(math.pi / m)) < 1e-9, (n, m)


def test_element_cap():
    with pytest.raises(ValueError):
        build_system("A3", max_elements=10).enumerate_all()


def test_a_labelled_type_caps_elements_not_roots():
    """A labelled type is finite, so its root closure takes no cap: a
    capped A3 (6 positive roots) builds, and only interning passes the cap."""
    capped = build_system("A3", max_elements=4)
    assert [capped.element_id_from_word((s,)) for s in range(3)] == [1, 2, 3]
    with pytest.raises(ValueError, match=r"interning exceeds the element cap \(4\)"):
        capped.element_id_from_word((0, 1))


def test_a_raw_matrix_caps_its_root_closure():
    """A raw matrix declared finite keeps the root cap, and the message names
    both causes: an infinite group, or more positive roots than the cap."""
    affine_a2 = [[1, 3, 3], [3, 1, 3], [3, 3, 1]]   # infinitely many roots
    with pytest.raises(ValueError, match="does not define a finite group, or") as err:
        build_system(affine_a2, finite=True, max_elements=1000)
    assert "more positive roots than max_elements" in str(err.value)
    with pytest.raises(ValueError, match="root system exceeds the cap"):
        build_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]], finite=True, max_elements=4)
    assert build_system([[1, 3, 2], [3, 1, 3], [2, 3, 1]], finite=True).rank == 3


def test_element_cap_bounds_interning():
    """The cap counts interned elements, so involution enumeration stops at
    it too.  The walk interns the involutions alone: A3's 10 fit a cap of 10
    and not one of 9."""
    with pytest.raises(ValueError, match=r"element cap \(9\)"):
        build_system("A3", max_elements=9).twisted_involution_ids()
    capped = build_system("A3", max_elements=10)
    assert len(capped.twisted_involution_ids()) == len(capped.lengths) == 10


def _check_generator_tables(system, complete):
    """Each generator-table entry that is set equals ``lmul``/``rmul``, and
    the tables give the engine's descents; with ``complete``, none is unset."""
    left, right = (
        [list(row) for row in rows] for rows in system.generator_tables()
    )
    lengths = system.lengths
    n = len(lengths)
    assert len(left) == len(right) == system.rank
    for s in range(system.rank):
        assert len(left[s]) == len(right[s]) == n
        for wid in range(n):
            sw, ws = left[s][wid], right[s][wid]
            if complete:
                assert sw is not None and ws is not None, (s, wid)
            if sw is not None:
                assert sw == system.lmul(s, wid)
                assert (lengths[sw] < lengths[wid]) == system.is_left_descent(s, wid)
            if ws is not None:
                assert ws == system.rmul(wid, s)
                # s is a right descent of w iff w(alpha_s) is a negative root
                negative = system._payloads[wid][0][s] >= system._engine.npos
                assert (lengths[ws] < lengths[wid]) == negative


@pytest.mark.parametrize("label", ["A3", "B3", "F4", "I2(5)", "H3"])
def test_generator_tables_equal_the_products_and_descents(label):
    """Before enumeration the tables hold what the walk has met; ``all_ids``
    then makes them complete, and conjugation read from them equals the
    generator-by-generator route."""
    system = build_system(label)
    system.twisted_involution_ids(3)
    _check_generator_tables(system, complete=False)
    ids = system.all_ids()
    _check_generator_tables(system, complete=True)
    rng = random.Random(7)
    for _ in range(50):
        xid, wid = rng.choice(ids), rng.choice(ids)
        assert system.conjugate(xid, wid) == conjugate_by_products(system, xid, wid)


def test_generator_tables_of_a_capped_walk_do_not_enumerate():
    """On a capped E6 walk the tables are partial, handing them out interns
    nothing, and conjugation falls back to the products for unset entries."""
    system = build_system("E6")
    ids = system.twisted_involution_ids(6)
    interned = len(system.lengths)
    _check_generator_tables(system, complete=False)
    system.generator_tables()
    assert len(system.lengths) == interned < 51840
    for xid in ids[:40]:
        for wid in ids[-40:]:
            got = system.conjugate(xid, wid)  # before the oracle fills entries
            assert got == conjugate_by_products(system, xid, wid)
