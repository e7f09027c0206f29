"""Brute-force oracles shared by the test modules.

Everything here recomputes a quantity from first principles, avoiding the
code path it is meant to check.
"""

import json

from invkl.klclassic import HeckeAlgebra
from invkl.laurent import LaurentPoly, ONE, ZERO, spread, v_pow


def subword_bruhat(system, yid, wid):
    """y <= w iff some subword of a reduced word of w is a word for y."""
    word = system.word_of(wid)
    reachable = {0}
    for s in word:
        reachable |= {system.rmul(x, s) for x in reachable}
    return yid in reachable


def brute_twisted_involutions(system):
    """Filter the full group for delta(w) = w^-1, sorted by (length, word)."""
    hits = [
        el
        for el in system.enumerate_all()
        if system.delta_id(el.id) == system.inverse_id(el.id)
    ]
    hits.sort(key=lambda el: (el.length, el.word))
    return [el.id for el in hits]


def ms_constant_by_scan(basis, s, xid, wid):
    """ms_constant(s, x, w) by the pull formula, one mu' lookup per pair.

    An odd gap l(w) - l(x) gives mu'(x, w) (v + v^-1).  An even gap gives
    mu''(x, w) minus the mu' convolution over the whole descent interval,
    plus mu'(sx, w) when sx = x delta(s), minus mu'(x, sw) when
    sw = w delta(s).
    """
    system, module = basis.system, basis.module
    if (system.length_of(xid) - system.length_of(wid)) % 2:
        return basis.mu_prime(xid, wid) * (v_pow(1) + v_pow(-1))
    total = basis.mu_double_prime(xid, wid)
    for x2 in basis._descent_interval(s, wid):
        if x2 != xid:
            total -= basis.mu_prime(xid, x2) * basis.mu_prime(x2, wid)
    commuting, _up, sx = module.action_case(s, xid)
    if commuting:
        total += basis.mu_prime(sx, wid)
    commuting, _up, sw = module.action_case(s, wid)
    if commuting:
        total -= basis.mu_prime(xid, sw)
    return LaurentPoly((total,), 0)


def hecke_selfbar_column(kl, wid):
    """True iff cdot_w is fixed by the bar of the u-parameter Hecke algebra.

    Bar invariance plus the triangularity built into the table pins the
    column uniquely, so this is a complete independent check of P_{., w}.
    """
    alg = kl._h2
    col = kl.cdot(wid)
    return alg.bar_element(col) == col


def cells_by_t_basis(system, kl):
    """Two-sided cells from raw T-basis product supports (no mu shortcut)."""
    alg = HeckeAlgebra(system)
    ids = system.all_ids()
    edges = {wid: set() for wid in ids}
    for wid in ids:
        col = kl.cdot(wid)
        for s in range(system.rank):
            gen = kl.cdot(s_gen_id(system, s))
            left = kl.expand_in_cdot(alg.product(gen, col))
            right = kl.expand_in_cdot(alg.product(col, gen))
            for target in set(left) | set(right):
                if target != wid:
                    edges[wid].add(target)
    # transitive closure, then mutual reachability classes
    closure = {}
    for wid in ids:
        seen = {wid}
        stack = [wid]
        while stack:
            x = stack.pop()
            for t in edges[x]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        closure[wid] = seen
    cells = []
    assigned = set()
    for wid in ids:
        if wid in assigned:
            continue
        cell = {
            x for x in closure[wid] if wid in closure[x]
        }
        assigned |= cell
        cells.append(tuple(sorted(cell)))
    return sorted(cells, key=lambda c: (system.length_of(c[0]), c))


def s_gen_id(system, s):
    return system.element_id_from_word([s])


def alternating_word(s, t, count):
    return tuple(s if i % 2 == 0 else t for i in range(count))


def pair_texts_per_pair(system, poly_key, row):
    """The json item, csv fields and text line of a table or kl row.

    ``row`` is (y id, w id, u-coefficients, classical ones or None).  Every
    call builds a ``LaurentPoly`` per polynomial and joins both words anew,
    and the entry dict goes through ``json.dumps(indent=2)`` at its depth
    in the document, so no cache and no entry template of the CLI is used.
    """
    yid, wid, p, classic = row
    y, w = system.word_of(yid), system.word_of(wid)
    polys = [spread(p, 2)] + ([] if classic is None else [spread(classic, 2)])
    entry = {"y_word": list(y), "w_word": list(w), poly_key: polys[0].to_json_obj()}
    if classic is not None:
        entry["classic_poly"] = polys[1].to_json_obj()
    item = json.dumps(entry, indent=2).replace("\n", "\n    ")

    def dotted(word):
        return ".".join(str(s) for s in word) if word else "e"

    fields = [dotted(y), dotted(w)] + [lp.pair_string() for lp in polys]
    line = f"P[{dotted(y)}, {dotted(w)}] = {polys[0]}"
    if classic is not None:
        line += f"  (classical {polys[1]})"
    return item, fields, line
