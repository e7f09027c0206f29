"""Two-sided cells and the compatibility between h- and f-constants.

The two-sided preorder is generated one step at a time: y is reachable from
w when cdot_y appears in cdot_s cdot_w or cdot_w cdot_s for some generator.
For an ascent these supports are {cdot_sw} plus the mu-correction terms:
the z in the classical table's mu row of w that have s as a descent on the
same side.  So the reachability graph is read straight off the sparse mu
rows, with no Bruhat test and no scan of the group; sw, ws and the descents
come from the system's complete generator tables and length list.  Cells
are the strongly connected components; the component order is the
quotient preorder.  Computing them, and counting the involutions of each
cell (``members_per_cell`` over the system's involution walk), does not
load the involution module.

The h/f relation (``hf_expansions``, ``check_hf_relation``) reads the same
mu rows and the ``ms_constants`` of a ``CanonicalBasis``, by W-graph
recursions, with no T-basis product and no module arithmetic.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RelationViolated
from .laurent import LaurentPoly, ONE, ZERO, add_into, domination_failure

__all__ = [
    "CellPartition", "compute_cells", "involutions_per_cell", "members_per_cell",
    "check_hf_relation", "hf_expansions",
]

DEFAULT_CELL_CAP = 400
_V_PLUS = LaurentPoly((1, 0, 1), -1)         # v + v^-1
_U_PLUS = LaurentPoly((1, 0, 0, 0, 1), -2)   # v^2 + v^-2


class CellPartition(NamedTuple):
    """Two-sided cells (id tuples) plus the partial order on cell indices."""

    cells: tuple
    preorder: frozenset  # (i, j) present iff cell i is below cell j


def _mu_edges(kl, wid, left, right):
    """One-step two-sided reachability: targets of cdot_s cdot_w and cdot_w cdot_s.

    ``left`` and ``right`` are the complete generator tables of the system;
    s is a left (right) descent of x exactly when sx (xs) is shorter.
    """
    length = kl.system.lengths
    lw = length[wid]
    out = set()
    row = kl.mu_row(wid)
    for s_left, s_right in zip(left, right):
        sw = s_left[wid]
        if length[sw] > lw:
            out.add(sw)
            out.update(z for z, _ in row if length[s_left[z]] < length[z])
        ws = s_right[wid]
        if length[ws] > lw:
            out.add(ws)
            out.update(z for z, _ in row if length[s_right[z]] < length[z])
    out.discard(wid)
    return out


def compute_cells(kl, cap=DEFAULT_CELL_CAP):
    """Partition the group into two-sided cells (strongly connected parts).

    The group is enumerated one length layer at a time, and a group of more
    than ``cap`` elements raises ``ValueError`` as soon as the layers pass it.
    """
    sys = kl.system
    ids, k = [], 0
    while True:
        more = sys.all_ids(k)
        if len(more) > cap:
            raise ValueError(
                f"cell computation is gated at {cap} elements; "
                f"this group has more than {cap}"
            )
        if len(more) == len(ids):
            break
        ids, k = more, k + 1
    left, right = sys.generator_tables()
    graph = {wid: sorted(_mu_edges(kl, wid, left, right)) for wid in ids}

    # iterative Tarjan strongly-connected components
    index = {}
    low = {}
    on_stack = set()
    stack = []
    counter = [0]
    components = []

    for root in ids:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(graph[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    on_stack.discard(x)
                    comp.append(x)
                    if x == node:
                        break
                components.append(comp)

    cells = [tuple(sorted(c, key=sys.shortlex_key)) for c in components]
    cells.sort(key=lambda cell: sys.shortlex_key(cell[0]))
    cell_of = {}
    for i, cell in enumerate(cells):
        for wid in cell:
            cell_of[wid] = i

    # reachability between cells gives the quotient partial order
    adj = {i: set() for i in range(len(cells))}
    for wid, targets in graph.items():
        for t in targets:
            if cell_of[t] != cell_of[wid]:
                adj[cell_of[wid]].add(cell_of[t])
    reach = {}
    for i in range(len(cells)):
        seen = {i}
        frontier = [i]
        while frontier:
            nxt = []
            for j in frontier:
                for k in adj[j]:
                    if k not in seen:
                        seen.add(k)
                        nxt.append(k)
            frontier = nxt
        reach[i] = seen
    preorder = frozenset(
        (j, i) for i in range(len(cells)) for j in reach[i]
    )
    return CellPartition(cells=tuple(cells), preorder=preorder)


def involutions_per_cell(partition, module):
    """Number of involutions inside each cell, aligned with partition.cells."""
    return members_per_cell(partition, module.involution_ids)


def members_per_cell(partition, ids):
    """Number of the elements ``ids`` inside each cell, aligned with partition.cells."""
    members = set(ids)
    return [sum(1 for w in cell if w in members) for cell in partition.cells]


def _unfold(xid, vectors, steps, images):
    """vectors[x], filled along ``steps``: for x = s x', the terms of
    ``images[s]`` applied to vectors[x'], less mu(y, x') vectors[y] over
    the (y, mu) of ``steps[x]``.  A coefficient ``ONE`` is not multiplied."""
    vec = vectors.get(xid)
    if vec is None:
        s, prev, corrections = steps[xid]
        vec = {}
        for y, f in _unfold(prev, vectors, steps, images).items():
            for x, c in images[s][y]:
                add_into(vec, x, f if c is ONE else f * c)
        for y, m in corrections:
            for x, f in _unfold(y, vectors, steps, images).items():
                add_into(vec, x, -f if m is ONE else -(f * m))
        vectors[xid] = vec
    return vec


def hf_expansions(wid, kl, canonical):
    """Yield (z, h, f) for every z of the group, h and f as {w': coefficient}.

    With s the first letter of z, c_z = c_s c_sz less mu(y, sz) c_y over
    the y in sz's mu row with sy < y, in the cdot basis and in the
    u^2-algebra alike.  A generator acts in closed form: cdot_s cdot_y is
    (v + v^-1) cdot_y for a descent s of y, otherwise cdot_sy plus
    mu(x, y) cdot_x over the x in y's mu row with sx < x (the W-graph of
    Kazhdan and Lusztig, 1979); c_s A_x is (v^2 + v^-2) A_x for a descent,
    otherwise its s-partner, times v + v^-1 when s commutes with x, plus
    ``ms_constants(s, x)``.  So f (of c_z A_w) and L_z = cdot_z cdot_w
    unfold once for every z.  The anti-automorphism cdot_x ->
    cdot_{delta(x)^-1} fixes cdot_w and takes L_z to cdot_w
    cdot_{delta(z)^-1}, from which h (of cdot_z cdot_w cdot_{delta(z)^-1})
    unfolds, memoized per z.  A w that is not an involution of
    ``canonical.module`` raises ``ValueError``.
    """
    sys, module = kl.system, canonical.module
    if not module.is_involution(wid):
        raise ValueError(f"{sys.word_of(wid)} is not a twisted involution")
    ids, length = sys.all_ids(), sys.lengths
    left, right = sys.generator_tables()
    cdot, c_acts, steps, twisted = [], [], {}, {0: 0}
    for s, row in enumerate(left):
        images, acts = {}, {}
        for y in ids:
            if length[row[y]] < length[y]:
                images[y] = ((y, _V_PLUS),)
            else:
                images[y] = ((row[y], ONE),) + tuple(
                    (x, ONE if m == 1 else LaurentPoly((m,)))
                    for x, m in kl.mu_row(y) if length[row[x]] < length[x]
                )
        for x in module.involution_ids:
            commuting, up, other = module.action_case(s, x)
            if not up:
                acts[x] = ((x, _U_PLUS),)
            else:
                acts[x] = ((other, _V_PLUS if commuting else ONE),) + tuple(
                    canonical.ms_constants(s, x).items()
                )
        cdot.append(images)
        c_acts.append(acts)
    for z in ids[1:]:
        s = sys.word_of(z)[0]
        prev = left[s][z]
        steps[z] = (s, prev, cdot[s][prev][1:])
        twisted[z] = right[sys.delta[s]][twisted[prev]]   # delta(z)^-1
    l_vectors, f_vectors = {0: {wid: ONE}}, {0: {wid: ONE}}
    for z in ids:
        start = {twisted[y]: f for y, f in _unfold(z, l_vectors, steps, cdot).items()}
        yield z, _unfold(z, {0: start}, steps, cdot), _unfold(z, f_vectors, steps, c_acts)


def check_hf_relation(wid, kl, canonical):
    """Check |f_n| <= h_n and f_n = h_n (mod 2) on every coefficient of
    ``hf_expansions`` at an involution; raise RelationViolated at the first
    failure of ``domination_failure``.  Returns {z: {w': (h, f)}}, w' over
    the involutions in either support.
    """
    sys = kl.system
    report = {}
    for z, h_exp, f_exp in hf_expansions(wid, kl, canonical):
        report[z] = rows = {}
        for w2 in sorted(set(h_exp) | set(f_exp)):
            if not canonical.module.is_involution(w2):
                continue
            h, f = rows[w2] = h_exp.get(w2, ZERO), f_exp.get(w2, ZERO)
            e = domination_failure(f, h)
            if e is not None:
                raise RelationViolated(
                    "h/f coefficient domination or parity fails at "
                    f"z={sys.word_of(z)}, w={sys.word_of(wid)}, "
                    f"w'={sys.word_of(w2)}, v-exponent {e}: h={h.coeff(e)}, f={f.coeff(e)}"
                )
    return report
