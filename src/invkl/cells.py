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
cell (``members_per_cell`` over the system's involution walk), loads
neither the involution module nor the Hecke algebra; only
``check_hf_relation`` imports them.

``check_hf_relation`` expands cdot_z cdot_w cdot_{z^-1} in the cdot basis
(coefficients h, from ``hecke.HeckeBases``) and c_z A_w in the canonical
involution basis (coefficients f, from ``invmodule.CanonicalVectors``) and
enforces, coefficient by coefficient, |f_n| <= h_n and f_n = h_n (mod 2)
through ``laurent.domination_failure``; in particular f != 0 forces h != 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import RelationViolated
from .laurent import ZERO, domination_failure

__all__ = [
    "CellPartition", "compute_cells", "involutions_per_cell", "members_per_cell",
    "check_hf_relation",
]

DEFAULT_CELL_CAP = 400


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


def check_hf_relation(zid, wid, kl, canonical):
    """Compare h- and f-constants for one pair; raise RelationViolated on failure.

    Returns {w': (h, f)} over the union of both supports restricted to
    involutions; the h-expansion may also touch non-involutions, which have
    no f side and are not constrained.
    """
    from .hecke import HeckeBases
    from .invmodule import CanonicalVectors, MVector

    sys = kl.system
    module = canonical.module
    hecke = HeckeBases(kl)
    vectors = CanonicalVectors(canonical)
    h_exp = hecke.h_constants(zid, wid)
    a_w = vectors.a_vector(wid)
    acted = MVector()
    for yid, coeff in hecke.cprime(zid).items():
        acted = acted + module.tw_action(yid, a_w).scaled(coeff)
    f_exp = vectors.expand_in_A(acted)

    involutions = set(module.involution_ids)
    report = {}
    for w2 in sorted(set(h_exp) | set(f_exp)):
        h = h_exp.get(w2, ZERO)
        f = f_exp.get(w2, ZERO)
        if w2 not in involutions:
            if not f.is_zero:
                raise RelationViolated(
                    "f-constant supported outside the involutions at "
                    f"{sys.word_of(w2)}"
                )
            continue
        report[w2] = (h, f)
        e = domination_failure(f, h)
        if e is not None:
            raise RelationViolated(
                "h/f coefficient domination or parity fails at "
                f"z={sys.word_of(zid)}, w={sys.word_of(wid)}, "
                f"w'={sys.word_of(w2)}, v-exponent {e}: h={h.coeff(e)}, f={f.coeff(e)}"
            )
    return report
