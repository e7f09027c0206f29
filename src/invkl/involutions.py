"""The (twisted) involutions of a Coxeter system, indexed for every layer.

For a generator s and a twisted involution w (meaning delta(w) = w^{-1}),
exactly one of four cases holds, with ws* short for w*delta(s):

* sw = ws* > w, or sw = ws* < w: s commutes with w, and the partner is sw;
* sw != ws* > w, or sw != ws* < w: the partner is s w s*.

The case and the partner are decided once per (s, w) by the involution
enumeration (``CoxeterSystem.involution_action``), and every layer reads
that table through ``Involutions.action_case``: the Hecke module's T_s
action, the canonical columns, the verify suites and the u=1 module.
Bruhat order on the involutions is read from the same table:
``Involutions.interval(w)`` lists the y <= w by the lifting property,
without leaving the involutions.

Each case fixes the whole T_s action on a_w: (T_s + 1) a_w = c_w (a_w +
a_partner), c_w being 1 + u, u^2 - u, 1 or u^2 by the case (``CASE_POLYS``).
That table is the one statement of the rule; the module action, the bar
table and the canonical build derive their packed multipliers from it.

This index holds no module arithmetic.  ``table``, ``character`` and the
canonical build read it alone; ``invmodule.InvolutionModule`` extends it
with the T_s action, the packed module vectors and the bar involution.
"""

from __future__ import annotations

__all__ = ["CASE_POLYS", "Involutions"]

# c_w of (T_s + 1) a_w = c_w (a_w + a_partner), by the T_s case (commuting, up)
# of w, as u-coefficients
CASE_POLYS = {
    (True, True): (1, 1),        # 1 + u
    (True, False): (0, -1, 1),   # u^2 - u
    (False, True): (1,),         # 1
    (False, False): (0, 0, 1),   # u^2
}


class Involutions:
    """The twisted involutions of a system: ids, length layers, cases, intervals.

    ``involution_ids`` lists them in ShortLex order and ``layers`` groups
    them by length, in that order.  :meth:`action_case` reads the system's
    T_s case table and :meth:`interval` gives the Bruhat interval below an
    involution, read from the same table.  With ``max_length`` the index
    holds only the involutions of at most that length (the Bruhat interval
    below each of them lies among them), and the walk that finds them stops
    there.
    """

    def __init__(self, system, max_length=None):
        self.system = system
        self.involution_ids = system.twisted_involution_ids(max_length)
        self._action = system.involution_action(max_length)
        self._position = {w: i for i, w in enumerate(self.involution_ids)}
        by_length = {}
        for wid in self.involution_ids:
            by_length.setdefault(system.length_of(wid), []).append(wid)
        self.layers = list(by_length.values())
        # interval(w) as sorted positions, and the s-partner by position (None
        # for an ascent partner past max_length, which no interval reaches)
        self._below = [[0]] + [None] * (len(self.involution_ids) - 1)
        self._partners = [
            [self._position.get(self._action[w][s][2]) for w in self.involution_ids]
            for s in range(system.rank)
        ]

    def is_involution(self, wid):
        """True iff w is a twisted involution of this index."""
        return wid in self._position

    def _require(self, wid):
        if wid not in self._position:
            raise ValueError(f"id {wid} is not a twisted involution")

    def action_case(self, s, wid):
        """(commuting, ascending, partner) for the T_s action on a_w."""
        return self._action[wid][s]

    def interval(self, wid):
        """The involutions y <= w in Bruhat order, in ``involution_ids`` order.

        Decided inside the involution graph by the lifting property for
        twisted involutions (Richardson-Springer 1990; Hultman, Adv. Math.
        2005): with s the smallest left descent of w and x its partner, the
        y <= w are the y <= x together with their s-partners.  The recursion
        runs on positions in ``involution_ids``, with the s-partners read
        from one position list per generator, so an interval is a sort of
        ints with no key function.  The positions are memoized and mapped
        back to ids on each call.  Raises ``ValueError`` when w is not an
        involution of the index.
        """
        self._require(wid)
        return tuple(map(self.involution_ids.__getitem__, self._below_positions(wid)))

    def _below_positions(self, wid):
        """The positions of the y <= w, sorted."""
        i = self._position[wid]
        below = self._below[i]
        if below is None:
            cases = self._action[wid]
            s = next(s for s, case in enumerate(cases) if not case[1])
            below = self._below_positions(cases[s][2])
            members = set(below)
            members.update(map(self._partners[s].__getitem__, below))
            below = self._below[i] = sorted(members)
        return below
