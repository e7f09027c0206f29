"""The (twisted) involutions of a Coxeter system, indexed for every layer.

For a generator s and a twisted involution w (meaning delta(w) = w^{-1}),
exactly one of four cases holds, with ws* short for w*delta(s):

* sw = ws* > w, or sw = ws* < w: s commutes with w, and the partner is sw;
* sw != ws* > w, or sw != ws* < w: the partner is s w s*.

For an ascent s, w^-1(alpha_s) is a positive root, and s commutes with w
exactly when that root is alpha_delta(s): the case is one comparison on
w's root payload, and the partner's payload is composed on the root engine
(``CoxeterSystem.twisted_ascent``).  Only the partner is interned, never the
intermediate sw, so a walk interns the involutions it finds and, under a
length cap, the ascent partners just past it, and nothing else.

``Involutions`` is the one place that holds these facts.  Its walk finds
the involutions and, in the same pass, decides the case and the partner of
every (s, w) once (``cases``) and records the left descents of each w as
one bit mask (``descent_masks``).  Every layer reads them there: the Hecke
module's T_s action and bar table, the canonical columns, the verify suites
and the u=1 module.  Bruhat order on the involutions is read from the same
table: ``interval(w)`` lists the y <= w by the lifting property, without
leaving the involutions.

Each case fixes the whole T_s action on a_w: (T_s + 1) a_w = c_w (a_w +
a_partner), c_w being 1 + u, u^2 - u, 1 or u^2 by the case (``CASE_POLYS``).
That table is the one statement of the rule; the module action, the bar
table and the canonical build derive their packed multipliers from it.

This index holds no module arithmetic.  ``table``, ``character``, ``cells``
and the canonical build read it alone; ``invmodule.InvolutionModule``
extends it with the T_s action, the packed module vectors and the bar
involution.
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
    """The twisted involutions of a system: ids, cases, descent masks, intervals.

    ``involution_ids`` lists them in ShortLex order.  ``cases[s][w]`` is the
    T_s case of w, (commuting, up, partner): ``commuting`` says sw = w
    delta(s), ``up`` that sw > w, and the partner is sw when commuting and
    s w delta(s) otherwise.  ``descent_masks[w]`` has bit s set for each
    left descent s of w.  :meth:`interval` gives the Bruhat interval below
    an involution, read from the same table.  With ``max_length`` the index
    holds only the involutions of at most that length (the Bruhat interval
    below each of them lies among them), and the walk that finds them stops
    there; an ascent case may name a partner beyond it.
    """

    def __init__(self, system, max_length=None):
        """Walk the involutions of at most ``max_length``, filling the index.

        The walk closes {1} under the ascents w -> sw (when sw = w delta(s))
        and w -> s w delta(s); both moves stay inside the twisted
        involutions and every one of them is reachable by length-increasing
        steps, so a walk that keeps only partners of length at most
        ``max_length`` finds exactly those of that length.  An ascent s of w
        with partner z records (commuting, True, z) at (s, w) and, when z is
        kept, (commuting, False, w) at (s, z).  Every descent of z is the
        ascent of its partner read backwards, so this fills every case.

        Each ascent is decided by ``CoxeterSystem.twisted_ascent``, which
        interns z alone, at l(w) + 1 or l(w) + 2, so ``max_elements`` still
        caps the walk; ``CoxeterSystem.shortlex_sorted`` orders the
        involutions without interning.  A fresh system ends the walk holding
        the involutions and the partners past ``max_length``, nothing else.
        """
        self.system = system
        rank, lengths = system.rank, system.lengths
        is_descent, ascent = system.is_left_descent, system.twisted_ascent
        self.cases = cases = [{} for _ in range(rank)]
        self.descent_masks = masks = {}
        frontier = [0]
        while frontier:
            nxt = set()
            for wid in frontier:
                mask = 0
                for s in range(rank):
                    if is_descent(s, wid):
                        mask |= 1 << s
                        continue
                    commuting, z = ascent(s, wid)
                    cases[s][wid] = (commuting, True, z)
                    if max_length is None or lengths[z] <= max_length:
                        cases[s][z] = (commuting, False, wid)
                        nxt.add(z)
                masks[wid] = mask
            frontier = sorted(nxt - masks.keys())
        self.involution_ids = tuple(system.shortlex_sorted(masks))
        self._position = {w: i for i, w in enumerate(self.involution_ids)}
        self._intervals = {0: (0,)}

    def is_involution(self, wid):
        """True iff w is a twisted involution of this index."""
        return wid in self.descent_masks

    def _require(self, wid):
        if wid not in self.descent_masks:
            raise ValueError(f"id {wid} is not a twisted involution")

    def action_case(self, s, wid):
        """(commuting, ascending, partner) for the T_s action on a_w."""
        return self.cases[s][wid]

    def smallest_descent(self, wid):
        """The smallest left descent of an involution w other than 1."""
        mask = self.descent_masks[wid]
        return (mask & -mask).bit_length() - 1

    def interval(self, wid):
        """The involutions y <= w in Bruhat order, in ``involution_ids`` order.

        Decided inside the involution graph by the lifting property for
        twisted involutions (Richardson-Springer 1990; Hultman, Adv. Math.
        2005): with s the smallest left descent of w and x its partner, the
        y <= w are the y <= x together with their s-partners.  Memoized as
        the id tuple itself.  The partners not below x are appended to the
        sorted interval of x before the sort, which then starts with one
        long ordered run.  Raises ``ValueError`` when w is not an involution
        of the index.
        """
        below = self._intervals.get(wid)
        if below is None:
            self._require(wid)
            cases = self.cases[self.smallest_descent(wid)]
            below = self.interval(cases[wid][2])
            members = set(below)
            new = [p for y in below if (p := cases[y][2]) not in members]
            below = self._intervals[wid] = tuple(
                sorted(below + tuple(new), key=self._position.__getitem__)
            )
        return below
