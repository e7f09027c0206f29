"""The group module obtained from the involution module at u = 1.

At u = 1 the generator action on the basis (a_w) reads

    s . a_w = a_w + 2 a_{sw}   if sw = ws > w
    s . a_w = -a_w             if sw = ws < w
    s . a_w = a_{sws}          if sw != ws,

so each generator matrix squares to the identity and the braid relations
hold.  The invariant h(w) = dim ker(M_w + Id) of the reflection
representation filters the module: the span of {a_w : h(w) >= i} is stable,
and on the associated graded basis the action is by signed permutations
epsilon(x, w) a_{x w x^-1}.  Restricting epsilon to centralizers produces
the decomposition of the module into representations induced from linear
characters, which is what the character comparisons here exercise.

``SpecializedModule`` reads only the involution index
(``involutions.Involutions``): the action, the characters, the induced sums
and the h-grading are computed here, and checked in one place, the
``specialize-u1`` suite of ``verify``.  The integer reflection
representation (``reflection_rep``, ``h_value``) lives here, as the
h-grading is its only reader, and so does the fraction-free elimination
(``bareiss``) that gives its rank and solves the bar oracle of ``verify``.

Everything in this module requires the untwisted case (delta = identity).
"""

from __future__ import annotations

from .errors import TheoremMismatch
from .coxeter import _CRYSTAL_WEIGHT

__all__ = [
    "SpecializedModule",
    "bareiss",
    "partition_count",
    "reflection_rep",
    "h_value",
]


def bareiss(rows, width):
    """Fraction-free Gauss-Jordan elimination of integer rows, in place, on
    their first ``width`` columns (Bareiss, Math. Comp. 22, 1968); returns
    the number of pivots, the rank of those columns.

    Each pivot p is taken from the first row with a nonzero entry in its
    column at or below the pivots before, and every other row becomes
    (p row - f top) / d, f its entry in that column, top the pivot row and
    d the pivot before (1 at first).  After k pivots every entry is a minor
    of order k or k + 1 of the input (Sylvester's identity), so each
    division is exact and every entry stays an int.  At the end row i of
    the first rank rows has its pivot in its i-th pivot column and zeros in
    the others, and every later row is zero in the first ``width`` columns.
    When p = d, an entry whose pivot-row entry is 0 stays as it is, so only
    the pivot row's nonzero positions are rewritten, in the row itself.
    """
    rank, prev = 0, 1
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        pv = top[col]
        support = [(j, b) for j, b in enumerate(top) if b]
        for i, row in enumerate(rows):
            f = row[col]
            if i == rank:
                continue
            if pv != prev:
                rows[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
            elif f:
                for j, b in support:
                    row[j] = (pv * row[j] - f * b) // prev
        prev = pv
        rank += 1
    return rank


def _coxeter_to_cartan(cox):
    """An integer Cartan realization of a crystallographic Coxeter matrix."""
    n = len(cox)
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            w = _CRYSTAL_WEIGHT[cox[i][j]]
            if w:
                c[i][j] = -1
                c[j][i] = -w
    return c


def _reflection_matrices(cox):
    """Integer generator matrices on the root lattice of ``_coxeter_to_cartan``."""
    n = len(cox)
    cartan = _coxeter_to_cartan(cox)
    mats = []
    for s in range(n):
        rows = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        rows[s] = tuple(int(j == s) - cartan[s][j] for j in range(n))
        mats.append(tuple(rows))
    return mats


def reflection_rep(system):
    """{s: integer matrix of s} in the reflection representation."""
    if not system.crystallographic:
        raise ValueError(
            "reflection representation over Q requires a crystallographic type"
        )
    return dict(enumerate(_reflection_matrices(system.coxeter_matrix)))


def h_value(system, wid):
    """dim ker(M_w + Id): the fixed space of -w in the reflection rep."""
    return _h_values(system, [wid])[wid]


def _h_values(system, wids):
    """{w: h(w)} over ``wids``, from one set of generator rows.

    The matrix of s differs from the identity in row s alone, so
    multiplying by it on the left rewrites only row s, to the combination
    of rows that its row s names.  M_w takes one such update per letter of
    w's word, from the last letter to the first.
    """
    n = system.rank
    gen_rows = {s: m[s] for s, m in reflection_rep(system).items()}
    out = {}
    for wid in wids:
        mat = [[int(i == j) for j in range(n)] for i in range(n)]
        for s in reversed(system.word_of(wid)):
            terms = [(c, mat[j]) for j, c in enumerate(gen_rows[s]) if c]
            mat[s] = [sum(c * row[k] for c, row in terms) for k in range(n)]
        for i in range(n):
            mat[i][i] += 1
        out[wid] = n - bareiss(mat, n)
    return out


def partition_count(n):
    """Number of partitions of n (classic coin-style dynamic program)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class SpecializedModule:
    """Characters and gradings of the u=1 module of a finite Weyl group.

    ``module`` is the involution index, or anything that extends it.
    """

    def __init__(self, module):
        if module.system.is_twisted:
            raise ValueError("the u=1 module machinery is untwisted only")
        self.module = module
        self.system = module.system
        self.basis = module.involution_ids
        self._centralizer_sums = None

    # -- generator action at u = 1 ------------------------------------------------

    def apply_gen(self, s, vec):
        """Generator action on a sparse integer vector over the basis."""
        out = {}
        for wid, c in vec.items():
            commuting, up, other = self.module.action_case(s, wid)
            if commuting and up:
                out[wid] = out.get(wid, 0) + c
                out[other] = out.get(other, 0) + 2 * c
            elif commuting:
                out[wid] = out.get(wid, 0) - c
            else:
                out[other] = out.get(other, 0) + c
        return {w: c for w, c in out.items() if c}

    def apply_word(self, word, vec):
        for s in reversed(word):
            vec = self.apply_gen(s, vec)
        return vec

    def m1_matrices(self):
        """{s: integer matrix of s} over ``basis``; column w is s . a_w."""
        mats = {}
        for s in range(self.system.rank):
            cols = [self.apply_gen(s, {wid: 1}) for wid in self.basis]
            mats[s] = tuple(
                tuple(col.get(y, 0) for col in cols) for y in self.basis
            )
        return mats

    # -- characters ----------------------------------------------------------------

    def character_m1(self, xid):
        """Trace of x on the u=1 module."""
        word = self.system.word_of(xid)
        total = 0
        for wid in self.basis:
            total += self.apply_word(word, {wid: 1}).get(wid, 0)
        return total

    def epsilon(self, xid, wid):
        """The sign with which x maps the graded basis vector of w.

        Multiplicative along reduced words through the conjugation cocycle;
        a generator contributes -1 exactly when sw = ws < w, and otherwise
        moves w to its partner sws (which is w itself when sw = ws).
        """
        sign = 1
        cur = wid
        for s in reversed(self.system.word_of(xid)):
            commuting, up, other = self.module.action_case(s, cur)
            if commuting:
                if not up:
                    sign = -sign
            else:
                cur = other
        return sign

    def character_gr_m1(self, xid):
        """Trace of x on the graded module: sum of epsilon over fixed basis points."""
        sys = self.system
        total = 0
        for wid in self.basis:
            if sys.conjugate(xid, wid) == wid:
                total += self.epsilon(xid, wid)
        return total

    # -- induced characters -----------------------------------------------------------

    def involution_classes(self):
        """Conjugacy classes of the group consisting of involutions."""
        inv = set(self.basis)
        return [
            cls for cls in self.system.conjugacy_classes() if cls[0] in inv
        ]

    def induced_character_sum(self, xid):
        """Sum over the involution classes C of Ind_{Z(w)}^W epsilon(., w) at x.

        w is the representative of C.  In Frobenius' formula
        |Z(w)|^-1 sum_g epsilon(g^-1 x g, w) over g with g^-1 x g in Z(w),
        each c in the class cl(x) is hit |Z(x)| times, so the value is
        |C| / |cl(x)| times the sum of epsilon(c, w) over the c in cl(x)
        with c w c^-1 = w; a non-integer value raises TheoremMismatch.
        Those sums are read from ``_centralizer_class_sums``.
        """
        sys = self.system
        k = sys.class_index()[xid]
        size = len(sys.conjugacy_classes()[k])
        total = 0
        for cls, sums in self._centralizer_class_sums():
            value = len(cls) * sums[k]
            if value % size:
                raise TheoremMismatch(
                    "induced character value is not an integer at "
                    f"w={sys.word_of(cls[0])}, x={sys.word_of(xid)}"
                )
            total += value // size
        return total

    def _centralizer_class_sums(self):
        """Per involution class C, with w its representative: (C, sums), sums[k]
        being the sum of epsilon(c, w) over the c of conjugacy class k with
        c w c^-1 = w.

        One pass over the group per class, in ShortLex order, along the
        smallest left descent s of each x: with y = (sx) w (sx)^-1, already
        known, x w x^-1 = s y s is the s-partner of y (y itself when s
        commutes with y), and epsilon(x, w) is epsilon(sx, w), negated when
        s is a commuting descent of y, as in ``epsilon``.  Memoized.
        """
        if self._centralizer_sums is None:
            sys = self.system
            ids = sys.all_ids()
            left = sys.generator_tables()[0]
            class_of = sys.class_index()
            steps = []   # (x, its smallest left descent s, sx)
            for x in ids[1:]:
                s = sys.word_of(x)[0]
                steps.append((x, s, left[s][x]))
            self._centralizer_sums = []
            for cls in self.involution_classes():
                wid = cls[0]
                conj, sign = {0: wid}, {0: 1}   # x w x^-1 and epsilon(x, w), by x
                for x, s, sx in steps:
                    commuting, up, other = self.module.action_case(s, conj[sx])
                    conj[x] = conj[sx] if commuting else other
                    sign[x] = -sign[sx] if commuting and not up else sign[sx]
                sums = [0] * len(sys.conjugacy_classes())
                for x, y in conj.items():
                    if y == wid:
                        sums[class_of[x]] += sign[x]
                self._centralizer_sums.append((cls, sums))
        return self._centralizer_sums

    def class_function_report(self):
        """Per conjugacy class: representative, size, both character routes."""
        sys = self.system
        rows = []
        for cls in sys.conjugacy_classes():
            rep = cls[0]
            rows.append(
                {
                    "class_rep_word": list(sys.word_of(rep)),
                    "class_size": len(cls),
                    "chi_m1": self.character_m1(rep),
                    "chi_induced": self.induced_character_sum(rep),
                }
            )
        return rows

    # -- grading -------------------------------------------------------------------------

    def h_values(self):
        """{w: h(w)} over ``basis``."""
        return _h_values(self.system, self.basis)
