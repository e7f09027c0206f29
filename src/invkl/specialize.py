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

Everything in this module requires the untwisted case (delta = identity).
"""

from __future__ import annotations

from .errors import TheoremMismatch
from .coxeter import build_system
from .invmodule import InvolutionModule

__all__ = [
    "SpecializedModule",
    "model_check_typeA",
    "partition_count",
]


def partition_count(n):
    """Number of partitions of n (classic coin-style dynamic program)."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


class SpecializedModule:
    """Characters and gradings of the u=1 module of a finite Weyl group."""

    def __init__(self, module):
        if module.system.is_twisted:
            raise ValueError("the u=1 module machinery is untwisted only")
        self.module = module
        self.system = module.system
        self.basis = module.involution_ids
        self._matrices = None
        self._h = None

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
        """{s: integer matrix of s} over ``basis``, checked two ways.

        The direct case formulas must agree entrywise with the v = 1
        specialization of the generic T_s action.
        """
        if self._matrices is not None:
            return self._matrices
        mats = {}
        for s in range(self.system.rank):
            cols = []
            for wid in self.basis:
                img = self.apply_gen(s, {wid: 1})
                generic = self.module.ts_action(s, self.module.basis(wid))
                spec = {}
                for y, f in generic.entries.items():
                    val = f.specialize(1)
                    if val:
                        spec[y] = val
                if spec != img:
                    raise TheoremMismatch(
                        "u=1 case formulas disagree with the specialized "
                        f"generic action at s={s}, w={self.system.word_of(wid)}"
                    )
                cols.append(img)
            n = len(self.basis)
            mat = tuple(
                tuple(cols[j].get(self.basis[i], 0) for j in range(n))
                for i in range(n)
            )
            mats[s] = mat
        self._matrices = mats
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
        """
        sys = self.system
        cl_x = next(cls for cls in sys.conjugacy_classes() if xid in cls)
        total = 0
        for cls in self.involution_classes():
            wid = cls[0]
            value = len(cls) * sum(
                self.epsilon(c, wid) for c in cl_x if sys.conjugate(c, wid) == wid
            )
            if value % len(cl_x):
                raise TheoremMismatch(
                    "induced character value is not an integer at "
                    f"w={sys.word_of(wid)}, x={sys.word_of(xid)}"
                )
            total += value // len(cl_x)
        return total

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

    def character_inner_product(self):
        """<chi, chi> over the group, via class sums; exact integer."""
        sys = self.system
        order = 0
        total = 0
        for cls in sys.conjugacy_classes():
            chi = self.character_m1(cls[0])
            order += len(cls)
            total += len(cls) * chi * chi
        if total % order:
            raise TheoremMismatch("character norm is not an integer")
        return total // order

    # -- grading -------------------------------------------------------------------------

    def h_values(self):
        if self._h is None:
            self._h = {w: self.system.h_value(w) for w in self.basis}
        return self._h

    def h_grading_check(self):
        """Check the grading facts; returns a report with any violations.

        Verified: h strictly increases along commuting ascents, every
        generator image stays in the same-or-higher h part (filtration
        stability), and the graded action is the signed conjugation.
        """
        sys = self.system
        h = self.h_values()
        report = {
            "ascent_instances": 0,
            "filtration_checks": 0,
            "graded_action_checks": 0,
            "violations": [],
        }
        for wid in self.basis:
            for s in range(sys.rank):
                commuting, up, other = self.module.action_case(s, wid)
                if commuting and up:
                    report["ascent_instances"] += 1
                    if h[other] <= h[wid]:
                        report["violations"].append(
                            f"h does not increase at s={s}, w={sys.word_of(wid)}"
                        )
                img = self.apply_gen(s, {wid: 1})
                report["filtration_checks"] += 1
                if any(h[y] < h[wid] for y in img):
                    report["violations"].append(
                        f"filtration broken at s={s}, w={sys.word_of(wid)}"
                    )
                graded = {y: c for y, c in img.items() if h[y] == h[wid]}
                target = wid if commuting else other
                sign = -1 if (commuting and not up) else 1
                report["graded_action_checks"] += 1
                if graded != {target: sign}:
                    report["violations"].append(
                        f"graded action mismatch at s={s}, w={sys.word_of(wid)}"
                    )
        return report


def model_check_typeA(n, max_n=8):
    """Dimension and character norm of the u=1 module for rank n-1 type A.

    The module is a model representation: its character norm equals the
    number of partitions of n, which is asserted here.
    """
    if not 2 <= n <= max_n:
        raise ValueError(f"n must be between 2 and {max_n}")
    system = build_system(f"A{n - 1}")
    spec = SpecializedModule(InvolutionModule(system))
    dim = len(spec.basis)
    inner = spec.character_inner_product()
    if inner != partition_count(n):
        raise TheoremMismatch(
            f"model property fails for n={n}: <chi,chi>={inner}, "
            f"p(n)={partition_count(n)}"
        )
    return dim, inner
