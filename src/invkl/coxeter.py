"""Finite Coxeter and Weyl groups with interned elements.

An element is a dense integer id (0 is the identity), and every layer of
the package names elements by these ids alone, as du Cloux's Coxeter 3
does (Experiment. Math. 11, 2002); ids make memo tables over pairs of
elements cheap.  The canonical form of an element is its ShortLex-minimal
reduced word, obtained by repeatedly splitting off the smallest left
descent, and ``CoxeterSystem.shortlex_key`` is the one place where the
order (length, word) on elements is written down.  ``max_elements`` caps
the number of interned elements, checked where an element is interned.

One element engine serves every finite type, crystallographic or not: the
group acts on its root system in the geometric representation by
permutations of root numbers (Casselman, *Computation in Coxeter groups I*,
2002).  The positive roots are found once, by closing the simple roots under
the generators with exact coordinates in the integer ring Z[2cos(pi/N)], N
the lcm of the Coxeter entries above 3: the minimal polynomial of
2cos(pi/N) is monic and every 2cos(pi/m) with m dividing N, or m = 2 or 3,
lies in that ring, so a coordinate is a tuple of Python ints over the power
basis and no ``Fraction`` or division is involved.  That closure is the
only field arithmetic.  An element is stored as the root numbers of
w(alpha_s) and w^-1(alpha_s), so a product with a generator is a lookup per
simple root and a descent is a sign test on one root number.  The integer
reflection representation of crystallographic types is not built here:
only the u=1 module's h-grading reads it, from ``specialize.reflection_rep``.

Elements are interned lazily, each when a product first reaches it.  Two
readers compose payloads on the engine and intern nothing they pass on the
way.  The involution walk (``twisted_ascent``) decides whether s commutes
with a twisted involution w by comparing w^-1(alpha_s) with alpha_delta(s)
and interns only the partner, sw or s w delta(s).  ``shortlex_sorted``
spells the words of the ids it sorts by peeling left descents off the w^-1
halves of their payloads.  So an index of the involutions interns the
involutions alone.

Products with generators are memoized in one list per generator, indexed by
id, as in Coxeter 3: ``generator_tables()`` hands these lists out, so the
classical columns, the cells graph and conjugation read sw and ws with a
subscript.  An entry is filled when its product is first taken; after the
group is enumerated the tables are complete.

The system keeps nothing about the twisted involutions: their walk, T_s
cases, descent masks and Bruhat intervals live in ``involutions``, and
``twisted_involution_ids`` reads a new index of that module.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

from .errors import InvariantError
from .laurent import q_add, q_addmul, q_div, q_shift

__all__ = [
    "CoxeterSystem",
    "GroupElement",
    "build_system",
]

_CRYSTAL_WEIGHT = {2: 0, 3: 1, 4: 2, 6: 3}  # m(s,t) -> c(s,t)*c(t,s)


class GroupElement(NamedTuple):
    """A read-only view of an element: id, canonical reduced word, length."""

    id: int
    word: tuple
    length: int


# ---------------------------------------------------------------------------
# the ring Z[2cos(pi/N)], used only to build the root system


def _cyclotomic(n, cache={1: (-1, 1)}):
    """Coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n in cache:
        return cache[n]
    num = (-1,) + (0,) * (n - 1) + (1,)
    for d in range(1, n):
        if n % d == 0:
            num = q_div(num, _cyclotomic(d))
    cache[n] = num
    return num


class _CycloField:
    """Arithmetic in Z[c] where c = 2cos(pi/N), as int vectors over a power basis.

    The minimal polynomial of c is monic, so reducing c^k needs no division.
    """

    def __init__(self, n_denom):
        self.n_denom = n_denom
        phi = _cyclotomic(2 * n_denom)
        d = (len(phi) - 1) // 2
        # minimal polynomial of c from the palindromic cyclotomic polynomial:
        # Phi_{2N}(x)/x^d = phi[d] + sum_j phi[d+j] (x^j + x^-j)
        # and x^j + x^-j = p_j(c) with p_0=2, p_1=c, p_{j+1}=c*p_j - p_{j-1}.
        p_prev, p_cur = (2,), (0, 1)
        psi = q_addmul((phi[d],), (phi[d + 1],), p_cur)
        for j in range(2, d + 1):
            p_prev, p_cur = p_cur, q_addmul(q_shift(p_cur, 1), (-1,), p_prev)
            psi = q_addmul(psi, (phi[d + j],), p_cur)
        if len(psi) != d + 1 or psi[-1] != 1:
            raise InvariantError(f"2cos(pi/{n_denom}) has no monic minimal polynomial")
        self.degree = d
        self.minpoly = tuple(psi)
        self.zero = (0,) * d
        self.one = (1,) + (0,) * (d - 1)
        # reductions of c^k for k = d .. 2d-2
        reductions = [tuple(-a for a in psi[:-1])]
        for _ in range(d - 2):
            shifted = q_shift(reductions[-1], 1)
            reductions.append(q_addmul(shifted[:d], (shifted[d],), reductions[0]))
        self._reductions = reductions

    def mul(self, a, b):
        conv = q_addmul((), a, b)
        out = conv[:self.degree]
        for c, red in zip(conv[self.degree:], self._reductions):
            out = q_addmul(out, (c,), red)
        return out

    def two_cos_pi_over(self, m):
        """The element 2cos(pi/m), for m dividing N, or m = 2 (0) or 3 (1)."""
        if m == 2:
            return self.zero
        if m == 3:
            return self.one
        k, rem = divmod(self.n_denom, m)
        if rem:
            raise ValueError(
                f"Coxeter entry {m} does not divide the field conductor {self.n_denom}"
            )
        # p_k(c) = 2cos(k*pi/N)
        p_prev = (2,) + (0,) * (self.degree - 1)
        if self.degree == 1:
            # c is the root of the monic minpoly c + minpoly[0]
            p_cur = (-self.minpoly[0],)
        else:
            p_cur = (0, 1) + (0,) * (self.degree - 2)
        c_elt = p_cur
        for _ in range(k - 1):
            p_prev, p_cur = p_cur, q_addmul(self.mul(c_elt, p_cur), (-1,), p_prev)
        return p_cur


# ---------------------------------------------------------------------------
# the element engine


def _conductor(cox_matrix):
    """The least N (at least 3) that every Coxeter entry above 3 divides.

    2cos(pi/2) = 0 and 2cos(pi/3) = 1 lie in every ring, so only the entries
    above 3 enlarge it: B_n and F4 take Z[sqrt 2], not Z[2cos(pi/12)].
    """
    return max(math.lcm(*{m for row in cox_matrix for m in row if m > 3}), 3)


class _RootEngine:
    """W acting on its finite root system by permutations (Casselman 2002).

    The positive roots are numbered 0..N-1, simple roots first, and the
    negative of root i is numbered i + N.  ``perms[s]`` is the permutation of
    all 2N numbers given by the generator s, and ``refl[b]`` the one given by
    the reflection in root b.  A payload is the pair (w(alpha_t))_t,
    (w^-1(alpha_t))_t of root numbers; w(alpha_t) is negative iff t is a
    right descent of w.  The root closure stops at ``max_roots`` positive
    roots, unless that is None.
    """

    def __init__(self, cox_matrix, max_roots):
        n = len(cox_matrix)
        field = _CycloField(_conductor(cox_matrix))
        links = [
            [
                (j, field.two_cos_pi_over(cox_matrix[s][j]))
                for j in range(n)
                if j != s and cox_matrix[s][j] != 2
            ]
            for s in range(n)
        ]

        def reflect(s, root):
            # s(v) = v + (sum_{j != s} 2cos(pi/m_sj) v_j - 2 v_s) alpha_s
            acc = q_addmul((), (-1,), root[s])
            for j, c in links[s]:
                if any(root[j]):
                    acc = q_add(acc, field.mul(c, root[j]))
            return root[:s] + (acc,) + root[s + 1:]

        # s permutes the positive roots other than alpha_s, so closing the
        # simple roots under that rule yields exactly the positive roots.
        roots = [
            tuple(field.one if i == j else field.zero for i in range(n))
            for j in range(n)
        ]
        number = {root: i for i, root in enumerate(roots)}
        images = [[] for _ in range(n)]
        origin = [None] * n  # root i = s(root p) for origin[i] = (s, p)
        i = 0
        while i < len(roots):
            for s in range(n):
                if i == s:
                    images[s].append(None)
                    continue
                image = reflect(s, roots[i])
                j = number.get(image)
                if j is None:
                    if max_roots is not None and len(roots) >= max_roots:
                        raise ValueError(
                            f"root system exceeds the cap ({max_roots} roots): "
                            "the Coxeter matrix does not define a finite "
                            "group, or its group has more positive roots "
                            "than max_elements"
                        )
                    j = number[image] = len(roots)
                    roots.append(image)
                    origin.append((s, i))
                images[s].append(j)
            i += 1
        self.npos = npos = len(roots)
        self.perms = []
        for s in range(n):
            pos = [s + npos if j is None else j for j in images[s]]
            self.perms.append(tuple(pos + [(j + npos) % (2 * npos) for j in pos]))
        refl = list(self.perms)
        for s, p in origin[n:]:
            # the reflection in s(beta) is s r_beta s
            perm, r = self.perms[s], refl[p]
            refl.append(tuple(perm[r[perm[b]]] for b in range(2 * npos)))
        self.refl = refl + refl
        ident = tuple(range(n))
        self.identity = (ident, ident)

    def lmul(self, s, payload):
        w, winv = payload
        perm, r = self.perms[s], self.refl[winv[s]]
        # (sw)^-1 = (w^-1 s w) w^-1, and w^-1 s w reflects in w^-1(alpha_s)
        return (tuple([perm[b] for b in w]), tuple([r[b] for b in winv]))

    def rmul(self, payload, s):
        w, winv = payload
        perm, r = self.perms[s], self.refl[w[s]]
        return (tuple([r[b] for b in w]), tuple([perm[b] for b in winv]))

    def left_descent(self, s, payload):
        return payload[1][s] >= self.npos

    def right_descent(self, payload, s):
        return payload[0][s] >= self.npos


# ---------------------------------------------------------------------------
# type descriptors


def _label_coxeter(letter, n):
    """The Coxeter matrix of an irreducible type, nodes numbered as in Bourbaki."""
    if letter == "I":
        return [[1, n], [n, 1]]
    exists = {
        "A": n >= 1, "B": n >= 2, "C": n >= 2, "D": n >= 2,
        "E": n in (6, 7, 8), "F": n == 4, "G": n == 2, "H": n in (3, 4),
    }
    if letter not in exists:
        raise ValueError(f"unknown type letter {letter!r}")
    if not exists[letter]:
        raise ValueError(f"type {letter}{n} does not exist")
    edges = [(i, i + 1) for i in range(n - 1)]
    if letter == "D":
        edges = edges[:-1] + ([(n - 3, n - 1)] if n >= 3 else [])
    elif letter == "E":
        edges = [(0, 2), (1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n - 1)]
    cox = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j in edges:
        cox[i][j] = cox[j][i] = 3
    if letter in ("B", "C"):
        cox[n - 2][n - 1] = cox[n - 1][n - 2] = 4
    elif letter == "F":
        cox[1][2] = cox[2][1] = 4
    elif letter == "G":
        cox[0][1] = cox[1][0] = 6
    elif letter == "H":
        cox[0][1] = cox[1][0] = 5
    return cox


def _parse_label(token):
    token = token.strip()
    m = re.fullmatch(r"I2\((\d+)\)", token)
    if m:
        order = int(m.group(1))
        if order < 3:
            raise ValueError("I2(m) requires m >= 3")
        return ("I", order)
    m = re.fullmatch(r"([A-H])(\d+)", token)
    if m:
        return (m.group(1), int(m.group(2)))
    raise ValueError(f"unknown type descriptor {token!r}")


def _block_diag(blocks, fill):
    n = sum(len(b) for b in blocks)
    out = [[fill] * n for _ in range(n)]
    off = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[off + i][off + j] = b[i][j]
        off += k
    return out


def _parse_delta(delta, rank, cox):
    if delta is None:
        return tuple(range(rank))
    text = delta
    if isinstance(delta, str):
        body = delta.split("=", 1)[1] if "=" in delta else delta
        delta = [tok for tok in body.split(",") if tok.strip() != ""]
    try:
        delta = tuple(int(x) for x in delta)
    except ValueError:
        raise ValueError(
            "delta must be a comma-separated list of generator indices, "
            f"got {text!r}"
        ) from None
    if sorted(delta) != list(range(rank)):
        raise ValueError("delta is not a permutation of the generators")
    if any(delta[delta[i]] != i for i in range(rank)):
        raise ValueError("delta is not an involution")
    for i in range(rank):
        for j in range(rank):
            if cox[delta[i]][delta[j]] != cox[i][j]:
                raise ValueError("delta does not preserve the Coxeter matrix")
    return delta


def build_system(spec, delta=None, *, finite=None, max_elements=10 ** 6):
    """Build a :class:`CoxeterSystem` from a type label or a Coxeter matrix.

    ``spec`` is either a descriptor like ``"A3"``, ``"B2"``, ``"H3"``,
    ``"I2(5)"``, ``"A2×A1"`` (separators ``×``, ``x`` or ``*``), or an
    explicit symmetric Coxeter matrix.  Finiteness of labelled types follows
    from the classification; a raw matrix must be declared finite by the
    caller with ``finite=True``, and its root closure is capped at
    ``max_elements`` roots: a matrix of an infinite group, or of a group
    with more positive roots than that, fails with ``ValueError``.
    The same cap bounds the elements the system interns: any call that
    would intern more than ``max_elements`` of them (enumerating the group
    or its involutions, or a product reaching a new element) raises
    ``ValueError``.
    """
    if isinstance(spec, str):
        tokens = [t for t in re.split(r"[×xX*]", spec) if t.strip()]
        if not tokens:
            raise ValueError("empty type descriptor")
        cox = _block_diag([_label_coxeter(*_parse_label(t)) for t in tokens], 2)
        label = "×".join(t.strip() for t in tokens)
    else:
        cox = [list(map(int, row)) for row in spec]
        n = len(cox)
        if any(len(row) != n for row in cox):
            raise ValueError("Coxeter matrix is not square")
        for i in range(n):
            if cox[i][i] != 1:
                raise ValueError("Coxeter matrix diagonal must be 1")
            for j in range(n):
                if cox[i][j] != cox[j][i]:
                    raise ValueError("Coxeter matrix is not symmetric")
                if i != j and cox[i][j] < 2:
                    raise ValueError("off-diagonal Coxeter entries must be >= 2")
        if finite is not True:
            raise ValueError(
                "raw Coxeter matrices must be declared finite (pass finite=True)"
            )
        label = None
    return CoxeterSystem(
        cox, type_label=label, delta=delta, max_elements=max_elements
    )


# ---------------------------------------------------------------------------


class CoxeterSystem:
    """A Coxeter presentation plus the interned element universe.

    Elements are integer ids, interned lazily, on the first product that
    reaches them, through one root-permutation engine for every finite
    type, and at most ``max_elements`` of them.  Lengths, descents,
    products and inverses never need the whole group.  Every method takes
    and returns ids; ``element`` and ``enumerate_all`` wrap ids in a
    read-only :class:`GroupElement` view.  ``crystallographic`` says whether
    the integer reflection representation of ``specialize.reflection_rep``
    exists.
    """

    def __init__(
        self,
        coxeter_matrix,
        *,
        type_label=None,
        delta=None,
        max_elements=10 ** 6,
    ):
        self.coxeter_matrix = tuple(tuple(row) for row in coxeter_matrix)
        self.rank = len(self.coxeter_matrix)
        self.type_label = type_label
        self.crystallographic = all(
            m in _CRYSTAL_WEIGHT for row in self.coxeter_matrix for m in row if m > 1
        )
        self.delta = _parse_delta(delta, self.rank, self.coxeter_matrix)
        self.max_elements = max_elements
        # a labelled type is finite by the classification, so only a raw
        # matrix caps its root closure
        self._engine = _RootEngine(
            self.coxeter_matrix, None if type_label else max_elements
        )

        self._index = {}
        self._payloads = []
        self._lengths = []
        self._words = []
        self._lmul = [[] for _ in range(self.rank)]  # _lmul[s][w] = sw or None
        self._rmul = [[] for _ in range(self.rank)]  # _rmul[s][w] = ws or None
        self._tables_full = False
        self._layers = None  # list of id lists, grouped by length
        self._complete = False
        self._bruhat_memo = {}
        self._classes = None
        self._class_of = None

        self._register(self._engine.identity, 0, ())

    # -- interning ----------------------------------------------------------

    def _register(self, payload, length, word=None):
        """Intern a new element; raise ValueError past ``max_elements``."""
        wid = len(self._payloads)
        if wid >= self.max_elements:
            raise ValueError(
                f"interning exceeds the element cap ({self.max_elements})"
            )
        self._payloads.append(payload)
        self._lengths.append(length)
        self._words.append(word)
        for row in self._lmul:
            row.append(None)
        for row in self._rmul:
            row.append(None)
        self._index[payload[0]] = wid
        return wid

    # -- element arithmetic ---------------------------------------------------

    def lmul(self, s, wid):
        row = self._lmul[s]
        cached = row[wid]
        if cached is not None:
            return cached
        payload = self._engine.lmul(s, self._payloads[wid])
        xid = self._index.get(payload[0])
        if xid is None:
            down = self._engine.left_descent(s, self._payloads[wid])
            xid = self._register(
                payload, self._lengths[wid] + (-1 if down else 1)
            )
        row[wid] = xid
        row[xid] = wid
        return xid

    def rmul(self, wid, s):
        row = self._rmul[s]
        cached = row[wid]
        if cached is not None:
            return cached
        payload = self._engine.rmul(self._payloads[wid], s)
        xid = self._index.get(payload[0])
        if xid is None:
            down = self._engine.right_descent(self._payloads[wid], s)
            xid = self._register(
                payload, self._lengths[wid] + (-1 if down else 1)
            )
        row[wid] = xid
        row[xid] = wid
        return xid

    def generator_tables(self):
        """(left, right): ``left[s][w]`` is sw and ``right[s][w]`` is ws, by id.

        These are the memo lists of ``lmul`` and ``rmul`` themselves, one
        list per generator, so a loop over many elements reads a product
        with one subscript and no method call.  They are live: an entry is
        None until its product is first taken, and each list grows as
        elements are interned.  Once the whole group is enumerated
        (``all_ids()``), the first call fills every entry, and every call
        after that hands out complete tables; a reader that may run earlier
        falls back to ``lmul``/``rmul`` on None.
        """
        if self._complete and not self._tables_full:
            # The enumeration took sw for every ascent s of every w, and lmul
            # records sw and s(sw) at once, so the left tables are full, and
            # ws = (s w^-1)^-1, with the inverses read as ``inverse_id`` does.
            index = self._index
            inv = [index[winv] for _, winv in self._payloads]
            for left, right in zip(self._lmul, self._rmul):
                right[:] = [inv[left[x]] for x in inv]
            self._tables_full = True
        return self._lmul, self._rmul

    def length_of(self, wid):
        return self._lengths[wid]

    @property
    def lengths(self):
        """l(w) of every interned element, indexed by id: the live list, not a copy."""
        return self._lengths

    def is_left_descent(self, s, wid):
        return self._engine.left_descent(s, self._payloads[wid])

    def left_descents(self, wid):
        return tuple(
            s for s in range(self.rank) if self.is_left_descent(s, wid)
        )

    def word_of(self, wid):
        word = self._words[wid]
        if word is not None:
            return word
        # straighten: peel off the smallest left descent, the first s with
        # w^-1(alpha_s) negative, until a known word
        words, payloads, npos = self._words, self._payloads, self._engine.npos
        stack = []
        cur = wid
        while words[cur] is None:
            s = [b >= npos for b in payloads[cur][1]].index(True)
            stack.append((cur, s))
            cur = self.lmul(s, cur)
        word = words[cur]
        for xid, s in reversed(stack):
            word = words[xid] = (s,) + word
        return word

    def shortlex_sorted(self, ids):
        """``ids`` in ShortLex order, spelling the unknown words without interning.

        An unknown word is peeled as ``word_of`` peels it, but on the w^-1
        halves of the payloads alone: the half of sx is that of x permuted by
        the reflection in x^-1(alpha_s).  The elements met on the way are
        memoized by that half for this call only, so the chains that several
        ids share are peeled once, and no element is interned: the
        involution index sorts its walk with it.
        """
        words, payloads = self._words, self._payloads
        npos, refl = self._engine.npos, self._engine.refl
        spelled = {payloads[0][1]: ()}
        for wid in ids:
            if words[wid] is not None:
                continue
            winv = payloads[wid][1]
            stack = []
            while (word := spelled.get(winv)) is None:
                s = [b >= npos for b in winv].index(True)
                stack.append((winv, s))
                r = refl[winv[s]]
                winv = tuple([r[b] for b in winv])
            for winv, s in reversed(stack):
                word = spelled[winv] = (s,) + word
            words[wid] = word
        return sorted(ids, key=self.shortlex_key)

    def inverse_id(self, wid):
        """w^-1: the payload of w with its halves swapped, looked up, and
        interned at l(w) when it is new."""
        roots, inv_roots = self._payloads[wid]
        xid = self._index.get(inv_roots)
        if xid is None:
            xid = self._register((inv_roots, roots), self._lengths[wid])
        return xid

    @property
    def is_twisted(self):
        return self.delta != tuple(range(self.rank))

    def element_id_from_word(self, word):
        xid = 0
        for s in word:
            if not 0 <= int(s) < self.rank:
                raise ValueError(f"generator index {s} out of range")
            xid = self.rmul(xid, int(s))
        return xid

    def shortlex_key(self, wid):
        """The sort key of the ShortLex order on elements: (length, word)."""
        return (self._lengths[wid], self.word_of(wid))

    def conjugate(self, xid, wid):
        """x w x^-1 computed along the reduced word of x, one generator at a
        time, read from the generator tables."""
        left, right = self._lmul, self._rmul
        for s in reversed(self.word_of(xid)):
            ws = right[s][wid]
            if ws is None:
                ws = self.rmul(wid, s)
            wid = left[s][ws]
            if wid is None:
                wid = self.lmul(s, ws)
        return wid

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq_ids(self, yid, wid):
        if yid == wid or yid == 0:
            return True
        ly, lw = self._lengths[yid], self._lengths[wid]
        if ly >= lw:
            return False
        key = (yid, wid)
        memo = self._bruhat_memo
        cached = memo.get(key)
        if cached is not None:
            return cached
        s = next(s for s in range(self.rank) if self.is_left_descent(s, wid))
        sw = self.lmul(s, wid)
        if self.is_left_descent(s, yid):
            res = self.bruhat_leq_ids(self.lmul(s, yid), sw)
        else:
            res = self.bruhat_leq_ids(yid, sw)
        memo[key] = res
        return res

    # -- enumeration ------------------------------------------------------------

    def _extend_layers(self, target_length=None):
        if self._layers is None:
            self._layers = [[0]]
        while not self._complete and (
            target_length is None or len(self._layers) - 1 < target_length
        ):
            frontier = self._layers[-1]
            nxt = set()
            for wid in frontier:
                for s in range(self.rank):
                    if not self.is_left_descent(s, wid):
                        nxt.add(self.lmul(s, wid))
            if not nxt:
                self._complete = True
                return
            self._layers.append(sorted(nxt, key=self.shortlex_key))

    def element(self, wid):
        return GroupElement(wid, self.word_of(wid), self._lengths[wid])

    def enumerate_all(self):
        return [self.element(wid) for wid in self.all_ids()]

    def all_ids(self, max_length=None):
        """Ids of all elements, or of those of length at most ``max_length``.

        In ShortLex order; only the layers up to ``max_length`` are built.
        """
        self._extend_layers(max_length)
        layers = self._layers
        if max_length is not None:
            layers = layers[: max_length + 1]
        return [wid for layer in layers for wid in layer]

    # -- involutions ------------------------------------------------------------

    def twisted_ascent(self, s, wid):
        """(commuting, z) for an ascent s of a twisted involution w.

        w^-1(alpha_s) is a positive root, and s commutes with w (sw = w
        delta(s)) exactly when that root is alpha_delta(s): one comparison,
        no product.  z is sw then, and s w delta(s) otherwise, of length l(w)
        + 1 or l(w) + 2; its payload is composed on the engine, and z alone
        is interned, not sw.
        """
        payload = self._payloads[wid]
        t = self.delta[s]
        commuting = payload[1][s] == t
        payload = self._engine.lmul(s, payload)
        if not commuting:
            payload = self._engine.rmul(payload, t)
        zid = self._index.get(payload[0])
        if zid is None:
            zid = self._register(payload, self._lengths[wid] + (1 if commuting else 2))
        return commuting, zid

    def twisted_involution_ids(self, max_length=None):
        """Ids of all w with delta(w) = w^-1, in ShortLex order.

        With ``max_length``, only those of length at most ``max_length``.
        Read from a new ``involutions.Involutions`` index, which walks them.
        """
        from .involutions import Involutions

        return Involutions(self, max_length).involution_ids

    # -- conjugacy classes -------------------------------------------------------

    def conjugacy_classes(self):
        """All conjugacy classes as id tuples, each in ShortLex order.

        Seeds are taken in ShortLex order, so each class starts with its
        seed and the classes come out ordered by their first elements.
        The orbits read the complete generator tables.
        """
        if self._classes is not None:
            return self._classes
        ids = self.all_ids()
        gens = list(zip(*self.generator_tables()))
        remaining = set(ids)
        classes = []
        class_of = [None] * len(ids)
        for seed in ids:
            if seed not in remaining:
                continue
            orbit = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for wid in frontier:
                    for left, right in gens:
                        c = left[right[wid]]
                        if c not in orbit:
                            orbit.add(c)
                            nxt.append(c)
                frontier = nxt
            remaining -= orbit
            for wid in orbit:
                class_of[wid] = len(classes)
            classes.append(tuple(sorted(orbit, key=self.shortlex_key)))
        self._classes, self._class_of = classes, class_of
        return classes

    def class_index(self):
        """The position in ``conjugacy_classes()`` of each element's class, by id."""
        self.conjugacy_classes()
        return self._class_of

    def __repr__(self):
        label = self.type_label or f"rank-{self.rank} matrix"
        tw = f", delta={list(self.delta)}" if self.is_twisted else ""
        return f"CoxeterSystem({label}{tw})"
