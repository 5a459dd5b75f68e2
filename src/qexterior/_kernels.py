"""Term kernels for the exterior and quantum products.

Forms are flattened to dicts keyed by ``(h_exponent, index_bitmask)`` with
duck-typed exact coefficients (Fraction, GRat, PolyCoeff, FourierCoeff).

Sign conventions (0-based bit positions):

* wedge of disjoint masks: parity of inversions when concatenating;
* front contraction e_i |- : (-1)^(number of bits below i);
* back contraction -| e_i : (-1)^(number of bits above i).

The quantum product of two monomials is a sum of signed minors of the
bivector matrix W:

    e^I ^_h e^J = sum_{S, T} +-h^k det W[S, T] e^{I-S} ^ e^{J-T}

over ``S`` in ``I`` and ``T`` in ``J`` with ``|S| = |T| = k`` and disjoint
remainders.  The k! orderings of a k-fold contraction in the exponential
series sum to k! det W[S, T], which cancels the 1/k! of the series.  The
sign is that of contracting S in ascending order from the back of e^I,
T in ascending order from the front of e^J, and wedging the remainders.
Which (S, T, sign) feed which output monomial depends only on the mask
pair (:func:`qwedge_plan`); the minors and their signed sums depend on the
bivector (:class:`QTable`).
"""

from __future__ import annotations

from functools import lru_cache


def kernel_backend() -> str:
    """Name of the kernel implementation: always ``"python"``."""
    return "python"


def wedge_sign(a: int, b: int) -> int:
    """Sign of e^a ^ e^b for disjoint masks a, b."""
    s = 0
    t = b
    while t:
        low = t & -t
        s += (a >> low.bit_length()).bit_count()
        t ^= low
    return -1 if s & 1 else 1


def front_sign(mask: int, i: int) -> int:
    """Sign of the front contraction by e_i on a monomial containing bit i."""
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


def back_sign(mask: int, i: int) -> int:
    """Sign of the back contraction by e_i on a monomial containing bit i."""
    return -1 if (mask >> (i + 1)).bit_count() & 1 else 1


def wedge_terms(A: dict, B: dict) -> dict:
    """Classical wedge on (h, mask)-keyed term dicts."""
    out = {}
    for (ja, ma), ca in A.items():
        for (jb, mb), cb in B.items():
            if ma & mb:
                continue
            c = ca * cb
            if wedge_sign(ma, mb) < 0:
                c = -c
            key = (ja + jb, ma | mb)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def contract_front_terms(terms: dict, i: int) -> dict:
    """e_i |- form on a term dict (0-based index i)."""
    bit = 1 << i
    out = {}
    for (j, m), c in terms.items():
        if m & bit:
            if front_sign(m, i) < 0:
                c = -c
            key = (j, m ^ bit)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def contract_back_terms(terms: dict, i: int) -> dict:
    """form -| e_i on a term dict (0-based index i)."""
    bit = 1 << i
    out = {}
    for (j, m), c in terms.items():
        if m & bit:
            if back_sign(m, i) < 0:
                c = -c
            key = (j, m ^ bit)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


# Mask-pair plans kept at once; one per pair of monomials multiplied.
_PLANS = 4096
# Bivector tables kept at once; suites that draw a fresh bivector per trial
# evict the oldest instead of growing.
_QTABLES = 32


def _contraction_signs(mask: int, sign_of) -> dict:
    """Sign of contracting each submask S of ``mask`` bit by bit, ascending.

    Returns {k: [(S, sign)]} grouped by |S|; ``sign_of`` is
    :func:`back_sign` or :func:`front_sign`.
    """
    out = {}
    sub = mask
    while True:
        sign = 1
        cur = mask
        rest = sub
        while rest:
            low = rest & -rest
            sign *= sign_of(cur, low.bit_length() - 1)
            cur ^= low
            rest ^= low
        out.setdefault(sub.bit_count(), []).append((sub, sign))
        if not sub:
            return out
        sub = (sub - 1) & mask


@lru_cache(maxsize=_PLANS)
def qwedge_plan(ma: int, mb: int) -> tuple:
    """The minor expansion of e^ma ^_h e^mb, independent of the bivector.

    Returns ``((k, mask, ((S, T, sign), ..)), ..)``: for each output
    monomial h^k e^mask, the row set S, column set T and sign of every
    minor det W[S, T] that contributes to it.
    """
    left = _contraction_signs(ma, back_sign)
    right = _contraction_signs(mb, front_sign)
    groups = {}
    for k in range(min(ma.bit_count(), mb.bit_count()) + 1):
        for S, sa in left[k]:
            ra = ma ^ S
            for T, sb in right[k]:
                rb = mb ^ T
                if ra & rb:
                    continue
                sign = sa * sb * wedge_sign(ra, rb)
                groups.setdefault((k, ra | rb), []).append((S, T, sign))
    return tuple((k, mask, tuple(g)) for (k, mask), g in groups.items())


class QTable:
    """The minor expansion of one bivector, one mask pair at a time.

    ``product(ma, mb)`` lists (k, mask, coefficient) with a nonzero
    coefficient of h^k e^mask in e^ma ^_h e^mb; for k = 0 the coefficient
    is the wedge sign +-1.  Minors are memoized and expanded along their
    lowest row; both memos fill on first use.
    """

    __slots__ = ("rows", "minors", "products")

    def __init__(self, dim: int, entries: tuple):
        rows = [[] for _ in range(dim)]
        for i, j, _kind, w in entries:
            rows[i - 1].append((j - 1, w))
            rows[j - 1].append((i - 1, -w))
        self.rows = rows
        self.minors = {}
        self.products = {}

    def minor(self, S: int, T: int):
        """det W[S, T] for row and column masks of equal size (0 if zero)."""
        key = (S, T)
        d = self.minors.get(key)
        if d is not None:
            return d
        low = S & -S
        rest = S ^ low
        d = None
        for c, w in self.rows[low.bit_length() - 1]:
            bit = 1 << c
            if not T & bit:
                continue
            if rest:
                m = self.minor(rest, T ^ bit)
                if not m:
                    continue
                w = w * m
            if (T & (bit - 1)).bit_count() & 1:
                d = -w if d is None else d - w
            else:
                d = w if d is None else d + w
        if not d:
            d = 0
        self.minors[key] = d
        return d

    def product(self, ma: int, mb: int) -> list:
        out = []
        for k, mask, group in qwedge_plan(ma, mb):
            if not k:
                out.append((0, mask, group[0][2]))
                continue
            total = None
            for S, T, sign in group:
                d = self.minor(S, T)
                if not d:
                    continue
                if sign < 0:
                    d = -d
                total = d if total is None else total + d
            if total:
                out.append((k, mask, total))
        self.products[(ma, mb)] = out
        return out


_qtable = lru_cache(maxsize=_QTABLES)(QTable)


def qwedge_table(dim: int, entries: dict) -> QTable:
    """The table of the bivector with entries {(i, j): w^{ij}} (1-based).

    Tables are looked up by the entry values, so a caller may mutate a
    bivector between calls.  The key holds each value's type too: equal
    values of different types (Fraction(2), GRat(2)) must not share a
    table, since the products carry the type of the entries.
    """
    return _qtable(dim, tuple((i, j, type(w), w)
                              for (i, j), w in sorted(entries.items())))


def qwedge_terms(A: dict, B: dict, table: QTable) -> dict:
    """Quantum exterior product of two term dicts under one bivector table."""
    products = table.products
    out = {}
    for (ja, ma), ca in A.items():
        for (jb, mb), cb in B.items():
            expansion = products.get((ma, mb))
            if expansion is None:
                expansion = table.product(ma, mb)
            if not expansion:
                continue
            c = ca * cb
            j = ja + jb
            for k, mask, d in expansion:
                if k:
                    cc = c * d
                elif d < 0:
                    cc = -c
                else:
                    cc = c
                key = (j + k, mask)
                s = out.get(key)
                s = cc if s is None else s + cc
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out
