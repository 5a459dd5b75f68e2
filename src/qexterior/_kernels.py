"""Term kernels for the exterior and quantum products.

Forms are flattened to dicts keyed by ``(h_exponent, index_bitmask)`` with
duck-typed exact coefficients (Fraction, GRat, PolyCoeff, FourierCoeff).

Sign conventions (0-based bit positions).  Every sign is the parity of
the inversions between two index sets, read off one parity mask:
``odd_above(m)`` has bit i set when m has an odd number of bits above i,
``odd_below(m)`` when below i.  The sign of e^a ^ e^b is the parity of
``odd_above(a) & b``; of contracting S ascending from the back of e^m,
``odd_above(m) & S``; of contracting T ascending from the front of e^m,
``odd_below(m) & T`` plus k(k-1)/2 (k = |T|).

The quantum product of two monomials is a sum of signed minors of the
bivector matrix W:

    e^I ^_h e^J = sum_{S, T} +-h^k det W[S, T] e^{I-S} ^ e^{J-T}

over ``S`` in ``I`` and ``T`` in ``J`` with ``|S| = |T| = k`` and disjoint
remainders.  The k! orderings of a k-fold contraction in the exponential
series sum to k! det W[S, T], which cancels the 1/k! of the series.  The
sign is that of contracting S from the back of e^I, T from the front of
e^J, and wedging the remainders.
Which (S, T, sign) feed which output monomial depends only on the mask
pair (:func:`qwedge_plan`); the minors and their signed sums depend on the
bivector (:class:`QTable`, built by ``Bivector.table``).  A bivector whose
every row has at most one entry, as in Darboux coordinates, pairs each row
with one column, and a minor det W[S, T] is nonzero only for T the partners
of S (Frobenius-Koenig).  Its table keeps the partners (``pairs``) and reads
the plan given them, which lists only those minors.  The table keeps
each row of W as a ``{column bit: entry}`` dict, so an order-1 minor is one
row lookup, and memoizes the minors of order 2 and up per ``(S, T)``.

Every kernel returns a clean term dict: no zero coefficient, and only keys
built from its inputs' masks and h-exponents.  ``forms.HForm`` wraps that
output without validating it again.

When the bivector entries and both forms' coefficients are all Fractions,
the product runs in integers (fraction-free, as in Bareiss elimination):
the table holds D W with D the lcm of the entry denominators, so a minor
of order k is an int over D^k; each form is scaled to int numerators over
the lcm of its denominators; and every term is summed as one int over the
common denominator la lb D^K (K the largest contraction order).  The
product-law suites chain and compare these ints (``qwedge_numerators``,
``same_numerators``); ``qwedge`` reads one Fraction per output term.  Every
other combination of coefficient types (GRat, PolyCoeff, FourierCoeff,
ints, mixtures) runs the generic loop in the coefficients' own arithmetic.
Under a bivector with entries, every output coefficient there has the type
of coefficient x entry, h^0 terms included.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm


def kernel_backend() -> str:
    """Name of the kernel implementation: always ``"python"``."""
    return "python"


def int_if_integral(c):
    """An integral Fraction as an int, faster to add and multiply."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def odd_above(mask: int) -> int:
    """Bit i set when ``mask`` has an odd number of bits above i: a suffix
    XOR over windows of 2, 4, 8, .. bits, shifted down by one."""
    p = mask ^ mask >> 1
    p ^= p >> 2
    p ^= p >> 4
    step = 8
    while mask >> step:
        p ^= p >> step
        step <<= 1
    return p >> 1


def odd_below(mask: int) -> int:
    """Bit i set when ``mask`` has an odd number of bits below i.  Above its
    top bit that is every bit or none: the result is negative when ``mask``
    has an odd number of bits."""
    return odd_above(mask) ^ mask ^ -(mask.bit_count() & 1)


def wedge_sign(a: int, b: int) -> int:
    """Sign of e^a ^ e^b for disjoint masks a, b."""
    return -1 if (odd_above(a) & b).bit_count() & 1 else 1


def wedge_terms(A: dict, B: dict) -> dict:
    """Classical wedge on (h, mask)-keyed term dicts."""
    out = {}
    for (ja, ma), ca in A.items():
        above = odd_above(ma)
        for (jb, mb), cb in B.items():
            if ma & mb:
                continue
            c = ca * cb
            if (above & mb).bit_count() & 1:
                c = -c
            key = (ja + jb, ma | mb)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def contract_terms(terms: dict, i: int) -> dict:
    """The front contraction e_i |- form on a term dict (0-based index i),
    with (v |- a)(v_1, ..) = a(v, v_1, ..)."""
    bit = 1 << i
    out = {}
    for (j, m), c in terms.items():
        if m & bit:
            if odd_below(m) & bit:
                c = -c
            key = (j, m ^ bit)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def iota_terms(terms: dict, pairs) -> dict:
    """The sum over ``(indices, c)`` pairs of the front contractions
    (:func:`contract_terms`) of a term dict a by the 0-based indices, first
    index first, times c (as coefficient * c): ``((i,), X^i)`` give X |- a,
    ``((i, j), w^ij)`` w |- a = sum w^ij a(e_i, e_j, ..)."""
    out = {}
    for indices, c in pairs:
        inner = terms
        for i in indices:
            inner = contract_terms(inner, i)
        for key, d in inner.items():
            d = d * c
            s = out.get(key)
            s = d if s is None else s + d
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


# Mask-pair plans kept at once; one per pair of monomials multiplied.
_PLANS = 4096
# The unit of every rational table (a Fraction is immutable).
_ONE = Fraction(1)


def _submasks(mask: int) -> dict:
    """The submasks of ``mask`` grouped by size, each group descending."""
    out = {}
    sub = mask
    while True:
        out.setdefault(sub.bit_count(), []).append(sub)
        if not sub:
            return out
        sub = (sub - 1) & mask


@lru_cache(maxsize=_PLANS)
def qwedge_plan(ma: int, mb: int, pairs: tuple = None) -> tuple:
    """The minor expansion of e^ma ^_h e^mb, independent of the bivector.

    Returns ``((k, mask, ((S, T, sign), ..)), ..)``: for each output
    monomial h^k e^mask, the row set S, column set T and sign of every
    minor det W[S, T] that contributes to it.

    Given ``pairs`` (:attr:`QTable.pairs`, row i's one column bit or 0),
    the one T listed for S is the partners of S, when they lie in mb and
    number |S|; every other minor has a zero row.  The plan is the full
    one less those minors, its groups in the order of their first minor.
    """
    above, below = odd_above(ma), odd_below(mb)
    left = _submasks(ma)
    right = _submasks(mb) if pairs is None else None
    groups = {}
    for k in range(min(ma.bit_count(), mb.bit_count()) + 1):
        if pairs is None:
            cols = [(T, mb ^ T, (below & T).bit_count()) for T in right[k]]
        for S in left[k]:
            if pairs is not None:
                T, s = 0, S
                while s:
                    T |= pairs[(s & -s).bit_length() - 1]
                    s &= s - 1
                if T & ~mb or T.bit_count() != k:
                    continue
                cols = ((T, mb ^ T, (below & T).bit_count()),)
            ra = ma ^ S
            ra_above = odd_above(ra)
            pa = (above & S).bit_count() + k * (k - 1) // 2
            for T, rb, pb in cols:
                if ra & rb:
                    continue
                odd = (pa + pb + (ra_above & rb).bit_count()) & 1
                groups.setdefault((k, ra | rb), []).append(
                    (S, T, -1 if odd else 1))
    return tuple((k, mask, tuple(g)) for (k, mask), g in groups.items())


def _pairs(rows: list, entries: int):
    """:attr:`QTable.pairs` of the rows of ``entries`` entries: each row's
    one column bit (0 for an empty row), or None when a row has two.  A
    pairing has at most one entry per two rows, so a denser table is
    refused by its count alone and pays no pass over its rows."""
    if 2 * entries > len(rows) or any(len(row) > 1 for row in rows):
        return None
    return tuple(next(iter(row), 0) for row in rows)


class QTable:
    """The minor expansion of one bivector, one mask pair at a time.

    ``product(ma, mb)`` lists (k, mask, coefficient) with a nonzero
    coefficient of h^k e^mask in e^ma ^_h e^mb; for k = 0 the coefficient
    is the wedge sign +-1.  ``rows[i]`` maps the bit of each column j
    with w^{ij} != 0 to the entry, in ascending column order, so an
    order-1 minor is one row lookup; ``pairs`` (:func:`_pairs`) holds each
    row's one column when W pairs its rows.  Minors of order 2 and up are
    memoized per ``(S, T)`` and expanded along their lowest row, columns
    ascending; ``product`` and the expansion read ``minors`` inline and
    call :meth:`minor` only on a miss.  ``product`` itself stores nothing:
    the qwedge kernels, which meet one mask pair many times, keep each
    expansion they compute in ``products``.

    A table built from all-Fraction entries (:meth:`rational`) is
    rational: ``D`` is the lcm of their denominators and the rows hold the
    integer matrix D W, so its minors det (D W)[S, T] = D^k det W[S, T]
    and product sums are ints.  Any other table has ``D = None`` and rows
    of the entries themselves.  ``one`` is the unit of the entry type
    (None without entries).  A table is built once per bivector, which
    owns it (``Bivector.table``) and whose entries are read-only.
    """

    __slots__ = ("rows", "pairs", "D", "one", "minors", "products",
                 "promotions")

    def __init__(self, dim: int, entries: list):
        """The typed table of entries ``[(i, j, w)]``, i < j ascending."""
        rows = [{} for _ in range(dim)]
        for i, j, w in entries:
            rows[i - 1][1 << (j - 1)] = w
            rows[j - 1][1 << (i - 1)] = -w
        self.rows = rows
        self.pairs = _pairs(rows, len(entries))
        self.D = None
        self.one = entries[0][-1] * 0 + 1 if entries else None
        self.minors = {}
        self.products = {}
        self.promotions = {}

    @classmethod
    def rational(cls, dim: int, entries: dict):
        """The rational table of all-Fraction entries ``{(i, j): w}``, i < j
        in ascending order: rows of D W built in one pass."""
        D = lcm(*[w.denominator for w in entries.values()])
        table = cls.__new__(cls)
        rows = table.rows = [{} for _ in range(dim)]
        for (i, j), w in entries.items():
            n = w.numerator * (D // w.denominator)
            rows[i - 1][1 << (j - 1)] = n
            rows[j - 1][1 << (i - 1)] = -n
        table.pairs = _pairs(rows, len(entries))
        table.D, table.one = D, _ONE if entries else None
        table.minors, table.products, table.promotions = {}, {}, {}
        return table

    def minor(self, S: int, T: int):
        """det W[S, T] for row and column masks of equal size (0 if zero);
        det (D W)[S, T] on a rational table."""
        row = self.rows[(S & -S).bit_length() - 1]
        rest = S & (S - 1)
        if not rest:
            return row.get(T, 0)
        minors = self.minors
        d = minors.get((S, T))
        if d is not None:
            return d
        deep = rest & (rest - 1)
        sub_row = self.rows[(rest & -rest).bit_length() - 1]
        # Columns of T in ascending order, the order of the row's keys,
        # with the alternating cofactor sign.
        d = None
        odd = False
        t = T
        while t:
            bit = t & -t
            t ^= bit
            w = row.get(bit)
            if w is not None:
                sub = T ^ bit
                if deep:
                    m = minors.get((rest, sub))
                    if m is None:
                        m = self.minor(rest, sub)
                else:
                    m = sub_row.get(sub)
                if m:
                    w = w * m
                    if odd:
                        d = -w if d is None else d - w
                    else:
                        d = w if d is None else d + w
            odd = not odd
        if not d:
            d = 0
        minors[(S, T)] = d
        return d

    def exact(self, k: int, d):
        """An order-k minor d as a value: d / D^k, or d on a typed table."""
        return d if self.D is None else Fraction(d, self.D ** k)

    def product(self, ma: int, mb: int) -> list:
        rows, minors, pairs = self.rows, self.minors, self.pairs
        out = []
        plan = qwedge_plan(ma, mb, pairs) if pairs else qwedge_plan(ma, mb)
        for k, mask, group in plan:
            if not k:
                out.append((0, mask, group[0][2]))
                continue
            total = None
            for S, T, sign in group:
                if k == 1:
                    d = rows[S.bit_length() - 1].get(T)
                else:
                    d = minors.get((S, T))
                    if d is None:
                        d = self.minor(S, T)
                if not d:
                    continue
                if sign < 0:
                    d = -d
                total = d if total is None else total + d
            if total:
                out.append((k, mask, total))
        return out

    def promotes(self, ca, cb) -> bool:
        """Whether h^0 terms of ca * cb, which meet no entry, must be
        multiplied by ``one`` to take the type of coefficient x entry;
        decided once per pair of coefficient types."""
        key = (type(ca), type(cb))
        p = self.promotions.get(key)
        if p is None:
            c = ca * cb
            p = self.promotions[key] = type(c * self.one) is not type(c)
        return p


def _numerators(terms: dict):
    """(l, top, {key: l c}) with l the lcm of the denominators of an
    all-Fraction term dict and top its largest exterior degree; None if
    some coefficient is not a Fraction."""
    l = 1
    top = 0
    for (_j, m), c in terms.items():
        if type(c) is not Fraction:
            return None
        den = c.denominator
        if den != 1:
            l = lcm(l, den)
        k = m.bit_count()
        if k > top:
            top = k
    return l, top, {key: c.numerator * (l // c.denominator)
                    for key, c in terms.items()}


def qwedge_terms(A: dict, B: dict, table: QTable) -> dict:
    """Quantum exterior product of two term dicts under one bivector table.

    When the table is rational and both dicts are all-Fraction, the sums
    run in ints over one common denominator; otherwise each term is
    multiplied out in the coefficients' own arithmetic.
    """
    D = table.D
    if D is not None:
        na, nb = _numerators(A), _numerators(B)
        if na and nb:
            return _qwedge_integer(na, nb, table)
    # With entries, every coefficient has the type of coefficient x entry;
    # an h^0 term takes it from ``one``, decided per pair of coefficient
    # types.
    one = table.one
    promotes = table.promotes if one is not None else None
    products = table.products
    out = {}
    for (ja, ma), ca in A.items():
        for (jb, mb), cb in B.items():
            expansion = products.get((ma, mb))
            if expansion is None:
                expansion = products[(ma, mb)] = table.product(ma, mb)
            if not expansion:
                continue
            c = ca * cb
            j = ja + jb
            for k, mask, d in expansion:
                if k:
                    cc = c * (d if D is None else Fraction(d, D ** k))
                else:
                    cc = c * one if promotes and promotes(ca, cb) else c
                    if d < 0:
                        cc = -cc
                key = (j + k, mask)
                s = out.get(key)
                s = cc if s is None else s + cc
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return out


def _qwedge_integer(na: tuple, nb: tuple, table: QTable) -> dict:
    """The Fraction view of :func:`qwedge_numerators`."""
    den, _top, out = qwedge_numerators(na, nb, table)
    return {key: Fraction(n, den) for key, n in out.items()}


def qwedge_numerators(na: tuple, nb: tuple, table: QTable) -> tuple:
    """The product of two numerator triples (``_numerators``) under a
    rational table, as one more triple.  With A = NA / la, B = NB / lb and
    det W[S, T] = det (D W)[S, T] / D^k, every term is an int over
    la lb D^K, K the largest contraction order, once an order-k term is
    scaled by D^(K-k).  Zero partial sums are dropped as in the generic
    loop, so the keys come out in the same order."""
    la, ta, A = na
    lb, tb, B = nb
    K = min(ta, tb)
    D = table.D
    scale = [D ** (K - k) for k in range(K + 1)]
    products = table.products
    out = {}
    for (ja, ma), a in A.items():
        for (jb, mb), b in B.items():
            expansion = products.get((ma, mb))
            if expansion is None:
                expansion = products[(ma, mb)] = table.product(ma, mb)
            if not expansion:
                continue
            c = a * b
            j = ja + jb
            for k, mask, d in expansion:
                key = (j + k, mask)
                s = out.get(key, 0) + c * d * scale[k]
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    top = max((m.bit_count() for _j, m in out), default=0)
    return la * lb * scale[0], top, out


def same_numerators(x: tuple, y: tuple) -> bool:
    """Whether two numerator triples are the same term dict (the kernels
    drop zero sums, so this is ``HForm.__eq__`` of their Fraction views)."""
    (dx, _tx, X), (dy, _ty, Y) = x, y
    return X.keys() == Y.keys() and all(n * dy == Y[key] * dx
                                        for key, n in X.items())
