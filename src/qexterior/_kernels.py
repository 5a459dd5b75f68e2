"""Term kernels for the exterior and quantum products.

Forms are flattened to dicts keyed by ``(h_exponent, index_bitmask)`` with
duck-typed exact coefficients (Fraction, GRat, PolyCoeff, FourierCoeff).

Sign conventions (0-based bit positions):

* wedge of disjoint masks: parity of inversions when concatenating;
* front contraction e_i |- : (-1)^(number of bits below i);
* back contraction -| e_i : (-1)^(number of bits above i).
"""

from __future__ import annotations

from fractions import Fraction


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


def qwedge_terms(A: dict, B: dict, wpairs: list) -> dict:
    """Quantum exterior product of two term dicts.

    ``wpairs`` lists (i, j, w_ij) over all ordered pairs with nonzero
    entries of the antisymmetric matrix (0-based indices).  Level n of the
    cascade contracts the left factor from the back by e_i, the right
    factor from the front by e_j, multiplies by w_ij, and contributes
    h^n/n! times the wedge of what remains.
    """
    pairs = {}
    for (ja, ma), ca in A.items():
        for (jb, mb), cb in B.items():
            key = (ja + jb, ma, mb)
            c = ca * cb
            s = pairs.get(key)
            s = c if s is None else s + c
            if s:
                pairs[key] = s
            else:
                pairs.pop(key, None)

    out = {}
    level = 0
    factor = Fraction(1)
    while pairs:
        if level:
            factor = Fraction(1, level) * factor
        scale = factor != 1
        for (j, ma, mb), c in pairs.items():
            if ma & mb:
                continue
            cc = c * factor if scale else c
            if wedge_sign(ma, mb) < 0:
                cc = -cc
            key = (j + level, ma | mb)
            s = out.get(key)
            s = cc if s is None else s + cc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        nxt = {}
        for (j, ma, mb), c in pairs.items():
            if not (ma and mb):
                continue
            for i, jj, wij in wpairs:
                bi = 1 << i
                bj = 1 << jj
                if not (ma & bi and mb & bj):
                    continue
                cc = wij * c
                if back_sign(ma, i) * front_sign(mb, jj) < 0:
                    cc = -cc
                key = (j, ma ^ bi, mb ^ bj)
                s = nxt.get(key)
                s = cc if s is None else s + cc
                if s:
                    nxt[key] = s
                else:
                    nxt.pop(key, None)
        pairs = nxt
        level += 1
    return out
