"""Exact linear algebra over the base field (Fraction / GRat).

* ``det``, ``rank`` and ``matrix_inverse`` share one forward Gaussian
  elimination (``_echelon``), to which the inverse adds back-substitution;
  this is the one exact det/inverse of the engine.  Entries are Fractions or
  GRats; plain ints are read as Fractions, so no input yields a float.
* ``charpoly`` reduces the matrix to upper Hessenberg form by similarity
  transforms and reads det(xI - A) off the Hessenberg recurrence (Cohen,
  *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9): one
  O(n^3) pass, exact over any field.
* ``factor_charpoly`` does not search for roots: it certifies that a
  characteristic polynomial is exactly (x - n)^size, the only shape an M_h
  block can have (``lefschetz``), and ``geometric_multiplicity`` is
  size - rank(A - n I).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .hpoly import HPoly


def _field_rows(rows):
    """Copy of a matrix with int entries read as Fractions, so that
    elimination divides exactly (int / int would give a float)."""
    return [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in rows]


def _echelon(rows, width=None):
    """Forward Gaussian elimination of a copy of ``rows``, with pivots in
    the first ``width`` columns (default all): (m, pivots, swaps), m in row
    echelon form with its i-th pivot in column pivots[i]."""
    m = _field_rows(rows)
    nrows = len(m)
    if width is None:
        width = len(m[0]) if m else 0
    pivots = []
    swaps = 0
    for c in range(width):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        top = m[r]
        inv = top[c]
        for i in range(r + 1, nrows):
            row = m[i]
            if row[c]:
                f = row[c] / inv
                row[c + 1:] = [x - f * y for x, y in zip(row[c + 1:],
                                                          top[c + 1:])]
                row[c] = 0
        pivots.append(c)
    return m, pivots, swaps


def det(rows):
    """Exact determinant of a square matrix: the signed product of pivots."""
    m, pivots, swaps = _echelon(rows)
    out = Fraction(1)
    for i, c in enumerate(pivots):
        if c != i:
            break
        out = out * m[i][c]
    if pivots != list(range(len(rows))):
        return Fraction(0) * out
    return -out if swaps % 2 else out


def matrix_inverse(rows):
    """Inverse of a square matrix: [A | I] eliminated, then back-substituted."""
    n = len(rows)
    m, pivots, _swaps = _echelon(
        [[*row] + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise ValueError("singular matrix")
    for c in reversed(range(n)):
        top = m[c]
        inv = top[c]
        top[c:] = [x / inv for x in top[c:]]
        for row in m[:c]:
            f = row[c]
            if f:
                row[c:] = [x - f * y for x, y in zip(row[c:], top[c:])]
    return [row[n:] for row in m]


def rank(rows) -> int:
    """Rank over the base field."""
    return len(_echelon(rows)[1])


def charpoly(rows) -> HPoly:
    """det(x I - A) as a monic HPoly in the indeterminate."""
    n = len(rows)
    if n == 0:
        return HPoly.one()
    H = _field_rows(rows)
    # Similarity transforms to upper Hessenberg form: clear column m - 1
    # below the subdiagonal with row m as pivot row.
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[m], H[piv] = H[piv], H[m]
            for row in H:
                row[m], row[piv] = row[piv], row[m]
        pivot_row = H[m]
        t = pivot_row[m - 1]
        for i in range(m + 1, n):
            if not H[i][m - 1]:
                continue
            u = H[i][m - 1] / t
            row = H[i]
            for j in range(m - 1, n):
                if pivot_row[j]:
                    row[j] = row[j] - u * pivot_row[j]
            for r in H:
                if r[i]:
                    r[m] = r[m] + u * r[i]
    # p_k = det(xI - H_k) of the leading k x k block, coefficients low to
    # high:  p_{k+1} = (x - H[k][k]) p_k
    #                  - sum_{i<k} H[i][k] H[i+1][i] ... H[k][k-1] p_i.
    polys = [[Fraction(1)]]
    for k in range(n):
        prev = polys[k]
        new = [Fraction(0)] + prev
        hkk = H[k][k]
        if hkk:
            for j, c in enumerate(prev):
                new[j] = new[j] - hkk * c
        t = Fraction(1)
        for i in range(k - 1, -1, -1):
            t = t * H[i + 1][i]
            if not t:
                break
            f = H[i][k] * t
            if f:
                for j, c in enumerate(polys[i]):
                    new[j] = new[j] - f * c
        polys.append(new)
    return HPoly(dict(enumerate(polys[n])))


class CharFactorization:
    """Factorization of a characteristic polynomial: rational roots with
    their multiplicities, quadratic factors and an unfactored remainder.
    A certified Lefschetz block has one root and nothing else."""

    def __init__(self, rational_roots, quadratics, remainder):
        self.rational_roots = rational_roots    # {Fraction root: multiplicity}
        self.quadratics = quadratics            # {(b, c) of x^2+bx+c: mult}
        self.remainder = remainder              # unfactored monic HPoly


def factor_charpoly(p: HPoly, n) -> CharFactorization:
    """Certify p == (x - n)^deg p exactly and return the factorization
    {n: deg p}; raises AssertionError if p has any other shape."""
    size = p.degree()
    n = Fraction(n)
    if p != HPoly({j: comb(size, j) * (-n) ** (size - j)
                   for j in range(size + 1)}):
        raise AssertionError(f"characteristic polynomial is not "
                             f"(x - {n})^{size}")
    return CharFactorization({n: size}, {}, HPoly.one())


def geometric_multiplicity(rows, eigenvalue) -> int:
    """dim ker(A - eigenvalue I)."""
    return len(rows) - rank([[x - eigenvalue if r == s else x
                              for s, x in enumerate(row)]
                             for r, row in enumerate(rows)])
