"""Exact linear algebra over the base field (Fraction / GRat).

* ``det``, ``rank`` and ``matrix_inverse`` use Gaussian elimination; this
  is the one exact det/inverse of the engine.  Entries are Fractions or
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


def det(rows):
    """Exact determinant by Gaussian elimination over a field."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = _field_rows(rows)
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            return Fraction(0) * out
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out = out * m[c][c]
        inv = m[c][c]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c] / inv
                for k in range(c + 1, n):
                    m[r][k] = m[r][k] - f * m[c][k]
                m[r][c] = 0
    return out


def matrix_inverse(rows):
    """Inverse of a square matrix over Fraction/GRat entries."""
    n = len(rows)
    m = [r + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(_field_rows(rows))]
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[c], m[piv] = m[piv], m[c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def rank(rows) -> int:
    """Rank over the base field."""
    if not rows or not rows[0]:
        return 0
    m = _field_rows(rows)
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c]:
                f = m[i][c] / inv
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


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
                row[j] = row[j] - u * pivot_row[j]
            for r in H:
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
