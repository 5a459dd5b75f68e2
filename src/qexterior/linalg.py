"""Exact linear algebra over the base field (Fraction / GRat).

* ``det``, ``rank`` and ``matrix_inverse`` use Gaussian elimination; this
  is the one exact det/inverse of the engine.  Entries are Fractions or
  GRats; plain ints are read as Fractions, so no input yields a float.
* ``charpoly`` reduces the matrix to upper Hessenberg form by similarity
  transforms and reads det(xI - A) off the Hessenberg recurrence (Cohen,
  *A Course in Computational Algebraic Number Theory*, Alg. 2.2.9): one
  O(n^3) pass, exact over any field.
* ``factor_charpoly`` finds every rational root with its multiplicity by a
  bounded integer search: the polynomial is rescaled to a monic integer
  polynomial, whose rational roots are integers dividing the constant term
  and no larger than the Fujiwara bound (computed with integer n-th roots,
  never floats).  What is left is trial-divided by quadratics of the shape
  x^2 - 2a x + (a^2 - 5/4) (the only quadratics the Lefschetz spectra can
  produce); anything else is reported unfactored.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

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


def poly_shift(p: HPoly, a) -> HPoly:
    """p(x + a)."""
    x_plus_a = HPoly({1: Fraction(1), 0: Fraction(a)})
    out = HPoly.zero()
    power = HPoly.one()
    for j in range(0, p.degree() + 1):
        c = p.coeffs.get(j)
        if c:
            out = out + power * c
        power = power * x_plus_a
    return out


class CharFactorization:
    """Exact factorization data of a characteristic polynomial."""

    def __init__(self, rational_roots, quadratics, remainder):
        self.rational_roots = rational_roots    # {Fraction root: multiplicity}
        self.quadratics = quadratics            # {(b, c) of x^2+bx+c: mult}
        self.remainder = remainder              # unfactored monic HPoly


def _rational_roots(p: HPoly):
    """All rational roots with multiplicity, and p divided by them.

    Roots are listed zero first, then by (denominator, |numerator|), the
    positive one of a pair first.
    """
    roots = {}
    v = p.valuation()
    if v:
        roots[Fraction(0)] = v
        p = HPoly({j - v: c for j, c in p.coeffs.items()})
    n = p.degree()
    if n < 1:
        return roots, p
    # q(y) = D^n P(y / D) with P = p / lead monic: a monic integer
    # polynomial whose rational roots are the integers D * r.
    lead = p.leading()
    monic = [p.coeffs.get(j, Fraction(0)) / lead for j in range(n + 1)]
    D = lcm(*(c.denominator for c in monic))
    q = [int(c * D ** (n - j)) for j, c in enumerate(monic)]
    found, q = _integer_roots(q)
    for y in sorted(found, key=lambda y: (Fraction(y, D).denominator,
                                          abs(y), y < 0)):
        roots[Fraction(y, D)] = found[y]
    # Undo the rescaling on the deflated q: P'(x) = D^-deg q'(D x).
    deg = len(q) - 1
    rest = HPoly({j: lead * Fraction(c, D ** (deg - j))
                  for j, c in enumerate(q)})
    return roots, rest


def _integer_roots(q):
    """Integer roots of a monic integer polynomial with q(0) != 0.

    ``q`` lists coefficients from the constant term up.  Returns
    ({root: multiplicity}, q divided by every root found).  Each root
    divides a0 = |q(0)| and is at most the Fujiwara bound B, so every
    candidate is some d <= min(B, isqrt(a0)) or its cofactor a0 // d.  A
    root is divided out with its full multiplicity as soon as it is found,
    and the bound of the quotient tightens the search; a quotient of degree
    two or less is solved directly.  The search thus costs at most
    min(B, isqrt(a0)) trial divisions, and stops early once only two roots
    remain or a large root is the cofactor of a small divisor.
    """
    found = {}
    a0 = abs(q[0])
    bound = _root_bound(q)
    limit = min(bound, isqrt(a0))
    d = 1
    while len(q) > 3 and d <= limit:
        if a0 % d == 0:
            e = a0 // d
            for y in ((d, -d, e, -e) if d < e <= bound else (d, -d)):
                mult = 0
                while len(q) > 1 and not _horner(q, y):
                    q = _deflate(q, y)
                    mult += 1
                if mult:
                    found[y] = mult
                    bound = min(bound, _root_bound(q))
                    limit = min(bound, isqrt(a0))
        d += 1
    if len(q) == 3:                       # y^2 + b y + c
        c, b = q[0], q[1]
        disc = b * b - 4 * c
        s = isqrt(disc) if disc >= 0 else -1
        if s * s == disc:
            for y in ((-b + s) // 2, (-b - s) // 2):
                found[y] = found.get(y, 0) + 1
            q = [1]
    elif len(q) == 2:
        found[-q[0]] = 1
        q = [1]
    return found, q


def _horner(q, y):
    acc = 0
    for c in reversed(q):
        acc = acc * y + c
    return acc


def _deflate(q, y):
    """q(t) / (t - y) for a root y (synthetic division, low-to-high)."""
    out = [0] * (len(q) - 1)
    acc = 0
    for j in range(len(q) - 1, 0, -1):
        acc = acc * y + q[j]
        out[j - 1] = acc
    return out


def _root_bound(q):
    """Fujiwara bound 2 max(|a_{n-i}|^(1/i), |a_0/2|^(1/n)) of a monic q,
    rounded up with exact integer roots."""
    n = len(q) - 1
    if n < 1:
        return 0
    terms = [_ceil_root(abs(q[n - i]), i) for i in range(1, n)]
    terms.append(_ceil_root((abs(q[0]) + 1) // 2, n))
    return 2 * max(terms)


def _ceil_root(m: int, k: int) -> int:
    """Smallest integer t >= 0 with t^k >= m (m >= 0, k >= 1)."""
    if m <= 1:
        return m
    x = 1 << -(-m.bit_length() // k)      # 2^ceil(bits/k) >= m^(1/k)
    while True:                           # integer Newton from above
        y = ((k - 1) * x + m // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k >= m else x + 1


def factor_charpoly(p: HPoly, quad_centers=None) -> CharFactorization:
    """Rational roots, then trial division by x^2 - 2a x + a^2 - 5/4."""
    roots, rem = _rational_roots(p)
    quads = {}
    if quad_centers is None:
        quad_centers = []
    centers = {Fraction(a) for a in quad_centers}
    deg = rem.degree()
    if deg >= 2:
        centers |= {Fraction(k, 2) for k in range(-4 * deg, 4 * deg + 1)}
    for a in sorted(centers):
        divisor = HPoly({2: Fraction(1), 1: -2 * a, 0: a * a - Fraction(5, 4)})
        while rem.degree() >= 2:
            q, r = divmod(rem, divisor)
            if r.is_zero():
                key = (-2 * a, a * a - Fraction(5, 4))
                quads[key] = quads.get(key, 0) + 1
                rem = q
            else:
                break
    return CharFactorization(roots, quads, rem if rem.degree() >= 1 else HPoly.one())


def geometric_multiplicity(rows, factor_poly: HPoly) -> int:
    """dim ker f(A) for a monic factor f (evaluates the matrix polynomial)."""
    n = len(rows)
    deg = factor_poly.degree()
    c0 = factor_poly.coeffs.get(0, Fraction(0))
    acc = [[c0 if r == s else Fraction(0) for s in range(n)] for r in range(n)]
    power = [list(row) for row in rows]
    for j in range(1, deg + 1):
        c = factor_poly.coeffs.get(j)
        if c:
            for r in range(n):
                for s in range(n):
                    acc[r][s] = acc[r][s] + c * power[r][s]
        if j < deg:
            power = [[sum(power[r][k] * rows[k][s] for k in range(n))
                      for s in range(n)] for r in range(n)]
    return n - rank(acc)
