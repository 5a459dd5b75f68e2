"""Smith normal form and linear algebra over the Euclidean rings k[h] and
k[h, h^-1].

Matrices are lists of rows whose entries are HPoly/HLaurent (plain scalars
are promoted).  The decomposition returns unimodular U, V with
U A V = D, the diagonal of invariant factors in canonical unit-normalized
form (monic for k[h]; monic with nonzero constant term for Laurent), and
the inverses of U and V, so every result can be certified by exact
re-multiplication.

Tracking is opt-in per transform: ``smith_normal_form(A, track=...)``
accumulates only the transforms named (all four by default), and the
elimination skips products with a zero operand and the divisibility sweep
under a unit pivot.  ``solve_linear`` tracks only U and V.

``mat_vec`` is the one ring matrix-vector product of the SNF stack, and
``rank_fraction_field`` the rank over k(h) by ``linalg._echelon``, the
library's one forward elimination.
"""

from __future__ import annotations

from . import linalg
from .hpoly import HLaurent, HPoly, poly_gcd


def promote(x, ring):
    if isinstance(x, HPoly):
        if ring is HLaurent and not isinstance(x, HLaurent):
            return HLaurent(dict(x.coeffs))
        return x
    return ring.from_scalar(x) if x else ring.zero()


def mat_promote(A, ring):
    return [[promote(x, ring) for x in row] for row in A]


def mat_identity(n, ring):
    return [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]


TRANSFORMS = ("U", "V", "Uinv", "Vinv")


class SNFResult:
    """U A V = D with unimodular U, V and their inverses.

    A transform the decomposition was not asked to track is ``None``.
    """

    def __init__(self, diag, U, V, Uinv, Vinv, rank, ring, shape):
        self.diag = diag
        self.U = U
        self.V = V
        self.Uinv = Uinv
        self.Vinv = Vinv
        self.rank = rank
        self.ring = ring
        self.shape = shape

    def torsion_factors(self):
        return [d for d in self.diag if not d.is_zero() and not d.is_unit()]


def smith_normal_form(A, ring=None, track=TRANSFORMS) -> SNFResult:
    """Smith normal form over k[h] or k[h,h^-1].

    Total function on rectangular matrices; entries may be ring elements
    or plain scalars.  Pivots are chosen by minimal Euclidean size and the
    invariant factors are unit-normalized, giving a canonical diagonal
    with d_1 | d_2 | ...

    ``track`` names the transforms to accumulate, a subset of
    ``TRANSFORMS``; the others are left ``None`` and cost nothing.  The
    diagonal, the rank and every tracked transform do not depend on it.
    """
    unknown = set(track) - set(TRANSFORMS)
    if unknown:
        raise ValueError(f"unknown transforms {sorted(unknown)}; "
                         f"choose from {TRANSFORMS}")
    if ring is None:
        ring = _infer_ring(A)
    rows = len(A)
    cols = len(A[0]) if rows and A[0] else 0
    B = mat_promote(A, ring) if rows and cols else []
    U = mat_identity(rows, ring) if "U" in track else None
    Uinv = mat_identity(rows, ring) if "Uinv" in track else None
    V = mat_identity(cols, ring) if "V" in track else None
    Vinv = mat_identity(cols, ring) if "Vinv" in track else None

    # Row operations act on B and U from the left and on Uinv from the
    # right (column operations: B and V from the right, Vinv from the
    # left).  Products with a zero operand are skipped; they would add 0.
    def swap_rows(i, j):
        B[i], B[j] = B[j], B[i]
        if U is not None:
            U[i], U[j] = U[j], U[i]
        if Uinv is not None:
            for row in Uinv:
                row[i], row[j] = row[j], row[i]

    def swap_cols(i, j):
        for row in B:
            row[i], row[j] = row[j], row[i]
        if V is not None:
            for row in V:
                row[i], row[j] = row[j], row[i]
        if Vinv is not None:
            Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def sub_row(M, dst, src, q):
        # row dst of M -= q * row src
        target = M[dst]
        for c, x in enumerate(M[src]):
            if not x.is_zero():
                target[c] = target[c] - q * x

    def sub_col(M, dst, src, q):
        # column dst of M -= q * column src
        for row in M:
            if not row[src].is_zero():
                row[dst] = row[dst] - q * row[src]

    def addmul_row(dst, src, q):
        # row_dst -= q * row_src ; the inverse gets the column update
        sub_row(B, dst, src, q)
        if U is not None:
            sub_row(U, dst, src, q)
        if Uinv is not None:
            sub_col(Uinv, src, dst, -q)

    def addmul_col(dst, src, q):
        sub_col(B, dst, src, q)
        if V is not None:
            sub_col(V, dst, src, q)
        if Vinv is not None:
            sub_row(Vinv, src, dst, -q)

    def scale_row(i, unit_inv, unit):
        for M in (B, U):
            if M is not None:
                row = M[i]
                for c, x in enumerate(row):
                    if not x.is_zero():
                        row[c] = unit_inv * x
        if Uinv is not None:
            for row in Uinv:
                if not row[i].is_zero():
                    row[i] = row[i] * unit

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # pivot of minimal Euclidean size in the trailing block
        piv = None
        best = None
        for r in range(t, rows):
            for c in range(t, cols):
                if not B[r][c].is_zero():
                    size = B[r][c].euclid_size()
                    if best is None or size < best:
                        best = size
                        piv = (r, c)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # canonical pivot scale (monic; valuation 0 in the Laurent
            # ring) keeps the rational coefficients from swelling
            u = B[t][t].unit_part()
            if not u == ring.one():
                scale_row(t, u.inv_unit(), u)
            # clear column t
            dirty = False
            for r in range(t + 1, rows):
                if B[r][t].is_zero():
                    continue
                q, rem = divmod(B[r][t], B[t][t])
                addmul_row(r, t, q)
                if not rem.is_zero():
                    swap_rows(t, r)
                    dirty = True
            if dirty:
                continue
            # clear row t
            for c in range(t + 1, cols):
                if B[t][c].is_zero():
                    continue
                q, rem = divmod(B[t][c], B[t][t])
                addmul_col(c, t, q)
                if not rem.is_zero():
                    swap_cols(t, c)
                    dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot; a
            # unit pivot divides everything
            pivot = B[t][t]
            if pivot.is_unit():
                break
            offender = None
            for r in range(t + 1, rows):
                for c in range(t + 1, cols):
                    x = B[r][c]
                    if not x.is_zero() and not divmod(x, pivot)[1].is_zero():
                        offender = r
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            # add the offending row; the gcd loop shrinks the pivot
            addmul_row(t, offender, -ring.one())
        t += 1

    # each step leaves its pivot normalized, and later steps touch only
    # later rows and columns
    diag = [B[i][i] for i in range(limit)]
    rank = sum(1 for d in diag if not d.is_zero())
    return SNFResult(diag, U, V, Uinv, Vinv, rank, ring, (rows, cols))


def _infer_ring(A):
    for row in A:
        for x in row:
            if isinstance(x, HLaurent):
                return HLaurent
            if isinstance(x, HPoly):
                return HPoly
    return HPoly


def solve_linear(A, b, ring=None):
    """Solve A x = b over the ring; returns x or None when unsolvable.

    Uses U A V = D: x = V y with y_i = (U b)_i / d_i, requiring exact
    division and zero residual beyond the rank.
    """
    if ring is None:
        ring = _infer_ring(A)
    snf = smith_normal_form(A, ring, track=("U", "V"))
    rows = snf.shape[0]
    if len(b) != rows:
        raise ValueError(f"right-hand side has {len(b)} entries, "
                         f"expected {rows}")
    nz_b = [(k, bk) for k, bk in enumerate(promote(x, ring) for x in b)
            if not bk.is_zero()]
    y = []
    for i, ub in enumerate(mat_vec(snf.U, nz_b, ring)):
        d = snf.diag[i] if i < len(snf.diag) else None
        if d is not None and not d.is_zero():
            q, rem = divmod(ub, d)
            if not rem.is_zero():
                return None
            if not q.is_zero():
                y.append((i, q))
        elif not ub.is_zero():
            return None
    return mat_vec(snf.V, y, ring)


def mat_vec(M, pairs, ring):
    """M v for the vector v given by its nonzero ``(index, entry)`` pairs:
    each sum adds M[r][t] * v_t over the pairs in order, skipping zero
    entries of M."""
    out = []
    for row in M:
        s = ring.zero()
        for t, x in pairs:
            if not row[t].is_zero():
                s = s + row[t] * x
        out.append(s)
    return out


# -- fraction-field rank oracle ------------------------------------------------


class _RatFn:
    """Fraction num/den of polynomials, for the fraction-field rank oracle."""

    __slots__ = ("num", "den")

    def __init__(self, num: HPoly, den: HPoly):
        if den.is_zero():
            raise ZeroDivisionError
        if num.is_zero():
            den = HPoly.one()
        else:
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            # monic denominator for a canonical representative
            lead = den.leading()
            num = HPoly({j: c / lead for j, c in num.coeffs.items()})
            den = HPoly({j: c / lead for j, c in den.coeffs.items()})
        self.num = num
        self.den = den

    def __bool__(self):
        return not self.num.is_zero()

    def __sub__(self, other):
        return _RatFn(self.num * other.den - other.num * self.den,
                      self.den * other.den)

    def __mul__(self, other):
        return _RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        return _RatFn(self.num * other.den, self.den * other.num)


def rank_fraction_field(A) -> int:
    """Rank of a matrix of h-polynomials over the fraction field k(h).

    Laurent entries are shifted into k[h] first (unit scaling does not
    change rank); the rank is then that of ``linalg._echelon``, the
    library's one forward elimination, over k(h).
    """
    M = []
    for row in A:
        entries = [promote(x, HPoly) for x in row]
        # clear negative exponents by one unit scaling of the whole row
        shift = max(-min((x.valuation() for x in entries if not x.is_zero()),
                         default=0), 0)
        M.append([_RatFn(HPoly({j + shift: c for j, c in x.coeffs.items()}),
                         HPoly.one()) for x in entries])
    return len(linalg._echelon(M)[1]) if M and M[0] else 0
