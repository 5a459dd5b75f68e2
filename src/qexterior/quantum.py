"""The quantum exterior product, and the complex frame of the Dolbeault
operators.

The product deforms the wedge by the exponential of the bivector
contraction, exp(h w^{ij} (-| e_i) (x) (e_j |-)).  Expanded exactly, its
n-th order sums the n! orderings of each n-fold contraction into one
minor of the antisymmetric matrix W:

    e^I ^_h e^J = sum_{S, T} +-h^k det W[S, T] e^{I-S} ^ e^{J-T}

over S in I and T in J with |S| = |T| = k and disjoint remainders, with
the normalization ``e^i ^_w e^j = e^i ^ e^j + w^{ij}`` (see ``_kernels``
for the sign).  Setting h = 0 recovers the classical wedge; h carries
degree 2, so the product respects the total grading.  The minors of a
bivector are kept in its own table (``Bivector.table``).

The complex frame is f^1..f^n = dz^1..dz^n, f^{n+1}..f^{2n} =
dzbar^1..dzbar^n with z_k = x_{2k-1} + i x_{2k}; a term h^j dz^A dzbar^B
has bidegree (|A| + j, |B| + j).  The Dolbeault operators contract with
the bivector as seen in that frame (``complex_frame_bivector``), which
needs the standard complex structure J to preserve w.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels as K
from .forms import Bivector, HForm, berezin_integral
from .scalars import GRat, I


def qwedge(a: HForm, b: HForm, w: Bivector) -> HForm:
    """Quantum exterior product a ^_{h,w} b."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    if w.dim != a.dim:
        raise ValueError(f"bivector dimension mismatch {w.dim} != {a.dim}")
    return HForm._from_clean(a.dim, K.qwedge_terms(a.terms, b.terms, w.table),
                             a.laurent or b.laurent)


def wwedge(a: HForm, b: HForm, w: Bivector) -> HForm:
    """The w-product a ^_w b = (a ^_h b) at h = 1."""
    return qwedge(a, b, w).at_h(1)


def frobenius_pairing(a: HForm, b: HForm, w: Bivector):
    """<a, b> = Berezin integral of a ^_w b."""
    return berezin_integral(wwedge(a, b, w))


def gram_matrix(w: Bivector):
    """Gram matrix of the Frobenius pairing on the 2^m monomial basis."""
    dim = w.dim
    basis = [HForm(dim, {(0, mask): Fraction(1)}) for mask in range(1 << dim)]
    return [[frobenius_pairing(x, y, w) for y in basis] for x in basis]


# -- complex frame ------------------------------------------------------------


def standard_j_matrix(dim: int):
    """Matrix of the standard complex structure J on vectors.

    J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}; entry [i][j] is the e_i
    component of J e_j (0-based storage).
    """
    if dim % 2:
        raise ValueError("complex structure needs even dimension")
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim // 2):
        rows[2 * k + 1][2 * k] = Fraction(1)
        rows[2 * k][2 * k + 1] = Fraction(-1)
    return rows


def j_preserves(w: Bivector) -> bool:
    """Check Lambda^2 J (w) = w for the standard complex structure."""
    if w.dim % 2:
        return False
    return transform_bivector(w, standard_j_matrix(w.dim)) == w


def complex_to_real_rows(dim: int):
    """dz^k / dzbar^k expressed in the real frame."""
    n = dim // 2
    rows = [[GRat(0)] * dim for _ in range(dim)]
    for k in range(n):
        rows[k][2 * k] = GRat(1)
        rows[k][2 * k + 1] = I
        rows[n + k][2 * k] = GRat(1)
        rows[n + k][2 * k + 1] = -I
    return rows


def transform_bivector(w: Bivector, rows) -> Bivector:
    """Bivector in the new frame: W' = S W S^T for covector rows f^a = S e."""
    dim = w.dim
    wm = w.matrix()
    ent = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            val = 0
            for i in range(dim):
                if not rows[a][i]:
                    continue
                for j in range(dim):
                    if rows[b][j] and wm[i][j]:
                        val = val + rows[a][i] * rows[b][j] * wm[i][j]
            if val:
                ent[(a + 1, b + 1)] = val
    return Bivector(dim, ent)


def complex_frame_bivector(w: Bivector) -> Bivector:
    """The bivector as seen by the complex frame contraction formula.

    Uses the rows expressing dz/dzbar in the real covector basis, since
    components transform by W_c = S W S^T with f^a = S e.
    """
    if not j_preserves(w):
        raise ValueError("complex structure does not preserve the bivector")
    return transform_bivector(w, complex_to_real_rows(w.dim))
