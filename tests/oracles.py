"""Independent oracles used to pin expected values.

``qwedge_bruteforce`` expands the quantum product literally: for each
order n it enumerates all ordered index tuples (i1..in, j1..jn), applies
single back/front contractions one at a time (``contract_back``,
``contract_front``), and divides by n!.  No sparsity shortcuts, no shared
code with the engine's minor expansion or its contraction kernel.

``qwedge_cascade`` is the term kernel the engine used before the minor
expansion: it contracts one ordered index pair per level on term dicts
and scales level n by 1/n!.  Its signs come from ``wedge_sign``,
``front_sign`` and ``back_sign``, which count the inversions bit by bit
as the engine did before it read every sign off one parity mask;
``contraction_signs`` and ``qwedge_plan`` are the engine's mask-pair plan
built on them the same way.  ``contract_front`` (e_i |- a, the engine's
contraction) and ``contract_back`` (a -| e_i, the left factor's
contraction in the product) take each term's sign from ``front_sign`` or
``back_sign``, never from the engine's parity masks.

``MultilinearForm`` evaluates forms as explicit antisymmetric multilinear
maps on basis tuples; contractions are slot evaluations and the wedge is
the shuffle sum.  It re-derives the same product through a second,
representation-independent route.

``charpoly_interpolation`` and ``symplectic_star_uncached`` are the
spectrum-layer algorithms the engine used before its Hessenberg charpoly
and cached star table; the tests assert exact agreement with them.
``HessenbergSpectrumReport`` is the M_h block report the engine built
before it certified each block by transport, M_h = E (N + n) E^-1: the
Hessenberg charpoly of the block's matrix, certified as (x - n)^size by
``factor_charpoly``, and the geometric multiplicity size - rank(M - n I).

``matrix_of_dh_symbolic`` and ``ring_table_per_pair`` are the torus
cohomology builders the engine used before it assembled the d_h mode
matrices from the bivector entries and factored the representative matrix
once for all class products.  ``invariant_subcomplex`` and
``mode_subcomplex`` are the dense mode-0 and nonzero-mode complexes of d_h
whose Smith-normal-form homology the drivers took before they read mode 0
off the constant monomials and certified every other mode; with
``derham_table_snf`` and ``dolbeault_table_snf``, the mode-0 tables as the
drivers then computed them (the Dolbeault one per first index p on a q
window padded by one on either side), they are the oracles of that
reading.  ``dolbeault_matrix_symbolic`` and
``equivariant_matrix_symbolic`` likewise apply the symbolic delbar_h and
Cartan differential to one Fourier form per column, and
``free_rank_oracle`` counts free ranks over the fraction field.

``det_by_columns``, ``rank_by_rows`` and ``inverse_gauss_jordan`` are
the three eliminations of ``linalg`` before det, rank and the inverse
shared one forward elimination.

``commutator_check_per_form`` and ``operator_matrix_per_form`` are the
Lefschetz commutator check and operator matrix the engine used before it
kept L_h and L_h* as sparse columns: every identity applies L_h, L_h* (two
stars around a qwedge, ``lh_per_form`` and ``lh_star_per_form``), A_h (one
factor per homogeneous component, ``ah_per_form``) and h^{+-1} to one
basis form at a time.  These three are also the form-level operators
``apply_Lh``, ``apply_Lh_star`` and ``apply_Ah`` as the engine computed
them before those read the space's columns.  ``OperatorColumns`` are the
L_h and L_h* columns as the engine built them next, one operator call on
a unit form per label, before it filled the L_h columns from the
bivector's product table and the L_h* columns from those; ``apply_Mh`` is
h^-1 ``lh_per_form``.  ``flip_lh_bivector`` makes the engine's L_h columns multiply
under the flipped dual bivector, the negative control of its commutator
check.

``commutator_check_per_label`` and ``hard_lefschetz_check_per_block``
are the Lefschetz checks as the engine ran them before it certified each
parity once on the module generators (0, mask): the identities on every
label of the window, and every block of the window certified on its own
labels.  ``stratum_rank_by_elimination`` is rank N as the block reports
took it before an sl(2) identity fixed it in closed form: each stratum
map omega ^ : Lambda^p -> Lambda^(p+2) ranked by elimination.
``star_row_dense`` is a star-table row as the engine computed it
before it enumerated only the row sets that can carry a nonzero minor: one
minor per index set in ``itertools.combinations`` order.

``char_form_per_power`` is tr(F^k) as the engine computed it before one
running power served every k: k - 1 matrix products of its own.

``bivector_contract_per_entry`` and ``contract_vector_per_index`` are
iota_w and iota_X as the engine computed them before both went through
one kernel contraction: one ``HForm`` of front contractions
(``contract_front``) per entry or index, scaled and added as forms.

``conjugate`` applies E = exp(h iota_w) or its inverse, with iota_w
``bivector_contract_per_entry``.  For Poisson w, E d E^-1 = d_h and
E(E^-1 a ^ E^-1 b) = a ^_h b: one conjugation accounts for the quantum
differential and product, independently of the minor expansion, the
Fourier-mode columns and the kernel contraction.

``solve_dh_primitive_snf`` is the transgression solve the engine used
before it applied the Koszul-Brylinski homotopy: one dense d_h matrix per
Fourier mode of the target, settled by ``solve_linear`` (a Smith normal
form) over the given ring.

``parity_bases``, ``label_columns``, ``cartan_columns_at_mode`` and
``label_homotopy_certificate`` are how the equivariant table settled its
nonzero invariant modes before it ran d_h's certificate on the masks: the
Cartan operator D = d_h + Theta^a iota_a of one mode built on every label
(A, j, mask) of the truncated complex, and the homotopy certificate on
arbitrary labelled spots.

``homotopy_certificate`` and ``require_acyclic`` are how every table
settled each nonzero Fourier mode before it certified the operators of
the unit modes once and the modes by linearity: the operator of one mode
and its homotopy built on the 2^m masks, and d d = 0 and d h + h d = 1
checked on every mask.  ``require_modes_every_mask`` is how every table
then settled its box before it read the anticommutators of the unit
operators on the full mask alone: ``complexes.require_modes`` with
d_c d_c' + d_c' d_c = 0 checked on every mask, each mode's linearity
as 2m generator sums and its den compared with every unit's.

``integer_bivector`` and ``qwedge_table`` are the two integer forms of a
constant bivector as free functions, before the ``Bivector`` built both
itself (``Bivector.integer`` and ``Bivector.table``): the (W, D) of the
Fourier-mode operators over the lcm of the entries' Gaussian denominators,
and the minor table, rational on all-Fraction entries and typed otherwise.
``integer_form_mismatches`` lists the parts of a bivector's own forms
that differ from them.

``suite_associativity_by_qwedge`` and
``suite_supercommutativity_by_qwedge`` are the product-law suites as the
engine ran them before it decided each law on the kernel's integer
numerators: every side a ``qwedge`` of forms, compared by ``HForm ==``.
They draw exactly what the engine's suites draw (``_product_triple``,
``Sampler.ext_form`` and ``Sampler.antisymmetric_bivector`` are the
object views of the engine's dict draws), so the two give the same report
on every seed.

``grat_dh_kappa_v``, ``grat_delbar_kappa_v``, ``grat_koszul_columns``,
``grat_homotopy_columns`` and ``grat_cartan_columns`` are the Fourier-mode
builders the engine used before it built every mode in Gaussian integers
over one denominator: the same operators with GRat entries, one normalised
Gaussian rational per product.  ``gaussian_integer_columns`` is the
conversion the homotopy certificate then ran on each mode's columns.

The rest checks lemmas of the paper and certifies results; no command
runs it.  ``gauge_transform`` and ``gauge_char_diagnostic`` compare the
characteristic forms of a connection before and after a gauge
transformation (recorded, not asserted: the Koszul operator is not
function-linear).  ``recursion_matrix`` and ``recursion_verify`` check the
block-recursion lemma det(M' + x I) = det(M + (x+1) I)^2.
``change_frame``, ``to_complex_frame``, ``to_real_frame``,
``complexify``, ``complex_bidegree`` and ``bidegree_components`` rewrite
real-frame forms in the dz/dzbar frame and read their bidegrees.
``mat_mul``, ``mat_eq``, ``d_matrix`` and ``invariant_factors`` certify a
Smith normal form by re-multiplication.  ``invertible_matrix`` and
``antisymmetric_invertible`` draw random invertible matrices from a
``Sampler``.

``thinned_bivector`` is ``Sampler.antisymmetric_bivector`` with the
float density the library no longer takes, compared exactly instead.
``StdlibSampler`` is the ``Sampler`` as it was before it read its draws
straight from ``getrandbits``: every draw goes through ``random.Random``'s
own ``randint``, ``sample`` and ``choice``, and every fraction is a fresh
``Fraction(num, den)``.
"""

import itertools
import math
import random
from fractions import Fraction

from qexterior._kernels import QTable, int_if_integral, wedge_terms
from qexterior.calculus import dolbeault_operators, exterior_d, quantum_d
from qexterior.chern import (QConnection, TransgressionResult, _mat_qwedge,
                             char_form, quantum_curvature)
from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.cohomology import (LEVEL_CAP, _delbar_kappa_v,
                                  _dolbeault_bases, _require_torus_constant,
                                  graded_dims)
from qexterior.complexes import (CohomologyTable, FiniteComplex, _apply,
                                 complex_homology, dense_complex,
                                 dense_matrix, dh_kappa_v, homotopy_columns,
                                 koszul_columns)
from qexterior.forms import (Bivector, HForm, check_symplectic,
                             mask_indices, omega_form, symplectic_star,
                             wedge)
from qexterior.hpoly import HLaurent, HPoly
from qexterior import complexes, lefschetz
from qexterior.lefschetz import CommutatorReport, DarbouxSpace
from qexterior.linalg import (charpoly, det, factor_charpoly,
                              geometric_multiplicity, matrix_inverse, rank)
from qexterior.models import AFFINE, TORUS, PoissonModel, darboux_matrix
from qexterior.quantum import (complex_frame_bivector, complex_to_real_rows,
                               qwedge)
from qexterior.scalars import GRat
from qexterior.snf import rank_fraction_field, solve_linear
from qexterior.suites import SuiteResult


def wedge_sign(a: int, b: int) -> int:
    """Sign of e^a ^ e^b for disjoint masks: the bits of a above each bit
    of b, counted bit by bit."""
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


def _contract(a: HForm, i: int, sign_of) -> HForm:
    """Each term of a holding e^i (1-based i) without it, signed by
    ``sign_of``, :func:`front_sign` or :func:`back_sign`."""
    bit = 1 << (i - 1)
    return HForm(a.dim, [((j, m ^ bit), -c if sign_of(m, i - 1) < 0 else c)
                         for (j, m), c in a.terms.items() if m & bit],
                 a.laurent)


def contract_front(i: int, a: HForm) -> HForm:
    """e_i |- a, with (v |- a)(v_1, ..) = a(v, v_1, ..)."""
    return _contract(a, i, front_sign)


def contract_back(a: HForm, i: int) -> HForm:
    """a -| e_i, with (a -| v)(v_1, ..) = a(v_1, .., v)."""
    return _contract(a, i, back_sign)


def contraction_signs(mask: int, sign_of) -> dict:
    """Sign of contracting each submask S of ``mask`` bit by bit, ascending.

    Returns {k: [(S, sign)]} grouped by |S|, each group in descending
    order; ``sign_of`` is :func:`back_sign` or :func:`front_sign`.
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


def qwedge_plan(ma: int, mb: int) -> tuple:
    """``_kernels.qwedge_plan`` with every sign a product of per-bit
    contraction signs and a bit-by-bit wedge sign."""
    left = contraction_signs(ma, back_sign)
    right = contraction_signs(mb, front_sign)
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


def qwedge_bruteforce(a: HForm, b: HForm, w) -> HForm:
    m = a.dim
    out = HForm.zero(m, a.laurent or b.laurent)
    max_n = min(max((mask.bit_count() for _j, mask in x.terms),
                    default=0) for x in (a, b))
    fact = 1
    for n in range(max_n + 1):
        if n:
            fact *= n
        for tup_i in itertools.product(range(1, m + 1), repeat=n):
            for tup_j in itertools.product(range(1, m + 1), repeat=n):
                coeff = Fraction(1)
                for i, j in zip(tup_i, tup_j):
                    coeff = coeff * w.entry(i, j)
                    if not coeff:
                        break
                if not coeff:
                    continue
                left = a
                for i in tup_i:
                    left = contract_back(left, i)
                right = b
                for j in tup_j:
                    right = contract_front(j, right)
                term = wedge(left, right) * (coeff * Fraction(1, fact))
                if term:
                    if out.laurent:
                        term = term.to_laurent()
                    out = out + term.h_shift(n)
    return out


def qwedge_cascade(a: HForm, b: HForm, w) -> HForm:
    """Level n contracts the left factor from the back by e_i, the right
    factor from the front by e_j, multiplies by w^{ij}, and contributes
    h^n/n! times the wedge of what remains."""
    wpairs = []
    for (i, j), wij in w.entries.items():
        wpairs.append((i - 1, j - 1, wij))
        wpairs.append((j - 1, i - 1, -wij))
    pairs = {}
    for (ja, ma), ca in a.terms.items():
        for (jb, mb), cb in b.terms.items():
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
    return HForm(a.dim, out, a.laurent or b.laurent)


def _sort_sign(indices):
    """Sort a tuple of indices; returns (sorted tuple, sign) or (None, 0)."""
    idx = list(indices)
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
            elif idx[j] == idx[j + 1]:
                return None, 0
    return tuple(idx), sign


class MultilinearForm:
    """Exterior form stored as values on ascending basis tuples."""

    def __init__(self, dim, values=None):
        self.dim = dim
        # values: (h_exp, ascending index tuple) -> coefficient
        self.values = dict(values or {})

    @classmethod
    def from_hform(cls, a: HForm):
        vals = {}
        for (j, mask), c in a.terms.items():
            vals[(j, tuple(mask_indices(mask)))] = c
        return cls(a.dim, vals)

    def to_hform(self, laurent=False) -> HForm:
        terms = {}
        for (j, idx), c in self.values.items():
            mask = 0
            for i in idx:
                mask |= 1 << (i - 1)
            terms[(j, mask)] = c
        return HForm(self.dim, terms, laurent)

    def evaluate(self, j, args):
        """Value on (e_{a1}, .., e_{ak}) for arbitrary (possibly unsorted)
        argument tuples, using antisymmetry."""
        key, sign = _sort_sign(args)
        if key is None:
            return 0
        c = self.values.get((j, key), 0)
        return c if sign > 0 else -c if c else 0

    def degrees(self):
        return {len(idx) for (_j, idx) in self.values}

    def front_contract(self, i):
        """(e_i |- a)(v..) = a(e_i, v..)."""
        out = {}
        for (j, idx), _c in self.values.items():
            if not idx:
                continue
            k = len(idx) - 1
            for rest in itertools.combinations(sorted(set(idx) - {i}), k):
                val = self.evaluate(j, (i,) + rest)
                if val:
                    out[(j, rest)] = out.get((j, rest), 0) + val
        return MultilinearForm(self.dim, {k: v for k, v in out.items() if v})

    def back_contract(self, i):
        """(a -| e_i)(v..) = a(v.., e_i)."""
        out = {}
        for (j, idx), _c in self.values.items():
            if not idx:
                continue
            k = len(idx) - 1
            for rest in itertools.combinations(sorted(set(idx) - {i}), k):
                val = self.evaluate(j, rest + (i,))
                if val:
                    out[(j, rest)] = out.get((j, rest), 0) + val
        return MultilinearForm(self.dim, {k: v for k, v in out.items() if v})

    def wedge(self, other):
        """Shuffle formula on homogeneous pieces."""
        out = {}
        for (j1, idx1), c1 in self.values.items():
            p = len(idx1)
            for (j2, idx2), c2 in other.values.items():
                q = len(idx2)
                union = sorted(set(idx1) | set(idx2))
                if len(union) != p + q:
                    continue
                total = 0
                for left in itertools.combinations(union, p):
                    right = tuple(x for x in union if x not in left)
                    sign_perm = _shuffle_sign(left + right)
                    v1 = self.evaluate(j1, left)
                    v2 = other.evaluate(j2, right)
                    if v1 and v2:
                        total = total + sign_perm * v1 * v2
                if total:
                    key = (j1 + j2, tuple(union))
                    out[key] = out.get(key, 0) + total
        return MultilinearForm(self.dim, {k: v for k, v in out.items() if v})

    def scale(self, c):
        return MultilinearForm(self.dim,
                               {k: v * c for k, v in self.values.items()})

    def shift_h(self, n):
        return MultilinearForm(self.dim,
                               {(j + n, idx): v
                                for (j, idx), v in self.values.items()})

    def add(self, other):
        out = dict(self.values)
        for k, v in other.values.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return MultilinearForm(self.dim, out)


def _shuffle_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def qwedge_multilinear(a: HForm, b: HForm, w) -> HForm:
    """The quantum product computed wholly in the multilinear picture."""
    m = a.dim
    A = MultilinearForm.from_hform(a)
    B = MultilinearForm.from_hform(b)
    out = MultilinearForm(m)
    max_n = min(max((mask.bit_count() for _j, mask in x.terms),
                    default=0) for x in (a, b))
    fact = 1
    for n in range(max_n + 1):
        if n:
            fact *= n
        for tup_i in itertools.product(range(1, m + 1), repeat=n):
            for tup_j in itertools.product(range(1, m + 1), repeat=n):
                coeff = Fraction(1)
                for i, j in zip(tup_i, tup_j):
                    coeff = coeff * w.entry(i, j)
                    if not coeff:
                        break
                if not coeff:
                    continue
                left = A
                for i in tup_i:
                    left = left.back_contract(i)
                right = B
                for j in tup_j:
                    right = right.front_contract(j)
                term = left.wedge(right).scale(coeff * Fraction(1, fact))
                out = out.add(term.shift_h(n))
    return out.to_hform(a.laurent or b.laurent)


# -- spectrum-layer oracles ----------------------------------------------------


def charpoly_interpolation(rows) -> HPoly:
    """det(x I - A) from n + 1 exact determinants and Lagrange interpolation."""
    n = len(rows)
    if n == 0:
        return HPoly.one()
    xs = [Fraction(t) for t in range(n + 1)]
    ys = [det([[(x if i == j else 0) - rows[i][j] for j in range(n)]
               for i in range(n)]) for x in xs]
    out = HPoly.zero()
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if not yi:
            continue
        num = HPoly.from_scalar(yi)
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * HPoly({1: Fraction(1), 0: -xj})
            denom *= xi - xj
        out = out + num * (Fraction(1) / denom)
    return out


class HessenbergSpectrumReport:
    """Exact characteristic data of a square matrix whose characteristic
    polynomial must be (x - n)^size, or the constructor raises
    AssertionError; the attributes of ``lefschetz.SpectrumReport``."""

    def __init__(self, matrix, n):
        self.size = len(matrix)
        self.charpoly = charpoly(matrix)
        self.factorization = factor_charpoly(self.charpoly, n)
        # det = (-1)^size p(0), which the certificate fixes as n^size
        self.det = Fraction(n) ** self.size
        self.geometric = {
            str(root): (mult, geometric_multiplicity(matrix, root))
            for root, mult in self.factorization.rational_roots.items()}
        self.diagonalizable = \
            sum(g for _a, g in self.geometric.values()) == self.size
        self.invertible = bool(self.det)

    def eigen_summary(self):
        return {name: {"algebraic": a, "geometric": g}
                for name, (a, g) in self.geometric.items()}


def _field_copy(rows):
    return [[Fraction(x) if isinstance(x, int) else x for x in row]
            for row in rows]


def det_by_columns(rows):
    """Determinant by elimination column by column, stopping at the first
    column without a pivot."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    m = _field_copy(rows)
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


def inverse_gauss_jordan(rows):
    """Inverse by Gauss-Jordan elimination of [A | I], each pivot row
    normalised and cleared from every other row."""
    n = len(rows)
    m = [r + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(_field_copy(rows))]
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


def rank_by_rows(rows) -> int:
    """Rank by elimination with whole-row operations."""
    if not rows or not rows[0]:
        return 0
    m = _field_copy(rows)
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


def symplectic_star_uncached(a: HForm, omega) -> HForm:
    """b ^ *a = Lambda^k(w)(b, a) omega^n/n!, recomputing everything per call:
    validation, Omega^-1, omega^n/n! and one minor per (I, J) pair."""
    dim = a.dim
    if len(omega) != dim:
        raise ValueError("matrix dimension mismatch")
    check_symplectic(omega)
    n = dim // 2
    wstar = [[-x for x in row] for row in matrix_inverse(omega)]
    vol = HForm.scalar(dim, Fraction(1))
    om = omega_form(omega)
    for k in range(1, n + 1):
        vol = wedge(vol, om) * Fraction(1, k)
    pf = vol.terms.get((0, (1 << dim) - 1), Fraction(0))

    if any(j for (j, _m) in a.terms) and not a.laurent:
        raise ValueError("star of an h-carrying form requires Laurent mode")

    full = (1 << dim) - 1
    out = {}
    by_count = {}
    for (j, mask), c in a.terms.items():
        by_count.setdefault(mask.bit_count(), []).append((j, mask, c))
    for k, terms in by_count.items():
        for idxI in itertools.combinations(range(dim), k):
            maskI = 0
            for i in idxI:
                maskI |= 1 << i
            comp = full ^ maskI
            sgn = wedge_sign(maskI, comp)
            for (j, maskJ, c) in terms:
                idxJ = [i for i in range(dim) if maskJ >> i & 1]
                lam = det([[wstar[r][s] for s in idxJ] for r in idxI])
                if not lam:
                    continue
                coeff = c * (lam * pf * sgn)
                key = (-j, comp)
                s = out.get(key, 0) + coeff
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
    return HForm(dim, out, a.laurent)


# -- torus cohomology drivers -------------------------------------------------


def matrix_of_dh_symbolic(model, k, src_masks, dst_masks, ring):
    """Matrix of d_h at mode k by applying the symbolic ``quantum_d`` to
    the Fourier forms e^{i k.theta} e^I and reading off the amplitudes."""
    dst_index = {m: i for i, m in enumerate(dst_masks)}
    rows = [[ring.zero() for _ in src_masks] for _ in dst_masks]
    for col, mask in enumerate(src_masks):
        form = HForm(model.dim, {(0, mask):
                                 FourierCoeff.character(model.dim, k)})
        image = quantum_d(form, model)
        for (j, m2), c in image.terms.items():
            amp = c.terms.get(tuple(k), GRat(0))
            if c.terms and (set(c.terms) - {tuple(k)}):
                raise AssertionError("constant-w differential mixed Fourier modes")
            if not amp:
                continue
            if m2 not in dst_index:
                raise AssertionError("differential left the parity component")
            row = dst_index[m2]
            rows[row][col] = rows[row][col] + ring({j: amp})
    return rows


def ring_table_per_pair(table, model, ring, pairs=None):
    """Class products of a cohomology table reduced by one ``solve_linear``
    (a full Smith normal form) per pair; returns {(i, j): {k: coeff}} on
    every pair, or on the class index pairs ``pairs`` in their order."""
    laurent = ring.laurent
    all_masks = list(range(1 << model.dim))
    mask_pos = {m: i for i, m in enumerate(all_masks)}
    forms, columns = [], []
    for degree in table.degrees():
        e = table.entries[degree]
        for rep in e.representatives:
            terms = {}
            col = [ring.zero() for _ in all_masks]
            for lab, coeff in rep.items():
                for j, c in coeff.coeffs.items():
                    terms[(j, lab)] = model.coeff_const(c)
                col[mask_pos[lab]] = coeff
            forms.append(HForm(model.dim, terms, laurent))
            columns.append(col)
    rep_matrix = [[col[r] for col in columns] for r in range(len(all_masks))]
    structure = {}
    if pairs is None:
        pairs = [(i, j) for i in range(len(forms)) for j in range(len(forms))]
    for i, j in pairs:
        target = [ring.zero() for _ in all_masks]
        for (jj, mask), c in qwedge(forms[i], forms[j], model.w).terms.items():
            val = c.constant_value()
            if val:
                target[mask_pos[mask]] = target[mask_pos[mask]] + ring({jj: val})
        x = solve_linear(rep_matrix, target, ring)
        if x is None:
            raise AssertionError("class reduction system is inconsistent")
        structure[(i, j)] = {k: c for k, c in enumerate(x) if not c.is_zero()}
    return structure


def dh_columns(model, k):
    """The operator d_h = d - h delta on the Fourier mode k."""
    return koszul_columns(*dh_kappa_v(
        integer_bivector(model.constant_bivector()), k))


def invariant_subcomplex(model, ring=HLaurent) -> FiniteComplex:
    """Constant-coefficient forms on a torus: one component per classical
    degree, zero differentials (d and delta both vanish)."""
    _require_torus_constant(model)
    m = model.dim
    zero_mode = (0,) * m
    bases = [[mask for mask in range(1 << m) if mask.bit_count() == k]
             for k in range(m + 1)]
    cx = dense_complex(list(range(m + 1)), bases, dh_columns(model, zero_mode),
                       ring)
    if any(not x.is_zero() for D in cx.diffs for row in D for x in row):
        raise AssertionError("invariant complex has nonzero differential")
    return cx


class TwoPeriodicComplex(FiniteComplex):
    """The complex on the spots [even, odd] (degrees [0, 1]) of an operator
    that maps each spot to the other: ``diffs`` is [even -> odd,
    odd -> even], and ``in_matrix(0)`` is the odd -> even map."""

    def __init__(self, bases, operator, ring):
        even, odd = bases
        there = dense_matrix(operator, even, odd, ring)
        back = dense_matrix(operator, odd, even, ring)
        # the unrolled complex even -> odd -> even -> odd checks that both
        # composites around the loop vanish
        FiniteComplex([0, 1, 2, 3], [even, odd, even, odd],
                      [there, back, there], ring=ring)
        super().__init__([0, 1], bases, [there], ring=ring)
        self.diffs.append(back)

    def in_matrix(self, spot: int):
        return self.diffs[1 - spot]


def mode_subcomplex(model, k, ring=HLaurent) -> FiniteComplex:
    """Two-periodic complex of the Fourier mode k (even spot, odd spot)."""
    _require_torus_constant(model)
    k = tuple(int(x) for x in k)
    if len(k) != model.dim:
        raise ValueError("frequency vector has wrong length")
    return TwoPeriodicComplex(parity_bases(model.dim), dh_columns(model, k),
                              ring)


def derham_table_snf(model, mode_box=1, max_degree=None, ring=HLaurent):
    """The de Rham table as the Smith normal form of ``invariant_subcomplex``
    with the driver's meta; nonzero modes are not computed."""
    table = complex_homology(invariant_subcomplex(model, ring))
    table.meta.update({
        "kind": "derham",
        "mode": (0,) * model.dim,
        "ring": "laurent" if ring is HLaurent else "polynomial",
        "mode_box": mode_box,
        "anomalous_modes": [],
        "graded_dims": graded_dims(table, ring is HLaurent,
                                   2 * model.dim if max_degree is None
                                   else max_degree),
        "note": "flat-torus instance; general closed Kahler degeneracy "
                "is outside this engine's model class",
    })
    return table


def dolbeault_table_snf(model, mode_box=1, ring=HPoly):
    """The Dolbeault table as the Smith normal form of the mode-0 complex
    of each first index p on the q window padded by one on either side,
    with the driver's meta; nonzero modes are not computed."""
    n = model.dim // 2
    laurent = ring is HLaurent
    wc = integer_bivector(complex_frame_bivector(model.constant_bivector()))
    d0 = koszul_columns(*_delbar_kappa_v(wc, (0,) * model.dim))
    entries = []
    for p in range(-LEVEL_CAP if laurent else 0, n + LEVEL_CAP + 1):
        qs = list(range(p - n - 1, p + n + 2)) if laurent else \
            list(range(max(0, p - n) - 1, p + n + 2))
        bases = _dolbeault_bases(n, p, qs, laurent)
        spots = [bases[q] for q in qs]
        labels = [lab for b in spots for lab in b]
        sub = complex_homology(dense_complex(
            qs, spots, label_columns(d0, labels), ring))
        for q in qs[1:-1]:
            e = sub.entries[q]
            if e.free_rank or e.torsion:
                e.degree = (p, q)
                entries.append(e)
    table = CohomologyTable(ring, entries)
    table.meta.update({"kind": "dolbeault", "mode_box": mode_box,
                       "ring": "laurent" if laurent else "polynomial",
                       "anomalous_modes": []})
    return table


def dolbeault_matrix_symbolic(model, k, src, dst, ring):
    """Matrix of delbar_h at mode k on complex-frame labels (j, mask), by
    the symbolic Dolbeault splitting of each Fourier form."""
    dst_index = {lab: i for i, lab in enumerate(dst)}
    rows = [[ring.zero() for _ in src] for _ in dst]
    for col, (j, mask) in enumerate(src):
        form = HForm(model.dim, {(j, mask): FourierCoeff.character(model.dim, k)},
                     laurent=(j < 0))
        image = dolbeault_operators(form, model).antiholo_h
        for (j2, m2), c in image.terms.items():
            amp = c.terms.get(tuple(k), GRat(0))
            if not amp:
                continue
            lab = (j2, m2)
            if lab not in dst_index:
                raise AssertionError("delbar_h left the expected stratum")
            rows[dst_index[lab]][col] = rows[dst_index[lab]][col] + ring.from_scalar(amp)
    return rows


def equivariant_matrix_symbolic(model, action, k, src, dst, ring):
    """Matrix of the Cartan differential at mode k on labels (A, j, mask),
    by applying ``cartan_d`` to each Fourier form."""
    from qexterior.equivariant import EquivariantElement, cartan_d
    dst_index = {lab: i for i, lab in enumerate(dst)}
    rows = [[ring.zero() for _ in src] for _ in dst]
    d = action.n_generators
    for col, (A, j, mask) in enumerate(src):
        form = HForm(model.dim, {(j, mask): FourierCoeff.character(model.dim, k)})
        elem = EquivariantElement(model, d, {A: form})
        image = cartan_d(elem, action)
        for A2, f2 in image.terms.items():
            for (j2, m2), c in f2.terms.items():
                amp = c.terms.get(tuple(k), GRat(0))
                if not amp:
                    continue
                lab = (A2, j2, m2)
                if lab not in dst_index:
                    raise AssertionError("Cartan differential left the "
                                         "expected total degree")
                rows[dst_index[lab]][col] = rows[dst_index[lab]][col] + \
                    ring.from_scalar(amp)
    return rows


def free_rank_oracle(out_mat, in_mat, dim) -> int:
    """Fraction-field rank bookkeeping: dim - rank(out) - rank(in)."""
    r_out = rank_fraction_field(out_mat) if out_mat else 0
    r_in = rank_fraction_field(in_mat) if in_mat else 0
    return dim - r_out - r_in


# -- Lefschetz commutator algebra ---------------------------------------------


def operator_matrix_per_form(op, space, k, shift):
    """Matrix of a degree-homogeneous operator on Lambda^{[k]}, applying
    ``op`` to one basis form per column; rows index Lambda^{[k + shift]}."""
    src = space.basis(k)
    dst = space.basis(k + shift)
    index = {lab: i for i, lab in enumerate(dst)}
    rows = [[Fraction(0)] * len(src) for _ in dst]
    for col, lab in enumerate(src):
        image = op(HForm(space.dim, {lab: Fraction(1)}, laurent=True))
        for key, c in image.terms.items():
            if key not in index:
                raise AssertionError(f"operator output left degree {k + shift}")
            rows[index[key]][col] = rows[index[key]][col] + c
    return rows


def lh_per_form(x, space, w):
    """L_h x = omega ^_h x under the bivector ``w``."""
    return qwedge(space.omega_form, x.to_laurent(), w)


def lh_star_per_form(x, space):
    """L_h* x = -(* L_h *) x under the calibrated bivector."""
    star = space.star
    return -symplectic_star(lh_per_form(symplectic_star(x, star), space,
                                        space.w), star)


def flip_lh_bivector(monkeypatch):
    """The negative control of ``lefschetz.commutator_check``: every
    ``DarbouxSpace`` takes the L_h columns of a twin whose dual bivector
    has the calibration sign flipped, and the L_h* columns of a calibrated
    twin, read off calibrated L_h columns, as ``corrupt_w`` does below."""
    real = DarbouxSpace.__init__

    def flipped(self, n):
        real(self, n)
        flip, calibrated = (DarbouxSpace.__new__(DarbouxSpace)
                            for _ in range(2))
        real(flip, n)
        real(calibrated, n)
        flip.w = flip.w.map_entries(lambda v: -v)
        self.L, self.Ls = flip.L, calibrated.Ls

    monkeypatch.setattr(DarbouxSpace, "__init__", flipped)


def ah_per_form(x, space):
    """A_h x = (n - k) x, summed over the homogeneous pieces of x of
    graded degree k = |I| + 2j."""
    pieces = {}
    for (j, m), c in x.terms.items():
        pieces.setdefault(m.bit_count() + 2 * j, {})[(j, m)] = c
    out = HForm.zero(x.dim, x.laurent)
    for k, terms in sorted(pieces.items()):
        out = out + HForm(x.dim, terms, x.laurent) * Fraction(space.n - k)
    return out


def apply_Mh(x, space):
    """M_h x = h^-1 L_h x, with L_h the per-form qwedge."""
    return lh_per_form(x, space, space.w).h_shift(-1)


class OperatorColumns(dict):
    """Sparse columns ``label -> {label': c}`` of one operator on HForms.

    The column of a basis label (j, mask) is the operator applied to that
    label's unit form, computed on first lookup and kept; integral
    ``Fraction`` coefficients are stored as ``int``.
    """

    def __init__(self, op, space):
        super().__init__()
        self.op = op
        self.space = space

    def __missing__(self, lab):
        image = self.op(HForm(self.space.dim, {lab: Fraction(1)}, laurent=True))
        col = {key: int_if_integral(c) for key, c in image.terms.items()}
        self[lab] = col
        return col


def commutator_check_per_form(n, window=None, corrupt_w=False):
    """The commutator identities of ``lefschetz.commutator_check``, each
    evaluated as operators on HForms, basis form by basis form."""
    space = DarbouxSpace(n)
    if window is None:
        window = range(-(2 * n + 2), 2 * n + 3)
    rep = CommutatorReport(n, list(window))
    w_for_L = space.w.map_entries(lambda v: -v) if corrupt_w else space.w

    L = lambda x: lh_per_form(x, space, w_for_L)
    Ls = lambda x: lh_star_per_form(x, space)
    A = lambda x: ah_per_form(x, space)
    H = lambda x: x.h_shift(1)
    Hi = lambda x: x.h_shift(-1)
    M = lambda x: Hi(L(x))
    Ms = lambda x: H(Ls(x))

    checks = [
        ("[Lh,Lh*]=0", lambda x: L(Ls(x)) - Ls(L(x)), None),
        ("[Lh,Ah]=2Lh", lambda x: L(A(x)) - A(L(x)), lambda x: L(x) * Fraction(2)),
        ("[Lh*,Ah]=-2Lh*", lambda x: Ls(A(x)) - A(Ls(x)), lambda x: Ls(x) * Fraction(-2)),
        ("[h,h^-1]=0", lambda x: H(Hi(x)) - Hi(H(x)), None),
        ("[Lh,h]=0", lambda x: L(H(x)) - H(L(x)), None),
        ("[Lh,h^-1]=0", lambda x: L(Hi(x)) - Hi(L(x)), None),
        ("[Lh*,h]=0", lambda x: Ls(H(x)) - H(Ls(x)), None),
        ("[Lh*,h^-1]=0", lambda x: Ls(Hi(x)) - Hi(Ls(x)), None),
        ("[Ah,h]=-2h", lambda x: A(H(x)) - H(A(x)), lambda x: H(x) * Fraction(-2)),
        ("[Ah,h^-1]=2h^-1", lambda x: A(Hi(x)) - Hi(A(x)), lambda x: Hi(x) * Fraction(2)),
        ("[Mh,Mh*]=0", lambda x: M(Ms(x)) - Ms(M(x)), None),
        ("[Mh,Ah]=0", lambda x: M(A(x)) - A(M(x)), None),
        ("[Mh*,Ah]=0", lambda x: Ms(A(x)) - A(Ms(x)), None),
        ("Mh=h^-1Lh", lambda x: M(x) - Hi(L(x)), None),
        ("Mh*=hLh*", lambda x: Ms(x) - H(Ls(x)), None),
    ]
    for k in rep.window:
        for lab in space.basis(k):
            x = HForm(space.dim, {lab: Fraction(1)}, laurent=True)
            for name, comm, rhs in checks:
                lhs = comm(x)
                want = rhs(x) if rhs else HForm.zero(space.dim, True)
                if lhs != want:
                    rep.record(name, False, f"degree {k}, basis element {x}")
                else:
                    rep.record(name, True)
    rep.notes.append(
        "h-shift identity verified with computed sign [A_h, h^{+-1}] = "
        "-+2 h^{+-1}; the source states +-2 h^{+-1}, which the n = 1 desk "
        "computation contradicts")
    return rep


def commutator_check_per_label(n, window=None):
    """``lefschetz.commutator_check`` as the engine ran it before it took
    the identities on the first window block of each parity alone: the
    fifteen identities and the scale certificate on every label of every
    degree in the window.  The engine's names are read from the module at
    call time, so a test's patch reaches both; a store patched not to
    commute with h is read here at every label."""
    space = lefschetz.DarbouxSpace(n)
    if window is None:
        window = range(-(2 * n + 2), 2 * n + 3)
    rep = CommutatorReport(n, list(window))
    L, Ls = space.L, space.Ls
    A = lefschetz._a_factor
    _apply, _h_shift, _witness = (lefschetz._apply, lefschetz._h_shift,
                                  lefschetz._witness)
    scale_failure = None
    for k in rep.window:
        for lab in space.basis(k):
            j, mask = lab
            a = A(lab, n)
            up, down = (j + 1, mask), (j - 1, mask)
            Lx, Lsx = L[lab], Ls[lab]
            Mx, Msx = _h_shift(Lx, -1), _h_shift(Lsx, 1)
            held = (
                ("[Lh,Lh*]=0", _apply(L, Lsx) == _apply(Ls, Lx)),
                ("[Lh,Ah]=2Lh", all(A(y, n) == a - 2 for y in Lx)),
                ("[Lh*,Ah]=-2Lh*", all(A(y, n) == a + 2 for y in Lsx)),
                ("[h,h^-1]=0", True),
                ("[Lh,h]=0", L[up] == _h_shift(Lx, 1)),
                ("[Lh,h^-1]=0", L[down] == Mx),
                ("[Lh*,h]=0", Ls[up] == Msx),
                ("[Lh*,h^-1]=0", Ls[down] == _h_shift(Lsx, -1)),
                ("[Ah,h]=-2h", A(up, n) - a == -2),
                ("[Ah,h^-1]=2h^-1", A(down, n) - a == 2),
                ("[Mh,Mh*]=0", _h_shift(_apply(L, Msx), -1)
                 == _h_shift(_apply(Ls, Mx), 1)),
                ("[Mh,Ah]=0", all(A(y, n) == a for y in Mx)),
                ("[Mh*,Ah]=0", all(A(y, n) == a for y in Msx)),
                ("Mh=h^-1Lh", True),
                ("Mh*=hLh*", True),
            )
            for name, ok in held:
                rep.record(name, ok, None if ok else _witness(space, k, lab))
            scaled = {**Mx, lab: Mx.get(lab, 0) - 2 * n}
            if scale_failure is None and \
                    Msx != {y: c for y, c in scaled.items() if c}:
                scale_failure = _witness(space, k, lab)
    if rep.ok and scale_failure:
        raise AssertionError(f"M_h* = M_h - 2n fails on {scale_failure}")
    rep.notes.append(
        "h-shift identity verified with computed sign [A_h, h^{+-1}] = "
        "-+2 h^{+-1}; the source states +-2 h^{+-1}, which the n = 1 desk "
        "computation contradicts")
    return rep


def hard_lefschetz_check_per_block(n, window=None):
    """``lefschetz.hard_lefschetz_check`` as the engine ran it before it
    read the blocks of one parity off the report of the first of them:
    every block of the window certified on its own labels, in window
    order."""
    space = lefschetz.DarbouxSpace(n)
    if window is None:
        window = range(-(2 * n), 2 * n + 1)
    rep = lefschetz.HardLefschetzReport(n)
    for k in window:
        block = rep.blocks[k] = lefschetz.SpectrumReport(space, k)
        rep.conformance[k] = lefschetz.paper_conformance(block)
    return rep


def stratum_rank_by_elimination(space, labels) -> int:
    """rank N, N = h^-1 omega ^, as ``lefschetz.SpectrumReport`` took it
    before it read the sl(2) closed form: each map omega ^ : Lambda^p ->
    Lambda^(p+2) between the exterior-degree strata of ``labels`` built
    as a dense matrix and ranked by elimination (``linalg.rank``)."""
    omega = space.omega_form.terms
    strata = {}    # p -> {mask: omega ^ e^mask}
    for _j, mask in labels:
        strata.setdefault(mask.bit_count(), {})[mask] = \
            wedge_terms(omega, {(0, mask): 1})
    rank_N = 0
    for p, images in strata.items():
        if p + 2 in strata:
            index = {m: i for i, m in enumerate(strata[p + 2])}
            rows = [[0] * len(index) for _ in images]
            for row, Nx in zip(rows, images.values()):
                for (_j, m), c in Nx.items():
                    row[index[m]] = c
            rank_N += rank(rows)
    return rank_N


def star_row_dense(star, maskJ):
    """``StarTable.row`` as the engine computed it before it tried only
    the row sets that can carry a nonzero minor: one minor of w* per index
    set I with |I| = |J|, in ``itertools.combinations`` order, kept when
    nonzero, an integral scale as an int.  Nothing is cached."""
    dim, wstar, pf = star.dim, star.wstar.table, star.pf
    full = (1 << dim) - 1
    k = maskJ.bit_count()
    row = []
    for idxI in itertools.combinations(range(dim), k):
        maskI = 0
        for i in idxI:
            maskI |= 1 << i
        lam = wstar.minor(maskI, maskJ) if k else 1
        if wstar.D is not None:
            lam = Fraction(lam, wstar.D ** k)
        if lam:
            comp = full ^ maskI
            row.append((comp, int_if_integral(
                lam * pf * wedge_sign(maskI, comp))))
    return row


def congruent_darboux(s, dim: int, density: float = 1.0):
    """omega = P^T Omega_0 P for a seeded invertible integer P, each entry
    drawn in -2..2 with probability ``density`` and 0 otherwise: symplectic
    and not Darboux."""
    omega0 = darboux_matrix(dim // 2)
    while True:
        P = [[s.rng.randint(-2, 2) if s.rng.random() < density else 0
              for _ in range(dim)] for _ in range(dim)]
        if det(P):
            break
    return [[Fraction(sum(P[a][i] * omega0[a][b] * P[b][j]
                          for a in range(dim) for b in range(dim)))
             for j in range(dim)] for i in range(dim)]


def congruent_torus(s, n: int) -> PoissonModel:
    """The torus T^{2n} with a seeded omega = P^T Omega_0 P
    (:func:`congruent_darboux`) and its calibrated dual w = Omega^{-1}."""
    omega = congruent_darboux(s, 2 * n)
    inv = matrix_inverse(omega)
    return PoissonModel.torus(2 * n, {
        (i + 1, j + 1): inv[i][j] for i in range(2 * n)
        for j in range(i + 1, 2 * n) if inv[i][j]}, symplectic=omega)


def solve_dh_primitive_snf(model, delta: HForm, ring) -> TransgressionResult:
    """Solve d_h eta = delta mode by mode by Smith normal form over
    ``ring``; the first unsolvable mode in sorted order is the
    obstruction.  Requires a torus model with constant w."""
    if not delta:
        return TransgressionResult(True, HForm.zero(model.dim))
    m = model.dim
    w = model.constant_bivector()
    even, odd = parity_bases(m)
    target_parity = 0 if all(mask.bit_count() % 2 == 0
                             for (_j, mask) in delta.terms) else 1
    dst, src = (even, odd) if target_parity == 0 else (odd, even)
    dst_pos = {mask: i for i, mask in enumerate(dst)}
    by_mode = {}
    for (j, mask), c in delta.terms.items():
        if mask.bit_count() % 2 != target_parity:
            raise ValueError("target form has mixed parity")
        for mode, amp in c.terms.items():
            key = tuple(mode)
            vec = by_mode.setdefault(key, [ring.zero() for _ in dst])
            vec[dst_pos[mask]] = vec[dst_pos[mask]] + ring({j: amp})
    eta = HForm.zero(m, ring is HLaurent)
    for mode, target in sorted(by_mode.items()):
        D = dense_matrix(gaussian_integer_columns(
            grat_koszul_columns(*grat_dh_kappa_v(w, mode))), src, dst, ring)
        x = solve_linear(D, target, ring)
        if x is None:
            return TransgressionResult(False, None, obstruction_mode=mode)
        for col, coeff in enumerate(x):
            if coeff.is_zero():
                continue
            for j, amp in coeff.coeffs.items():
                eta = eta + HForm(m, {(j, src[col]):
                                      FourierCoeff.character(m, mode, amp)},
                                  ring is HLaurent)
    return TransgressionResult(True, eta)


def contract_vector_per_index(coeffs, a: HForm) -> HForm:
    """Front contraction by the vector sum_i coeffs[i-1] * e_i."""
    out = HForm.zero(a.dim, a.laurent)
    for i, c in enumerate(coeffs, start=1):
        if c:
            out = out + contract_front(i, a) * c
    return out


def bivector_contract_per_entry(w: Bivector, a: HForm) -> HForm:
    """w |- a = sum_{i<j} w^{ij} a(e_i, e_j, ...); drops degree by 2."""
    if w.dim != a.dim:
        raise ValueError(f"dimension mismatch {w.dim} != {a.dim}")
    out = HForm.zero(a.dim, a.laurent)
    for (i, j), wij in w.entries.items():
        t = contract_front(j, contract_front(i, a))
        if t:
            out = out + t * wij
    return out


def conjugate(x: HForm, w, sign=1) -> HForm:
    """E^sign x for E = exp(h iota_w) = sum_k h^k iota_w^k / k!, sign +-1.

    The series ends: iota_w lowers the exterior degree by 2."""
    out = term = x
    k = 0
    while term:
        k += 1
        term = bivector_contract_per_entry(w, term).h_shift(1) * \
            Fraction(sign, k)
        out = out + term
    return out


def parity_bases(m):
    """Even and odd masks of m generators: the two spots of a d_h mode."""
    even = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    odd = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 1]
    return even, odd


def label_columns(operator, labels):
    """The operator (columns, den) with its mask columns lifted onto labels
    (..., j, mask), the h-power moved into the label:
    h^j e^mask -> sum c (..., j + j', mask')."""
    columns, den = operator
    out = {}
    for lab in labels:
        head, j, mask = lab[:-2], lab[-2], lab[-1]
        out[lab] = {(head + (j + j2, m2), 0): c
                    for (m2, j2), c in columns[mask].items()}
    return out, den


def cartan_columns_at_mode(generators, kappa, v, den, labels):
    """The operator D = d_h + Theta^a iota_a on labels (A, j, mask), for
    the mode whose d_h is kappa ^ - h iota_v (Gaussian integers over
    ``den``) and ``generators`` = ``equivariant._integer_generators``: d_h
    lifted from its mask columns, and Theta^a iota_a bumps A_a and
    contracts by the constant generator X_a with the sign (-1)^(indices of
    the mask below the removed one).  Both are put over den L."""
    L, gens = generators
    m = len(kappa)
    cols, _den = label_columns(koszul_columns(
        [(L * p, L * q) for p, q in kappa], [(L * p, L * q) for p, q in v],
        den * L), labels)
    gens = [[(den * p, den * q) for p, q in x] for x in gens]
    for (A, j, mask) in labels:
        col = cols[(A, j, mask)]
        for a, x in enumerate(gens):
            bumped = A[:a] + (A[a] + 1,) + A[a + 1:]
            for i in range(m):
                bit = 1 << i
                p, q = x[i]
                if (p or q) and mask & bit:
                    odd = (mask & (bit - 1)).bit_count() & 1
                    col[((bumped, j, mask ^ bit), 0)] = \
                        (-p, -q) if odd else (p, q)
    return cols, den * L


def label_homotopy_certificate(bases, spots, d, h) -> bool:
    """Exact proof that the complex is acyclic at ``spots``, or False.

    ``bases`` lists the labels of every spot; ``d`` (the differential) and
    ``h`` (the candidate homotopy, one spot down) are operators (columns,
    den) whose columns cover each of these labels.  The certificate holds
    when, for every label x of every spot s in ``spots``: d x lies in spot
    s+1, h x in spot s-1, d d x = 0 and d h x + h d x = x exactly, every
    other entry zero.  A False answer proves nothing.  The identity reads
    (den_d den_h) x on the Gaussian integer entries.
    """
    spot_of = {lab: s for s, labs in enumerate(bases) for lab in labs}
    (d, den_d), (h, den_h) = d, h
    unit = (den_d * den_h, 0)
    for s in spots:
        for x in bases[s]:
            dx, hx = d[x], h[x]
            if any(spot_of.get(lab) != s + 1 for lab, _j in dx) or \
                    any(spot_of.get(lab) != s - 1 for lab, _j in hx):
                return False
            if _apply(d, dx, {}):
                return False
            if _apply(h, dx, _apply(d, hx, {})) != {(x, 0): unit}:
                return False
    return True


def homotopy_certificate(d, h) -> bool:
    """Exact proof that the two-periodic complex of the masks is acyclic,
    or False.

    ``d`` (the differential) and ``h`` (the candidate homotopy) are
    operators (columns, den) on the same masks.  The certificate holds
    when, for every mask x: every label of d x and h x is a mask of the
    other parity, d d x = 0 and d h x + h d x = x exactly, every other
    entry zero.  Then each cycle z is the boundary d(h z), so the homology
    vanishes over k[h] and k[h,h^-1] alike: free rank 0 and no torsion.  A
    False answer proves nothing.  The arithmetic runs on the Gaussian
    integer entries as they are, so the identity reads (den_d den_h) x.
    """
    (d, den_d), (h, den_h) = d, h
    unit = (den_d * den_h, 0)
    for x, dx in d.items():
        hx = h[x]
        if any(lab not in d or not (lab ^ x).bit_count() & 1
               for lab, _j in (*dx, *hx)):
            return False
        if _apply(d, dx, {}):
            return False
        if _apply(h, dx, _apply(d, hx, {})) != {(x, 0): unit}:
            return False
    return True


def require_acyclic(mode, kappa, v, den):
    """Raise AssertionError naming the Fourier ``mode`` unless
    :func:`homotopy_certificate` proves kappa ^ - h iota_v (Gaussian
    integers over ``den``) acyclic on the masks, with the homotopy of
    ``complexes.homotopy_columns``; for constant w every nonzero mode
    passes."""
    if not homotopy_certificate(koszul_columns(kappa, v, den),
                                homotopy_columns(kappa, den)):
        raise AssertionError(f"homotopy certificate failed on Fourier mode "
                             f"{mode}")


def require_modes_every_mask(modes, kappa_v, check=None):
    """``complexes.require_modes`` with the anticommutators of the unit
    operators checked on every mask: the same verdicts and messages.  It
    builds its operators through ``complexes``, so a test that patches
    the builders there patches both."""
    m = len(modes[0])
    zero = (0,) * m
    kappa, v, _den = kappa_v(zero)
    if any(p or q for p, q in kappa + v):
        raise AssertionError(f"nonzero differential on Fourier mode {zero}")
    units = []
    for k in filter(any, modes):
        kappa, v, den = kappa_v(k)
        if check is not None:
            check(k, kappa, v)
        if not units:
            # iota_{e_b} is the homotopy of kappa = e^b, over 1
            iotas = [complexes.homotopy_columns(
                [(0, 0)] * b + [(1, 0)] * (m - b), 1)[0] for b in range(m)]
            for c in range(m):
                unit = tuple(int(i == c) for i in range(m))
                u_kappa, u_v, u_den = kappa_v(unit)
                d = complexes.koszul_columns(u_kappa, u_v, u_den)[0]
                units.append((d, u_kappa + u_v, u_den))
                for x, dx in d.items():
                    if not (all(lab in d and (lab ^ x).bit_count() & 1
                                for col in (dx, *(i[x] for i in iotas))
                                for lab, _j in col)
                            and not any(_apply(d2, dx, _apply(d, d2[x], {}))
                                        for d2, _kv, _den in units)
                            and all(_apply(i, dx, _apply(d, i[x], {})) ==
                                    ({(x, 0): kb} if any(kb) else {})
                                    for i, kb in zip(iotas, u_kappa))):
                        raise AssertionError(f"homotopy certificate failed "
                                             f"on Fourier mode {unit}")
        terms = [(kc, kv) for kc, (_d, kv, _den) in zip(k, units) if kc]
        if any(u_den != den for _d, _kv, u_den in units) or \
                not any(p or q for p, q in kappa) or kappa + v != [
                    (sum(kc * kv[i][0] for kc, kv in terms),
                     sum(kc * kv[i][1] for kc, kv in terms))
                    for i in range(2 * m)]:
            raise AssertionError(f"homotopy certificate failed on Fourier "
                                 f"mode {k}")


def grat_contraction_vector(w, kappa):
    """v_a = sum_b w^ab kappa_b, so that -[iota_w, kappa ^] = iota_v."""
    v = []
    for a in range(len(kappa)):
        s = GRat(0)
        for b, kb in enumerate(kappa):
            wab = w.entry(a + 1, b + 1)
            if wab and kb:
                s = s + wab * kb
        v.append(s)
    return v


def grat_dh_kappa_v(w, k):
    """kappa = sum_b i k_b e^b and v = w kappa of d_h on the mode k, as
    GRats, for the bivector ``w`` itself."""
    kappa = [GRat(0, kb) for kb in k]
    return kappa, grat_contraction_vector(w, kappa)


def grat_delbar_kappa_v(wc, k):
    """kappa^{0,1}_l = (i k_{2l-1} - k_{2l}) / 2 in the dzbar slots and
    v = wc kappa^{0,1} of delbar_h on the mode k, as GRats, for the
    complex-frame bivector ``wc`` itself."""
    n = len(k) // 2
    kappa = [GRat(0)] * n + [GRat(Fraction(-k[2 * l + 1], 2),
                                  Fraction(k[2 * l], 2)) for l in range(n)]
    return kappa, grat_contraction_vector(wc, kappa)


def grat_koszul_columns(kappa, v):
    """Columns of kappa ^ - h iota_v on every mask: mask -> {(mask', j): c}."""
    wedges = [(1 << b, c, -c) for b, c in enumerate(kappa) if c]
    contractions = [(1 << a, -c, c) for a, c in enumerate(v) if c]
    cols = {}
    for mask in range(1 << len(kappa)):
        col = {}
        for bit, even, odd in wedges:
            if not mask & bit:
                col[(mask | bit, 0)] = \
                    odd if (mask & (bit - 1)).bit_count() & 1 else even
        for bit, even, odd in contractions:
            if mask & bit:
                col[(mask ^ bit, 1)] = \
                    odd if (mask & (bit - 1)).bit_count() & 1 else even
        cols[mask] = col
    return cols


def grat_homotopy_columns(kappa):
    """Columns of H = iota_{e_b} / kappa_b, b the first index with
    kappa_b != 0."""
    b = next(i for i, c in enumerate(kappa) if c)
    bit = 1 << b
    inv = 1 / kappa[b]
    cols = {}
    for mask in range(1 << len(kappa)):
        if mask & bit:
            odd = (mask & (bit - 1)).bit_count() & 1
            cols[mask] = {(mask ^ bit, 0): -inv if odd else inv}
        else:
            cols[mask] = {}
    return cols


def grat_cartan_columns(action, kappa, v, labels):
    """Columns of D = d_h + Theta^a iota_a on labels (A, j, mask) for the
    mode whose d_h is kappa ^ - h iota_v (GRats)."""
    m = len(kappa)
    mask_cols = grat_koszul_columns(kappa, v)
    cols = {}
    for (A, j, mask) in labels:
        col = cols[(A, j, mask)] = {((A, j + j2, m2), 0): c
                                    for (m2, j2), c in mask_cols[mask].items()}
        for a in range(action.n_generators):
            x = action.translation_vector(a)
            bumped = A[:a] + (A[a] + 1,) + A[a + 1:]
            for i in range(m):
                bit = 1 << i
                if x[i] and mask & bit:
                    odd = (mask & (bit - 1)).bit_count() & 1
                    col[((bumped, j, mask ^ bit), 0)] = -x[i] if odd else x[i]
    return cols


def gaussian_integer_columns(columns):
    """The GRat columns times the least common denominator of their
    entries, as Gaussian integers (re, im): the operator (columns, den)."""
    cols = {lab: {key: GRat.coerce(c) for key, c in col.items()}
            for lab, col in columns.items()}
    den = math.lcm(1, *(x.denominator for col in cols.values()
                        for g in col.values() for x in (g.re, g.im)))
    return {lab: {key: (g.re.numerator * (den // g.re.denominator),
                        g.im.numerator * (den // g.im.denominator))
                  for key, g in col.items()}
            for lab, col in cols.items()}, den


def integer_bivector(w):
    """(W, D) for a constant bivector ``w``: D is the lcm of the
    denominators of its entries and W[a] lists (b, (re, im)) for every
    nonzero entry of row a of D w (0-based, both triangles)."""
    items = sorted(w.entries.items())
    gs = [GRat.coerce(c) for _ij, c in items]
    D = math.lcm(1, *(x.denominator for g in gs for x in (g.re, g.im)))
    W = [[] for _ in range(w.dim)]
    for ((i, j), _c), g in zip(items, gs):
        re = g.re.numerator * (D // g.re.denominator)
        im = g.im.numerator * (D // g.im.denominator)
        if re or im:
            W[i - 1].append((j - 1, (re, im)))
            W[j - 1].append((i - 1, (-re, -im)))
    return W, D


def qwedge_table(dim: int, entries: dict) -> QTable:
    """The table of the bivector with entries {(i, j): w^{ij}} (1-based):
    rational, with the integer rows D W, when every entry is a Fraction;
    typed, with rows of the entries themselves, otherwise."""
    items = sorted(entries.items())
    D = 1
    for _ij, w in items:
        if type(w) is not Fraction:
            return QTable(dim, [(i, j, w) for (i, j), w in items])
        D = math.lcm(D, w.denominator)
    table = QTable(dim, [(i, j, w.numerator * (D // w.denominator))
                         for (i, j), w in items])
    table.D, table.one = D, Fraction(1) if items else None
    return table


def integer_form_mismatches(w, max_order=3):
    """The parts of ``w.table`` and ``w.integer`` that differ from the free
    functions :func:`qwedge_table` and :func:`integer_bivector` on
    the same entries: the table's rows (entries, their types and key
    order), D, one and every minor of order <= max_order (value and type);
    the (W, D) of the mode operators, or the error both raise on entries
    that are not constant."""
    got, want = w.table, qwedge_table(w.dim, dict(w.entries))
    bad = []

    def typed(x):
        return type(x), x

    if [[(k, *typed(v)) for k, v in row.items()] for row in got.rows] != \
            [[(k, *typed(v)) for k, v in row.items()] for row in want.rows]:
        bad.append("rows")
    if (got.D, *typed(got.one)) != (want.D, *typed(want.one)):
        bad.append("D, one")
    for k in range(1, min(w.dim, max_order) + 1):
        for rows in itertools.combinations(range(w.dim), k):
            S = sum(1 << i for i in rows)
            for cols in itertools.combinations(range(w.dim), k):
                T = sum(1 << j for j in cols)
                if typed(got.minor(S, T)) != typed(want.minor(S, T)):
                    bad.append(("minor", rows, cols))
    forms = []
    for integer in (lambda: w.integer, lambda: integer_bivector(w)):
        try:
            forms.append(integer())
        except TypeError as exc:
            forms.append(type(exc))
    if forms[0] != forms[1]:
        bad.append("integer")
    return bad


# -- gauge transformations ----------------------------------------------------


def gauge_transform(conn: QConnection, g_matrix, g_inverse=None) -> QConnection:
    """theta -> G^{-1} theta G + G^{-1} dG.

    ``g_matrix`` has entries that are degree-0 forms (functions).  For a
    constant G pass plain scalar entries; for function-valued G supply
    ``g_inverse`` explicitly (exactness is the caller's concern; the pair
    is validated by multiplying out).
    """
    model = conn.model
    rank = conn.rank
    G = [[_as_function_form(x, model) for x in row] for row in g_matrix]
    if g_inverse is None:
        Ginv = _constant_inverse(g_matrix, model)
    else:
        Ginv = [[_as_function_form(x, model) for x in row] for row in g_inverse]
    prod = _mat_qwedge(Ginv, G, model)
    for i in range(rank):
        for j in range(rank):
            expect = model.form_scalar(1) if i == j else HForm.zero(model.dim)
            if prod[i][j] != expect:
                raise ValueError("g_inverse is not the inverse of g_matrix")
    dG = [[exterior_d(x) for x in row] for row in G]
    new_theta = _mat_qwedge(Ginv, _mat_qwedge(conn.theta, G, model), model)
    correction = _mat_qwedge(Ginv, dG, model)
    for i in range(rank):
        for j in range(rank):
            new_theta[i][j] = new_theta[i][j] + correction[i][j]
    return QConnection(model, new_theta)


def _as_function_form(x, model):
    if isinstance(x, HForm):
        return x
    return model.form_scalar(x)


def _constant_inverse(g_matrix, model):
    scalars = []
    for row in g_matrix:
        r = []
        for x in row:
            if isinstance(x, HForm):
                c = x.coeff()
                if hasattr(c, "constant_value"):
                    if not c.is_constant():
                        raise ValueError("non-constant gauge needs an "
                                         "explicit inverse")
                    c = c.constant_value()
                r.append(Fraction(c) if not hasattr(c, "re") else c)
            else:
                r.append(Fraction(x))
        scalars.append(r)
    inv = matrix_inverse(scalars)
    return [[model.form_scalar(x) for x in row] for row in inv]


def char_form_per_power(F, k: int, model):
    """tr(F^{^_h k}) from its own k - 1 matrix products."""
    power = F
    for _ in range(k - 1):
        power = _mat_qwedge(power, F, model)
    out = HForm.zero(model.dim)
    for i in range(len(F)):
        out = out + power[i][i]
    return out


def gauge_char_diagnostic(conn: QConnection, g_matrix, k: int,
                          g_inverse=None) -> dict:
    """Compare tr(F^k) before and after a gauge transformation.

    Recorded, not asserted: constant gauges must agree; the non-constant
    case is the open transformation-law question and the diagnostic simply
    reports whether the two sides agree.
    """
    before = char_form(quantum_curvature(conn), k, conn.model)
    after_conn = gauge_transform(conn, g_matrix, g_inverse)
    after = char_form(quantum_curvature(after_conn), k, conn.model)
    return {"agree": before == after, "difference": before - after}


# -- block-recursion lemma ----------------------------------------------------


def recursion_matrix(M):
    """One step of the block recursion M -> [[M, -I], [I, M + 2I]]."""
    size = len(M)
    out = [[Fraction(0)] * (2 * size) for _ in range(2 * size)]
    for i in range(size):
        for j in range(size):
            out[i][j] = Fraction(M[i][j])
            out[size + i][size + j] = Fraction(M[i][j])
        out[i][size + i] = Fraction(-1)
        out[size + i][i] = Fraction(1)
        out[size + i][size + i] += 2
    return out


def recursion_verify(M) -> bool:
    """det(M' + x I) == det(M + (x+1) I)^2 as exact polynomials."""
    Mp = recursion_matrix(M)
    lhs = charpoly([[-x for x in row] for row in Mp])
    base = charpoly([[-x for x in row] for row in M])
    rhs = poly_shift(base, Fraction(1))
    return lhs == rhs * rhs


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


# -- complex frame ------------------------------------------------------------
# The frame f^1..f^n = dz^1..dz^n, f^{n+1}..f^{2n} = dzbar^1..dzbar^n with
# z_k = x_{2k-1} + i x_{2k}; a term h^j dz^A dzbar^B has bidegree
# (|A| + j, |B| + j).


def change_frame(a: HForm, rows) -> HForm:
    """Substitute e^i -> sum_a rows[i][a] f^a and expand the wedges."""
    dim = a.dim
    out = HForm.zero(dim, a.laurent)
    images = []
    for i in range(dim):
        img = HForm.zero(dim, a.laurent)
        for col, c in enumerate(rows[i]):
            if c:
                img = img + HForm(dim, {(0, 1 << col): c}, a.laurent)
        images.append(img)
    for (j, mask), c in a.terms.items():
        term = HForm(dim, {(j, 0): c}, a.laurent)
        i = 0
        mm = mask
        while mm:
            if mm & 1:
                term = wedge(term, images[i])
            mm >>= 1
            i += 1
        out = out + term
    return out


def real_to_complex_rows(dim: int):
    """e^i expressed in the complex frame (dz first, dzbar second)."""
    n = dim // 2
    half = Fraction(1, 2)
    rows = [[GRat(0)] * dim for _ in range(dim)]
    for k in range(n):
        # e^{2k-1} = (dz^k + dzbar^k)/2 ; e^{2k} = -i(dz^k - dzbar^k)/2
        rows[2 * k][k] = GRat(half)
        rows[2 * k][n + k] = GRat(half)
        rows[2 * k + 1][k] = GRat(0, -half)
        rows[2 * k + 1][n + k] = GRat(0, half)
    return rows


def to_complex_frame(a: HForm) -> HForm:
    """Rewrite a real-frame form in the dz/dzbar frame (GRat coefficients)."""
    return change_frame(a, real_to_complex_rows(a.dim))


def to_real_frame(a: HForm) -> HForm:
    return change_frame(a, complex_to_real_rows(a.dim))


def complexify(a: HForm, model) -> HForm:
    """Real-frame model form -> complex frame with GRat Fourier values."""
    if model.kind != TORUS:
        raise ValueError("complexification implemented on torus models")
    return to_complex_frame(a)


def complex_bidegree(a: HForm):
    """Bidegree (|A| + j, |B| + j) of a complex-frame form; None if mixed."""
    if a.dim % 2:
        raise ValueError("complex frame needs even dimension")
    n = a.dim // 2
    lo = (1 << n) - 1
    degs = set()
    for (j, mask) in a.terms:
        p = (mask & lo).bit_count() + j
        q = (mask >> n).bit_count() + j
        degs.add((p, q))
    if len(degs) == 1:
        return degs.pop()
    return None


def bidegree_components(a: HForm) -> dict:
    """Split a complex-frame form into its (p, q) pieces."""
    n = a.dim // 2
    lo = (1 << n) - 1
    out = {}
    for (j, mask), c in a.terms.items():
        p = (mask & lo).bit_count() + j
        q = (mask >> n).bit_count() + j
        out.setdefault((p, q), {})[(j, mask)] = c
    return {pq: HForm(a.dim, t, a.laurent) for pq, t in sorted(out.items())}


# -- Smith normal form certification ------------------------------------------


def mat_mul(A, B, ring):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = [[ring.zero() for _ in range(cols)] for _ in range(rows)]
    for i in range(rows):
        Ai = A[i]
        for k in range(inner):
            a = Ai[k]
            if a.is_zero():
                continue
            Bk = B[k]
            oi = out[i]
            for j in range(cols):
                if not Bk[j].is_zero():
                    oi[j] = oi[j] + a * Bk[j]
    return out


def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(A, B))


def d_matrix(res):
    """The diagonal matrix D = U A V of an ``SNFResult``."""
    rows, cols = res.shape
    D = [[res.ring.zero() for _ in range(cols)] for _ in range(rows)]
    for t, d in enumerate(res.diag):
        D[t][t] = d
    return D


def invariant_factors(res):
    """The nonzero diagonal entries of an ``SNFResult``."""
    return [d for d in res.diag if not d.is_zero()]


# -- random invertible matrices -----------------------------------------------


def invertible_matrix(s, dim: int):
    """An invertible dim x dim matrix of ``Sampler.fraction`` draws."""
    while True:
        rows = [[s.fraction() for _ in range(dim)] for _ in range(dim)]
        if det(rows):
            return rows


def antisymmetric_invertible(s, dim: int):
    """An invertible antisymmetric matrix of ``Sampler.fraction`` draws."""
    while True:
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                rows[i][j] = s.fraction()
                rows[j][i] = -rows[i][j]
        if det(rows):
            return rows


# -- the stdlib sampler -------------------------------------------------------


def thinned_bivector(s, dim: int, density) -> Bivector:
    """``s.antisymmetric_bivector(dim)`` with each pair i < j kept with
    probability ``density`` (a ``Fraction``, or a string it parses): the
    pair's two 32-bit words a, b give the 53-bit draw
    (a >> 5) 2^26 + (b >> 6) of ``random()``, compared exactly with
    density 2^53, so the stream is the sampler's, draw for draw."""
    bound = Fraction(density) * 2 ** 53
    ent = {}
    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            a, b = s.rng.getrandbits(32), s.rng.getrandbits(32)
            if (a >> 5) * 2 ** 26 + (b >> 6) <= bound:
                w = s.fraction()
                if w:
                    ent[(i, j)] = w
    return Bivector(dim, ent)


class StdlibSampler:
    """The seeded draws of ``qexterior.sampling.Sampler``, each taken
    through ``random.Random.randint``, ``sample`` or ``choice``."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def fraction(self, lo: int = -6, hi: int = 6, max_den: int = 3) -> Fraction:
        num = self.rng.randint(lo, hi)
        den = self.rng.randint(1, max_den)
        return Fraction(num, den)

    def nonzero_fraction(self, lo: int = -6, hi: int = 6) -> Fraction:
        while True:
            f = self.fraction(lo, hi)
            if f:
                return f

    def grat(self) -> GRat:
        return GRat(self.fraction(), self.fraction())

    def antisymmetric_bivector(self, dim: int) -> Bivector:
        ent = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                self.rng.random()
                w = self.fraction()
                if w:
                    ent[(i, j)] = w
        return Bivector(dim, ent)

    def mask(self, dim: int, degree: int) -> int:
        bits = self.rng.sample(range(dim), degree)
        mask = 0
        for b in bits:
            mask |= 1 << b
        return mask

    def ext_form(self, dim: int, degree=None, terms: int = 2,
                 h_max: int = 0, laurent: bool = False) -> HForm:
        data = {}
        for _ in range(terms):
            d = degree if degree is not None else self.rng.randint(0, dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            key = (j, self.mask(dim, d))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return HForm(dim, data, laurent)

    def poly_coeff(self, dim: int, max_exp: int = 2, terms: int = 2) -> PolyCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.rng.randint(0, max_exp) for _ in range(dim))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return PolyCoeff(dim, data)

    def fourier_coeff(self, dim: int, span: int = 1, terms: int = 2) -> FourierCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.rng.randint(-span, span) for _ in range(dim))
            c = GRat(self.fraction())
            old = data.get(key)
            data[key] = c if old is None else old + c
        return FourierCoeff(dim, data)

    def model_coeff(self, model: PoissonModel, span: int = 1):
        if model.kind == AFFINE:
            return self.poly_coeff(model.dim, max_exp=span + 1)
        return self.fourier_coeff(model.dim, span=span)

    def model_form(self, model: PoissonModel, degree=None, terms: int = 2,
                   h_max: int = 1, laurent: bool = False, span: int = 1) -> HForm:
        out = HForm.zero(model.dim, laurent)
        for _ in range(terms):
            d = degree if degree is not None else self.rng.randint(0, model.dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            c = self.model_coeff(model, span)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out

    def jacobi_model(self, family=None) -> PoissonModel:
        if family is None:
            family = self.rng.choice(["constant", "so3", "decomposable"])
        if family == "constant":
            dim = self.rng.randint(2, 4)
            return PoissonModel.affine(dim, {
                (i, j): self.fraction()
                for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
                if self.rng.random() < 0.8})
        if family == "so3":
            return PoissonModel.so3_affine()
        f = PolyCoeff(3, {(0, self.rng.randint(0, 2), 0): self.nonzero_fraction()})
        return PoissonModel.affine(3, {(1, 3): f})

    def complexified_model_form(self, model: PoissonModel, degree=None,
                                terms: int = 2, h_max: int = 1,
                                laurent: bool = False) -> HForm:
        out = HForm.zero(model.dim, laurent)
        for _ in range(terms):
            d = degree if degree is not None else self.rng.randint(0, model.dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            data = {tuple(self.rng.randint(-1, 2) for _ in range(model.dim)):
                    self.grat()}
            c = FourierCoeff(model.dim, data)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out


def _product_triple(s, dim):
    w = s.antisymmetric_bivector(dim)
    forms = [s.ext_form(dim, degree=s.randint(0, dim), h_max=1)
             for _ in range(3)]
    return w, forms


def suite_associativity_by_qwedge(model, trials, s) -> SuiteResult:
    res = SuiteResult("associativity", trials)
    for t in range(trials):
        dim = (model.dim if model is not None else s.randint(2, 8))
        w, (a, b, c) = _product_triple(s, dim)
        lhs = qwedge(qwedge(a, b, w), c, w)
        rhs = qwedge(a, qwedge(b, c, w), w)
        res.checked += 1
        if lhs != rhs:
            res.fail({"trial": t, "dim": dim, "a": str(a), "b": str(b),
                      "c": str(c), "w": str(w.entries)})
    return res


def suite_supercommutativity_by_qwedge(model, trials, s) -> SuiteResult:
    res = SuiteResult("supercommutativity", trials)
    for t in range(trials):
        dim = (model.dim if model is not None else s.randint(2, 8))
        w = s.antisymmetric_bivector(dim)
        da, db = s.randint(0, dim), s.randint(0, dim)
        a = s.ext_form(dim, degree=da, h_max=1)
        b = s.ext_form(dim, degree=db, h_max=1)
        lhs = qwedge(a, b, w)
        rhs = qwedge(b, a, w)
        if (da * db) % 2:
            rhs = -rhs
        res.checked += 1
        if lhs != rhs:
            res.fail({"trial": t, "dim": dim, "a": str(a), "b": str(b)})
    return res
