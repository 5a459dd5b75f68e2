"""Quantum de Rham / Dolbeault cohomology of torus models via finite
subcomplexes.

With a constant bivector on a torus, d and delta preserve each Fourier
mode, so (Omega(M)[h], d_h) splits: mode 0 is the finite complex of
constant forms with zero differential, whose Smith-normal-form homology is
the table, and every nonzero mode gives a finite two-periodic complex over
the h-ring whose parity components are spanned by the even/odd monomials.

Only mode 0 is computed, by Smith normal form.  ``complexes.require_acyclic``
proves every nonzero mode of the box acyclic with its operator (d_h, or
delbar_h for the Dolbeault table) and the Koszul-Brylinski homotopy H
(:func:`complexes.homotopy_columns`), or raises AssertionError naming the
mode.  ``anomalous_modes`` stays in the report meta, always empty.

``ring_table`` reads class coordinates off each product: the
representatives of the invariant torus complex are basis monomials, so
the representative matrix is a signed permutation and no solve is needed.
Under a real bivector the products run in qwedge's integer kernel.
"""

from __future__ import annotations

import itertools

from .complexes import (CohomologyTable, FiniteComplex, complex_homology,
                        dense_complex, dh_kappa_v, homotopy_columns,
                        integer_bivector, koszul_columns, koszul_mode,
                        label_columns, parity_bases, require_acyclic)
from .forms import Bivector, HForm
from .hpoly import HLaurent, HPoly
from .models import PoissonModel, TORUS
from .quantum import complex_frame_bivector, qwedge
from .scalars import GRat
from .snf import solve_linear  # noqa: F401 (kept importable)


def _require_torus_constant(model: PoissonModel):
    if model.kind != TORUS:
        raise ValueError("cohomology engine requires a torus model")
    if not model.is_constant_w():
        raise ValueError("cohomology engine requires a constant bivector")


def _dh_columns(model, k):
    """The operator d_h = d - h delta on the Fourier mode k."""
    return koszul_columns(*dh_kappa_v(
        integer_bivector(model.constant_bivector()), k))


def invariant_subcomplex(model: PoissonModel, ring=HLaurent) -> FiniteComplex:
    """Constant-coefficient forms on a torus: one component per classical
    degree, zero differentials (d and delta both vanish)."""
    _require_torus_constant(model)
    m = model.dim
    zero_mode = (0,) * m
    bases = [[mask for mask in range(1 << m) if mask.bit_count() == k]
             for k in range(m + 1)]
    cx = dense_complex(list(range(m + 1)), bases,
                       _dh_columns(model, zero_mode), ring,
                       meta={"kind": "invariant", "mode": zero_mode})
    if any(not x.is_zero() for D in cx.diffs for row in D for x in row):
        raise AssertionError("invariant complex has nonzero differential")
    return cx


def mode_subcomplex(model: PoissonModel, k, ring=HLaurent) -> FiniteComplex:
    """Two-periodic complex of the Fourier mode k (even spot, odd spot)."""
    _require_torus_constant(model)
    k = tuple(int(x) for x in k)
    if len(k) != model.dim:
        raise ValueError("frequency vector has wrong length")
    return dense_complex([0, 1], parity_bases(model.dim),
                         _dh_columns(model, k), ring, cyclic=True,
                         meta={"kind": "mode", "mode": k})


def _box_modes(dim, mode_box):
    """The nonzero modes of the box [-mode_box, mode_box]^dim."""
    if mode_box < 0:
        raise ValueError("mode_box must be nonnegative")
    return [k for k in itertools.product(range(-mode_box, mode_box + 1),
                                         repeat=dim) if any(k)]


def graded_dims(table: CohomologyTable, laurent: bool, max_degree: int):
    """Dimensions of the total-degree strata of a free classical table."""
    out = {n: 0 for n in range(max_degree + 1)}
    for deg in table.degrees():
        for n in out:
            if (n - deg) % 2 == 0 and (laurent or n >= deg):
                out[n] += table.rank(deg)
    return out


def quantum_derham_table(model: PoissonModel, mode_box: int = 1,
                         max_degree=None, ring=HLaurent) -> CohomologyTable:
    """Quantum de Rham cohomology of a torus with constant bivector.

    The table holds the mode-0 answer (free module ranks per classical
    degree and representatives); every nonzero mode in the box is
    certified acyclic.
    """
    _require_torus_constant(model)
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    modes = _box_modes(model.dim, mode_box)
    table = complex_homology(invariant_subcomplex(model, ring))
    bivector = integer_bivector(model.constant_bivector())
    bases = parity_bases(model.dim)
    for k in modes:
        kappa, v, den = dh_kappa_v(bivector, k)
        require_acyclic(k, bases, (0, 1), koszul_columns(kappa, v, den),
                        homotopy_columns(kappa, den), cyclic=True)
    if max_degree is None:
        max_degree = 2 * model.dim
    table.meta.update({
        "kind": "derham",
        "ring": "laurent" if ring is HLaurent else "polynomial",
        "mode_box": mode_box,
        "anomalous_modes": [],
        "graded_dims": graded_dims(table, ring is HLaurent, max_degree),
        "note": "flat-torus instance; general closed Kahler degeneracy "
                "is outside this engine's model class",
    })
    return table


# -- Dolbeault ------------------------------------------------------------------


def _dolbeault_bases(n, p, q_range, laurent):
    """Complex-frame labels (j, mask) of the (p, q) strata for fixed p."""
    dim = 2 * n
    lo = (1 << n) - 1
    bases = {q: [] for q in q_range}
    for mask in range(1 << dim):
        a = (mask & lo).bit_count()
        b = (mask >> n).bit_count()
        j = p - a
        if not laurent and j < 0:
            continue
        q = b + j
        if q in bases:
            bases[q].append((j, mask))
    return bases


def _delbar_kappa_v(wc, k):
    """kappa^{0,1}, the contraction vector of delbar_h on the mode k and
    their denominator, under ``wc`` = ``integer_bivector`` of the
    complex-frame bivector.

    delbar = sum_l dzbar^l ^ d/dzbar_l with d/dzbar_l = (d_{2l-1} + i d_{2l})/2,
    so on e^{i k.theta} it wedges with kappa^{0,1}_l = (i k_{2l-1} - k_{2l})/2
    in the dzbar slots; as for d_h, delta^{-1,0} = delbar o iota_wc -
    iota_wc o delbar is the contraction by v_a = sum_b wc^ab kappa^{0,1}_b.
    kappa^{0,1} != 0 for every integer k != 0.
    """
    n = len(k) // 2
    kappa = [(0, 0)] * n + [(-k[2 * l + 1], k[2 * l]) for l in range(n)]
    return koszul_mode(wc, kappa, 2)


# How many h-levels past the classical window 0..n the Dolbeault table
# reports.
LEVEL_CAP = 2


def quantum_dolbeault_table(model: PoissonModel, mode_box: int = 1,
                            ring=HPoly) -> CohomologyTable:
    """Bigraded quantum Dolbeault ranks of a complex torus model.

    For each first index p the complex (Omega_h^{[p,*]}, delbar_h) has
    finite-dimensional strata over the base field; ranks are reported per
    (p, q).  ``LEVEL_CAP`` bounds the reported h-level above the classical
    window (and, over k[h, h^-1], below it).  Mode 0 is computed by Smith
    normal form once per p; every nonzero mode is certified acyclic at the
    reported q by the homotopy iota_{ebar_b} / kappa^{0,1}_b.
    """
    _require_torus_constant(model)
    if not model.complex_structure:
        raise ValueError("Dolbeault table requires a complex structure")
    modes = _box_modes(model.dim, mode_box)
    n = model.dim // 2
    laurent = ring is HLaurent
    wc = integer_bivector(complex_frame_bivector(model.constant_bivector()))
    d0 = koszul_columns(*_delbar_kappa_v(wc, (0,) * model.dim))
    mode_cols = {}
    for k in modes:
        kappa, v, den = _delbar_kappa_v(wc, k)
        mode_cols[k] = (koszul_columns(kappa, v, den),
                        homotopy_columns(kappa, den))
    entries = []
    p_lo = -LEVEL_CAP if laurent else 0
    for p in range(p_lo, n + LEVEL_CAP + 1):
        comp_qs = list(range(p - n - 1, p + n + 2)) if laurent else \
            list(range(max(0, p - n) - 1, p + n + 2))
        bases = _dolbeault_bases(n, p, comp_qs, laurent)
        spot_bases = [bases[q] for q in comp_qs]
        labels = [lab for b in spot_bases for lab in b]
        sub = complex_homology(dense_complex(
            comp_qs, spot_bases, label_columns(d0, labels), ring))
        for q in comp_qs[1:-1]:
            e = sub.entries[q]
            if e.free_rank or e.torsion:
                e.degree = (p, q)
                entries.append(e)
        for k, (d, h) in mode_cols.items():
            require_acyclic(k, spot_bases, range(1, len(comp_qs) - 1),
                            label_columns(d, labels), label_columns(h, labels))
    table = CohomologyTable(ring, entries)
    table.meta.update({"kind": "dolbeault", "mode_box": mode_box,
                       "ring": "laurent" if laurent else "polynomial",
                       "anomalous_modes": []})
    return table


# -- ring structure --------------------------------------------------------------


class RingTable:
    """Multiplication table of cohomology classes over the h-ring."""

    def __init__(self, model, table, ring):
        self.model = model
        self.table = table
        self.ring = ring
        self.classes = []          # (degree, index, rep form)
        self.structure = {}        # (i, j) -> {k: ring coeff}

    def class_index(self, degree, idx=0):
        for i, (d, ix, _f) in enumerate(self.classes):
            if d == degree and ix == idx:
                return i
        raise KeyError((degree, idx))

    def product(self, i, j):
        return self.structure[(i, j)]


def _rep_to_form(model, labels, vec, ring, laurent) -> HForm:
    terms = {}
    for lab, coeff in zip(labels, vec):
        for j, c in coeff.coeffs.items():
            terms[(j, lab)] = model.coeff_const(c)
    return HForm(model.dim, terms, laurent)


def _signed_permutation(matrix):
    """(row, sign) per column when the square ``matrix`` has exactly one
    nonzero entry, +1 or -1, in every row and column; else None."""
    n = len(matrix)
    pivots = []
    for c in range(len(matrix[0]) if n else 0):
        nz = [(r, matrix[r][c]) for r in range(n) if not matrix[r][c].is_zero()]
        if len(nz) != 1 or not (nz[0][1] == 1 or nz[0][1] == -1):
            return None
        pivots.append((nz[0][0], 1 if nz[0][1] == 1 else -1))
    if len(pivots) != n or len({r for r, _sign in pivots}) != n:
        return None
    return pivots


def ring_table(table: CohomologyTable, model: PoissonModel,
               ring=HLaurent) -> RingTable:
    """Products of representatives reduced to class coordinates.

    The representatives of the invariant torus complex are basis
    monomials, so the rep-matrix is a signed permutation and each class
    coordinate is read off the product directly.  Any other rep-matrix
    signals a broken representative and raises AssertionError.  The
    products multiply constant-coefficient copies of the representatives
    under the constant bivector: with real entries these are Fractions,
    which ``qwedge`` sums in integers; a Gaussian w multiplies GRats.
    Every structure coefficient is a GRat, as the amplitude of the
    constant Fourier coefficient it stands for.
    """
    laurent = ring is HLaurent
    rt = RingTable(model, table, ring)
    all_masks = range(1 << model.dim)
    columns = []
    constants = []   # the representatives' terms as GRat scalars
    for degree in table.degrees():
        e = table.entries[degree]
        for idx, vec in enumerate(e.representatives):
            form = _rep_to_form(model, e.labels, vec, ring, laurent)
            rt.classes.append((degree, idx, form))
            constants.append({key: GRat.coerce(c.constant_value())
                              for key, c in form.terms.items()})
            col = [ring.zero() for _ in all_masks]
            for lab, coeff in zip(e.labels, vec):
                col[lab] = coeff
            columns.append(col)
    rep_matrix = [[columns[c][r] for c in range(len(columns))]
                  for r in range(len(all_masks))]
    pivots = _signed_permutation(rep_matrix)
    if pivots is None:
        raise AssertionError("representatives are not signed basis monomials")
    w = {ij: GRat.coerce(c)
         for ij, c in model.constant_bivector().entries.items()}
    if all(c.is_real() for t in [w, *constants] for c in t.values()):
        # all-Fraction factors: qwedge sums each product in integers
        w = {ij: c.re for ij, c in w.items()}
        constants = [{key: c.re for key, c in t.items()} for t in constants]
    w = Bivector(model.dim, w)
    forms = [HForm(model.dim, t, laurent) for t in constants]
    for i, fa in enumerate(forms):
        for j, fb in enumerate(forms):
            prod = qwedge(fa, fb, w)
            target = [ring.zero() for _ in all_masks]
            for (jj, mask), c in prod.terms.items():
                target[mask] = target[mask] + ring({jj: GRat.coerce(c)})
            x = [target[r] if sign == 1 else -target[r] for r, sign in pivots]
            rt.structure[(i, j)] = {k: coeff for k, coeff in enumerate(x)
                                    if not coeff.is_zero()}
    return rt
