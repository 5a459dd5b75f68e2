"""Quantum de Rham / Dolbeault cohomology of torus models via finite
subcomplexes.

With a constant bivector on a torus, d and delta preserve each Fourier
mode, so (Omega(M)[h], d_h) splits: mode 0 is the finite complex of
constant forms with zero differential, and every nonzero mode gives a
finite two-periodic complex over the h-ring whose parity components are
spanned by the even/odd monomials.  Tables aggregate the mode-0 answer and
carry per-mode diagnostics for every nonzero mode in the requested box
(expected acyclic on symplectic tori; reported, never silently asserted).

The mode matrices of d_h are assembled from the bivector entries with bit
arithmetic (``_matrix_of_dh``; its docstring derives the entries and their
signs from the pinned delta = d o iota_w - iota_w o d), and ``ring_table``
factors its representative matrix once and solves every class product
from that one Smith normal form.
"""

from __future__ import annotations

import itertools

from .calculus import dolbeault_operators
from .coeffs import FourierCoeff
from .complexes import CohomologyTable, DegreeHomology, FiniteComplex, complex_homology
from .forms import HForm
from .hpoly import HLaurent, HPoly
from .models import PoissonModel, TORUS
from .quantum import qwedge
from .scalars import GRat
from .snf import smith_normal_form, solve_linear  # noqa: F401 (kept importable)


def _require_torus_constant(model: PoissonModel):
    if model.kind != TORUS:
        raise ValueError("cohomology engine requires a torus model")
    if not model.is_constant_w():
        raise ValueError("cohomology engine requires a constant bivector")


def _matrix_of_dh(model, k, src_masks, dst_masks, ring):
    """Matrix of d_h = d - h delta from the span of src_masks to dst_masks
    on the Fourier mode k, built directly from the bivector entries.

    On e^{i k.theta} e^I the operator d is wedging from the left with
    kappa = sum_b i k_b e^b.  Since iota_w = sum_{a<b} w^ab e_b |- e_a |-
    is second order, the pinned delta = d o iota_w - iota_w o d is the
    commutator -[iota_w, kappa ^], a first-order contraction:
    delta e^I = sum_a v_a e_a |- e^I with v_a = sum_b w^ab kappa_b.  Both
    e^b ^ e^I and e_a |- e^I carry the sign (-1)^(number of indices of I
    below the moved one).  Entries are Gaussian rationals, as the
    amplitudes of the Fourier coefficients they stand for.
    """
    m = model.dim
    w = model.constant_bivector()
    kappa = [GRat(0, kb) for kb in k]
    v = []
    for a in range(m):
        s = GRat(0)
        for b in range(m):
            wab = w.entry(a + 1, b + 1)
            if wab and k[b]:
                s = s + wab * kappa[b]
        v.append(s)
    dst_index = {mask: i for i, mask in enumerate(dst_masks)}
    rows = [[ring.zero() for _ in src_masks] for _ in dst_masks]

    def put(mask, col, j, amp):
        row = dst_index.get(mask)
        if row is None:
            raise AssertionError("differential left the parity component")
        rows[row][col] = ring({j: amp})

    for col, mask in enumerate(src_masks):
        for b in range(m):
            bit = 1 << b
            if not kappa[b] or mask & bit:
                continue
            odd = (mask & (bit - 1)).bit_count() & 1
            put(mask | bit, col, 0, -kappa[b] if odd else kappa[b])
        for a in range(m):
            bit = 1 << a
            if not v[a] or not mask & bit:
                continue
            odd = (mask & (bit - 1)).bit_count() & 1
            put(mask ^ bit, col, 1, v[a] if odd else -v[a])
    return rows


def invariant_subcomplex(model: PoissonModel, ring=HLaurent) -> FiniteComplex:
    """Constant-coefficient forms on a torus: one component per classical
    degree, zero differentials (d and delta both vanish)."""
    _require_torus_constant(model)
    m = model.dim
    zero_mode = (0,) * m
    bases = [[mask for mask in range(1 << m) if mask.bit_count() == k]
             for k in range(m + 1)]
    diffs = []
    for k in range(m):
        D = _matrix_of_dh(model, zero_mode, bases[k], bases[k + 1], ring)
        if any(not x.is_zero() for row in D for x in row):
            raise AssertionError("invariant complex has nonzero differential")
        diffs.append(D)
    return FiniteComplex(list(range(m + 1)), bases, diffs, ring=ring,
                         meta={"kind": "invariant", "mode": zero_mode})


def mode_subcomplex(model: PoissonModel, k, ring=HLaurent) -> FiniteComplex:
    """Two-periodic complex of the Fourier mode k (even spot, odd spot)."""
    _require_torus_constant(model)
    k = tuple(int(x) for x in k)
    if len(k) != model.dim:
        raise ValueError("frequency vector has wrong length")
    m = model.dim
    even = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 0]
    odd = [mask for mask in range(1 << m) if mask.bit_count() % 2 == 1]
    d_even = _matrix_of_dh(model, k, even, odd, ring)
    d_odd = _matrix_of_dh(model, k, odd, even, ring)
    return FiniteComplex([0, 1], [even, odd], [d_even, d_odd], ring=ring,
                         cyclic=True, meta={"kind": "mode", "mode": k})


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
        r = table.rank(deg)
        if not r:
            continue
        for n in range(max_degree + 1):
            if n >= deg and (n - deg) % 2 == 0:
                out[n] += r
            elif laurent and (n - deg) % 2 == 0:
                out[n] += r
    return out


def quantum_derham_table(model: PoissonModel, mode_box: int = 1,
                         max_degree=None, ring=HLaurent) -> CohomologyTable:
    """Quantum de Rham cohomology of a torus with constant bivector.

    The table holds the mode-0 answer (free module ranks per classical
    degree and representatives); diagnostics record the homology of every
    nonzero mode in the box.
    """
    _require_torus_constant(model)
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    modes = _box_modes(model.dim, mode_box)
    table = complex_homology(invariant_subcomplex(model, ring))
    diagnostics = []
    for k in modes:
        sub = complex_homology(mode_subcomplex(model, k, ring))
        ranks = {d: sub.rank(d) for d in sub.degrees()}
        tors = sub.total_torsion()
        if any(ranks.values()) or tors:
            diagnostics.append({"mode": k, "ranks": ranks,
                                "torsion": [str(t) for t in tors]})
    if max_degree is None:
        max_degree = 2 * model.dim
    table.meta.update({
        "kind": "derham",
        "ring": "laurent" if ring is HLaurent else "polynomial",
        "mode_box": mode_box,
        "anomalous_modes": diagnostics,
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


def _dolbeault_matrix(model, k, src, dst, ring):
    dst_index = {lab: i for i, lab in enumerate(dst)}
    rows = [[ring.zero() for _ in src] for _ in dst]
    for col, (j, mask) in enumerate(src):
        form = HForm(model.dim, {(j, mask): FourierCoeff.character(model.dim, k)},
                     laurent=(j < 0))
        image = dolbeault_operators(form, model).antiholo_h
        for (j2, m2), c in image.terms.items():
            amp = c.mode_amplitude(k)
            if not amp:
                continue
            lab = (j2, m2)
            if lab not in dst_index:
                raise AssertionError("delbar_h left the expected stratum")
            rows[dst_index[lab]][col] = rows[dst_index[lab]][col] + ring.from_scalar(amp)
    return rows


def quantum_dolbeault_table(model: PoissonModel, mode_box: int = 1,
                            ring=HPoly, level_cap: int = 2) -> CohomologyTable:
    """Bigraded quantum Dolbeault ranks of a complex torus model.

    For each first index p the complex (Omega_h^{[p,*]}, delbar_h) has
    finite-dimensional strata over the base field; ranks are reported per
    (p, q).  ``level_cap`` bounds the reported h-level above the classical
    window.
    """
    _require_torus_constant(model)
    if not model.complex_structure:
        raise ValueError("Dolbeault table requires a complex structure")
    modes = _box_modes(model.dim, mode_box)
    n = model.dim // 2
    laurent = ring is HLaurent
    entries = []
    zero_mode = (0,) * model.dim
    p_lo = -level_cap if laurent else 0
    diags = []
    for p in range(p_lo, n + level_cap + 1):
        q_range = list(range(p - n - 1, p + n + 2)) if laurent else \
            list(range(max(0, p - n) - 1, p + n + 2))
        bases = _dolbeault_bases(n, p, q_range, laurent)
        comp_qs = [q for q in q_range]
        mats = []
        for qi in range(len(comp_qs) - 1):
            mats.append(_dolbeault_matrix(model, zero_mode,
                                          bases[comp_qs[qi]],
                                          bases[comp_qs[qi + 1]], ring))
        cx = FiniteComplex(comp_qs, [bases[q] for q in comp_qs], mats,
                           ring=ring, meta={"kind": "dolbeault", "p": p})
        sub = complex_homology(cx)
        for q in comp_qs[1:-1]:
            r = sub.rank(q)
            if r or sub.torsion(q):
                e = sub.entries[q]
                entries.append(DegreeHomology((p, q), e.free_rank, e.torsion,
                                              e.representatives, e.labels))
        for k in modes:
            anomalies = {}
            mats_k = [_dolbeault_matrix(model, k, bases[comp_qs[qi]],
                                        bases[comp_qs[qi + 1]], ring)
                      for qi in range(len(comp_qs) - 1)]
            cxk = FiniteComplex(comp_qs, [bases[q] for q in comp_qs], mats_k,
                                ring=ring)
            subk = complex_homology(cxk)
            for q in comp_qs[1:-1]:
                if subk.rank(q) or subk.torsion(q):
                    anomalies[q] = subk.rank(q)
            if anomalies:
                diags.append({"mode": k, "p": p, "ranks": anomalies})
    table = CohomologyTable(ring, entries)
    table.meta.update({"kind": "dolbeault", "mode_box": mode_box,
                       "ring": "laurent" if laurent else "polynomial",
                       "anomalous_modes": diags})
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


def ring_table(table: CohomologyTable, model: PoissonModel,
               ring=HLaurent) -> RingTable:
    """Products of representatives reduced to class coordinates.

    Reduction solves rep-matrix * x = product over the h-ring, from one
    factorization of the rep-matrix shared by every pair; with the
    invariant torus complex the exact part is zero, so inconsistency
    signals a broken representative rather than a mathematical failure.
    """
    laurent = ring is HLaurent
    rt = RingTable(model, table, ring)
    all_masks = list(range(1 << model.dim))
    mask_pos = {m: i for i, m in enumerate(all_masks)}
    columns = []
    for degree in table.degrees():
        e = table.entries[degree]
        for idx, vec in enumerate(e.representatives):
            form = _rep_to_form(model, e.labels, vec, ring, laurent)
            rt.classes.append((degree, idx, form))
            col = [ring.zero() for _ in all_masks]
            for lab, coeff in zip(e.labels, vec):
                col[mask_pos[lab]] = coeff
            columns.append(col)
    rep_matrix = [[columns[c][r] for c in range(len(columns))]
                  for r in range(len(all_masks))]
    # one factorization serves all len(classes)^2 right-hand sides
    rep_snf = smith_normal_form(rep_matrix, ring, track=("U", "V"))
    for i, (_da, _ia, fa) in enumerate(rt.classes):
        for j, (_db, _ib, fb) in enumerate(rt.classes):
            prod = qwedge(fa, fb, model.w)
            target = [ring.zero() for _ in all_masks]
            for (jj, mask), c in prod.terms.items():
                val = c.constant_value() if hasattr(c, "constant_value") else c
                if val:
                    target[mask_pos[mask]] = target[mask_pos[mask]] + ring({jj: val})
            x = rep_snf.solve(target)
            if x is None:
                raise AssertionError("class reduction system is inconsistent")
            rt.structure[(i, j)] = {k: coeff for k, coeff in enumerate(x)
                                    if not coeff.is_zero()}
    return rt
