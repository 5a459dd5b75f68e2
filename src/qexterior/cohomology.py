"""Quantum de Rham / Dolbeault cohomology of torus models via finite
subcomplexes.

With a constant bivector on a torus, d and delta preserve each Fourier
mode, so (Omega(M)[h], d_h) splits into one finite complex per mode.
:func:`complexes.require_modes` settles the box, or raises AssertionError
naming the mode: on mode 0 it checks that kappa and v vanish, so d_h (and
delbar_h) is zero there and the table is free on the constant monomials,
each its own representative (:func:`complexes.free_homology`); every
nonzero mode it proves acyclic with the Koszul-Brylinski homotopy H,
certified once on the unit modes and then by linearity.  No Smith normal
form is taken.  ``anomalous_modes`` stays in the report meta, always empty.

Both integer forms of w come off ``model.constant_bivector()``: the mode
operators take ``.integer``, and ``ring_table`` reads class coordinates off
``.table``, one signed monomial class {mask: +-1} per mask, so each term of
e^ma ^_h e^mb goes to the class of its mask and no solve is needed.
"""

from __future__ import annotations

from .complexes import (CohomologyTable, box_modes, dh_kappa_v,
                        free_homology, koszul_mode, require_modes)
from .forms import HForm
from .hpoly import HLaurent, HPoly
from .models import PoissonModel, TORUS
from .quantum import complex_frame_bivector
from .scalars import GRat
from .snf import solve_linear  # noqa: F401 (kept importable)


def _require_torus_constant(model: PoissonModel):
    if model.kind != TORUS:
        raise ValueError("cohomology engine requires a torus model")
    if not model.is_constant_w():
        raise ValueError("cohomology engine requires a constant bivector")


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

    The table holds the mode-0 answer: d_h vanishes there, so degree p is
    free of rank C(dim, p) on the masks of p generators.  Every nonzero
    mode in the box is certified acyclic.
    """
    _require_torus_constant(model)
    if max_degree is not None and max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    m = model.dim
    bivector = model.constant_bivector().integer
    require_modes(box_modes(m, mode_box), lambda k: dh_kappa_v(bivector, k))
    table = CohomologyTable(ring, [
        free_homology(p, [mask for mask in range(1 << m)
                          if mask.bit_count() == p], ring)
        for p in range(m + 1)])
    if max_degree is None:
        max_degree = 2 * m
    table.meta.update({
        "kind": "derham",
        "mode": (0,) * m,
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
    their denominator, under ``wc`` = ``Bivector.integer`` of the
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
    window (and, over k[h, h^-1], below it).  delbar_h vanishes on mode 0,
    so each (p, q) stratum is free on its labels.  Each nonzero mode is
    certified acyclic as for d_h, on the masks, after checking that
    kappa^{0,1} has no dz and v no dzbar component: then delbar_h raises q
    by one at fixed p and the homotopy iota_{ebar_b} / kappa^{0,1}_b
    lowers it by one, so the certificate holds at every (p, q).
    """
    _require_torus_constant(model)
    if not model.complex_structure:
        raise ValueError("Dolbeault table requires a complex structure")
    modes = box_modes(model.dim, mode_box)
    n = model.dim // 2
    laurent = ring is HLaurent
    wc = complex_frame_bivector(model.constant_bivector()).integer

    def bidegree(k, kappa, v):
        if any(p or q for p, q in kappa[:n] + v[n:]):
            raise AssertionError(f"delbar_h is not of bidegree (0, 1) on "
                                 f"Fourier mode {k}")
    require_modes(modes, lambda k: _delbar_kappa_v(wc, k), bidegree)
    entries = []
    for p in range(-LEVEL_CAP if laurent else 0, n + LEVEL_CAP + 1):
        strata = _dolbeault_bases(n, p, range(p - n, p + n + 1), laurent)
        entries += [free_homology((p, q), labels, ring)
                    for q, labels in strata.items() if labels]
    table = CohomologyTable(ring, entries)
    table.meta.update({"kind": "dolbeault", "mode_box": mode_box,
                       "ring": "laurent" if laurent else "polynomial",
                       "anomalous_modes": []})
    return table


# -- ring structure --------------------------------------------------------------


class RingTable:
    """Multiplication table of cohomology classes over the h-ring."""

    def __init__(self, model, table):
        self.model = model
        self.table = table
        self.classes = []          # (degree, index, rep form)
        self.structure = {}        # (i, j) -> {k: ring coeff}

    def class_index(self, degree, idx=0):
        for i, (d, ix, _f) in enumerate(self.classes):
            if d == degree and ix == idx:
                return i
        raise KeyError((degree, idx))

    def product(self, i, j):
        return self.structure[(i, j)]


def _rep_to_form(model, rep, laurent) -> HForm:
    terms = {}
    for lab, coeff in rep.items():
        for j, c in coeff.coeffs.items():
            terms[(j, lab)] = model.coeff_const(c)
    return HForm(model.dim, terms, laurent)


def ring_table(table: CohomologyTable, model: PoissonModel) -> RingTable:
    """Products of representatives reduced to class coordinates.

    Each representative must be a signed basis monomial, the one-entry map
    {mask: +-1}, one class per mask of the model; any other set of
    representatives raises AssertionError.  The product of the classes
    +-e^ma and +-e^mb is then read off ``QTable.product(ma, mb)`` of the
    constant bivector without a solve: its term (k, mask, d) is the
    coordinate +-``QTable.exact(k, d)`` h^k on the class of ``mask``, for
    a real and a Gaussian w alike.  Every structure coefficient is a GRat,
    as the amplitude of the constant Fourier coefficient it stands for,
    in the table's ring.  Ring elements are immutable values, so each
    distinct coordinate (k, +-d) is built once and every entry that has it
    holds that one element.
    """
    ring = table.ring
    rt = RingTable(model, table)
    pivots = {}      # mask -> (class index, sign)
    for degree in table.degrees():
        for idx, rep in enumerate(table.entries[degree].representatives):
            if len(rep) == 1:
                (mask, c), = rep.items()
                if c == 1 or c == -1:
                    pivots[mask] = (len(rt.classes), 1 if c == 1 else -1)
            rt.classes.append((degree, idx,
                               _rep_to_form(model, rep, ring is HLaurent)))
    # one monomial class per mask: none broken, repeated or missing
    if len(pivots) != len(rt.classes) or \
            set(pivots) != set(range(1 << model.dim)):
        raise AssertionError("representatives are not signed basis monomials")
    qt = model.constant_bivector().table
    monomials = sorted((i, mask, sign) for mask, (i, sign) in pivots.items())
    built = {}       # (k, +-d) -> its ring element
    for i, ma, sa in monomials:
        for j, mb, sb in monomials:
            coords = {}
            for k, mask, d in qt.product(ma, mb):
                c, sc = pivots[mask]
                if sa * sb * sc < 0:
                    d = -d
                x = built.get((k, d))
                if x is None:
                    x = built[(k, d)] = ring({k: GRat.coerce(qt.exact(k, d))})
                coords[c] = x
            rt.structure[(i, j)] = dict(sorted(coords.items()))
    return rt
