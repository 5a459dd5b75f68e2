"""Differential operators on forms over model spaces.

Operators and the convention block they depend on:

* ``exterior_d``:    d(c e^I) = sum_i (d_i c) e^i ^ e^I.
* ``koszul_delta``:  delta = d o iota_w - iota_w o d, where iota_w is the
  bivector contraction ``w |- a = sum_{i<j} w^ij a(e_i, e_j, ...)``.
  Writing the composition in this order (rather than iota_w o d - d o
  iota_w) is forced jointly by the product normalization
  ``e^i ^_w e^j = e^i ^ e^j + w^ij`` and the local-frame identity
  ``d_h a = e^i ^_h d_i a``: with the opposite order the Leibniz rule
  fails.  Under the opposite extension of |- to bivectors this *is* the
  classical Koszul operator iota_w d - d iota_w; the two readings differ
  by a global sign, equivalently h -> -h.
* ``quantum_d``:     d_h = d - h delta; squares to zero and is a
  derivation of the quantum product.
* ``frame_formula_d``: sum_i e^i ^_h (d_i a), an independent route to d_h
  on constant-w models; ``complex_frame_formula_d`` is its twin in the
  dz/dzbar frame, an independent route to del_h + delbar_h.
* Dolbeault splittings on complex-frame forms, the quantum integral on
  symplectic tori (volume normalized to 1), and the quantum Stokes check.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernels import odd_below
from .coeffs import FourierCoeff
from .forms import HForm, bivector_contract, contract_vector, wedge
from .hpoly import HLaurent, HPoly
from .linalg import det
from .models import PoissonModel, TORUS
from .quantum import complex_frame_bivector, qwedge
from .scalars import GRat


def exterior_d(a: HForm) -> HForm:
    """Classical exterior differential on a form with coefficient entries."""
    out = {}
    for (j, mask), c in a.terms.items():
        below = odd_below(mask)
        for i in range(a.dim):
            bit = 1 << i
            if mask & bit:
                continue
            dc = c.partial(i + 1)
            if not dc:
                continue
            if below & bit:
                dc = -dc
            key = (j, mask | bit)
            s = out.get(key, 0) + dc
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return HForm(a.dim, out, a.laurent)


def koszul_delta(a: HForm, model: PoissonModel) -> HForm:
    """Koszul-type operator delta = d(w |- a) - w |- (d a); degree -1."""
    w = model.w
    return exterior_d(bivector_contract(w, a)) - bivector_contract(w, exterior_d(a))


def quantum_d(a: HForm, model: PoissonModel) -> HForm:
    """Quantum exterior differential d_h = d - h delta."""
    return exterior_d(a) - koszul_delta(a, model).h_shift(1)


def _frame_sum(a: HForm, product, frame) -> HForm:
    """sum_a product(f^a, D_a a) over the pairs (index of the covector f^a,
    derivation D_a of a coefficient) of ``frame``."""
    out = HForm.zero(a.dim, a.laurent)
    for i, partial in frame:
        da = HForm(a.dim,
                   {key: dc for key, dc in
                    ((key, partial(c)) for key, c in a.terms.items()) if dc},
                   a.laurent)
        if da:
            out = out + product(HForm.basis(a.dim, i, a.laurent), da)
    return out


def frame_formula_d(a: HForm, model: PoissonModel) -> HForm:
    """Local-frame oracle sum_i e^i ^_h (d_i a); requires constant w."""
    if not model.is_constant_w():
        raise ValueError("frame formula requires a constant bivector")
    return _frame_sum(a, lambda x, y: qwedge(x, y, model.w),
                      [(i, lambda c, i=i: c.partial(i))
                       for i in range(1, a.dim + 1)])


def lie_derivative(coeffs, a: HForm) -> HForm:
    """Cartan formula L_X = d o iota_X + iota_X o d for a vector field X.

    ``coeffs`` lists the m component functions of X (coefficient objects
    or scalars promoted by the caller).
    """
    return exterior_d(contract_vector(coeffs, a)) + \
        contract_vector(coeffs, exterior_d(a))


# -- Dolbeault splitting -------------------------------------------------------


def _complex_partial(c: FourierCoeff, k: int, bar: bool) -> FourierCoeff:
    """d/dz_k or d/dzbar_k on a coefficient (real coordinates 2k-1, 2k)."""
    half = Fraction(1, 2)
    a = c.partial(2 * k - 1) * GRat(half)
    b = c.partial(2 * k) * GRat(0, half if bar else -half)
    return a + b


def _complex_frame(dim: int, bars):
    """The pairs (index of dz^k or dzbar^k, d/dz_k or d/dzbar_k) of the
    complex frame, dzbar^k at index n + k, for each ``bar`` in ``bars``."""
    n = dim // 2
    return [(n + k if bar else k, lambda c, k=k, bar=bar:
             _complex_partial(c, k, bar))
            for bar in bars for k in range(1, n + 1)]


def _complex_d(a: HForm, bar: bool) -> HForm:
    """The (1,0) part of d, or the (0,1) part when ``bar``, on a
    complex-frame form."""
    return _frame_sum(a, wedge, _complex_frame(a.dim, (bar,)))


def holo_d(a: HForm) -> HForm:
    """The (1,0) part of d on a complex-frame form."""
    return _complex_d(a, bar=False)


def antiholo_d(a: HForm) -> HForm:
    """The (0,1) part of d on a complex-frame form."""
    return _complex_d(a, bar=True)


class DolbeaultOps:
    """The six operators of the Dolbeault splitting at one input form."""

    __slots__ = ("holo", "antiholo", "delta_0m1", "delta_m10", "holo_h", "antiholo_h")

    def __init__(self, holo, antiholo, delta_0m1, delta_m10, holo_h, antiholo_h):
        self.holo = holo                # del a
        self.antiholo = antiholo        # delbar a
        self.delta_0m1 = delta_0m1      # bidegree (0,-1) Koszul piece
        self.delta_m10 = delta_m10      # bidegree (-1,0) Koszul piece
        self.holo_h = holo_h            # del_h a
        self.antiholo_h = antiholo_h    # delbar_h a


def dolbeault_operators(a: HForm, model: PoissonModel) -> DolbeaultOps:
    """Split d_h on a complex-frame form into del_h + delbar_h.

    delta^{0,-1} = del o iota_w - iota_w o del and
    delta^{-1,0} = delbar o iota_w - iota_w o delbar, with the same
    composition order as ``koszul_delta`` so that the two pieces add up to
    delta exactly; then del_h = del - h delta^{0,-1} and
    delbar_h = delbar - h delta^{-1,0}.
    """
    if not model.complex_structure:
        raise ValueError("model has no complex structure")
    wc = complex_frame_bivector(model.constant_bivector())
    pa, qa = holo_d(a), antiholo_d(a)
    iw = bivector_contract(wc, a)
    d01 = holo_d(iw) - bivector_contract(wc, pa)
    d10 = antiholo_d(iw) - bivector_contract(wc, qa)
    return DolbeaultOps(pa, qa, d01, d10,
                        pa - d01.h_shift(1), qa - d10.h_shift(1))


def complex_frame_formula_d(a: HForm, model: PoissonModel) -> HForm:
    """Complex-frame oracle sum_a f^a ^_{h,w_c} (D_a a), the f^a the dz^k
    and dzbar^k, D_a the d/dz_k and d/dzbar_k and w_c the bivector in that
    frame: del_h a + delbar_h a, its h terms read off ``qwedge`` and not
    off the contractions ``dolbeault_operators`` composes."""
    wc = complex_frame_bivector(model.constant_bivector())
    return _frame_sum(a, lambda x, y: qwedge(x, y, wc),
                      _complex_frame(a.dim, (False, True)))


# -- quantum integral ----------------------------------------------------------


def qintegral(a: HForm, model: PoissonModel):
    """Quantum integral on a closed symplectic torus model.

    Odd-degree components integrate to zero; a 2n-2k component is wedged
    against omega^k/k! and integrated (torus volume 1); h passes through
    as a module map.  Returns a map h-exponent -> GRat packed in an HPoly
    or HLaurent.  Every call certifies the normalization: int_h 1, the top
    coefficient of omega^n/n!, is Pf(Omega), so it squares to det(Omega).
    """
    if model.kind != TORUS:
        raise ValueError("quantum integral is defined on closed torus models")
    if model.omega is None:
        raise ValueError("quantum integral needs a symplectic structure")
    dim = model.dim
    n = dim // 2
    full = (1 << dim) - 1
    om = model.omega_form(a.laurent)
    powers = {0: model.form_scalar(1, a.laurent)}
    for k in range(1, n + 1):
        powers[k] = wedge(powers[k - 1], om) * Fraction(1, k)
    vol = powers[n].terms.get((0, full), 0)
    if vol * vol != det(model.omega):
        raise AssertionError(f"quantum integral: int_h 1 = {vol} is not "
                             f"Pf(Omega), its square is not det(Omega)")
    pairs = []
    for deg, comp in a.exterior_components().items():
        if deg % 2 == 0:
            top = wedge(comp, powers[(dim - deg) // 2])
            pairs += [(j, c.total_integral())
                      for (j, mask), c in top.terms.items() if mask == full]
    return (HLaurent if a.laurent else HPoly)(pairs)


class StokesReport:
    """The three exact vanishings behind the quantum Stokes theorem."""

    def __init__(self, int_d, int_hdelta, int_dh):
        self.int_d = int_d
        self.int_hdelta = int_hdelta
        self.int_dh = int_dh

    @property
    def ok(self) -> bool:
        return self.int_d.is_zero() and self.int_hdelta.is_zero() \
            and self.int_dh.is_zero()

    def __bool__(self):
        return self.ok


def stokes_check(a: HForm, model: PoissonModel) -> StokesReport:
    """Check int_h d a = 0, int_h h delta a = 0 and int_h d_h a = 0."""
    return StokesReport(
        qintegral(exterior_d(a), model),
        qintegral(koszul_delta(a, model).h_shift(1), model),
        qintegral(quantum_d(a, model), model),
    )
