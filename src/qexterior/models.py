"""Poisson model spaces: affine R^m and the torus T^m.

A model bundles the space kind, a Poisson bivector field with coefficient
entries (PolyCoeff on affine space, FourierCoeff on the torus), an optional
constant symplectic matrix, and an optional standard complex structure.

Calibration: when a symplectic matrix Omega is present, the model bivector
is its calibrated dual W = Omega^{-1}, the sign under which the degree-1
eigenvalue of h^{-1} L_h in the Darboux model is +n.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import FourierCoeff, PolyCoeff
from .forms import Bivector, HForm, check_symplectic, omega_form
from .linalg import matrix_inverse
from .quantum import j_preserves
from .scalars import GRat, as_fraction

AFFINE = "affine"
TORUS = "torus"


class JacobiReport:
    """Outcome of the Jacobi identity check on a bivector field."""

    def __init__(self, ok: bool, witness=None):
        self.ok = ok
        self.witness = witness  # (i, j, k, residual) of the first failure

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"JacobiReport(ok={self.ok}, witness={self.witness})"


def jacobi_check(w: Bivector) -> JacobiReport:
    """Verify sum_l (w^li d_l w^jk + w^lj d_l w^ki + w^lk d_l w^ij) = 0.

    Constant entries contribute nothing, so a constant w passes before
    the triple loop; a failure reports the first triple i < j < k with
    its nonzero residual.
    """
    if w.is_constant():
        return JacobiReport(True)
    m = w.dim

    def d(entry, axis):
        if hasattr(entry, "partial"):
            return entry.partial(axis)
        return 0

    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for k in range(j + 1, m + 1):
                residual = 0
                for l in range(1, m + 1):
                    for (a, bc) in ((i, (j, k)), (j, (k, i)), (k, (i, j))):
                        wla = w.entry(l, a)
                        if not wla:
                            continue
                        dw = d(w.entry(*bc), l)
                        if dw:
                            residual = residual + wla * dw
                if residual:
                    return JacobiReport(False, (i, j, k, residual))
    return JacobiReport(True)


class PoissonModel:
    """A flat model space with an exact Poisson bivector field."""

    def __init__(self, kind: str, dim: int, bivector: Bivector,
                 symplectic=None, complex_structure: bool = False):
        if kind not in (AFFINE, TORUS):
            raise ValueError(f"unknown space kind {kind!r}")
        if bivector.dim != dim:
            raise ValueError("bivector dimension mismatch")
        self.kind = kind
        self.dim = dim
        self.w = bivector
        self.omega = None
        self.complex_structure = bool(complex_structure)

        if symplectic is not None:
            omega = [[as_fraction(x) for x in row] for row in symplectic]
            check_symplectic(omega)
            if len(omega) != dim:
                raise ValueError("symplectic matrix dimension mismatch")
            self.omega = omega
            dual = matrix_inverse(omega)
            for i in range(dim):
                for j in range(i + 1, dim):
                    ent = bivector.entry(i + 1, j + 1)
                    expect = dual[i][j]
                    if not ent and not expect:
                        continue
                    if not ent or ent != expect:
                        raise ValueError(
                            "bivector is not the calibrated dual of the "
                            "symplectic matrix (expected W = Omega^{-1})")

        rep = jacobi_check(bivector)
        if not rep:
            raise ValueError(f"bivector fails the Jacobi identity: {rep.witness}")

        if self.complex_structure:
            if dim % 2:
                raise ValueError("complex structure needs even dimension")
            scalar_w = self.constant_bivector()
            if scalar_w is None or not j_preserves(scalar_w):
                raise ValueError("standard complex structure does not preserve w")

    # -- coefficient helpers --------------------------------------------------

    @property
    def coeff_cls(self):
        return PolyCoeff if self.kind == AFFINE else FourierCoeff

    def coeff_const(self, c):
        return self.coeff_cls.const(self.dim, c)

    def form_scalar(self, c, laurent: bool = False) -> HForm:
        """The function c as a 0-form with model coefficients."""
        if not hasattr(c, "partial"):
            c = self.coeff_const(c)
        return HForm.scalar(self.dim, c, laurent)

    def form_monomial(self, indices, coeff=1, h: int = 0,
                      laurent: bool = False) -> HForm:
        if not hasattr(coeff, "partial"):
            coeff = self.coeff_const(coeff)
        return HForm.monomial(self.dim, indices, coeff, h, laurent)

    def is_constant_w(self) -> bool:
        return self.w.is_constant()

    def constant_bivector(self):
        """The bivector as plain scalars, or None if not constant: Fraction
        entries when every amplitude is real, GRat entries otherwise."""
        if not self.is_constant_w():
            return None
        ent = {ij: GRat.coerce(c.constant_value()
                               if hasattr(c, "constant_value") else c)
               for ij, c in self.w.entries.items()}
        if all(c.is_real() for c in ent.values()):
            ent = {ij: c.re for ij, c in ent.items()}
        return Bivector(self.dim, ent)

    def omega_form(self, laurent: bool = False) -> HForm:
        if self.omega is None:
            raise ValueError("model has no symplectic structure")
        return omega_form(self.omega, laurent).map_coeffs(self.coeff_const)

    # -- canonical constructors -----------------------------------------------

    @classmethod
    def affine(cls, dim: int, entries=None, **kw) -> "PoissonModel":
        """Affine R^dim; entries maps (i, j) to PolyCoeff/scalar."""
        return cls(AFFINE, dim, _build_bivector(AFFINE, dim, entries), **kw)

    @classmethod
    def torus(cls, dim: int, entries=None, symplectic=None, **kw) -> "PoissonModel":
        return cls(TORUS, dim, _build_bivector(TORUS, dim, entries),
                   symplectic=symplectic, **kw)

    @classmethod
    def darboux_torus(cls, n: int, complex_structure: bool = False) -> "PoissonModel":
        """T^{2n} with the standard symplectic form and calibrated dual."""
        return cls.torus(2 * n, darboux_dual(n), symplectic=darboux_matrix(n),
                         complex_structure=complex_structure)

    @classmethod
    def so3_affine(cls) -> "PoissonModel":
        """R^3 with the rotation-invariant linear Poisson structure."""
        x = lambda i: PolyCoeff.variable(3, i)
        return cls.affine(3, {(1, 2): x(3), (1, 3): -x(2), (2, 3): x(1)})

    def __repr__(self):
        bits = [f"{self.kind} dim={self.dim}"]
        if self.omega is not None:
            bits.append("symplectic")
        if self.complex_structure:
            bits.append("complex")
        return f"PoissonModel({', '.join(bits)})"


def darboux_matrix(n: int):
    """Block sum of n copies of [[0, 1], [-1, 0]]."""
    dim = 2 * n
    omega = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(n):
        omega[2 * k][2 * k + 1] = Fraction(1)
        omega[2 * k + 1][2 * k] = Fraction(-1)
    return omega


def darboux_dual(n: int) -> dict:
    """The calibrated dual W = Omega^{-1} of ``darboux_matrix(n)`` as
    bivector entries: w^{2k+1, 2k+2} = -1 for k < n."""
    return {(2 * k + 1, 2 * k + 2): Fraction(-1) for k in range(n)}


def _build_bivector(kind: str, dim: int, entries) -> Bivector:
    cls = PolyCoeff if kind == AFFINE else FourierCoeff
    data = {}
    if entries:
        if isinstance(entries, Bivector):
            entries = dict(entries.entries)
        for (i, j), v in entries.items():
            if not hasattr(v, "partial"):
                v = cls.const(dim, v)
            data[(i, j)] = v
    return Bivector(dim, data)
