"""Quantum Lefschetz operators on the Laurent exterior algebra of a
symplectic vector space, their commutator algebra, exact spectra, and the
quantum Hard Lefschetz verification.

Operators on Lambda_{h,h^-1}(V*) with dim V = 2n, Darboux omega:

* ``L_h(x) = omega ^_h x`` with the calibrated dual bivector W = Omega^{-1}
  (the sign that makes h^{-1} L_h act as +n on degree-1 elements);
* ``L_h* = -* L_h *`` with the symplectic star extended by *h = h^{-1};
* ``A_h(x) = (n - k) x`` on the homogeneous piece of degree k.

``M_h = h^{-1} L_h`` and ``M_h* = h L_h*`` act degree-preservingly on the
finite pieces Lambda^{[k]}, whose exact matrices, characteristic
polynomials, and eigenstructure are reported.  The conformance field
compares against the claimed spectrum {n, n +- sqrt(5)/2} with
one-dimensional eigenspaces and records any mismatch instead of forcing
it; under the conventions pinned here the n = 1 base case comes out as
(x - 1)^2 with a single Jordan block.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import quantum_d
from .forms import Bivector, HForm, symplectic_star
from .hpoly import HPoly
from .linalg import (charpoly, det, factor_charpoly,
                     geometric_multiplicity, poly_shift)
from .models import PoissonModel, darboux_matrix
from .quantum import qwedge


class DarbouxSpace:
    """Symplectic vector space of dimension 2n in Darboux coordinates."""

    def __init__(self, n: int):
        self.n = n
        self.dim = 2 * n
        self.omega = darboux_matrix(n)
        self.w = Bivector(self.dim, {(2 * k + 1, 2 * k + 2): Fraction(-1)
                                     for k in range(n)})
        self.omega_form = HForm(self.dim, {
            (0, (1 << (2 * k)) | (1 << (2 * k + 1))): Fraction(1)
            for k in range(n)}, laurent=True)

    def basis(self, k: int):
        """Labels (j, mask) of Lambda^{[k]}, classical stratum first."""
        out = []
        for mask in range(1 << self.dim):
            c = mask.bit_count()
            if (k - c) % 2 == 0:
                out.append(((k - c) // 2, mask))
        out.sort(key=lambda t: (abs(t[0]), t[0], t[1]))
        return out

    def basis_forms(self, k: int):
        return [HForm(self.dim, {lab: Fraction(1)}, laurent=True)
                for lab in self.basis(k)]


def apply_Lh(x: HForm, space: DarbouxSpace, w: Bivector = None) -> HForm:
    """L_h x = omega ^_h x."""
    return qwedge(space.omega_form, x.to_laurent(), w if w is not None else space.w)


def apply_Lh_star(x: HForm, space: DarbouxSpace, w: Bivector = None) -> HForm:
    """L_h* x = -(* L_h *) x with *h = h^{-1}."""
    if not x.laurent:
        raise ValueError("L_h* needs Laurent mode (the star produces h^-1)")
    starred = symplectic_star(x, space.omega)
    return -symplectic_star(apply_Lh(starred, space, w), space.omega)


def apply_Ah(x: HForm, space: DarbouxSpace) -> HForm:
    """A_h x = (n - k) x on each homogeneous piece of degree k."""
    out = HForm.zero(x.dim, x.laurent)
    for k, comp in x.homogeneous_components().items():
        out = out + comp * Fraction(space.n - k)
    return out


def apply_Mh(x: HForm, space: DarbouxSpace, w: Bivector = None) -> HForm:
    return apply_Lh(x, space, w).h_shift(-1)


def operator_matrix(op, space: DarbouxSpace, k: int, shift: int):
    """Matrix of a degree-homogeneous operator on Lambda^{[k]}.

    Rows are indexed by the basis of Lambda^{[k + shift]}; entries are
    exact rationals.
    """
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


def Mh_matrix(space: DarbouxSpace, k: int, w: Bivector = None):
    """Exact rational matrix of M_h = h^{-1} L_h on Lambda^{[k]}."""
    return operator_matrix(lambda x: apply_Mh(x, space, w), space, k, 0)


class CommutatorReport:
    """Pass/fail per identity of the Lefschetz commutator algebra."""

    def __init__(self, n, window):
        self.n = n
        self.window = window
        self.results = {}      # name -> bool
        self.failures = {}     # name -> witness string
        self.notes = []

    @property
    def ok(self) -> bool:
        return all(self.results.values())

    def __bool__(self):
        return self.ok

    def record(self, name: str, ok: bool, witness=None):
        self.results[name] = self.results.get(name, True) and ok
        if not ok and name not in self.failures:
            self.failures[name] = witness


def commutator_check(n: int, window=None, corrupt_w: bool = False) -> CommutatorReport:
    """Verify the Lefschetz commutator identities exactly on every
    homogeneous piece in the degree window.

    ``corrupt_w=True`` flips the calibration sign of the dual bivector
    inside L_h while the star keeps the calibrated one -- the negative
    control demonstrating that the checker reports failures.  The h-shift
    identity is verified with the computed sign
    [A_h, h^{+-1}] = -+ 2 h^{+-1}; the source lemma prints +- 2 h^{+-1},
    which fails the n = 1 desk computation, and the note records that
    discrepancy.
    """
    space = DarbouxSpace(n)
    if window is None:
        window = range(-(2 * n + 2), 2 * n + 3)
    rep = CommutatorReport(n, list(window))
    w_for_L = space.w.map_entries(lambda v: -v) if corrupt_w else space.w

    L = lambda x: apply_Lh(x, space, w_for_L)
    Ls = lambda x: apply_Lh_star(x, space)
    A = lambda x: apply_Ah(x, space)
    H = lambda x: x.h_shift(1)
    Hi = lambda x: x.h_shift(-1)
    M = lambda x: Hi(L(x))

    def Ms(x):
        return H(Ls(x))

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
        for x in space.basis_forms(k):
            for name, comm, rhs in checks:
                lhs = comm(x)
                want = rhs(x) if rhs else HForm.zero(space.dim, True)
                if lhs != want:
                    rep.record(name, False,
                               f"degree {k}, basis element {x}")
                else:
                    rep.record(name, True)
    rep.notes.append(
        "h-shift identity verified with computed sign [A_h, h^{+-1}] = "
        "-+2 h^{+-1}; the source states +-2 h^{+-1}, which the n = 1 desk "
        "computation contradicts")
    return rep


def lefschetz_d_commutators(model: PoissonModel, forms) -> CommutatorReport:
    """[L_h, d_h] = 0, [L_h*, d_h] = 0, [A_h, d_h] = -d_h on model forms."""
    if model.omega is None:
        raise ValueError("needs a symplectic model")
    n = model.dim // 2
    space = DarbouxSpace(n)
    rep = CommutatorReport(n, [])
    omega_form = model.omega_form(laurent=True)
    w = model.w

    def L(x):
        return qwedge(omega_form, x, w)

    def Ls(x):
        return -symplectic_star(L(symplectic_star(x, model.omega)), model.omega)

    def A(x):
        out = HForm.zero(x.dim, True)
        for k, comp in x.homogeneous_components().items():
            out = out + comp * Fraction(n - k)
        return out

    def dh(x):
        return quantum_d(x, model)

    for x in forms:
        x = x.to_laurent()
        rep.record("[Lh,dh]=0", L(dh(x)) == dh(L(x)),
                   witness=str(x))
        rep.record("[Lh*,dh]=0", Ls(dh(x)) == dh(Ls(x)), witness=str(x))
        rep.record("[Ah,dh]=-dh", A(dh(x)) - dh(A(x)) == -dh(x), witness=str(x))
    return rep


# -- spectra --------------------------------------------------------------------


class SpectrumReport:
    """Exact characteristic data of one M_h block."""

    def __init__(self, matrix, n_hint=None):
        self.size = len(matrix)
        self.charpoly = charpoly(matrix)
        self.det = det(matrix) if matrix else Fraction(1)
        centers = [n_hint] if n_hint is not None else []
        self.factorization = factor_charpoly(self.charpoly, centers)
        self.geometric = {}
        total_geo = 0
        for root, mult in self.factorization.rational_roots.items():
            lin = HPoly({1: Fraction(1), 0: -root})
            g = geometric_multiplicity(matrix, lin) if matrix else 0
            self.geometric[str(root)] = (mult, g)
            total_geo += g
        for (b, c), mult in self.factorization.quadratics.items():
            quad = HPoly({2: Fraction(1), 1: b, 0: c})
            g = geometric_multiplicity(matrix, quad) if matrix else 0
            self.geometric[f"x^2+({b})x+({c})"] = (2 * mult, g)
            total_geo += g
        self.fully_factored = self.factorization.remainder.degree() < 1
        self.diagonalizable = self.fully_factored and total_geo == self.size
        self.invertible = bool(self.det)

    def eigen_summary(self):
        return {name: {"algebraic": a, "geometric": g}
                for name, (a, g) in self.geometric.items()}


def char_spectrum(matrix, n_hint=None) -> SpectrumReport:
    """Exact characteristic polynomial, factorization and Jordan data."""
    return SpectrumReport(matrix, n_hint)


def paper_conformance(report: SpectrumReport, n: int) -> dict:
    """Compare a block spectrum with the claimed {n, n +- sqrt5/2} picture.

    The claim also asserts a decomposition into one-dimensional
    eigenspaces; both aspects are compared and mismatches are described,
    never suppressed.
    """
    issues = []
    for root in report.factorization.rational_roots:
        if str(root) != str(Fraction(n)):
            issues.append(f"eigenvalue {root} outside the claimed set")
    for (b, c) in report.factorization.quadratics:
        if (b, c) != (Fraction(-2 * n), n * n - Fraction(5, 4)):
            issues.append(f"quadratic factor x^2+({b})x+({c}) is not the "
                          "claimed n +- sqrt(5)/2 pair")
    if not report.fully_factored:
        issues.append("characteristic polynomial did not fully factor over "
                      "the expected field")
    for name, (alg, geo) in report.geometric.items():
        if geo != alg:
            issues.append(f"factor {name}: geometric multiplicity {geo} < "
                          f"algebraic {alg} (not one-dimensional eigenspaces)")
    return {"status": "match" if not issues else "mismatch", "issues": issues}


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


class HardLefschetzReport:
    """Invertibility of M_h per homogeneous degree, plus eigen reports."""

    def __init__(self, n):
        self.n = n
        self.blocks = {}   # degree -> SpectrumReport
        self.conformance = {}

    @property
    def all_invertible(self) -> bool:
        return all(b.invertible for b in self.blocks.values())


def hard_lefschetz_check(n: int, window=None, w: Bivector = None) -> HardLefschetzReport:
    """det(M_h) != 0 on every homogeneous piece in the window.

    Passing ``w`` overrides the calibrated dual (the zero bivector is the
    classical negative control, where L_h is nilpotent and the report
    shows singular blocks).
    """
    space = DarbouxSpace(n)
    if window is None:
        window = range(-(2 * n), 2 * n + 1)
    rep = HardLefschetzReport(n)
    for k in window:
        M = Mh_matrix(space, k, w)
        block = char_spectrum(M, n_hint=n)
        rep.blocks[k] = block
        rep.conformance[k] = paper_conformance(block, n)
    return rep
