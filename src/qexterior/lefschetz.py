"""Quantum Lefschetz operators on the Laurent exterior algebra of a
symplectic vector space, their commutator algebra, exact spectra, and the
quantum Hard Lefschetz verification.

Operators on Lambda_{h,h^-1}(V*) with dim V = 2n and the constant omega of
a :class:`DarbouxSpace`, the Darboux one or a symplectic model's own:

* ``L_h(x) = omega ^_h x`` with the calibrated dual bivector W = Omega^{-1}
  (the sign that makes h^{-1} L_h act as +n on degree-1 elements);
* ``L_h* = -* L_h *`` with the symplectic star extended by *h = h^{-1};
* ``A_h(x) = (n - k) x`` on the homogeneous piece of degree k.

``M_h = h^{-1} L_h`` and ``M_h* = h L_h*`` act degree-preservingly on the
finite pieces Lambda^{[k]}, whose characteristic polynomials and
eigenstructure are reported.  With E = exp(h iota_w) and iota_w omega =
-n, M_h = E (h^{-1} omega^ + n) E^{-1}: n plus a nilpotent, so every block
has characteristic polynomial (x - n)^size and det n^size, and rank N
comes from the symplectic sl2 of Yan (Adv. Math. 120, 1996), certified by
one identity.  The spectrum is therefore certified label by label, and
not computed from a matrix (:class:`SpectrumReport`); a block that fails
raises AssertionError.  Since ^_h is k[h, h^-1]-bilinear, multiplication
by h maps block k onto block k + 2 label by label and commutes with M_h,
E and N: the blocks of one parity are certified once, on the first block
of that parity in the window, and read off one report.  The conformance field
compares against the claimed spectrum {n, n +- sqrt(5)/2} with
one-dimensional eigenspaces and records any mismatch instead of forcing
it; under the conventions pinned here the n = 1 base case comes out as
(x - 1)^2 with a single Jordan block.

L_h, L_h* and E are kept as sparse columns ``mask -> {label': c}``, the
image of e^mask in ints where integral, filled once per mask in one
:class:`Columns` store per operator of the :class:`DarbouxSpace` both
checks share.  A reader puts h^j on the column of the label (j, mask), so
the operators are k[h, h^-1]-linear by the store's key type.  The Darboux
w is a sum of n planes, so on ``DarbouxSpace(n)`` an L_h column is a sum
and an E column a product of one plane's (:func:`plane_lh_column`,
:func:`plane_exp_column`); a model's space reads them off w's product
table (:func:`lh_column`) and the series :func:`exp_contract_terms`.  An
L_h* column is -* L_h * read off the L_h columns through the star table.
:func:`apply_Lh` and :func:`apply_Lh_star` are views of those columns on
forms, and the M_h matrices (:func:`Mh_matrix`) dense ``Fraction`` views,
kept for the test oracles and the benchmark's tracer.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .calculus import quantum_d
from ._kernels import int_if_integral, wedge_terms
from .forms import Bivector, HForm, StarTable, exp_contract_terms, omega_form
from .hpoly import HPoly
from .linalg import CharFactorization
from .models import PoissonModel, darboux_dual, darboux_matrix


class Columns(dict):
    """Sparse columns ``mask -> {label': c}`` of one k[h, h^-1]-linear
    operator: the image of e^mask, ``fill(mask)`` on first lookup and
    kept.  The column of h^j e^mask is that one times h^j, which a reader
    (:func:`_apply`) puts on each entry it reads; keyed by mask, the store
    cannot hold a column that does not commute with h."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, mask):
        col = self[mask] = self.fill(mask)
        return col


class DarbouxSpace:
    """Symplectic vector space of dimension 2n, Omega and its calibrated
    dual ``w``: Darboux by ``DarbouxSpace(n)``, a model's by :meth:`of_model`.

    The star table of Omega (``star``) is built on first use, and so is
    each column of ``L`` (L_h), ``Ls`` (L_h*) and ``E`` (exp(h iota_w)),
    by plane on ``DarbouxSpace(n)``, on a model's from the ``w`` held then."""

    __slots__ = ("n", "dim", "omega", "w", "omega_form", "_star", "L", "Ls",
                 "E")

    def __init__(self, n: int):
        self._hold(darboux_matrix(n), Bivector(2 * n, darboux_dual(n)),
                   plane_lh_column, plane_exp_column)

    @classmethod
    def of_model(cls, model: PoissonModel) -> "DarbouxSpace":
        """The space of ``model.omega`` and ``model.constant_bivector()``,
        which :class:`PoissonModel` has checked is its calibrated dual."""
        if model.omega is None:
            raise ValueError("needs a symplectic model")
        space = cls.__new__(cls)
        space._hold(model.omega, model.constant_bivector(), lh_column,
                    lambda s, m: exp_contract_terms(s.w, {(0, m): 1}))
        return space

    def _hold(self, omega, w: Bivector, lh, exp):
        self.n = len(omega) // 2
        self.dim = len(omega)
        self.omega = omega
        self._star = None
        self.w = w
        self.omega_form = omega_form(omega, laurent=True)
        self.L = Columns(lambda m: lh(self, m))
        self.Ls = Columns(self.lh_star_column)
        self.E = Columns(lambda m: exp(self, m))

    @property
    def star(self) -> StarTable:
        """The star table of Omega."""
        if self._star is None:
            self._star = StarTable(self.omega)
        return self._star

    def basis(self, k: int):
        """Labels (j, mask) of Lambda^{[k]}, classical stratum first."""
        out = []
        for mask in range(1 << self.dim):
            c = mask.bit_count()
            if (k - c) % 2 == 0:
                out.append(((k - c) // 2, mask))
        out.sort(key=lambda t: (abs(t[0]), t[0], t[1]))
        return out

    def lh_star_column(self, mask) -> dict:
        """The column of L_h* = -* L_h * on e^mask: the ``L`` columns
        through the star rows, *h = h^{-1} (j -> -j)."""
        row = self.star.row
        col = {}
        for comp, s in row(mask):
            for (j2, m2), c in self.L[comp].items():
                c = c * -s
                for comp2, s2 in row(m2):
                    key = (-j2, comp2)
                    v = col.get(key, 0) + c * s2
                    if v:
                        col[key] = v
                    else:
                        col.pop(key, None)
        return col


def _dim(x: HForm, space: DarbouxSpace) -> int:
    if x.dim != space.dim:
        raise ValueError(f"dimension mismatch {x.dim} != {space.dim}")
    return x.dim


def apply_Lh(x: HForm, space: DarbouxSpace) -> HForm:
    """L_h x = omega ^_h x, read off the space's ``L`` columns."""
    return HForm(_dim(x, space), _apply(space.L, x.terms), laurent=True)


def apply_Lh_star(x: HForm, space: DarbouxSpace) -> HForm:
    """L_h* x = -(* L_h *) x with *h = h^{-1}, off the ``Ls`` columns."""
    if not x.laurent:
        raise ValueError("L_h* needs Laurent mode (the star produces h^-1)")
    return HForm(_dim(x, space), _apply(space.Ls, x.terms), laurent=True)


def apply_Ah(x: HForm, space: DarbouxSpace) -> HForm:
    """A_h x = (n - k) x on each homogeneous piece of degree k."""
    return HForm(_dim(x, space), {lab: c * _a_factor(lab, space.n)
                                  for lab, c in x.terms.items()}, x.laurent)


def lh_column(space: DarbouxSpace, mask: int) -> dict:
    """The column ``{label': c}`` of L_h on e^mask: omega ^_h e^mask,
    summed from the expansions of omega's masks with ``mask`` in the
    bivector's own product table.  A coefficient of order k is d / D^k,
    kept as an int when it is integral."""
    table = space.w.table
    D = table.D
    col = {}
    for (i, om), c in space.omega_form.terms.items():
        c = int_if_integral(c)
        for k, m, d in table.product(om, mask):
            if k and D != 1:
                d = table.exact(k, d)
            key = (i + k, m)
            s = col.get(key, 0) + c * d
            if s:
                col[key] = s
            else:
                col.pop(key, None)
    return {key: int_if_integral(c) for key, c in col.items()}


# The n = 1 columns of L_h on e^p, p the two bits of one plane, and the
# column of E on e^12, the only one that E moves.
PLANE_L = {0: {(0, 3): 1}, 1: {(1, 1): 1}, 2: {(1, 2): 1},
           3: {(1, 3): 2, (2, 0): -1}}
PLANE_E = {(0, 3): 1, (1, 0): -1}


def plane_lh_column(space: DarbouxSpace, mask: int) -> dict:
    """The column of L_h on e^mask under the Darboux w, the sum over the
    planes i of omega_i ^_h e^mask: a minor of w pairs bits of one plane,
    so omega_i ^_h changes plane i alone, as :data:`PLANE_L` reads its two
    bits, with no sign (omega_i is even)."""
    col = {}
    for s in range(0, space.dim, 2):
        rest = mask & ~(3 << s)
        for (j, p), c in PLANE_L[mask >> s & 3].items():
            key = (j, rest | p << s)
            col[key] = col.get(key, 0) + c
    return {key: c for key, c in col.items() if c}


def plane_exp_column(space: DarbouxSpace, mask: int) -> dict:
    """The column of E on e^mask under the Darboux w: the iota_{w_i} are
    even and commute, so E = prod_i exp(h iota_{w_i}), and exp(h iota_{w_i})
    moves e^mask only where the mask fills plane i, as :data:`PLANE_E`
    does: E e^mask = sum_S (-h)^|S| e^(mask - S), S over those planes."""
    col = {(0, mask): 1}
    for s in range(0, space.dim, 2):
        if mask >> s & 3 == 3:
            rest = ~(3 << s)
            col = {(j + i, m & rest | p << s): c * d for (j, m), c in
                   col.items() for (i, p), d in PLANE_E.items()}
    return col


def Mh_matrix(space: DarbouxSpace, k: int):
    """Exact rational matrix of M_h = h^{-1} L_h on Lambda^{[k]}, read off
    the L_h columns of its basis labels."""
    basis = space.basis(k)
    index = {lab: i for i, lab in enumerate(basis)}
    rows = [[Fraction(0)] * len(basis) for _ in basis]
    for col, (j, mask) in enumerate(basis):
        for (j2, m), c in space.L[mask].items():
            row = index.get((j + j2 - 1, m))
            if row is None:
                raise AssertionError(f"operator output left degree {k}")
            rows[row][col] = Fraction(c)
    return rows


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


# Vectors of the commutator check: dicts label -> nonzero coefficient.

def _apply(cols: Columns, v: dict) -> dict:
    """``cols`` on v: a label (j, mask) reads the mask's column times h^j."""
    out = {}
    for (j, mask), c in v.items():
        for (j2, m2), d in cols[mask].items():
            key = (j + j2, m2)
            s = out.get(key)
            s = c * d if s is None else s + c * d
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def _h_shift(v: dict, k: int) -> dict:
    return {(j + k, m): c for (j, m), c in v.items()}


def _a_factor(lab, n: int) -> int:
    """A_h on the label (j, mask): multiplication by n - |mask| - 2j."""
    j, mask = lab
    return n - mask.bit_count() - 2 * j


def _witness(space: DarbouxSpace, k: int, lab) -> str:
    unit = HForm(space.dim, {lab: Fraction(1)}, laurent=True)
    return f"degree {k}, basis element {unit}"


def _first_blocks(window) -> list:
    """The first degree of each parity in ``window``, in window order."""
    first = {}
    for k in window:
        first.setdefault(k % 2, k)
    return list(first.values())


def _check_identities(rep: CommutatorReport, space: DarbouxSpace, labels):
    """Record the fifteen identities for every label of ``labels`` in
    ``rep``, each taken on the (0, mask) column of the label's mask and
    witnessed by the label; return the witness of the first label that
    fails M_h* = M_h - 2n, or None."""
    n, L, Ls = space.n, space.L, space.Ls
    A = _a_factor
    scale_failure = None
    for lab in labels:
        j, mask = lab
        k, x = 2 * j + mask.bit_count(), (0, mask)
        a, Lx, Lsx = A(x, n), L[mask], Ls[mask]
        Mx, Msx = _h_shift(Lx, -1), _h_shift(Lsx, 1)
        held = (
            ("[Lh,Lh*]=0", _apply(L, Lsx) == _apply(Ls, Lx)),
            ("[Lh,Ah]=2Lh", all(A(y, n) == a - 2 for y in Lx)),
            ("[Lh*,Ah]=-2Lh*", all(A(y, n) == a + 2 for y in Lsx)),
            ("[h,h^-1]=0", True), ("[Lh,h]=0", True), ("[Lh,h^-1]=0", True),
            ("[Lh*,h]=0", True), ("[Lh*,h^-1]=0", True),
            ("[Ah,h]=-2h", A((1, mask), n) - a == -2),
            ("[Ah,h^-1]=2h^-1", A((-1, mask), n) - a == 2),
            ("[Mh,Mh*]=0", _h_shift(_apply(L, Msx), -1)
             == _h_shift(_apply(Ls, Mx), 1)),
            ("[Mh,Ah]=0", all(A(y, n) == a for y in Mx)),
            ("[Mh*,Ah]=0", all(A(y, n) == a for y in Msx)),
            ("Mh=h^-1Lh", True),
            ("Mh*=hLh*", True),
        )
        for name, ok in held:
            rep.record(name, ok, None if ok else _witness(space, k, lab))
        scaled = {**Mx, x: Mx.get(x, 0) - 2 * n}
        if scale_failure is None and \
                Msx != {y: c for y, c in scaled.items() if c}:
            scale_failure = _witness(space, k, lab)
    return scale_failure


def commutator_check(space, window=None) -> CommutatorReport:
    """Verify the Lefschetz commutator identities exactly on every
    homogeneous piece in the degree window, then certify the scale of
    ``L_h*``, on ``space`` (a :class:`DarbouxSpace`, or the n of one).
    An empty window, where nothing would be verified, raises ValueError.

    ``L_h`` and ``L_h*`` are the space's columns ``L`` and ``Ls``.  On
    each mask the images of x = (0, mask) are taken once: the columns
    ``L_h x`` and ``L_h* x``; the composites ``L_h L_h* x``,
    ``L_h* L_h x``, ``L_h h L_h* x`` and ``L_h* h^-1 L_h x``; and
    ``A_h``, the factor ``n - |mask| - 2j`` of a label, so that an
    identity with ``A_h`` compares factors on the labels of an image.
    ``[h,h^-1]=0``, ``Mh=h^-1Lh`` and ``Mh*=hLh*`` hold by the definitions
    of the shift, ``M_h`` and ``M_h*``, and ``[Lh,h]=0``, ``[Lh,h^-1]=0``,
    ``[Lh*,h]=0`` and ``[Lh*,h^-1]=0`` by the key type of the stores
    (:class:`Columns`), which hold one column per mask.

    The identities are taken once for each label of the first block of
    each parity in the window, in window order: one label per mask, and
    every label of the window is h^j times one of them.  The operators
    commute with h, so each identity, and the scale certificate below,
    holds on a label exactly when it holds on (0, mask), and the results,
    their order and the first witness of each failure, which names the
    window label, are those of every label of the window.

    Every identity is linear in ``L_h*``, so none of them sees its scale.
    Once all of them hold, ``M_h* x = M_h x - 2n x`` is certified on the
    same labels; a label that fails it raises AssertionError
    naming its degree and the label.  That certificate also catches the
    calibration sign of the dual bivector flipped for both ``L_h`` and
    ``L_h*``, which every identity lets through.

    The h-shift identity is verified with the computed sign
    [A_h, h^{+-1}] = -+ 2 h^{+-1}; the source lemma prints +- 2 h^{+-1},
    which fails the n = 1 desk computation, and the note records that
    discrepancy.
    """
    space = DarbouxSpace(space) if isinstance(space, int) else space
    n = space.n
    window = list(range(-2 * n - 2, 2 * n + 3) if window is None else window)
    if not window:
        raise ValueError("empty degree window")
    rep = CommutatorReport(n, window)
    scale_failure = _check_identities(
        rep, space, [lab for k in _first_blocks(window)
                     for lab in space.basis(k)])
    if rep.ok and scale_failure:
        raise AssertionError(f"M_h* = M_h - 2n fails on {scale_failure}")
    rep.notes.append(
        "h-shift identity verified with computed sign [A_h, h^{+-1}] = "
        "-+2 h^{+-1}; the source states +-2 h^{+-1}, which the n = 1 desk "
        "computation contradicts")
    return rep


def lefschetz_d_commutators(model: PoissonModel, forms) -> CommutatorReport:
    """[L_h, d_h] = 0, [L_h*, d_h] = 0, [A_h, d_h] = -d_h on model forms."""
    space = DarbouxSpace.of_model(model)
    rep = CommutatorReport(space.n, [])
    for x in forms:
        x = x.to_laurent()
        dx = quantum_d(x, model)
        for name, op in (("[Lh,dh]=0", apply_Lh),
                         ("[Lh*,dh]=0", apply_Lh_star)):
            rep.record(name, op(dx, space) == quantum_d(op(x, space), model),
                       witness=str(x))
        rep.record("[Ah,dh]=-dh", apply_Ah(dx, space)
                   - quantum_d(apply_Ah(x, space), model) == -dx,
                   witness=str(x))
    return rep


# -- spectra --------------------------------------------------------------------


def _lowering(E: Columns, mask: int) -> dict:
    """Lambda e^mask: the h-order-1 part of E e^mask made h-free."""
    return {(0, m): c for (i, m), c in E[mask].items() if i == 1}


def _certify_transport(space: DarbouxSpace, labels) -> int:
    """Check M_h(E x) == E((N + n) x) and that E x is x plus lower exterior
    degrees of its block, then [Lambda, N] x == (p - n) h^-1 x, for every
    label of ``labels`` on x = (0, mask) (p its exterior degree, Lambda
    :func:`_lowering`) on the space's ``L`` and ``E``; return rank N over
    the strata maps p -> p + 2, or raise AssertionError naming the failing
    label and its block's degree.  All three are h-linear, so they hold on
    a label exactly when they hold on its mask.

    The first check pins Lambda to exterior degree -2, so (N, h Lambda,
    p - n) is an sl(2) triple on each block up to sign: N: Lambda^p ->
    Lambda^{p+2} is injective for p <= n - 1, surjective for p >= n - 1,
    of rank min(C(2n, p), C(2n, p + 2)).  The triple needs no right E; the
    identity reads omega, so a non-symplectic omega fails it."""
    n, L, E = space.n, space.L, space.E
    omega = {key: int_if_integral(c)
             for key, c in space.omega_form.terms.items()}
    for j, mask in labels:
        p, x = mask.bit_count(), (0, mask)
        k, lab = 2 * j + p, (j, mask)
        Ex = E[mask]
        lower = all(m.bit_count() < p and m.bit_count() + 2 * i == p
                    for i, m in Ex if (i, m) != x)
        if Ex.get(x) != 1 or not lower:
            raise AssertionError(
                f"M_h block of degree {k}: E x is not x plus lower "
                f"exterior degrees of the block, {_witness(space, k, lab)}")
        Nx = _h_shift(wedge_terms(omega, {x: 1}), -1)
        if _h_shift(_apply(L, Ex), -1) != _apply(E, {**Nx, x: n}):
            raise AssertionError(
                f"M_h block of degree {k}: M_h E x != E (N + n) x on "
                f"{_witness(space, k, lab)}")
    lowered = {mask: _lowering(E, mask) for _j, mask in labels}
    for j, mask in labels:
        p, x = mask.bit_count(), (0, mask)
        want = wedge_terms(omega, lowered[mask])
        want[x] = want.get(x, 0) + p - n
        got = _apply(lowered, wedge_terms(omega, {x: 1}))
        if got != {y: c for y, c in want.items() if c}:
            raise AssertionError(
                f"M_h block of degree {2 * j + p}: [Lambda, N] x != "
                f"(p - n) h^-1 x on {_witness(space, 2 * j + p, (j, mask))}")
    strata = {mask.bit_count() for _j, mask in labels}
    return sum(min(comb(2 * n, p), comb(2 * n, p + 2)) for p in strata
               if p + 2 in strata)


class SpectrumReport:
    """Exact characteristic data of the M_h block of degree k on ``space``,
    certified by :func:`_certify_transport`: M_h = E (N + n) E^{-1}, so the
    characteristic polynomial is (x - n)^size, det = n^size, and the
    eigenspace of n has dimension size - rank N.  The blocks of one parity
    share their data: each holds one label per mask, and the certificate
    reads the (0, mask) column of each, so one report serves them all
    (:func:`hard_lefschetz_check`)."""

    def __init__(self, space: DarbouxSpace, k: int):
        basis = space.basis(k)
        self._read_off(space.n, len(basis), _certify_transport(space, basis))

    def _read_off(self, n: int, size: int, rank_N: int):
        self.size = size
        c = [1] * (size + 1)    # c[j] = C(size, j) (-n)^(size - j), in ints
        for j in range(size, 0, -1):
            c[j - 1] = c[j] * j * -n // (size - j + 1)
        self.charpoly = HPoly(dict(enumerate(c)))
        self.factorization = CharFactorization({n: size}, {}, HPoly.one())
        self.det = n ** size
        self.geometric = {str(n): (size, size - rank_N)}
        self.diagonalizable = rank_N == 0
        self.invertible = bool(self.det)

    def eigen_summary(self):
        return {name: {"algebraic": a, "geometric": g}
                for name, (a, g) in self.geometric.items()}


def paper_conformance(report: SpectrumReport) -> dict:
    """Compare a block spectrum with the claimed {n, n +- sqrt5/2} picture.

    The certificate leaves the eigenvalue n alone, so what is compared is
    the claimed decomposition into one-dimensional eigenspaces; mismatches
    are described, never suppressed.
    """
    issues = [f"factor {name}: geometric multiplicity {geo} < "
              f"algebraic {alg} (not one-dimensional eigenspaces)"
              for name, (alg, geo) in report.geometric.items() if geo != alg]
    return {"status": "match" if not issues else "mismatch", "issues": issues}


class HardLefschetzReport:
    """Invertibility of M_h per homogeneous degree, plus eigen reports."""

    def __init__(self, n):
        self.n = n
        self.blocks = {}   # degree -> SpectrumReport
        self.conformance = {}

    @property
    def all_invertible(self) -> bool:
        return all(b.invertible for b in self.blocks.values())


def hard_lefschetz_check(space, window=None) -> HardLefschetzReport:
    """Certify every M_h block in the window on ``space`` (a
    :class:`DarbouxSpace`, or the n of one) by transport
    (:class:`SpectrumReport`), so that det(M_h) = n^size != 0 on every
    homogeneous piece.

    Each parity is certified once, on its first block in the window, in
    window order, and every block of that parity reads that report: the
    L_h and E stores hold one column per mask (:class:`Columns`), so block
    k + 2 is block k times h, label by label, and certifies or fails with
    it.  A block that fails the certificate raises AssertionError naming
    its degree k and the failing label, and an empty window, where none
    would be, ValueError.
    """
    space = DarbouxSpace(space) if isinstance(space, int) else space
    n = space.n
    window = list(range(-(2 * n), 2 * n + 1) if window is None else window)
    if not window:
        raise ValueError("empty degree window")
    shared = {k % 2: SpectrumReport(space, k) for k in _first_blocks(window)}
    rep = HardLefschetzReport(n)
    for k in window:
        block = rep.blocks[k] = shared[k % 2]
        rep.conformance[k] = paper_conformance(block)
    return rep
