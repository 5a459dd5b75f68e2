"""Quantum Cartan model for compact torus actions preserving the bivector.

Actions are generated by commuting vector fields X_a = sum_j c_a^j d_j
(constant coefficients for torus translations, linear coefficients for
rotations on affine models) that preserve w: L_{X_a} w = 0, checked
symbolically.  Dual generators Theta^a carry degree 2; the differential is

    D = d_h + Theta^a iota_a

on invariant elements of S(g*) (x) Omega(M)[h], and D^2 = 0 follows from
delta iota_a + iota_a delta = -iota_{L_a w} = 0 (sign-robust, verified by
:func:`anticommutator_check` on arbitrary forms when w is preserved).

On a torus translation action the table builds the Cartan complex of
Fourier mode 0 alone; each other invariant mode takes d_h's certificate.
"""

from __future__ import annotations

from fractions import Fraction

from ._kernels import odd_below
from .calculus import koszul_delta, lie_derivative, quantum_d
from .complexes import (CohomologyTable, box_modes, complex_homology,
                        dense_complex, dh_kappa_v, require_modes)
from .forms import HForm, contract_vector
from .hpoly import HPoly
from .models import PoissonModel, TORUS
from .scalars import gaussian_integers


class GroupAction:
    """Commuting generators acting on a model and preserving its bivector."""

    def __init__(self, model: PoissonModel, generators):
        self.model = model
        self.generators = []
        for gen in generators:
            if len(gen) != model.dim:
                raise ValueError("generator has wrong number of components")
            comps = []
            for c in gen:
                if not hasattr(c, "partial"):
                    c = model.coeff_const(c)
                comps.append(c)
            self.generators.append(comps)
        self._check_commuting()
        self._check_preserves_w()

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def _check_commuting(self):
        for a in range(self.n_generators):
            for b in range(a + 1, self.n_generators):
                X, Y = self.generators[a], self.generators[b]
                for j in range(self.model.dim):
                    bracket = 0
                    for i in range(self.model.dim):
                        t1 = X[i] * Y[j].partial(i + 1)
                        t2 = Y[i] * X[j].partial(i + 1)
                        bracket = bracket + t1 - t2
                    if bracket:
                        raise ValueError(f"generators {a} and {b} do not commute")

    def _check_preserves_w(self):
        for a, X in enumerate(self.generators):
            res = lie_bivector(X, self.model)
            if res:
                raise ValueError(f"generator {a} does not preserve w: "
                                 f"residual at {res}")

    def is_translation(self) -> bool:
        return self.model.kind == TORUS and all(
            c.is_constant() for gen in self.generators for c in gen)

    def translation_vector(self, a: int):
        return [c.constant_value() for c in self.generators[a]]

    def is_invariant_form(self, x: HForm) -> bool:
        return all(not lie_derivative(gen, x) for gen in self.generators)


def lie_bivector(X, model: PoissonModel):
    """First nonzero component of L_X w, or None if preserved.

    (L_X w)^{ij} = X(w^{ij}) - (d_k X^i) w^{kj} - (d_k X^j) w^{ik}.
    """
    m = model.dim
    w = model.w
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            res = 0
            for k in range(1, m + 1):
                wij = w.entry(i, j)
                if wij:
                    res = res + X[k - 1] * wij.partial(k)
                wkj = w.entry(k, j)
                if wkj:
                    res = res - X[i - 1].partial(k) * wkj
                wik = w.entry(i, k)
                if wik:
                    res = res - X[j - 1].partial(k) * wik
            if res:
                return (i, j, res)
    return None


def contract_generator(a: int, x: HForm, action: GroupAction) -> HForm:
    """iota_a: contraction by the generating vector field X_a."""
    if not 0 <= a < action.n_generators:
        raise IndexError(f"generator index {a} out of range")
    return contract_vector(action.generators[a], x)


class EquivariantElement:
    """Map from Theta-monomials to model forms; Theta^a has degree 2."""

    def __init__(self, model: PoissonModel, n_generators: int, terms=None):
        self.model = model
        self.n_generators = n_generators
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, form in items:
                key = tuple(int(e) for e in key)
                if len(key) != n_generators or any(e < 0 for e in key):
                    raise ValueError(f"bad Theta exponent {key}")
                if form:
                    if key in data:
                        data[key] = data[key] + form
                        if not data[key]:
                            del data[key]
                    else:
                        data[key] = form
        self.terms = data

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, EquivariantElement):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other):
        return EquivariantElement(self.model, self.n_generators,
                                  [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return EquivariantElement(self.model, self.n_generators,
                                  {k: -f for k, f in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def total_degrees(self):
        degs = set()
        for key, form in self.terms.items():
            base = 2 * sum(key)
            for (j, mask) in form.terms:
                degs.add(base + 2 * j + mask.bit_count())
        return degs

    def is_invariant(self, action: GroupAction) -> bool:
        return all(action.is_invariant_form(f) for f in self.terms.values())

    def __repr__(self):
        bits = [f"T^{key}*({form})" for key, form in sorted(self.terms.items())]
        return " + ".join(bits) if bits else "0"


def cartan_d(x: EquivariantElement, action: GroupAction) -> EquivariantElement:
    """D x = Theta^A (x) d_h x_A + Theta^{A+e_a} (x) iota_a x_A."""
    model = action.model
    if not x.is_invariant(action):
        raise ValueError("element is not invariant under the action")
    terms = []
    for key, form in x.terms.items():
        terms.append((key, quantum_d(form, model)))
        for a in range(action.n_generators):
            bumped = key[:a] + (key[a] + 1,) + key[a + 1:]
            terms.append((bumped, contract_generator(a, form, action)))
    return EquivariantElement(model, action.n_generators, terms)


class AnticommutatorReport:
    def __init__(self):
        self.ok = True
        self.failures = []

    def __bool__(self):
        return self.ok


def anticommutator_check(action: GroupAction, forms) -> AnticommutatorReport:
    """(delta iota_a + iota_a delta) x = 0 on the given sample forms.

    Holds for arbitrary forms (invariant or not) whenever L_a w = 0
    globally; a bivector that is not preserved leaves a nonzero residual.
    """
    model = action.model
    rep = AnticommutatorReport()
    for x in forms:
        for a in range(action.n_generators):
            res = koszul_delta(contract_generator(a, x, action), model) + \
                contract_generator(a, koszul_delta(x, model), action)
            if res:
                rep.ok = False
                rep.failures.append((a, x, res))
    return rep


# -- equivariant cohomology -------------------------------------------------------


def _theta_monomials(d: int, max_total: int):
    """The exponents A of the Theta-monomials with sum(A) <= max_total."""
    out = [()]
    for _ in range(d):
        out = [A + (a,) for A in out for a in range(max_total - sum(A) + 1)]
    return out


def _equivariant_basis(model, d, total):
    out = []
    for A in _theta_monomials(d, total // 2):
        rem = total - 2 * sum(A)
        if rem < 0:
            continue
        for mask in range(1 << model.dim):
            c = mask.bit_count()
            if c > rem or (rem - c) % 2:
                continue
            j = (rem - c) // 2
            out.append((A, j, mask))
    out.sort()
    return out


def _integer_generators(action):
    """(L, [X_a]): the translation vectors of the generators times L, the
    lcm of their denominators, as Gaussian integers (re, im)."""
    m = action.model.dim
    L, flat = gaussian_integers([c for a in range(action.n_generators)
                                 for c in action.translation_vector(a)])
    return L, [flat[a * m:(a + 1) * m] for a in range(action.n_generators)]


def _cartan_columns(generators, labels):
    """The mode-0 operator D = Theta^a iota_a on labels (A, j, mask), for
    ``generators`` = :func:`_integer_generators` (L, [X_a]): d_h vanishes
    there, and Theta^a iota_a bumps A_a and contracts by the constant
    generator X_a with the sign (-1)^(indices of the mask below the
    removed one), over L."""
    L, gens = generators
    cols = {}
    for (A, j, mask) in labels:
        below = odd_below(mask)
        col = cols[(A, j, mask)] = {}
        for a, x in enumerate(gens):
            bumped = A[:a] + (A[a] + 1,) + A[a + 1:]
            for i, (p, q) in enumerate(x):
                bit = 1 << i
                if (p or q) and mask & bit:
                    col[((bumped, j, mask ^ bit), 0)] = \
                        (-p, -q) if below & bit else (p, q)
    return cols, L


def invariant_modes(action: GroupAction, mode_box: int):
    """Fourier modes of the box orthogonal to all translation generators."""
    vecs = [action.translation_vector(a) for a in range(action.n_generators)]
    return [k for k in box_modes(action.model.dim, mode_box)
            if all(sum(Fraction(ki) * ci for ki, ci in zip(k, v)) == 0
                   for v in vecs)]


def equivariant_cohomology_table(model: PoissonModel, action: GroupAction,
                                 cutoff: int,
                                 mode_box: int = 1) -> CohomologyTable:
    """Quantum equivariant cohomology of a torus translation action over
    k[h], truncated by total degree.

    Only mode 0 is computed, where d_h is checked to vanish and D is
    Theta^a iota_a: its Cartan complex in each total degree <= cutoff + 1
    is assembled and its Smith normal form reports degrees 0..cutoff; the
    cutoff is recorded so omitted degrees are explicit.  Every other
    invariant mode k is checked exactly to have kappa(X_a) = 0 for each
    generator, so D^2 = Theta^a kappa(X_a) = 0, and ``require_modes``
    certifies d_h from the unit modes (invariant or not): H = iota_{e_b} /
    kappa_b anticommutes with every constant iota_a, so DH + HD = 1 in
    every degree.  Each representative keys mode 0's labels as (mode, label).
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    if model.kind != TORUS or not model.is_constant_w():
        raise ValueError("equivariant tables need a torus with constant w")
    if not action.is_translation():
        raise ValueError("equivariant tables cover translation actions")
    d = action.n_generators
    degrees = list(range(cutoff + 2))
    modes = invariant_modes(action, mode_box)
    bases = [_equivariant_basis(model, d, n) for n in degrees]
    labels = [lab for b in bases for lab in b]
    bivector = model.constant_bivector().integer
    generators = _integer_generators(action)

    def invariant(k, kappa, _v):
        for a, x in enumerate(generators[1]):
            re = sum(p * r - q * s for (p, q), (r, s) in zip(kappa, x))
            im = sum(p * s + q * r for (p, q), (r, s) in zip(kappa, x))
            if re or im:
                raise AssertionError(f"Fourier mode {k} is not invariant "
                                     f"under generator {a}")
    require_modes(modes, lambda k: dh_kappa_v(bivector, k), invariant)
    tab = complex_homology(dense_complex(
        degrees, bases, _cartan_columns(generators, labels), HPoly))
    entries = [tab.entries[n] for n in range(cutoff + 1)]
    zero = (0,) * model.dim
    for e in entries:
        e.representatives = [{(zero, lab): c for lab, c in rep.items()}
                             for rep in e.representatives]
    table = CohomologyTable(HPoly, entries)
    table.meta.update({"kind": "equivariant", "cutoff": cutoff,
                       "mode_box": mode_box, "modes": modes,
                       "generators": d})
    return table
