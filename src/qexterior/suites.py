"""Named randomized property suites driven by the CLI ``check`` command.

Each suite runs ``trials`` seeded random cases of one family of exact
identities and reports the first failing witness, if any.  All suites are
exact: a single mismatching coefficient is a failure.  A suite whose
precondition the model violates raises :class:`SuitePrecondition` before
its first draw.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import cycle

# A suite that calls calculus, chern, equivariant or lefschetz imports them
# in its own body, so the product-law suites load none of those drivers.
from ._kernels import QTable, _numerators, qwedge_numerators, same_numerators
from .coeffs import FourierCoeff
from .forms import Bivector, HForm
from .linalg import det
from .models import PoissonModel, TORUS
from .quantum import frobenius_pairing, gram_matrix, qwedge, wwedge
from .sampling import Sampler


class SuitePrecondition(ValueError):
    """The model violates a suite's precondition; raised before any draw."""


class SuiteResult:
    def __init__(self, name: str, trials: int):
        self.name = name
        self.trials = trials
        self.checked = 0
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, witness: dict):
        self.failures.append(witness)

    def to_json(self):
        return {"suite": self.name, "trials": self.checked,
                "status": "pass" if self.ok else "fail",
                "failures": self.failures[:5]}


def _integer_draws(dim, w: dict, forms):
    """The rational table of drawn entries ``w`` and the numerator triples
    of the drawn (Fraction) term dicts."""
    triples = [_numerators(x) for x in forms]
    for name, x in zip("abc", triples):
        if x is None:
            raise AssertionError(f"drawn {name} has a non-Fraction value")
    return QTable.rational(dim, w), triples


def suite_associativity(model, trials, s: Sampler) -> SuiteResult:
    res = SuiteResult("associativity", trials)
    for t in range(trials):
        dim = (model.dim if model is not None else s.randint(2, 8))
        w = s.bivector_entries(dim)
        a, b, c = [s.ext_terms(dim, degree=s.randint(0, dim), h_max=1)
                   for _ in range(3)]
        table, (na, nb, nc) = _integer_draws(dim, w, (a, b, c))
        lhs = qwedge_numerators(qwedge_numerators(na, nb, table), nc, table)
        rhs = qwedge_numerators(na, qwedge_numerators(nb, nc, table), table)
        res.checked += 1
        if not same_numerators(lhs, rhs):
            a, b, c = (HForm(dim, x) for x in (a, b, c))
            res.fail({"trial": t, "dim": dim, "a": str(a), "b": str(b),
                      "c": str(c), "w": str(Bivector(dim, w).entries)})
    return res


def suite_supercommutativity(model, trials, s: Sampler) -> SuiteResult:
    res = SuiteResult("supercommutativity", trials)
    for t in range(trials):
        dim = (model.dim if model is not None else s.randint(2, 8))
        w = s.bivector_entries(dim)
        da, db = s.randint(0, dim), s.randint(0, dim)
        a = s.ext_terms(dim, degree=da, h_max=1)
        b = s.ext_terms(dim, degree=db, h_max=1)
        table, (na, nb) = _integer_draws(dim, w, (a, b))
        lhs = qwedge_numerators(na, nb, table)
        rhs = qwedge_numerators(nb, na, table)
        if (da * db) % 2:
            rhs = (-rhs[0],) + rhs[1:]  # -ba: the sign on the denominator
        res.checked += 1
        if not same_numerators(lhs, rhs):
            res.fail({"trial": t, "dim": dim, "a": str(HForm(dim, a)),
                      "b": str(HForm(dim, b))})
    return res


def suite_normalization(model, trials, s: Sampler) -> SuiteResult:
    """e^i ^_w e^j == e^i ^ e^j + w^ij for all pairs, dims <= 6."""
    if model is not None:
        raise SuitePrecondition("normalization suite draws its own "
                                "bivectors and takes no model")
    res = SuiteResult("normalization", trials)
    for dim in range(2, 7):
        w = s.antisymmetric_bivector(dim)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                ei, ej = HForm.basis(dim, i), HForm.basis(dim, j)
                got = wwedge(ei, ej, w)
                expect = (ei ^ ej) + HForm.scalar(dim, w.entry(i, j)) \
                    if w.entry(i, j) else (ei ^ ej)
                res.checked += 1
                if got != expect:
                    res.fail({"dim": dim, "i": i, "j": j, "got": str(got)})
    return res


def _koszul_models(s: Sampler):
    return [s.jacobi_model("constant"), s.jacobi_model("so3"),
            s.jacobi_model("decomposable")]


def suite_koszul(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import exterior_d, koszul_delta
    res = SuiteResult("koszul", trials)
    models = [model] if model is not None else _koszul_models(s)
    for t, m in zip(range(trials), cycle(models)):
        a = s.model_form(m)
        dd = koszul_delta(koszul_delta(a, m), m)
        anti = exterior_d(koszul_delta(a, m)) + koszul_delta(exterior_d(a), m)
        res.checked += 1
        if dd or anti:
            res.fail({"trial": t, "model": repr(m), "form": str(a)})
    return res


def suite_leibniz(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import quantum_d
    res = SuiteResult("leibniz", trials)
    models = [model] if model is not None else \
        [s.jacobi_model("constant"), s.jacobi_model("so3")]
    for t, m in zip(range(trials), cycle(models)):
        da = s.randint(0, m.dim)
        a = s.model_form(m, degree=da)
        b = s.model_form(m, degree=s.randint(0, m.dim))
        lhs = quantum_d(qwedge(a, b, m.w), m)
        sign = Fraction(-1 if da % 2 else 1)
        rhs = qwedge(quantum_d(a, m), b, m.w) + \
            qwedge(a, quantum_d(b, m), m.w) * sign
        d2 = quantum_d(quantum_d(a, m), m)
        res.checked += 1
        if lhs != rhs or d2:
            res.fail({"trial": t, "model": repr(m), "a": str(a), "b": str(b)})
    return res


def suite_frame(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import frame_formula_d, quantum_d
    res = SuiteResult("frame", trials)
    m = model if model is not None else PoissonModel.darboux_torus(2)
    if not m.is_constant_w():
        raise SuitePrecondition("frame suite needs a constant bivector")
    for t in range(trials):
        a = s.model_form(m)
        res.checked += 1
        if frame_formula_d(a, m) != quantum_d(a, m):
            res.fail({"trial": t, "form": str(a)})
    return res


def suite_stokes(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import stokes_check
    res = SuiteResult("stokes", trials)
    if model is not None and (model.kind != TORUS or model.omega is None):
        raise SuitePrecondition("stokes suite runs on symplectic torus models")
    models = [model] if model is not None else \
        [PoissonModel.darboux_torus(1), PoissonModel.darboux_torus(2)]
    for t, m in zip(range(trials), cycle(models)):
        a = s.model_form(m)
        res.checked += 1
        if not stokes_check(a, m):
            res.fail({"trial": t, "model": repr(m), "form": str(a)})
    return res


def suite_dolbeault(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import complex_frame_formula_d, dolbeault_operators
    res = SuiteResult("dolbeault", trials)
    m = model if model is not None else \
        PoissonModel.darboux_torus(1, complex_structure=True)
    if not m.complex_structure:
        raise SuitePrecondition("dolbeault suite needs a complex structure")
    for t in range(trials):
        a = s.complexified_model_form(m)
        ops = dolbeault_operators(a, m)
        ok = not dolbeault_operators(ops.holo_h, m).holo_h
        ok = ok and not dolbeault_operators(ops.antiholo_h, m).antiholo_h
        mixed = dolbeault_operators(ops.holo_h, m).antiholo_h + \
            dolbeault_operators(ops.antiholo_h, m).holo_h
        ok = ok and not mixed
        # del_h + delbar_h by an independent route: the dz/dzbar frame
        # formula takes its h terms from qwedge, not from the contractions
        # dolbeault_operators composes, so an h -> -h splitting fails here
        rebuilt = complex_frame_formula_d(a, m)
        ok = ok and ops.holo_h + ops.antiholo_h == rebuilt
        res.checked += 1
        if not ok:
            res.fail({"trial": t, "form": str(a)})
    return res


def suite_frobenius(model, trials, s: Sampler) -> SuiteResult:
    if model is not None:
        raise SuitePrecondition("frobenius suite draws its own bivectors "
                                "and takes no model")
    res = SuiteResult("frobenius", trials)
    for t in range(trials):
        dim = s.randint(2, 6)
        w = s.antisymmetric_bivector(dim)
        a = s.ext_form(dim, degree=s.randint(0, dim))
        b = s.ext_form(dim, degree=s.randint(0, dim))
        c = s.ext_form(dim, degree=s.randint(0, dim))
        lhs = frobenius_pairing(wwedge(a, b, w), c, w)
        rhs = frobenius_pairing(a, wwedge(b, c, w), w)
        res.checked += 1
        if lhs != rhs:
            res.fail({"trial": t, "dim": dim})
    for dim in range(2, 5):
        g = gram_matrix(s.antisymmetric_bivector(dim))
        res.checked += 1
        if not det([[Fraction(x) for x in row] for row in g]):
            res.fail({"gram_dim": dim})
    return res


def suite_lefschetz(model, trials, s: Sampler) -> SuiteResult:
    from .lefschetz import commutator_check, lefschetz_d_commutators
    if model is not None and model.omega is None:
        raise SuitePrecondition("lefschetz suite needs a symplectic model")
    res = SuiteResult("lefschetz", trials)
    for n in (1, 2):
        rep = commutator_check(n)
        res.checked += 1
        if not rep.ok:
            res.fail({"n": n, "identities": [k for k, v in rep.results.items()
                                             if not v]})
    m = model if model is not None else PoissonModel.darboux_torus(1)
    forms = [s.model_form(m, laurent=True) for _ in range(max(1, trials // 2))]
    rep = lefschetz_d_commutators(m, forms)
    res.checked += len(forms)
    if not rep.ok:
        res.fail({"identities": [k for k, v in rep.results.items() if not v]})
    return res


def suite_chern(model, trials, s: Sampler) -> SuiteResult:
    from .calculus import quantum_d
    from .chern import (QConnection, char_form, covariant_square_check,
                        quantum_curvature)
    res = SuiteResult("chern", trials)
    m = model if model is not None else PoissonModel.darboux_torus(1)
    if m.kind != TORUS:
        raise SuitePrecondition("chern suite runs on torus models")
    for t in range(trials):
        rank = s.randint(1, 3)
        theta = [[s.model_form(m, degree=1, h_max=0) for _ in range(rank)]
                 for _ in range(rank)]
        conn = QConnection(m, theta)
        phi = [s.model_form(m, degree=s.randint(0, min(2, m.dim)),
                            h_max=0)
               for _ in range(rank)]
        ok = covariant_square_check(phi, conn)
        F = quantum_curvature(conn)
        for k in (1, 2):
            ok = ok and not quantum_d(char_form(F, k, m), m)
        res.checked += 1
        if not ok:
            res.fail({"trial": t, "rank": rank})
    return res


def suite_equivariant(model, trials, s: Sampler) -> SuiteResult:
    from .equivariant import (EquivariantElement, GroupAction,
                              anticommutator_check, cartan_d, lie_bivector)
    res = SuiteResult("equivariant", trials)
    m = model if model is not None else PoissonModel.darboux_torus(1)
    if m.kind != TORUS:
        # the Cartan half draws Fourier coefficients, which only a torus has
        raise SuitePrecondition("equivariant suite runs on torus models")
    d_1 = [m.coeff_const(Fraction(int(i == 0))) for i in range(m.dim)]
    if lie_bivector(d_1, m):
        raise SuitePrecondition("equivariant suite needs d_1 to preserve w")
    action = GroupAction(m, [d_1])
    forms = [s.model_form(m) for _ in range(max(1, trials // 2))]
    rep = anticommutator_check(action, forms)
    res.checked += len(forms)
    if not rep.ok:
        res.fail({"anticommutator_failures": len(rep.failures)})
    for t in range(max(1, trials // 4)):
        c = s.fourier_coeff(m.dim, span=1)
        invariant_part = {k: v for k, v in c.terms.items() if k[0] == 0}
        cinv = FourierCoeff(m.dim, invariant_part)
        form = HForm(m.dim, {(s.randint(0, 1),
                              s.mask(m.dim, s.randint(0, m.dim))): cinv}) \
            if cinv else m.form_scalar(1)
        elem = EquivariantElement(m, 1, {(s.randint(0, 2),): form})
        res.checked += 1
        if cartan_d(cartan_d(elem, action), action):
            res.fail({"trial": t, "D2": "nonzero"})
    return res


SUITES = {
    "associativity": suite_associativity,
    "supercommutativity": suite_supercommutativity,
    "normalization": suite_normalization,
    "koszul": suite_koszul,
    "leibniz": suite_leibniz,
    "frame": suite_frame,
    "stokes": suite_stokes,
    "dolbeault": suite_dolbeault,
    "frobenius": suite_frobenius,
    "lefschetz": suite_lefschetz,
    "chern": suite_chern,
    "equivariant": suite_equivariant,
}


def run_suite(name: str, model, trials: int, seed: int):
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    return SUITES[name](model, trials, Sampler(seed))
