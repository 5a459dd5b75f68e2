"""Differential operators: d, Koszul delta, d_h, the frame oracle, the
Dolbeault splitting, the quantum integral and Stokes."""

import inspect
from fractions import Fraction
from math import comb

import pytest

from oracles import (bidegree_components, complex_bidegree, complexify,
                     congruent_torus, conjugate)
from qexterior import calculus
from qexterior.calculus import (dolbeault_operators, exterior_d,
                                frame_formula_d, koszul_delta, qintegral,
                                quantum_d, stokes_check)
from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.forms import Bivector, HForm, exp_contract_terms, wedge
from qexterior.hpoly import HPoly
from qexterior.lefschetz import DarbouxSpace
from qexterior.models import PoissonModel, jacobi_check
from qexterior.quantum import qwedge
from qexterior.sampling import Sampler
from qexterior.scalars import GRat


@pytest.fixture
def r2():
    return PoissonModel.affine(2, {(1, 2): Fraction(1)})


@pytest.fixture
def t2():
    return PoissonModel.darboux_torus(1)


@pytest.fixture
def t2c():
    return PoissonModel.darboux_torus(1, complex_structure=True)


@pytest.fixture
def t4():
    return PoissonModel.darboux_torus(2)


class TestExteriorD:
    def test_examples(self, r2, t2):
        x2 = PolyCoeff.variable(2, 2)
        assert exterior_d(r2.form_scalar(x2)) == r2.form_monomial([2])
        osc = t2.form_scalar(FourierCoeff.character(2, (1, 0)))
        expect = t2.form_monomial([1], FourierCoeff.character(2, (1, 0), GRat(0, 1)))
        assert exterior_d(osc) == expect
        assert exterior_d(r2.form_monomial([1])).is_zero()

    def test_d_squared_zero(self, sampler, r2, t2):
        for model in (r2, t2):
            for _ in range(25):
                a = sampler.model_form(model)
                assert exterior_d(exterior_d(a)).is_zero()


class TestKoszulDelta:
    def test_function_gives_zero(self, r2):
        f = PolyCoeff.variable(2, 1) * PolyCoeff.variable(2, 2)
        assert koszul_delta(r2.form_scalar(f), r2).is_zero()

    def test_x2dx1_value(self, r2):
        # engine convention delta = d iota_w - iota_w d: the spec sheet's
        # -1 is the opposite composition order (see the calculus module)
        alpha = r2.form_monomial([1], PolyCoeff.variable(2, 2))
        assert koszul_delta(alpha, r2) == r2.form_scalar(1)

    def test_closed_one_form(self, r2):
        assert koszul_delta(r2.form_monomial([1]), r2).is_zero()

    @pytest.mark.parametrize("family", ["constant", "so3", "decomposable"])
    def test_koszul_identities(self, family, sampler):
        model = sampler.jacobi_model(family)
        for _ in range(30):
            a = sampler.model_form(model)
            assert koszul_delta(koszul_delta(a, model), model).is_zero()
            anti = exterior_d(koszul_delta(a, model)) + \
                koszul_delta(exterior_d(a), model)
            assert anti.is_zero()


class TestJacobi:
    def test_constant_passes(self, sampler):
        for dim in (2, 3, 4):
            w = sampler.antisymmetric_bivector(dim)
            model_w = Bivector(dim, {k: PolyCoeff.const(dim, v)
                                     for k, v in w.entries.items()})
            assert jacobi_check(model_w).ok

    def test_so3_passes(self):
        assert jacobi_check(PoissonModel.so3_affine().w).ok

    def test_failing_example(self):
        x = lambda i: PolyCoeff.variable(3, i)
        bad = Bivector(3, {(1, 2): x(2), (1, 3): x(3), (2, 3): x(1)})
        rep = jacobi_check(bad)
        assert not rep.ok
        i, j, k, residual = rep.witness
        assert (i, j, k) == (1, 2, 3)
        # cyclic sum evaluates to 2*x1 under the stated formula
        assert residual == x(1) * 2

    def test_model_construction_rejects_non_jacobi(self):
        x = lambda i: PolyCoeff.variable(3, i)
        with pytest.raises(ValueError):
            PoissonModel.affine(3, {(1, 2): x(2), (1, 3): x(3), (2, 3): x(1)})


def constant_bivectors(dim, seed):
    """Constant bivectors on R^dim or T^dim: plain Fraction, constant
    polynomial and constant Fourier entries, on every pair and on a
    seeded half of the pairs."""
    s = Sampler(seed)
    pairs = [(i, j) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)]
    out = []
    for entry in (lambda: s.fraction(),
                  lambda: PolyCoeff.const(dim, s.fraction()),
                  lambda: FourierCoeff.const(dim, s.grat())):
        for dense in (True, False):
            out.append(Bivector(dim, {ij: entry() for ij in pairs
                                      if dense or s.below(2)}))
    return out


class TestJacobiConstant:
    # a constant w passes before the triple loop, which would find no
    # nonzero partial in it
    def test_early_return_agrees_with_the_loop(self, monkeypatch):
        ws = [w for dim in range(1, 7) for w in constant_bivectors(dim, dim)]
        assert all(jacobi_check(w).ok for w in ws)
        monkeypatch.setattr(Bivector, "is_constant", lambda self: False)
        assert all(jacobi_check(w).ok for w in ws)

    def test_constant_w_reads_no_entry(self, monkeypatch):
        w = constant_bivectors(6, 1)[-1]

        def no_entry(*args):
            raise AssertionError("entry read")

        monkeypatch.setattr(Bivector, "entry", no_entry)
        assert jacobi_check(w).ok
        monkeypatch.setattr(Bivector, "is_constant", lambda self: False)
        with pytest.raises(AssertionError, match="entry read"):
            jacobi_check(w)


class TestQuantumD:
    def test_function(self, r2):
        f = PolyCoeff.variable(2, 1)
        assert quantum_d(r2.form_scalar(f), r2) == exterior_d(r2.form_scalar(f))

    def test_x2dx1_value(self, r2):
        alpha = r2.form_monomial([1], PolyCoeff.variable(2, 2))
        expect = -r2.form_monomial([1, 2]) - r2.form_scalar(1).h_shift(1)
        assert quantum_d(alpha, r2) == expect

    def test_dh_squared_zero_oscillating(self, t2):
        a = t2.form_monomial([2], FourierCoeff.character(2, (1, 0)))
        assert quantum_d(quantum_d(a, t2), t2).is_zero()

    def test_dh_squared_zero_random(self, sampler, t2):
        so3 = PoissonModel.so3_affine()
        for model in (t2, so3):
            for _ in range(25):
                a = sampler.model_form(model, laurent=bool(sampler.rng.randint(0, 1)))
                assert quantum_d(quantum_d(a, model), model).is_zero()

    def test_leibniz_random(self, sampler, t2):
        so3 = PoissonModel.so3_affine()
        for model in (t2, so3):
            for _ in range(30):
                da = sampler.rng.randint(0, model.dim)
                a = sampler.model_form(model, degree=da)
                b = sampler.model_form(model)
                lhs = quantum_d(qwedge(a, b, model.w), model)
                sign = Fraction(-1 if da % 2 else 1)
                rhs = qwedge(quantum_d(a, model), b, model.w) + \
                    qwedge(a, quantum_d(b, model), model.w) * sign
                assert lhs == rhs


class TestFrameFormula:
    def test_function(self, t2, sampler):
        f = t2.form_scalar(sampler.fourier_coeff(2))
        assert frame_formula_d(f, t2) == exterior_d(f)

    def test_x2dx1(self, r2):
        alpha = r2.form_monomial([1], PolyCoeff.variable(2, 2))
        assert frame_formula_d(alpha, r2) == quantum_d(alpha, r2)

    def test_oracle_equality_random(self, sampler, t2, t4):
        for model in (t2, t4):
            for _ in range(20):
                a = sampler.model_form(model, laurent=bool(sampler.rng.randint(0, 1)))
                assert frame_formula_d(a, model) == quantum_d(a, model)

    def test_requires_constant_w(self):
        so3 = PoissonModel.so3_affine()
        with pytest.raises(ValueError):
            frame_formula_d(so3.form_monomial([1]), so3)


class TestDolbeault:
    def test_constant_holomorphic_form_closed(self, t2c):
        dz = HForm.basis(2, 1).map_coeffs(
            lambda c: FourierCoeff.const(2, GRat(c)))
        dz = HForm(2, {(0, 1): FourierCoeff.one(2)})
        ops = dolbeault_operators(dz, t2c)
        assert ops.antiholo_h.is_zero()

    def test_function_sum_rule(self, t2c, sampler):
        for _ in range(15):
            f = t2c.form_scalar(sampler.fourier_coeff(2))
            fc = complexify(f, t2c)
            ops = dolbeault_operators(fc, t2c)
            assert ops.holo_h + ops.antiholo_h == \
                complexify(quantum_d(f, t2c), t2c)

    def test_squares_and_anticommutator(self, sampler, t2c):
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        for model in (t2c, t4c):
            for _ in range(12):
                a = sampler.complexified_model_form(model)
                ops = dolbeault_operators(a, model)
                assert dolbeault_operators(ops.holo_h, model).holo_h.is_zero()
                assert dolbeault_operators(ops.antiholo_h, model).antiholo_h.is_zero()
                mixed = dolbeault_operators(ops.holo_h, model).antiholo_h + \
                    dolbeault_operators(ops.antiholo_h, model).holo_h
                assert mixed.is_zero()

    def test_bidegree_shifts(self, sampler, t2c):
        for _ in range(15):
            a = sampler.complexified_model_form(t2c)
            for pq, piece in bidegree_components(a).items():
                ops = dolbeault_operators(piece, t2c)
                if ops.holo_h:
                    assert complex_bidegree(ops.holo_h) == (pq[0] + 1, pq[1])
                if ops.antiholo_h:
                    assert complex_bidegree(ops.antiholo_h) == (pq[0], pq[1] + 1)
                if ops.delta_0m1:
                    assert complex_bidegree(ops.delta_0m1) == (pq[0], pq[1] - 1)
                if ops.delta_m10:
                    assert complex_bidegree(ops.delta_m10) == (pq[0] - 1, pq[1])

    def test_requires_complex_structure(self, t2):
        with pytest.raises(ValueError):
            dolbeault_operators(t2.form_scalar(1), t2)

    def test_complex_frame_formula(self, sampler, t2c):
        # sum_a f^a ^_{h,w_c} D_a a over dz^k, dzbar^k is del_h + delbar_h
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        for model in (t2c, t4c):
            for _ in range(15):
                a = sampler.complexified_model_form(
                    model, laurent=bool(sampler.rng.randint(0, 1)))
                ops = dolbeault_operators(a, model)
                assert calculus.complex_frame_formula_d(a, model) == \
                    ops.holo_h + ops.antiholo_h

    @pytest.mark.parametrize("n", [1, 2])
    def test_negative_control_delta_in_the_opposite_order(self, monkeypatch,
                                                          n):
        # Both Koszul pieces composed as iota_w o del - del o iota_w: the
        # consistent h -> -h twin of the splitting.  Its squares and
        # anticommutator still vanish, and its pieces still add up to its
        # own del_h + delbar_h, so only an independent route to d_h sees it.
        from qexterior.forms import bivector_contract
        from qexterior.quantum import complex_frame_bivector
        from qexterior.suites import run_suite

        def opposite(a, model):
            wc = complex_frame_bivector(model.constant_bivector())
            pa, qa = calculus.holo_d(a), calculus.antiholo_d(a)
            iw = bivector_contract(wc, a)
            d01 = bivector_contract(wc, pa) - calculus.holo_d(iw)
            d10 = bivector_contract(wc, qa) - calculus.antiholo_d(iw)
            return calculus.DolbeaultOps(pa, qa, d01, d10,
                                         pa - d01.h_shift(1),
                                         qa - d10.h_shift(1))
        model = PoissonModel.darboux_torus(n, complex_structure=True)
        assert run_suite("dolbeault", model, 12, 0).ok
        monkeypatch.setattr(calculus, "dolbeault_operators", opposite)
        assert not run_suite("dolbeault", model, 12, 0).ok


LIOUVILLE = r"quantum integral: int_h 1 = -?\d+ is not Pf\(Omega\)"


class TestQuantumIntegral:
    def test_volume_one(self, t2):
        assert qintegral(t2.form_scalar(1), t2) == HPoly.one() * 0 + \
            HPoly({0: GRat(1)})

    def test_oscillating_odd_degree(self, t2):
        a = t2.form_monomial([2], FourierCoeff.character(2, (1, 0)))
        assert qintegral(a, t2).is_zero()

    def test_h_module_map(self, t2):
        a = t2.form_scalar(1).h_shift(1)
        assert qintegral(a, t2) == HPoly({1: GRat(1)})

    def test_affine_rejected(self, r2):
        with pytest.raises(ValueError):
            qintegral(r2.form_scalar(1), r2)

    def test_no_symplectic_rejected(self):
        plain = PoissonModel.torus(2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            qintegral(plain.form_scalar(1), plain)

    def test_top_degree(self, t2):
        a = t2.form_monomial([1, 2], FourierCoeff.const(2, Fraction(3)))
        assert qintegral(a, t2) == HPoly({0: GRat(3)})

    def test_symplectic_powers(self):
        # int_h omega^k/k! = C(n, k) Pf(Omega) on T^2n, Darboux (Pf 1) and
        # omega = P^T Omega_0 P (Pf det P) alike
        assert power_integral_mismatches(qintegral) == []

    def test_unnormalized_powers_fail(self):
        # qintegral wedging against omega^k instead of omega^k/k! makes
        # int_h 1 = n! Pf(Omega); the library's Liouville check refuses
        # every integral of that mutant once n >= 2, and at n = 1, where
        # k! = 1, the mutant is the same function
        bad = unnormalized_qintegral()
        for kind, model in integral_models():
            if model.dim == 2:
                assert power_integral_mismatches(bad, [(kind, model)]) == []
                continue
            for power in (model.form_scalar(1), model.omega_form()):
                with pytest.raises(AssertionError, match=LIOUVILLE):
                    bad(power, model)

    def test_liouville_check_passes_on_every_model(self):
        # (int_h 1)^2 = det(Omega) holds on Darboux T^2-T^8 and on four
        # seeded congruent tori, whose Pfaffians are not 1
        models = [PoissonModel.darboux_torus(n) for n in (1, 2, 3, 4)]
        models += [congruent_torus(Sampler(seed), n)
                   for seed, n in ((3, 2), (8, 3), (42, 2), (5, 1))]
        for model in models:
            assert qintegral(model.form_scalar(1), model) == \
                HPoly({0: GRat(pfaffian(model.omega))})


def unnormalized_qintegral():
    """``calculus.qintegral`` with omega^k in place of omega^k/k!."""
    src = inspect.getsource(calculus.qintegral)
    mutant = src.replace("wedge(powers[k - 1], om) * Fraction(1, k)",
                         "wedge(powers[k - 1], om)")
    assert mutant != src
    scope = dict(vars(calculus))
    exec(mutant, scope)
    return scope["qintegral"]


def integral_models():
    """``(kind, model)`` of the Darboux T^2, T^4, T^6 and two seeded
    congruent tori (T^4 and T^6)."""
    models = [("darboux", PoissonModel.darboux_torus(n)) for n in (1, 2, 3)]
    return models + [("congruent", congruent_torus(Sampler(seed), n))
                     for seed, n in ((3, 2), (8, 3))]


def pfaffian(M):
    """Pf of an antisymmetric matrix, expanded along its first row."""
    if not M:
        return 1
    total = 0
    for j in range(1, len(M)):
        if M[0][j]:
            rest = [r for r in range(1, len(M)) if r != j]
            sign = -1 if j % 2 == 0 else 1
            total += sign * M[0][j] * pfaffian([[M[a][b] for b in rest]
                                                for a in rest])
    return total


def power_integral_mismatches(integral, models=None):
    """``(kind, n, k)`` of every ``integral(omega^k/k!)`` that is not
    C(n, k) Pf(Omega), on the ``(kind, model)`` pairs ``models``
    (:func:`integral_models` by default)."""
    bad = []
    for kind, model in integral_models() if models is None else models:
        n = model.dim // 2
        pf = pfaffian(model.omega)
        assert pf
        om = model.omega_form()
        power = model.form_scalar(1)
        for k in range(n + 1):
            if k:
                power = wedge(power, om) * Fraction(1, k)
            if integral(power, model) != HPoly({0: GRat(comb(n, k) * pf)}):
                bad.append((kind, n, k))
    return bad


class TestStokes:
    def test_examples(self, t2):
        osc = t2.form_monomial([2], FourierCoeff.character(2, (1, 0)))
        assert stokes_check(osc, t2)
        const = t2.form_monomial([1])
        assert stokes_check(const, t2)

    def test_random_all_degrees(self, sampler, t2, t4):
        for model in (t2, t4):
            for deg in range(model.dim + 1):
                for _ in range(6):
                    a = sampler.model_form(model, degree=deg)
                    rep = stokes_check(a, model)
                    assert rep.int_d.is_zero()
                    assert rep.int_hdelta.is_zero()
                    assert rep.int_dh.is_zero()

    def test_laurent_forms(self, sampler, t2):
        for _ in range(10):
            a = sampler.model_form(t2, laurent=True)
            assert stokes_check(a, t2)


def conjugation_models():
    """Poisson models of the sampler's constant, so(3) and decomposable
    families, and f(theta_3) d_1 ^ d_2 on T^3, a torus bivector that is
    not constant."""
    s = Sampler(31)
    models = [s.jacobi_model(family) for family in
              ("constant", "constant", "so3", "decomposable", "decomposable")]
    f = FourierCoeff(3, {(0, 0, 1): GRat(2, -1),
                         (0, 0, -2): GRat(Fraction(1, 3))})
    models.append(PoissonModel.torus(3, {(1, 2): f}))
    return models


MODEL_IDS = ["constant-a", "constant-b", "so3", "decomposable-a",
             "decomposable-b", "torus-f(theta3)"]
COEFFICIENT_KINDS = (int, Fraction, GRat, FourierCoeff, PolyCoeff)


def retyped(s, x, kind):
    """``x`` with each Fraction coefficient c made a coefficient of
    ``kind``: its numerator, c itself, c + i q, or c times a seeded
    Fourier or polynomial function."""
    dim = x.dim
    make = {int: lambda c: c.numerator,
            Fraction: lambda c: c,
            GRat: lambda c: GRat(c, s.fraction()),
            FourierCoeff: lambda c: s.fourier_coeff(dim) * c,
            PolyCoeff: lambda c: s.poly_coeff(dim) * c}[kind]
    return HForm(dim, {key: make(c) for key, c in x.terms.items()},
                 x.laurent)


def assert_E_is_the_oracle(w, x):
    """exp_contract_terms(w, x) is conjugate(x, w, +1) term for term and
    type for type, except that on int coefficients an integral term may
    stay an int where the oracle's 1/k! made it a Fraction."""
    got = exp_contract_terms(w, x.terms)
    want = conjugate(x, w).terms
    assert got == want, (w, x)
    ints = all(type(c) is int for c in x.terms.values())
    for key, c in want.items():
        kind = type(got[key])
        assert kind is type(c) or ints and kind is int and \
            type(c) is Fraction, (w, x, key, kind)


class TestConjugation:
    """E = exp(h iota_w) (``oracles.conjugate``) carries the classical
    d and wedge to d_h and the quantum product."""

    @pytest.mark.parametrize("model", conjugation_models(), ids=MODEL_IDS)
    def test_dh_is_conjugate_of_d(self, model):
        s = Sampler(model.dim)
        w = model.w
        for _ in range(10):
            x = s.model_form(model, terms=3)
            assert conjugate(conjugate(x, w, -1), w) == x
            assert quantum_d(x, model) == \
                conjugate(exterior_d(conjugate(x, w, -1)), w), x

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_qwedge_is_conjugate_of_wedge(self, dim):
        s = Sampler(100 + dim)
        for trial in range(8):
            w = s.antisymmetric_bivector(dim)
            laurent = trial % 2 == 1
            a = s.ext_form(dim, terms=3, h_max=1, laurent=laurent)
            b = s.ext_form(dim, terms=3, h_max=1, laurent=laurent)
            expected = conjugate(wedge(conjugate(a, w, -1),
                                       conjugate(b, w, -1)), w)
            assert qwedge(a, b, w) == expected, (dim, trial)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_library_E_is_the_oracle(self, dim):
        # forms.exp_contract_terms against conjugate(x, w, +1), term for
        # term and type for type, under rational, Gaussian and Darboux w,
        # on every coefficient type in both rings
        s = Sampler(300 + dim)
        bivectors = [s.antisymmetric_bivector(dim), Bivector(dim, {
            ij: GRat(c, s.fraction())
            for ij, c in s.antisymmetric_bivector(dim).entries.items()})]
        if dim % 2 == 0:
            bivectors.append(DarbouxSpace(dim // 2).w)
        for w in bivectors:
            for kind in COEFFICIENT_KINDS:
                for laurent in (False, True, False, True):
                    x = retyped(s, s.ext_form(dim, terms=4, h_max=2,
                                              laurent=laurent), kind)
                    assert_E_is_the_oracle(w, x)

    @pytest.mark.parametrize("model", conjugation_models(), ids=MODEL_IDS)
    def test_library_E_is_the_oracle_under_the_model_w(self, model):
        # the model's own w has PolyCoeff or FourierCoeff entries, constant
        # or not; the forms carry scalars or the model's coefficients
        s = Sampler(400 + model.dim)
        for kind in (int, Fraction, GRat, model.coeff_cls):
            for laurent in (False, True):
                for _ in range(3):
                    x = retyped(s, s.ext_form(model.dim, terms=4, h_max=2,
                                              laurent=laurent), kind)
                    assert_E_is_the_oracle(model.w, x)

    def test_library_E_keeps_integral_values_as_int(self):
        # on int coefficients under the Darboux w, h^2 iota_w^2 / 2 of
        # e^{1234} is the int 1, and on T^6 iota_w^2 e^{123456} / 2 has
        # three int terms
        w = DarbouxSpace(2).w
        assert exp_contract_terms(w, {(0, 0b1111): 1}) == {
            (0, 0b1111): 1, (1, 0b1100): -1, (1, 0b0011): -1, (2, 0): 1}
        got = exp_contract_terms(DarbouxSpace(3).w, {(0, 0b111111): 1})
        assert got[(3, 0)] == -1
        assert {type(c) for c in got.values()} == {int}

    def test_library_E_divides_an_int_term_it_cannot_floor(self):
        # at k = 2 an int term that 2 does not divide arrives where the
        # Fraction partial sums of the step have cancelled to zero, so the
        # int division takes its Fraction(c, k) branch; flooring it with
        # c // k changes E.  Values are compared: on mixed int and Fraction
        # input an integral term may stay an int (the documented int rule)
        F = Fraction
        w = Bivector(6, {(1, 2): F(-1), (1, 3): F(1), (1, 4): F(-1, 2),
                         (1, 5): F(-1), (1, 6): F(-2), (2, 4): F(1),
                         (2, 5): F(-1, 2), (2, 6): F(2), (3, 4): F(2),
                         (3, 5): F(1), (5, 6): F(-1, 2)})
        x = HForm(6, {(0, 0b001111): F(1, 2), (0, 0b101111): 1,
                      (0, 0b111111): 1})
        assert exp_contract_terms(w, x.terms) == conjugate(x, w).terms
        # int entries too: the int sum -1 on h^2 e^0 leaves as -1/2, and E
        # is E of the all-Fraction copy
        w = Bivector(6, {(1, 2): -1, (1, 5): 2, (2, 3): 1, (2, 4): -1,
                         (2, 6): 1, (3, 4): -1, (3, 5): -1, (3, 6): 1,
                         (4, 6): -1})
        terms = {(0, 0b100111): F(-1, 2), (0, 0b011100): -1,
                 (0, 0b111100): 1}
        got = exp_contract_terms(w, terms)
        assert got[(2, 0)] == F(-1, 2)
        assert got == exp_contract_terms(
            w.map_entries(F), {key: F(c) for key, c in terms.items()})

    def test_identity_breaks_without_jacobi(self):
        # d1^d2 + x2 d2^d3 fails the Jacobi identity; the model is built
        # with so(3) and then handed the bad bivector
        model = PoissonModel.so3_affine()
        model.w = Bivector(3, {(1, 2): PolyCoeff.const(3, 1),
                               (2, 3): PolyCoeff.variable(3, 2)})
        assert not jacobi_check(model.w)
        s = Sampler(5)
        forms = [s.model_form(model, terms=3) for _ in range(20)]
        assert any(quantum_d(f, model) !=
                   conjugate(exterior_d(conjugate(f, model.w, -1)), model.w)
                   for f in forms)
