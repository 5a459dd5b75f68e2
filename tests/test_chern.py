"""Quantum Chern-Weil: curvature, covariant derivative, characteristic
forms, gauge behaviour, transgression."""

import itertools
import json
from fractions import Fraction

import pytest

from oracles import (char_form_per_power, gauge_char_diagnostic,
                     gauge_transform, invertible_matrix,
                     solve_dh_primitive_snf)
from qexterior import chern
from qexterior.calculus import exterior_d, quantum_d
from qexterior.chern import (QConnection, char_form, char_forms,
                             covariant_square_check, quantum_covariant_d,
                             quantum_curvature, solve_dh_primitive,
                             transgression_check)
from qexterior.coeffs import FourierCoeff
from qexterior.forms import HForm, exp_contract_terms, wedge
from qexterior.hpoly import HLaurent, HPoly
from qexterior.models import PoissonModel
from qexterior.quantum import qwedge
from qexterior.sampling import Sampler
from test_calculus import conjugation_models


@pytest.fixture(scope="module")
def t2():
    return PoissonModel.darboux_torus(1)


def rand_connection(s, model, rank):
    return QConnection(model, [[s.model_form(model, degree=1, h_max=0)
                                for _ in range(rank)] for _ in range(rank)])


class TestCurvature:
    def test_zero_connection(self, t2):
        F = quantum_curvature(QConnection.zero(t2, 2))
        assert all(x.is_zero() for row in F for x in row)

    def test_rank1_is_dh_theta(self, t2):
        theta = t2.form_monomial([1], FourierCoeff.character(2, (0, 1)))
        F = quantum_curvature(QConnection(t2, [[theta]]))
        assert F[0][0] == quantum_d(theta, t2)

    def test_rank2_constant_matrices(self, t2):
        A = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
        B = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(1)]]
        theta = [[t2.form_monomial([1], A[i][j]) +
                  t2.form_monomial([2], B[i][j]) for j in range(2)]
                 for i in range(2)]
        F = quantum_curvature(QConnection(t2, theta))
        comm = [[sum(A[i][l] * B[l][j] - B[i][l] * A[l][j] for l in range(2))
                 for j in range(2)] for i in range(2)]
        w12 = t2.constant_bivector().entry(1, 2)
        for i in range(2):
            for j in range(2):
                expect = t2.form_monomial([1, 2], comm[i][j]) + \
                    t2.form_scalar(comm[i][j] * w12).h_shift(1)
                assert F[i][j] == expect

    def test_entries_are_even_degree_two(self, t2):
        s = Sampler(3)
        conn = rand_connection(s, t2, 2)
        for row in quantum_curvature(conn):
            for entry in row:
                if entry:
                    assert entry.graded_degree() == 2

    def test_connection_validation(self, t2):
        with pytest.raises(ValueError):
            QConnection(t2, [[t2.form_monomial([1, 2])]])
        with pytest.raises(ValueError):
            QConnection(t2, [[t2.form_monomial([1]).h_shift(1)]])


class TestCurvatureTransport:
    @pytest.mark.parametrize("model", [PoissonModel.darboux_torus(2),
                                       conjugation_models()[-1]],
                             ids=["T4", "torus-f(theta3)"])
    def test_curvature_is_E_of_the_classical_curvature(self, model):
        # E = exp(h iota_w) fixes 1-forms and carries d to d_h and ^ to
        # ^_h, so F_h = E(d theta + theta ^ theta), entry by entry and
        # type for type, on the Sampler(7) rank-3 probe; and the corner
        # of F_h ^_h F_h is E of that of F ^ F, where E divides the
        # iota_w^2 of a 4-form by 2
        s = Sampler(7)
        conn = rand_connection(s, model, 3)
        theta = conn.theta
        F_h = quantum_curvature(conn)
        F = [[exterior_d(theta[i][j]) for j in range(3)] for i in range(3)]
        for i, j, l in itertools.product(range(3), repeat=3):
            F[i][j] = F[i][j] + wedge(theta[i][l], theta[l][j])
        square = HForm.zero(model.dim)
        square_h = HForm.zero(model.dim)
        for l in range(3):
            square = square + wedge(F[0][l], F[l][0])
            square_h = square_h + qwedge(F_h[0][l], F_h[l][0], model.w)
        pairs = [(F[i][j], F_h[i][j], (i, j))
                 for i in range(3) for j in range(3)]
        for x, want, where in pairs + [(square, square_h, "F^2")]:
            got = exp_contract_terms(model.w, x.terms)
            assert got == want.terms, where
            assert [type(got[key]) for key in want.terms] == \
                [type(c) for c in want.terms.values()], where


class TestCovariantDerivative:
    def test_zero_connection_reduces_to_dh(self, t2):
        s = Sampler(5)
        conn = QConnection.zero(t2, 2)
        phi = [s.model_form(t2, h_max=0) for _ in range(2)]
        got = quantum_covariant_d(phi, conn)
        assert got == [quantum_d(p, t2) for p in phi]

    def test_unit_section(self, t2):
        theta = t2.form_monomial([1], FourierCoeff.character(2, (0, 1)))
        conn = QConnection(t2, [[theta]])
        assert quantum_covariant_d([t2.form_scalar(1)], conn) == [theta]

    def test_square_equals_curvature(self, t2):
        s = Sampler(7)
        t4 = PoissonModel.darboux_torus(2)
        for model in (t2, t4):
            for _ in range(6):
                rank = s.rng.randint(1, 3)
                conn = rand_connection(s, model, rank)
                phi = [s.model_form(model, degree=s.rng.randint(0, 2), h_max=0)
                       for _ in range(rank)]
                assert covariant_square_check(phi, conn)

    def test_shape_mismatch(self, t2):
        conn = QConnection.zero(t2, 2)
        with pytest.raises(ValueError):
            quantum_covariant_d([t2.form_scalar(1)], conn)


class TestCharForms:
    def test_zero_curvature(self, t2):
        F = quantum_curvature(QConnection.zero(t2, 2))
        assert char_form(F, 1, t2).is_zero()

    def test_rank1_closedness_forced(self, t2):
        theta = t2.form_monomial([1], FourierCoeff.character(2, (0, 1)))
        F = quantum_curvature(QConnection(t2, [[theta]]))
        form = char_form(F, 1, t2)
        assert form == F[0][0]
        assert quantum_d(form, t2).is_zero()

    def test_closedness_random(self, t2):
        s = Sampler(11)
        for _ in range(5):
            rank = s.rng.randint(1, 3)
            F = quantum_curvature(rand_connection(s, t2, rank))
            for k in (1, 2, 3):
                assert quantum_d(char_form(F, k, t2), t2).is_zero()

    def test_h_zero_gives_classical_chern_weil(self, t2):
        from qexterior.calculus import exterior_d
        from qexterior.forms import wedge
        s = Sampler(13)
        rank = 2
        conn = rand_connection(s, t2, rank)
        F = quantum_curvature(conn)
        # classical curvature: d theta + theta ^ theta
        Fc = [[exterior_d(conn.theta[i][j]) for j in range(rank)]
              for i in range(rank)]
        for i in range(rank):
            for j in range(rank):
                for l in range(rank):
                    Fc[i][j] = Fc[i][j] + wedge(conn.theta[i][l],
                                                conn.theta[l][j])
        for i in range(rank):
            for j in range(rank):
                assert F[i][j].at_h(0) == Fc[i][j]

    def test_power_validation(self, t2):
        F = quantum_curvature(QConnection.zero(t2, 1))
        with pytest.raises(ValueError):
            char_form(F, 0, t2)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_running_power_matches_per_power_products(self, rank):
        # tr(F^k) from one running power against k - 1 products of its own
        # (on T^4 the rank-1 connection: higher ranks take seconds a power)
        s = Sampler(40 + rank)
        models = [PoissonModel.darboux_torus(1)]
        if rank == 1:
            models.append(PoissonModel.darboux_torus(2))
        for model in models:
            F = quantum_curvature(rand_connection(s, model, rank))
            got = list(itertools.islice(char_forms(F, model), 4))
            want = [char_form_per_power(F, k, model) for k in range(1, 5)]
            assert got == want
            assert [char_form(F, k, model) for k in range(1, 5)] == want
            for a, b in zip(got, want):
                assert [(key, type(c)) for key, c in a.terms.items()] == \
                    [(key, type(c)) for key, c in b.terms.items()]

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_cli_makes_one_product_per_further_power(self, monkeypatch,
                                                     tmp_path, power):
        from qexterior.cli import main
        products = []
        real = chern._mat_qwedge

        def recording(A, B, model):
            products.append(len(B[0]))
            return real(A, B, model)

        monkeypatch.setattr(chern, "_mat_qwedge", recording)
        model, conn = tmp_path / "t2.json", tmp_path / "conn.json"
        model.write_text(json.dumps({"space": "torus", "dim": 2,
                                     "symplectic": "darboux"}))
        entry = [{"indices": [1], "h": 0,
                  "coeff": {"fourier": [[[0, 1], "1"]]}}]
        conn.write_text(json.dumps({"rank": 2, "theta": [[entry, []],
                                                         [entry, entry]]}))
        assert main(["chern", "--model", str(model), "--connection",
                     str(conn), "--power", str(power),
                     "--out", str(tmp_path / "out.json")]) == 0
        # one product for the curvature theta ^_h theta, then power - 1
        assert len(products) == 1 + (power - 1)


class TestGauge:
    def test_constant_gauge_invariance(self, t2):
        s = Sampler(17)
        for _ in range(4):
            conn = rand_connection(s, t2, 2)
            G = invertible_matrix(s, 2)
            for k in (1, 2):
                diag = gauge_char_diagnostic(conn, G, k)
                assert diag["agree"]

    def test_gauge_of_zero_is_pure_gauge(self, t2):
        # theta = G^{-1} dG for constant G is zero
        conn = QConnection.zero(t2, 2)
        G = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
        new = gauge_transform(conn, G)
        assert all(x.is_zero() for row in new.theta for x in row)

    def test_nonconstant_gauge_diagnostic_recorded(self, t2):
        # unipotent gauge with an oscillating off-diagonal entry
        conn = QConnection.zero(t2, 2)
        c = FourierCoeff.character(2, (1, 0))
        G = [[t2.form_scalar(1), t2.form_scalar(c)],
             [HForm.zero(2), t2.form_scalar(1)]]
        Ginv = [[t2.form_scalar(1), t2.form_scalar(c) * Fraction(-1)],
                [HForm.zero(2), t2.form_scalar(1)]]
        diag = gauge_char_diagnostic(conn, G, 1, g_inverse=Ginv)
        assert "agree" in diag
        new = gauge_transform(conn, G, Ginv)
        assert any(not x.is_zero() for row in new.theta for x in row)

    def test_bad_inverse_rejected(self, t2):
        conn = QConnection.zero(t2, 2)
        G = [[t2.form_scalar(1), t2.form_scalar(1)],
             [HForm.zero(2), t2.form_scalar(1)]]
        with pytest.raises(ValueError):
            gauge_transform(conn, G, g_inverse=G)


class TestTransgression:
    def test_equal_connections(self, t2):
        s = Sampler(19)
        conn = rand_connection(s, t2, 2)
        res = transgression_check(conn, conn, 1)
        assert res.ok
        assert res.eta.is_zero()

    def test_rank1_linear_case(self, t2):
        s = Sampler(23)
        th0 = s.model_form(t2, degree=1, h_max=0)
        th1 = s.model_form(t2, degree=1, h_max=0)
        res = transgression_check(QConnection(t2, [[th0]]),
                                  QConnection(t2, [[th1]]), 1)
        assert res.ok
        delta = quantum_d(th1, t2) - quantum_d(th0, t2)
        assert quantum_d(res.eta, t2) == delta.to_laurent()

    def test_rank2_random_pair_recorded(self, t2):
        s = Sampler(29)
        c0 = rand_connection(s, t2, 2)
        c1 = rand_connection(s, t2, 2)
        res = transgression_check(c0, c1, 1)
        if res.ok:
            delta = char_form(quantum_curvature(c1), 1, t2) - \
                char_form(quantum_curvature(c0), 1, t2)
            assert quantum_d(res.eta, t2) == delta.to_laurent()
        else:
            assert res.obstruction_mode is not None

    def test_obstruction_path(self, t2):
        # characteristic classes are connection-independent, so honest
        # pairs never obstruct; drive the solver directly with the
        # invariant volume class, which is closed but not exact
        from qexterior.chern import solve_dh_primitive
        res = solve_dh_primitive(t2, t2.form_monomial([1, 2]))
        assert not res.ok
        assert res.obstruction_mode == (0, 0)


SOLVE_MODELS = {
    "t2": lambda: PoissonModel.darboux_torus(1),
    "t4": lambda: PoissonModel.darboux_torus(2),
    "t4-rational": lambda: PoissonModel.torus(
        4, {(1, 2): Fraction(2, 3), (1, 4): Fraction(-1, 2),
            (2, 3): Fraction(5), (3, 4): Fraction(-7, 4)}),
}


@pytest.fixture(scope="module", params=sorted(SOLVE_MODELS))
def solve_model(request):
    return SOLVE_MODELS[request.param]()


def assert_agrees_with_snf(model, delta):
    """Same verdict and obstruction mode as the Smith normal form solve
    over k[h] and k[h,h^-1]; a solved eta satisfies d_h eta = delta."""
    res = solve_dh_primitive(model, delta)
    for ring in (HPoly, HLaurent):
        snf = solve_dh_primitive_snf(model, delta, ring)
        assert (res.ok, res.obstruction_mode) == \
            (snf.ok, snf.obstruction_mode), ring.__name__
    if res.ok:
        assert res.eta.laurent == delta.laurent
        assert quantum_d(res.eta, model) == delta
    return res


class TestPrimitiveAgreesWithSNF:
    @pytest.mark.parametrize("rank", [1, 2])
    def test_char_form_differences(self, solve_model, rank):
        # tr(F^2) vanishes on T^2, so there k = 2 gives the empty target
        s = Sampler(31 + rank + 10 * solve_model.dim)
        for k in (1, 2):
            c0, c1 = (rand_connection(s, solve_model, rank) for _ in range(2))
            delta = char_form(quantum_curvature(c1), k, solve_model) - \
                char_form(quantum_curvature(c0), k, solve_model)
            assert delta or (k, solve_model.dim) == (2, 2)
            assert assert_agrees_with_snf(solve_model, delta).ok

    def test_exact_targets(self, solve_model):
        s = Sampler(37 + solve_model.dim)
        for degree in range(solve_model.dim):
            eta = s.model_form(solve_model, degree=degree, terms=3)
            delta = quantum_d(eta, solve_model)
            if delta:
                assert assert_agrees_with_snf(solve_model, delta).ok

    def test_laurent_target(self, solve_model):
        s = Sampler(41 + solve_model.dim)
        eta = s.model_form(solve_model, degree=1, terms=3, laurent=True)
        delta = quantum_d(eta, solve_model).h_shift(-2)
        res = solve_dh_primitive(solve_model, delta)
        snf = solve_dh_primitive_snf(solve_model, delta, HLaurent)
        assert res.ok and snf.ok
        assert res.eta.laurent
        assert quantum_d(res.eta, solve_model) == delta

    def test_non_closed_targets(self, solve_model):
        s = Sampler(43 + solve_model.dim)
        obstructed = 0
        for _ in range(6):
            degree = s.rng.randint(0, solve_model.dim)
            delta = s.model_form(solve_model, degree=degree, terms=3)
            if delta:
                obstructed += not assert_agrees_with_snf(solve_model,
                                                         delta).ok
        assert obstructed

    def test_pure_mode_zero_targets(self, solve_model):
        s = Sampler(47 + solve_model.dim)
        zero = (0,) * solve_model.dim
        for degree in range(solve_model.dim + 1):
            delta = s.model_form(solve_model, degree=degree, span=0)
            if delta:
                res = assert_agrees_with_snf(solve_model, delta)
                assert res.obstruction_mode == zero

    def test_first_of_two_bad_modes(self, solve_model):
        m = solve_model.dim
        low, high = (-1,) + (0,) * (m - 1), (0,) * (m - 1) + (1,)
        # a function e^{ik.theta} is d_h-closed only at k = 0; the exact
        # part sits at the first mode of the target and is solvable
        first = (-1,) * m
        exact = quantum_d(solve_model.form_monomial(
            [1], FourierCoeff.character(m, first)), solve_model)
        delta = exact + HForm(m, {(0, 0): FourierCoeff.character(m, high, 3),
                                  (1, 0): FourierCoeff.character(m, low, 2)})
        res = assert_agrees_with_snf(solve_model, delta)
        assert res.obstruction_mode == low

    def test_empty_target(self, solve_model):
        res = assert_agrees_with_snf(solve_model, HForm.zero(solve_model.dim))
        assert res.ok and res.eta.is_zero()

    def test_mixed_parity_raises(self, solve_model):
        m = solve_model.dim
        c = FourierCoeff.character(m, (1,) + (0,) * (m - 1))
        delta = HForm(m, {(0, 0b1): c, (0, 0b11): c})
        with pytest.raises(ValueError, match="mixed parity"):
            solve_dh_primitive(solve_model, delta)
        for ring in (HPoly, HLaurent):
            with pytest.raises(ValueError, match="mixed parity"):
                solve_dh_primitive_snf(solve_model, delta, ring)

    def test_preconditions(self):
        so3 = PoissonModel.so3_affine()
        with pytest.raises(ValueError, match="torus"):
            solve_dh_primitive(so3, HForm.zero(3))
        wavy = PoissonModel.torus(2, {(1, 2): FourierCoeff.character(2, (1, 0))})
        with pytest.raises(ValueError, match="constant w"):
            solve_dh_primitive(wavy, HForm.zero(2))
