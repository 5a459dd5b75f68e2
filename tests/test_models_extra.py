"""Model coverage beyond the Darboux defaults: scaled symplectic forms,
degenerate bivectors, T^4 Dolbeault strata, report stability."""

import json
from fractions import Fraction
from math import comb

import pytest

from qexterior.calculus import frame_formula_d, quantum_d, stokes_check
from qexterior.cli import main
from qexterior.cohomology import (quantum_derham_table,
                                  quantum_dolbeault_table, ring_table)
from qexterior.hpoly import HLaurent
from qexterior.lefschetz import DarbouxSpace
from qexterior.linalg import matrix_inverse
from qexterior.models import PoissonModel, darboux_matrix
from qexterior.sampling import Sampler
from qexterior.serialize import model_from_json


@pytest.fixture(scope="module")
def t2_scaled():
    """T^2 with omega = 3 dtheta1 ^ dtheta2 and its calibrated dual."""
    om = [[0, Fraction(3)], [Fraction(-3), 0]]
    return PoissonModel.torus(2, {(1, 2): Fraction(-1, 3)}, symplectic=om)


class TestDarbouxDual:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_darboux_bivector_is_the_inverse(self, n):
        # DarbouxSpace, darboux_torus and the "darboux" loader all read W
        # from models.darboux_dual: the off-diagonal entries of Omega^-1,
        # in the same key order
        dim = 2 * n
        dual = matrix_inverse(darboux_matrix(n))
        want = [((i + 1, j + 1), dual[i][j]) for i in range(dim)
                for j in range(i + 1, dim) if dual[i][j]]
        space = DarbouxSpace(n).w
        assert list(space.entries.items()) == want
        assert all(type(c) is Fraction for c in space.entries.values())
        torus = PoissonModel.darboux_torus(n).w
        loaded = [model_from_json({"space": kind, "dim": dim,
                                   "symplectic": "darboux"}).w
                  for kind in ("torus", "affine")]
        assert list(torus.entries.items()) == list(loaded[0].entries.items())
        for w in (torus, *loaded):
            assert [(ij, c.constant_value())
                    for ij, c in w.entries.items()] == want


class TestScaledSymplectic:
    def test_calibration_enforced(self):
        om = [[0, Fraction(3)], [Fraction(-3), 0]]
        with pytest.raises(ValueError):
            PoissonModel.torus(2, {(1, 2): Fraction(-1)}, symplectic=om)

    def test_table_and_ring(self, t2_scaled):
        tab = quantum_derham_table(t2_scaled)
        assert {d: tab.rank(d) for d in tab.degrees()} == {0: 1, 1: 2, 2: 1}
        assert tab.meta["anomalous_modes"] == []
        rt = ring_table(tab, t2_scaled)
        i1, i2 = rt.class_index(1, 0), rt.class_index(1, 1)
        itop, iunit = rt.class_index(2, 0), rt.class_index(0, 0)
        assert rt.product(i1, i2) == {itop: HLaurent.one(),
                                      iunit: HLaurent({1: Fraction(-1, 3)})}

    def test_operators_consistent(self, t2_scaled):
        s = Sampler(314)
        for _ in range(10):
            a = s.model_form(t2_scaled)
            assert frame_formula_d(a, t2_scaled) == quantum_d(a, t2_scaled)
            assert stokes_check(a, t2_scaled)

    def test_volume_is_pfaffian(self, t2_scaled):
        from qexterior.calculus import qintegral
        got = qintegral(t2_scaled.form_scalar(1), t2_scaled)
        assert [(j, str(c)) for j, c in sorted(got.coeffs.items())] == \
            [(0, "3")]

    def test_lefschetz_d_commutators_scaled(self, t2_scaled):
        from qexterior.lefschetz import lefschetz_d_commutators
        s = Sampler(1234)
        forms = [s.model_form(t2_scaled, laurent=True) for _ in range(10)]
        rep = lefschetz_d_commutators(t2_scaled, forms)
        assert rep.ok, rep.failures


class TestDegenerateBivector:
    def test_zero_bivector_torus_table(self):
        t2z = PoissonModel.torus(2, {})
        tab = quantum_derham_table(t2z)
        assert {d: tab.rank(d) for d in tab.degrees()} == {0: 1, 1: 2, 2: 1}
        assert tab.meta["anomalous_modes"] == []

    def test_dh_is_classical_d(self):
        t2z = PoissonModel.torus(2, {})
        s = Sampler(271)
        from qexterior.calculus import exterior_d
        for _ in range(10):
            a = s.model_form(t2z)
            assert quantum_d(a, t2z) == exterior_d(a)


class TestComplexStructureValidation:
    def test_non_preserving_w_rejected(self):
        with pytest.raises(ValueError):
            PoissonModel.torus(4, {(1, 3): Fraction(1)},
                               complex_structure=True)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            PoissonModel.torus(3, {}, complex_structure=True)


class TestT4Dolbeault:
    def test_mode0_strata_match_hodge(self):
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        tab = quantum_dolbeault_table(t4c, mode_box=0)

        def hodge(p, q):
            if 0 <= p <= 2 and 0 <= q <= 2:
                return comb(2, p) * comb(2, q)
            return 0

        for p in range(5):
            for q in range(5):
                want = sum(hodge(p - j, q - j) for j in range(min(p, q) + 1))
                assert tab.rank((p, q)) == want, (p, q)


class TestReportStability:
    def test_lefschetz_report_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            rc = main(["lefschetz", "--n", "1", "--out", str(path)])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_report_embeds_conventions_and_prng(self, tmp_path):
        out = tmp_path / "r.json"
        main(["lefschetz", "--n", "1", "--out", str(out)])
        data = json.loads(out.read_text())
        conv = data["conventions"]
        assert "koszul_delta" in conv
        assert conv["prng"].startswith("mt19937")
