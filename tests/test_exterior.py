"""Classical exterior algebra: wedge, contractions, Berezin, star."""

from fractions import Fraction

import pytest

from oracles import (antisymmetric_invertible, congruent_darboux,
                     contract_back, contract_front, star_row_dense)
from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.forms import (Bivector, HForm, StarTable, berezin_integral,
                             bivector_contract, contract_vector,
                             symplectic_star, wedge)
from qexterior.models import darboux_matrix
from qexterior.quantum import frobenius_pairing
from qexterior.linalg import det
from qexterior.sampling import Sampler
from qexterior.scalars import GRat

e = HForm.basis
mono = HForm.monomial


class TestHFormInit:
    COEFFS = [Fraction(3, 2), GRat(1, 2), PolyCoeff(2, {(1, 0): Fraction(2)}),
              FourierCoeff(2, {(1, -1): GRat(0, 1)})]

    @pytest.mark.parametrize("c", COEFFS, ids=lambda c: type(c).__name__)
    def test_coefficient_type_kept(self, c):
        a = HForm(2, {(0, 1): c, (1, 3): c})
        assert all(type(v) is type(c) for v in a.terms.values())
        assert a.terms == {(0, 1): c, (1, 3): c}

    @pytest.mark.parametrize("c", COEFFS, ids=lambda c: type(c).__name__)
    def test_duplicate_keys_merge(self, c):
        a = HForm(2, [((0, 1), c), ((0, 2), c), ((0, 1), c)])
        assert a.terms == {(0, 1): c + c, (0, 2): c}
        assert type(a.terms[(0, 1)]) is type(c)
        assert HForm(2, [((0, 1), c), ((0, 1), -c)]).is_zero()
        assert HForm(2, [((0, 1), c), ((0, 1), -c), ((0, 1), c)]).terms == \
            {(0, 1): c}

    def test_at_h_zero_refuses_a_negative_power(self):
        # h^-1 has no value at h = 0; positive powers vanish there
        a = HForm(2, {(-1, 3): Fraction(1), (0, 0): Fraction(2)},
                  laurent=True)
        with pytest.raises(ValueError, match=r"h\^-1 has no value at h = 0"):
            a.at_h(0)
        assert a.at_h(2) == HForm(2, {(0, 3): Fraction(1, 2),
                                      (0, 0): Fraction(2)}, laurent=True)
        b = HForm(2, {(1, 3): Fraction(1), (0, 0): Fraction(2)})
        assert b.at_h(0) == HForm.scalar(2, Fraction(2))


class TestWedge:
    def test_disjoint_ascending(self):
        assert wedge(e(3, 1), e(3, 2)) == mono(3, [1, 2])

    def test_repeated_index(self):
        assert wedge(e(3, 1), e(3, 1)).is_zero()

    def test_one_transposition(self):
        assert wedge(e(3, 2), mono(3, [1, 3])) == -mono(3, [1, 2, 3])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            wedge(e(2, 1), e(3, 1))

    def test_associative_supercommutative_random(self):
        s = Sampler(7)
        for _ in range(60):
            dim = s.rng.randint(1, 6)
            da, db, dc = (s.rng.randint(0, dim) for _ in range(3))
            a, b, c = (s.ext_form(dim, degree=d) for d in (da, db, dc))
            assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
            sign = -1 if (da * db) % 2 else 1
            assert wedge(a, b) == wedge(b, a) * Fraction(sign)


def iota(i: int, a: HForm) -> HForm:
    """The library's e_i |- a: ``contract_vector`` by the unit vector e_i."""
    return contract_vector([int(k == i) for k in range(1, a.dim + 1)], a)


class TestContractions:
    """The library's front contraction e_i |- a (``contract_vector`` by a
    unit vector) pinned on monomials and by the Leibniz rule; the back one
    a -| e_i, which only the brute-force product (``oracles``) runs, pinned
    on its own and against the front one of ``oracles``."""

    def test_front_examples(self):
        e12 = mono(2, [1, 2])
        assert iota(1, e12) == e(2, 2)
        assert iota(2, e12) == -e(2, 1)
        assert iota(3, mono(3, [1, 2])).is_zero()
        assert iota(1, HForm.scalar(2, Fraction(1))).is_zero()

    def test_back_examples(self):
        e12 = mono(2, [1, 2])
        assert contract_back(e12, 2) == e(2, 1)
        assert contract_back(e12, 1) == -e(2, 2)
        assert contract_back(HForm.scalar(2, Fraction(1)), 1).is_zero()

    def test_index_range(self):
        with pytest.raises(IndexError):
            contract_vector([0, 0, 1], e(2, 1))

    def test_front_is_odd_derivation(self):
        s = Sampler(13)
        for _ in range(50):
            dim = s.rng.randint(1, 6)
            da = s.rng.randint(0, dim)
            a = s.ext_form(dim, degree=da)
            b = s.ext_form(dim, degree=s.rng.randint(0, dim))
            i = s.rng.randint(1, dim)
            lhs = iota(i, wedge(a, b))
            sign = Fraction(-1 if da % 2 else 1)
            rhs = wedge(iota(i, a), b) + wedge(a, iota(i, b)) * sign
            assert lhs == rhs

    def test_back_front_degree_relation(self):
        s = Sampler(17)
        for _ in range(50):
            dim = s.rng.randint(1, 6)
            k = s.rng.randint(1, dim)
            a = s.ext_form(dim, degree=k)
            i = s.rng.randint(1, dim)
            sign = Fraction(-1 if (k - 1) % 2 else 1)
            assert contract_back(a, i) == contract_front(i, a) * sign


class TestBivectorContract:
    def test_examples(self):
        w = Bivector(2, {(1, 2): Fraction(1)})
        assert bivector_contract(w, mono(2, [1, 2])) == HForm.scalar(2, Fraction(1))
        w3 = Bivector(3, {(1, 2): Fraction(1)})
        assert bivector_contract(w3, mono(3, [1, 3])).is_zero()
        assert bivector_contract(w3, mono(3, [1, 2, 3])) == e(3, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bivector_contract(Bivector(2, {(1, 2): Fraction(1)}), e(3, 1))

    def test_antisymmetric_storage(self):
        w = Bivector(3, {(2, 1): Fraction(5)})
        assert w.entry(1, 2) == -5
        assert w.entry(2, 1) == 5
        assert w.entry(1, 1) == 0


class TestBerezin:
    def test_examples(self):
        m = 3
        top = mono(m, [1, 2, 3])
        assert berezin_integral(top) == 1
        assert berezin_integral(e(m, 1)) == 0
        five = mono(2, [1, 2], Fraction(5)) + e(2, 1)
        assert berezin_integral(five) == 5

    def test_requires_h_free(self):
        with pytest.raises(ValueError):
            berezin_integral(HForm(2, {(1, 0): Fraction(1)}))

    def test_pairing_gram_determinant_unit(self):
        for m in range(1, 5):
            basis = [HForm(m, {(0, mask): Fraction(1)}) for mask in range(1 << m)]
            gram = [[berezin_integral(wedge(x, y)) for y in basis] for x in basis]
            d = det([[Fraction(v) for v in row] for row in gram])
            assert d in (1, -1)


class TestGradedDegree:
    def test_examples(self):
        assert HForm(2, {(1, 1): Fraction(1)}).graded_degree() == 3
        assert (mono(2, [1, 2]) + HForm(2, {(1, 0): Fraction(1)})).graded_degree() == 2
        assert (e(2, 1) + HForm(2, {(1, 0): Fraction(1)})).graded_degree() is None


class TestSymplecticStar:
    def test_darboux_m2_examples(self):
        star = StarTable(darboux_matrix(1))
        one = HForm.scalar(2, Fraction(1))
        assert symplectic_star(one, star) == mono(2, [1, 2])
        assert symplectic_star(e(2, 1), star) == e(2, 1)
        h1 = HForm(2, {(1, 0): Fraction(1)}, laurent=True)
        assert symplectic_star(h1, star) == HForm(2, {(-1, 3): Fraction(1)}, laurent=True)

    def test_polynomial_mode_with_h_rejected(self):
        with pytest.raises(ValueError):
            symplectic_star(HForm(2, {(1, 0): Fraction(1)}),
                            StarTable(darboux_matrix(1)))

    def test_involution_random(self):
        s = Sampler(23)
        for _ in range(25):
            n = s.rng.randint(1, 3)
            star = StarTable(antisymmetric_invertible(s, 2 * n))
            a = s.ext_form(2 * n, h_max=1, laurent=True)
            assert symplectic_star(symplectic_star(a, star), star) == a

    def test_star_one_is_volume(self):
        s = Sampler(29)
        from qexterior.forms import omega_form
        for _ in range(10):
            n = s.rng.randint(1, 3)
            om = antisymmetric_invertible(s, 2 * n)
            vol = HForm.scalar(2 * n, Fraction(1))
            of = omega_form(om)
            for k in range(1, n + 1):
                vol = wedge(vol, of) * Fraction(1, k)
            assert symplectic_star(HForm.scalar(2 * n, Fraction(1)),
                                   StarTable(om)) == vol

    def test_singular_or_odd_rejected(self):
        with pytest.raises(ValueError):
            symplectic_star(e(2, 1), StarTable([[Fraction(0)] * 2] * 2))
        with pytest.raises(ValueError):
            symplectic_star(e(3, 1), StarTable([[Fraction(0)] * 3] * 3))

    def test_degree_reversal(self):
        star = StarTable(darboux_matrix(2))
        for k in range(5):
            s = Sampler(100 + k)
            a = s.ext_form(4, degree=k, terms=1)
            if a.is_zero():
                continue
            img = symplectic_star(a, star)
            assert all(m.bit_count() == 4 - k for (_j, m) in img.terms)


class TestStarRowOracle:
    """StarTable.row tries only the row sets I that give each column of J
    its own row with a nonzero w* entry; the dense loop over every I
    (oracles.star_row_dense) must give the same rows, in the same order,
    value for value and type for type, and the same star."""

    @staticmethod
    def assert_rows_agree(omega, s):
        star, dense = StarTable(omega), StarTable(omega)
        dim = len(omega)
        for maskJ in range(1 << dim):
            got, want = star.row(maskJ), star_row_dense(dense, maskJ)
            assert got == want, maskJ
            assert [(comp, type(v)) for comp, v in got] == \
                [(comp, type(v)) for comp, v in want], maskJ
            dense.rows[maskJ] = want
        a = HForm(dim, {(s.rng.randint(-2, 2), m): s.nonzero_fraction()
                        for m in range(1 << dim)}, laurent=True)
        got, want = symplectic_star(a, star), symplectic_star(a, dense)
        assert got.terms == want.terms
        assert [type(c) for c in got.terms.values()] == \
            [type(c) for c in want.terms.values()]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_darboux(self, n):
        self.assert_rows_agree(darboux_matrix(n), Sampler(600 + n))

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_congruent_to_darboux(self, dim):
        # dense P give a w* of few zeros, sparse ones a w* with some
        s = Sampler(700 + dim)
        for density in (1.0, 1.0, 1.0, 0.4, 0.4, 0.4):
            self.assert_rows_agree(congruent_darboux(s, dim, density), s)


class TestFrobeniusExamples:
    def test_classical_and_deformed_pairing(self):
        w0 = Bivector(2)
        w1 = Bivector(2, {(1, 2): Fraction(1)})
        assert frobenius_pairing(e(2, 1), e(2, 2), w0) == 1
        assert frobenius_pairing(e(2, 1), e(2, 2), w1) == 1
        one = HForm.scalar(2, Fraction(1))
        assert frobenius_pairing(one, mono(2, [1, 2]), w1) == 1
