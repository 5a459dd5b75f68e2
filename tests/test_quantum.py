"""The quantum exterior product: pinned examples, algebra laws, and the
two independent oracles."""

from fractions import Fraction

import pytest

from oracles import qwedge_bruteforce, qwedge_multilinear
from qexterior.forms import Bivector, HForm, wedge
from qexterior.quantum import (bidegree_components, change_frame,
                               complex_bidegree, complex_frame_bivector,
                               frobenius_pairing, gram_matrix, j_preserves,
                               qwedge, to_complex_frame, to_real_frame,
                               transform_bivector, wwedge)
from qexterior.linalg import det
from qexterior.sampling import Sampler
from qexterior.scalars import GRat

e = HForm.basis
mono = HForm.monomial


class TestQwedgeExamples:
    def test_normalization(self):
        w = Bivector(2, {(1, 2): Fraction(1)})
        got = qwedge(e(2, 1), e(2, 2), w)
        assert got == mono(2, [1, 2]) + HForm(2, {(1, 0): Fraction(1)})

    def test_unit(self, sampler):
        for _ in range(20):
            dim = sampler.rng.randint(1, 6)
            w = sampler.antisymmetric_bivector(dim)
            a = sampler.ext_form(dim, h_max=1)
            one = HForm.scalar(dim, Fraction(1))
            assert qwedge(a, one, w) == a
            assert qwedge(one, a, w) == a

    def test_top_square_example(self):
        a = Fraction(5, 3)
        w = Bivector(2, {(1, 2): a})
        e12 = mono(2, [1, 2])
        got = qwedge(e12, e12, w)
        expect = HForm(2, {(1, 3): -2 * a, (2, 0): -a * a})
        assert got == expect
        # both independent oracles agree
        assert qwedge_bruteforce(e12, e12, w) == expect
        assert qwedge_multilinear(e12, e12, w) == expect

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qwedge(e(2, 1), e(3, 1), Bivector(2))

    def test_no_negative_h_in_polynomial_mode(self, sampler):
        for _ in range(20):
            dim = sampler.rng.randint(2, 5)
            w = sampler.antisymmetric_bivector(dim)
            a = sampler.ext_form(dim, h_max=2)
            b = sampler.ext_form(dim, h_max=2)
            prod = qwedge(a, b, w)
            assert all(j >= 0 for (j, _m) in prod.terms)
            assert not prod.laurent


class TestQwedgeLaws:
    def test_supercommutativity_random(self):
        s = Sampler(41)
        for _ in range(120):
            dim = s.rng.randint(2, 8)
            w = s.antisymmetric_bivector(dim)
            da, db = s.rng.randint(0, dim), s.rng.randint(0, dim)
            a = s.ext_form(dim, degree=da, h_max=1)
            b = s.ext_form(dim, degree=db, h_max=1)
            rhs = qwedge(b, a, w)
            if (da * db) % 2:
                rhs = -rhs
            assert qwedge(a, b, w) == rhs

    def test_associativity_random(self):
        s = Sampler(43)
        for _ in range(100):
            dim = s.rng.randint(2, 8)
            w = s.antisymmetric_bivector(dim)
            a, b, c = (s.ext_form(dim, degree=s.rng.randint(0, dim), h_max=1)
                       for _ in range(3))
            assert qwedge(qwedge(a, b, w), c, w) == qwedge(a, qwedge(b, c, w), w)

    def test_h_zero_recovers_classical(self, sampler):
        for _ in range(40):
            dim = sampler.rng.randint(1, 6)
            w = sampler.antisymmetric_bivector(dim)
            a = sampler.ext_form(dim)
            b = sampler.ext_form(dim)
            assert qwedge(a, b, w).at_h(0) == wedge(a, b)

    def test_degree_zero_central(self, sampler):
        for _ in range(20):
            dim = sampler.rng.randint(1, 6)
            w = sampler.antisymmetric_bivector(dim)
            f = sampler.fraction()
            a = sampler.ext_form(dim, h_max=1)
            assert qwedge(HForm.scalar(dim, f), a, w) == a * f

    def test_grading(self, sampler):
        for _ in range(40):
            dim = sampler.rng.randint(2, 6)
            w = sampler.antisymmetric_bivector(dim)
            da, db = sampler.rng.randint(0, dim), sampler.rng.randint(0, dim)
            a = sampler.ext_form(dim, degree=da, h_max=1)
            b = sampler.ext_form(dim, degree=db, h_max=1)
            na, nb = a.graded_degree(), b.graded_degree()
            if na is None or nb is None:
                continue
            prod = qwedge(a, b, w)
            if prod:
                assert prod.graded_degree() == na + nb

    def test_oracle_equivalence_random(self):
        s = Sampler(47)
        for _ in range(30):
            dim = s.rng.randint(1, 4)
            w = s.antisymmetric_bivector(dim)
            a = s.ext_form(dim, h_max=1)
            b = s.ext_form(dim, h_max=1)
            brute = qwedge_bruteforce(a, b, w)
            assert qwedge(a, b, w) == brute
        for _ in range(8):
            dim = s.rng.randint(1, 3)
            w = s.antisymmetric_bivector(dim)
            a = s.ext_form(dim, terms=1)
            b = s.ext_form(dim, terms=1)
            assert qwedge(a, b, w) == qwedge_multilinear(a, b, w)

    def test_basis_invariance(self):
        # change_frame substitutes e = R f; the bivector components in the
        # f-frame use the inverse rows f = R^{-1} e.
        from qexterior.linalg import matrix_inverse
        s = Sampler(53)
        for _ in range(15):
            dim = s.rng.randint(2, 4)
            w = s.antisymmetric_bivector(dim)
            rows = s.invertible_matrix(dim)
            a = s.ext_form(dim, h_max=1)
            b = s.ext_form(dim, h_max=1)
            w_new = transform_bivector(w, matrix_inverse(rows))
            lhs = change_frame(qwedge(a, b, w), rows)
            rhs = qwedge(change_frame(a, rows), change_frame(b, rows), w_new)
            assert lhs == rhs

    def test_laurent_mode_shared_implementation(self, sampler):
        dim = 3
        w = sampler.antisymmetric_bivector(dim)
        a = sampler.ext_form(dim, h_max=2, laurent=True)
        b = sampler.ext_form(dim, h_max=2, laurent=True)
        prod = qwedge(a, b, w)
        assert prod.laurent
        assert prod == qwedge_bruteforce(a, b, w)


class TestFrobenius:
    def test_pairing_associativity_random(self):
        s = Sampler(59)
        for _ in range(60):
            dim = s.rng.randint(2, 6)
            w = s.antisymmetric_bivector(dim)
            a, b, c = (s.ext_form(dim, degree=s.rng.randint(0, dim))
                       for _ in range(3))
            lhs = frobenius_pairing(wwedge(a, b, w), c, w)
            rhs = frobenius_pairing(a, wwedge(b, c, w), w)
            assert lhs == rhs

    def test_super_symmetry(self):
        s = Sampler(61)
        for _ in range(40):
            dim = s.rng.randint(2, 5)
            w = s.antisymmetric_bivector(dim)
            da, db = s.rng.randint(0, dim), s.rng.randint(0, dim)
            a = s.ext_form(dim, degree=da)
            b = s.ext_form(dim, degree=db)
            sign = Fraction(-1 if (da * db) % 2 else 1)
            assert frobenius_pairing(a, b, w) == sign * frobenius_pairing(b, a, w)

    def test_gram_nondegenerate(self):
        s = Sampler(67)
        for dim in range(2, 6):
            w = s.antisymmetric_bivector(dim)
            g = gram_matrix(w)
            assert det([[Fraction(x) for x in row] for row in g]) != 0


class TestComplexification:
    def test_bidegrees(self):
        # dim 2: dz = f^1, dzbar = f^2 in the complex frame
        dz = HForm.basis(2, 1)
        assert complex_bidegree(dz) == (1, 0)
        h1 = HForm(2, {(1, 0): GRat(1)})
        assert complex_bidegree(h1) == (1, 1)
        mixed = dz + h1
        assert complex_bidegree(mixed) is None

    def test_bidegree_additivity(self):
        w = Bivector(2, {(1, 2): Fraction(-1)})
        wc = complex_frame_bivector(w)
        dz_dzbar = HForm.monomial(2, [1, 2], GRat(1))
        h1 = HForm(2, {(1, 0): GRat(1)})
        prod = qwedge(dz_dzbar, h1, wc)
        assert complex_bidegree(prod) == (2, 2)

    def test_j_preservation_check(self):
        assert j_preserves(Bivector(2, {(1, 2): Fraction(-1)}))
        assert not j_preserves(Bivector(4, {(1, 3): Fraction(1)}))
        with pytest.raises(ValueError):
            complex_frame_bivector(Bivector(4, {(1, 3): Fraction(1)}))

    def test_frame_roundtrip(self, sampler):
        for _ in range(20):
            n = sampler.rng.randint(1, 2)
            a = sampler.ext_form(2 * n, h_max=1).map_coeffs(GRat.coerce)
            assert to_real_frame(to_complex_frame(a)) == a

    def test_bidegree_product_inclusion(self):
        s = Sampler(71)
        w = Bivector(4, {(1, 2): Fraction(-1), (3, 4): Fraction(-1)})
        wc = complex_frame_bivector(w)
        for _ in range(25):
            a = s.ext_form(4, h_max=1).map_coeffs(GRat.coerce)
            b = s.ext_form(4, h_max=1).map_coeffs(GRat.coerce)
            for pa, fa in bidegree_components(a).items():
                for pb, fb in bidegree_components(b).items():
                    prod = qwedge(fa, fb, wc)
                    if prod:
                        assert complex_bidegree(prod) == (pa[0] + pb[0],
                                                          pa[1] + pb[1])
