"""The quantum exterior product: pinned examples, algebra laws, and the
two independent oracles."""

import hashlib
import json
from fractions import Fraction

import pytest

from oracles import (bidegree_components, change_frame, complex_bidegree,
                     invertible_matrix, qwedge_bruteforce, qwedge_cascade,
                     qwedge_multilinear, thinned_bivector, to_complex_frame,
                     to_real_frame)
from qexterior import _kernels as K
from qexterior.cli import main
from qexterior.forms import Bivector, HForm, wedge
from qexterior.quantum import (complex_frame_bivector, frobenius_pairing,
                               gram_matrix, j_preserves, qwedge,
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
        with pytest.raises(ValueError, match="^dimension mismatch 2 != 3$"):
            qwedge(e(2, 1), e(3, 1), Bivector(2))
        with pytest.raises(ValueError,
                           match="^bivector dimension mismatch 2 != 3$"):
            qwedge(e(3, 1), e(3, 2), Bivector(2))

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
            rows = invertible_matrix(s, dim)
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


def typed_terms(f: HForm):
    """Terms with each coefficient's type, so Fraction(2) != GRat(2)."""
    return f.laurent, {k: (type(c), c) for k, c in f.terms.items()}


def grat_form(s: Sampler, f: HForm) -> HForm:
    return f.map_coeffs(lambda c: GRat(c, s.fraction()))


class TestMinorExpansion:
    """The minor expansion against the cascade it replaced and the literal
    ordered-tuple expansion, term for term and type for type."""

    @pytest.mark.parametrize("density", ["0.0", "0.3", "1.0"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6])
    def test_matches_cascade(self, dim, density):
        s = Sampler(1000 * dim + int(10 * Fraction(density)))
        for t in range(12):
            w = thinned_bivector(s, dim, density)
            a = s.ext_form(dim, terms=s.rng.randint(1, 4), h_max=1)
            b = s.ext_form(dim, terms=s.rng.randint(1, 4), h_max=1)
            if t % 3 == 1:
                a, b = grat_form(s, a), grat_form(s, b)
            elif t % 3 == 2:
                w = w.map_entries(lambda x: GRat(x, s.fraction()))
                a, b = grat_form(s, a), grat_form(s, b)
            assert typed_terms(qwedge(a, b, w)) == \
                typed_terms(qwedge_cascade(a, b, w))

    def test_matches_cascade_dim8(self):
        s = Sampler(88)
        for density in ("0.3", "1.0"):
            for _ in range(3):
                w = thinned_bivector(s, 8, density)
                a = s.ext_form(8, terms=3, h_max=1)
                b = s.ext_form(8, terms=3, h_max=1)
                assert typed_terms(qwedge(a, b, w)) == \
                    typed_terms(qwedge_cascade(a, b, w))

    def test_matches_bruteforce(self):
        s = Sampler(89)
        for t in range(40):
            dim = 1 + t % 4
            w = thinned_bivector(s, dim, s.rng.choice(["0.0", "0.5", "1.0"]))
            a = s.ext_form(dim, terms=2, h_max=1)
            b = s.ext_form(dim, terms=2, h_max=1)
            if t % 2:
                a, b = grat_form(s, a), grat_form(s, b)
            assert typed_terms(qwedge(a, b, w)) == \
                typed_terms(qwedge_bruteforce(a, b, w))

    def test_zero_bivector_is_wedge(self):
        s = Sampler(90)
        for dim in range(1, 7):
            a = s.ext_form(dim, terms=3, h_max=1)
            b = s.ext_form(dim, terms=3, h_max=1)
            assert typed_terms(qwedge(a, b, Bivector.zero(dim))) == \
                typed_terms(wedge(a, b))

    def test_laurent_negative_exponents(self):
        s = Sampler(91)
        for t in range(30):
            dim = 2 + t % 5
            w = thinned_bivector(s, dim, s.rng.choice(["0.3", "1.0"]))
            a = s.ext_form(dim, terms=3, h_max=2, laurent=True).h_shift(-1)
            b = s.ext_form(dim, terms=3, h_max=2, laurent=True)
            got = qwedge(a, b, w)
            assert typed_terms(got) == typed_terms(qwedge_cascade(a, b, w))
            if dim <= 3:
                assert typed_terms(got) == \
                    typed_terms(qwedge_bruteforce(a, b, w))

    def test_polynomial_bivector_so3(self):
        s = Sampler(92)
        model = s.jacobi_model("so3")
        for _ in range(15):
            a = s.model_form(model, terms=3)
            b = s.model_form(model, terms=3)
            got = qwedge(a, b, model.w)
            assert typed_terms(got) == \
                typed_terms(qwedge_cascade(a, b, model.w))
            assert typed_terms(got) == \
                typed_terms(qwedge_bruteforce(a, b, model.w))


# Pairwise coprime denominators: the common denominators of a table and of
# a form are products of several, so a wrong scale or lcm shows.
DENS = (7, 11, 13)


def rational(s: Sampler, big: bool) -> Fraction:
    bound = 10 ** 30 if big else 6
    return Fraction(s.rng.randint(-bound, bound), s.rng.choice(DENS))


def rational_bivector(s: Sampler, dim: int, big: bool) -> Bivector:
    return Bivector(dim, {(i, j): rational(s, big)
                          for i in range(1, dim + 1)
                          for j in range(i + 1, dim + 1)
                          if s.rng.random() < 0.7})


def rational_form(s: Sampler, dim: int, big: bool, terms: int = 3,
                  degree=None, h=(0, 1), laurent=False) -> HForm:
    data = {}
    for _ in range(terms):
        d = s.rng.randint(0, dim) if degree is None else degree
        key = (s.rng.randint(*h), s.mask(dim, d))
        data[key] = data.get(key, Fraction(0)) + rational(s, big)
    return HForm(dim, data, laurent)


class TestIntegerProduct:
    """All-Fraction products run in ints over one common denominator; the
    oracles still see Fractions, term for term and type for type."""

    @pytest.mark.parametrize("big", [False, True])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_matches_oracles(self, dim, big):
        s = Sampler(2000 + 10 * dim + big)
        for _ in range(6 if dim > 4 else 10):
            w = rational_bivector(s, dim, big)
            a = rational_form(s, dim, big, terms=s.rng.randint(1, 3))
            b = rational_form(s, dim, big, terms=s.rng.randint(1, 3))
            got = typed_terms(qwedge(a, b, w))
            assert got == typed_terms(qwedge_cascade(a, b, w))
            if dim <= 4:
                assert got == typed_terms(qwedge_bruteforce(a, b, w))

    def test_laurent_negative_exponents(self):
        s = Sampler(2100)
        for t in range(24):
            dim = 1 + t % 6
            big = t % 2 == 1
            w = rational_bivector(s, dim, big)
            a = rational_form(s, dim, big, h=(-2, 1), laurent=True)
            b = rational_form(s, dim, big, h=(-1, 2), laurent=True)
            got = typed_terms(qwedge(a, b, w))
            assert got == typed_terms(qwedge_cascade(a, b, w))
            if dim <= 3:
                assert got == typed_terms(qwedge_bruteforce(a, b, w))

    def test_empty_forms_and_zero_bivector(self):
        s = Sampler(2101)
        for dim in range(1, 9):
            w = rational_bivector(s, dim, True)
            a = rational_form(s, dim, True)
            zero = HForm.zero(dim)
            for x, y in ((zero, a), (a, zero), (zero, zero)):
                assert typed_terms(qwedge(x, y, w)) == typed_terms(zero)
            b = rational_form(s, dim, True)
            assert typed_terms(qwedge(a, b, Bivector.zero(dim))) == \
                typed_terms(wedge(a, b))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_one_side_h0_only(self, side):
        # Degree-0 masks on one side: no contraction at all (K = 0).  And
        # h-exponent 0 on one side against higher powers on the other.
        s = Sampler(2102 + (side == "right"))
        for t in range(24):
            dim = 1 + t % 8
            w = rational_bivector(s, dim, t % 2 == 1)
            flat = rational_form(s, dim, True, degree=0 if t % 3 else None,
                                 h=(0, 0))
            other = rational_form(s, dim, True, h=(0, 2))
            a, b = (flat, other) if side == "left" else (other, flat)
            got = typed_terms(qwedge(a, b, w))
            assert got == typed_terms(qwedge_cascade(a, b, w))
            if dim <= 3:
                assert got == typed_terms(qwedge_bruteforce(a, b, w))


class TestMixedTypes:
    """Under a bivector with entries, every coefficient of a product has the
    type of coefficient x entry, h^0 terms included."""

    def test_one_coefficient_type_per_product(self):
        s = Sampler(2200)
        so3 = s.jacobi_model("so3")
        count = 0
        for t in range(60):
            case = t % 4
            dim = 3 if case >= 2 else 2 + t % 5
            a = s.ext_form(dim, terms=3, h_max=1)
            b = s.ext_form(dim, terms=3, h_max=1)
            if case == 0:
                w = s.antisymmetric_bivector(dim).map_entries(
                    lambda x: GRat(x, s.fraction()))
            elif case == 1:
                w = s.antisymmetric_bivector(dim)
                a, b = a.map_coeffs(int), b.map_coeffs(int)
            elif case == 2:
                w = so3.w
            else:
                w = so3.w
                a, b = grat_form(s, a), grat_form(s, b)
            got = qwedge(a, b, w)
            assert got == qwedge_cascade(a, b, w)
            if not (w.entries and got):
                continue
            c = next(iter(a.terms.values()))
            expect = type(c * next(iter(w.entries.values())))
            assert {type(x) for x in got.terms.values()} == {expect}
            count += 1
        assert count >= 40

    def test_h0_terms_do_not_depend_on_term_order(self):
        # a form mixing coefficient types: the h^0 term 1 ^ e^2 takes the
        # type of coefficient x entry whichever term comes first
        w = Bivector(2, {(1, 2): GRat(1, 1)})
        for terms in ({(0, 1): GRat(2), (0, 0): Fraction(1)},
                      {(0, 0): Fraction(1), (0, 1): GRat(2)}):
            got = qwedge(HForm(2, terms), e(2, 2), w)
            assert {type(x) for x in got.terms.values()} == {GRat}
            assert got.terms == {(0, 3): GRat(2), (1, 0): GRat(2, 2),
                                 (0, 2): GRat(1)}


class TestQwedgeTable:
    """Each bivector owns its table; equal entries give equal products."""

    def test_equal_bivectors_share_results(self):
        s = Sampler(93)
        entries = {(1, 2): Fraction(2), (1, 3): Fraction(-1, 3),
                   (2, 4): Fraction(5)}
        w1, w2 = Bivector(4, entries), Bivector(4, dict(entries))
        for _ in range(10):
            a = s.ext_form(4, terms=3, h_max=1)
            b = s.ext_form(4, terms=3, h_max=1)
            assert typed_terms(qwedge(a, b, w1)) == \
                typed_terms(qwedge(a, b, w2))
        assert w1.table is w1.table and w1.table is not w2.table

    def test_entries_are_read_only(self):
        w = Bivector(2, {(1, 2): Fraction(1)})
        with pytest.raises(TypeError):
            w.entries[(1, 2)] = Fraction(3)
        with pytest.raises(TypeError):
            del w.entries[(1, 2)]
        assert qwedge(e(2, 1), e(2, 2), w).coeff(h=1) == 1
        assert repr(w) == "Bivector(2, {(1, 2): Fraction(1, 1)})"

    def test_entry_type_is_part_of_the_key(self):
        # Fraction(2) == GRat(2) with equal hashes; the products still carry
        # the type of the entries they were built from.
        e1, e2 = e(2, 1), e(2, 2)
        for entry in (Fraction(2), GRat(2), Fraction(2)):
            got = qwedge(e1, e2, Bivector(2, {(1, 2): entry}))
            assert type(got.coeff(h=1)) is type(entry)
        rational = Bivector(2, {(1, 2): Fraction(2)}).table
        gaussian = Bivector(2, {(1, 2): GRat(2)}).table
        assert (rational.D, gaussian.D) == (1, None)

    def test_caches_stay_bounded(self):
        for i in range(70):
            for j in range(70):
                K.qwedge_plan(1 << i, 1 << j)
        assert K.qwedge_plan.cache_info().currsize == K._PLANS


def products_bytes() -> bytes:
    """Canonical rendering of 50 seeded products, coefficient types included."""
    s = Sampler(5150)
    rows = []
    for t in range(50):
        dim = 2 + t % 5
        w = thinned_bivector(s, dim, s.rng.choice(["0.4", "1.0"]))
        a = s.ext_form(dim, terms=3, h_max=1)
        b = s.ext_form(dim, terms=3, h_max=1)
        if t % 2:
            a = a.map_coeffs(lambda c: GRat(c, s.fraction()))
            b = b.map_coeffs(lambda c: GRat(c, s.fraction()))
        prod = qwedge(a, b, w)
        rows.append(sorted([j, m, type(c).__name__, str(c)]
                           for (j, m), c in prod.terms.items()))
    return json.dumps(rows, separators=(",", ":")).encode()


class TestPinnedOutputs:
    """sha256 of outputs recorded while the engine still summed ordered
    contractions level by level: a changed answer fails here."""

    def test_seeded_products(self):
        assert hashlib.sha256(products_bytes()).hexdigest() == \
            "ab0291207df9e55247f310864f32539b0a4986402fdfe27cbc6d9e5c6ac96aa8"

    def test_lefschetz_report(self, tmp_path):
        out = tmp_path / "lefschetz.json"
        assert main(["lefschetz", "--n", "2", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "132048c81a26ff2e78e5f6ebc1b28e43ede50f1d1f8449c4a81356269fc70f2a"

    # Recorded when the commutator check still applied L_h and L_h* form
    # by form.
    @pytest.mark.parametrize("n,digest", [
        (1, "a05f298962f0cdd769553de094d27c14904c190375ea55ef79015eb24cfd58ea"),
        (3, "92f62d87bf3c4a01278a637bcf385b8fe08ec1c0cb1a93f648a1be6be14d8404"),
        # recorded with the cap still at n = 3 and the blocks certified
        # by transport
        (4, "ca0a113f5770f09b589c0343a0dfc9be4e5709ba81c6c63a5d399f3ef2094fab"),
        (5, "55e54f75c6df73962a156399e55d03e1a8d42044acc4a7093ab4b21a0b713903"),
    ])
    def test_lefschetz_report_n(self, tmp_path, n, digest):
        out = tmp_path / "lefschetz.json"
        assert main(["lefschetz", "--n", str(n), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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
