"""Base scalars, h-polynomial rings, and coefficient algebras."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.hpoly import HLaurent, HPoly, poly_gcd, hpoly_to_json
from qexterior.scalars import GRat, I, scalar_from_json, scalar_to_json

fractions_st = st.builds(Fraction,
                         st.integers(min_value=-30, max_value=30),
                         st.integers(min_value=1, max_value=12))
grats_st = st.builds(GRat, fractions_st, fractions_st)


def hpoly_st(laurent=False):
    lo = -3 if laurent else 0
    cls = HLaurent if laurent else HPoly
    return st.dictionaries(st.integers(min_value=lo, max_value=4),
                           fractions_st, max_size=4).map(cls)


def polycoeff_st(dim=2):
    keys = st.tuples(*[st.integers(min_value=0, max_value=3)] * dim)
    return st.dictionaries(keys, fractions_st, max_size=3).map(
        lambda d: PolyCoeff(dim, d))


def fouriercoeff_st(dim=2):
    keys = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim)
    return st.dictionaries(keys, grats_st, max_size=3).map(
        lambda d: FourierCoeff(dim, d))


class TestGRat:
    def test_basics(self):
        assert I * I == -1
        assert GRat(2) / GRat(0, 1) == GRat(0, -2)

    def test_division_inverse(self):
        z = GRat(Fraction(3, 7), Fraction(2, 5))
        assert z * (GRat(1) / z) == 1

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            GRat(1) / GRat(0)

    @given(grats_st, grats_st, grats_st)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    def test_serialization_roundtrip(self):
        z = GRat(Fraction(-2, 3), Fraction(5, 7))
        assert scalar_from_json(scalar_to_json(z)) == z
        q = Fraction(9, 4)
        assert scalar_from_json(scalar_to_json(q)) == q

    @pytest.mark.parametrize("text,value", [
        ("1e4300", Fraction(10) ** 4300),
        (" -2.5E-4_300 ", Fraction(-25, 10) / Fraction(10) ** 4300),
        ("7" * 4300, Fraction(int("7" * 4300))),
        ("3/4", Fraction(3, 4)),
    ])
    def test_rational_strings_within_budget(self, text, value):
        assert scalar_from_json(text) == value

    def test_long_integers_written_in_full(self):
        # str refuses ints past 4,300 digits; read back in short chunks
        def read(digits):
            value = 0
            for i in range(0, len(digits), 1000):
                chunk = digits[i:i + 1000]
                value = value * 10 ** len(chunk) + int(chunk)
            return value

        for n in (10 ** 600, 2 ** 14000 - 1, 7 ** 5000, 10 ** 12000 - 1,
                  10 ** 9000 + 10 ** 300):
            for sign in (1, -1):
                digits = scalar_to_json(Fraction(sign * n))
                assert digits[0] != "0" and read(digits.lstrip("-")) == n
                assert digits.startswith("-") == (sign < 0)
        big = 10 ** 5000 + 1
        assert scalar_to_json(Fraction(-big, 7)) == \
            "-1" + "0" * 4999 + "1/7"
        assert scalar_to_json(GRat(0, Fraction(3, big))) == \
            {"re": "0", "im": "3/1" + "0" * 4999 + "1"}

    @given(st.integers(min_value=-10 ** 700, max_value=10 ** 700),
           st.integers(min_value=1, max_value=10 ** 700))
    @settings(max_examples=60, deadline=None)
    def test_short_integers_keep_str_bytes(self, num, den):
        q = Fraction(num, den)
        assert scalar_to_json(q) == str(q)


class TestHPoly:
    def test_grading_and_basics(self):
        p = HPoly({0: 1, 2: Fraction(3, 2)})
        assert p.degree() == 2
        assert (p - p).is_zero()
        assert HPoly.h() * HPoly.h() == HPoly({2: 1})

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            HPoly({-1: 1})
        HLaurent({-1: 1})  # fine

    @given(hpoly_st(), hpoly_st(), hpoly_st())
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(hpoly_st(laurent=True), hpoly_st(laurent=True), hpoly_st(laurent=True))
    @settings(max_examples=60, deadline=None)
    def test_laurent_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(hpoly_st(), hpoly_st())
    @settings(max_examples=60, deadline=None)
    def test_divmod(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.degree() < b.degree()

    @given(hpoly_st(laurent=True), hpoly_st(laurent=True))
    @settings(max_examples=60, deadline=None)
    def test_laurent_divmod(self, a, b):
        if b.is_zero():
            return
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero() or r.euclid_size() < b.euclid_size()

    def test_laurent_units(self):
        u = HLaurent({-3: Fraction(2)})
        assert u.is_unit()
        assert u * u.inv_unit() == HLaurent.one()
        assert not HLaurent({0: 1, 1: 1}).is_unit()

    def test_normalized_forms(self):
        p = HPoly({2: Fraction(2), 0: Fraction(4)})
        assert p.normalized().leading() == 1
        q = HLaurent({-2: Fraction(3), 1: Fraction(6)})
        nq = q.normalized()
        assert nq.valuation() == 0 and nq.leading() == 1
        assert q.unit_part() * nq == q

    def test_gcd(self):
        a = HPoly({2: 1, 1: -2, 0: 1})        # (h-1)^2
        b = HPoly({1: 1, 0: -1})              # h-1
        assert poly_gcd(a, b) == b

    def test_json_encoding(self):
        p = HLaurent({-1: GRat(0, Fraction(1, 2)), 2: Fraction(3)})
        assert hpoly_to_json(p) == [[-1, {"re": "0", "im": "1/2"}], [2, "3"]]

    def test_negative_power_rejected(self):
        # a negative exponent used to return one silently
        assert HPoly.h(1) ** 3 == HPoly.h(3)
        assert HLaurent.h(-1) ** 0 == 1
        for p in (HPoly.h(1), HLaurent.h(1), HLaurent.h(-2, 3)):
            with pytest.raises(ValueError):
                p ** -1
        with pytest.raises(ValueError):
            HPoly.h(1) ** -2


def equal_scalar_pairs():
    """(element, scalar) pairs that compare equal, zero included."""
    for cls in (HPoly, HLaurent):
        yield cls.one(), Fraction(1)
        yield cls.from_scalar(Fraction(-3, 4)), Fraction(-3, 4)
        yield cls.from_scalar(GRat(2, 1)), GRat(2, 1)
        yield cls.zero(), 0
        yield cls({0: 5}), 5
    for cls in (PolyCoeff, FourierCoeff):
        for dim in (1, 2):
            yield cls.one(dim), 1
            yield cls.const(dim, 3), 3
            yield cls.const(dim, Fraction(1, 2)), Fraction(1, 2)
            yield cls.const(dim, GRat(0, 7)), GRat(0, 7)
            yield cls.zero(dim), Fraction(0)


class TestHashMatchesEquality:
    """Elements equal to a scalar hash like it, so sets and dict keys
    treat them as one."""

    def test_constants_hash_like_their_scalar(self):
        # e.g. {HPoly.one(), Fraction(1)} used to have two elements
        for x, c in equal_scalar_pairs():
            assert x == c and hash(x) == hash(c), (x, c)
            assert len({x, c}) == 1 and {c: 0}[x] == 0

    def test_constants_of_any_dimension_or_class_are_one_key(self):
        # PolyCoeff.const(2, 1) and PolyCoeff.const(3, 1) both equal
        # Fraction(1); they must equal each other for a set to hold one
        # element whatever the order of insertion
        ones = [PolyCoeff.const(2, 1), PolyCoeff.const(3, 1),
                FourierCoeff.const(2, 1), FourierCoeff.const(1, GRat(1))]
        for a in ones:
            for b in ones:
                assert a == b and hash(a) == hash(b), (a, b)
        assert len({*ones, Fraction(1)}) == 1
        assert len({Fraction(1), *ones}) == 1
        zeros = [PolyCoeff.zero(2), PolyCoeff.zero(3), FourierCoeff.zero(1)]
        assert len({*zeros, 0}) == len({0, *zeros}) == 1
        assert PolyCoeff.const(2, 1) != PolyCoeff.const(3, 2)
        assert PolyCoeff.const(2, 1) != FourierCoeff.const(2, 2)

    def test_nonconstants_differ_across_dimension_or_class(self):
        x = PolyCoeff.variable(2, 1)
        assert x != PolyCoeff.variable(3, 1)
        assert x + 1 != PolyCoeff.variable(3, 1) + 1
        c = FourierCoeff.character(2, (1, 0))
        assert c != PolyCoeff(2, {(1, 0): 1}) and c != x
        assert x == PolyCoeff(2, {(1, 0): 1})
        assert len({x, PolyCoeff.variable(3, 1), 1}) == 3

    def test_nonconstants_still_hash_by_terms(self):
        assert hash(HPoly.h(1)) == hash(HLaurent.h(1))
        assert HPoly({0: 1, 1: 2}) == HPoly({1: 2, 0: 1})
        assert hash(HPoly({0: 1, 1: 2})) == hash(HPoly({1: 2, 0: 1}))
        x = PolyCoeff.variable(2, 1)
        assert hash(x * 2) == hash(x + x)


class TestCoefficients:
    def test_poly_partial(self):
        x1 = PolyCoeff.variable(2, 1)
        x2 = PolyCoeff.variable(2, 2)
        f = x1 * x1 * x2
        assert f.partial(1) == x1 * x2 * 2
        assert PolyCoeff.const(2, 5).partial(2).is_zero()

    def test_fourier_partial(self):
        c = FourierCoeff.character(2, (1, 0))
        assert c.partial(1) == c * GRat(0, 1)
        assert c.partial(2).is_zero()

    def test_partial_out_of_range(self):
        with pytest.raises(IndexError):
            PolyCoeff.one(2).partial(3)
        with pytest.raises(IndexError):
            FourierCoeff.one(2).partial(0)

    def test_total_integral(self):
        assert FourierCoeff.character(2, (1, 0)).total_integral() == 0
        assert FourierCoeff.const(2, Fraction(3, 4)).total_integral() == Fraction(3, 4)
        c = FourierCoeff.const(2, 2) + FourierCoeff.character(2, (1, 1))
        assert c.total_integral() == 2

    @given(polycoeff_st(), polycoeff_st(), polycoeff_st())
    @settings(max_examples=40, deadline=None)
    def test_poly_ring_axioms(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(fouriercoeff_st())
    @settings(max_examples=40, deadline=None)
    def test_partials_commute(self, c):
        assert c.partial(1).partial(2) == c.partial(2).partial(1)

    @given(polycoeff_st())
    @settings(max_examples=40, deadline=None)
    def test_poly_partials_commute(self, c):
        assert c.partial(1).partial(2) == c.partial(2).partial(1)
