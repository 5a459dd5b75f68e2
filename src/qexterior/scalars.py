"""Exact base scalars: rationals (stdlib Fraction) and Gaussian rationals.

Every number in the engine is exact.  Plain rationals are represented by
``fractions.Fraction``; the complexified theory uses :class:`GRat`, a
Gaussian rational ``re + im*i`` with Fraction parts.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

RatLike = (int, Fraction)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class GRat:
    """Gaussian rational ``re + im*i`` with Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = as_fraction(re)
        self.im = as_fraction(im)

    @classmethod
    def coerce(cls, x) -> "GRat":
        if isinstance(x, GRat):
            return x
        return cls(as_fraction(x))

    def is_real(self) -> bool:
        return self.im == 0

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, RatLike):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        if isinstance(other, RatLike):
            return GRat(self.re + other, self.im)
        if isinstance(other, GRat):
            return GRat(self.re + other.re, self.im + other.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return GRat(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, RatLike):
            return GRat(self.re - other, self.im)
        if isinstance(other, GRat):
            return GRat(self.re - other.re, self.im - other.im)
        return NotImplemented

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, RatLike):
            return GRat(self.re * other, self.im * other)
        if isinstance(other, GRat):
            return GRat(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RatLike):
            return GRat(self.re / other, self.im / other)
        if isinstance(other, GRat):
            n = other.re * other.re + other.im * other.im
            if n == 0:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return GRat((self.re * other.re + self.im * other.im) / n,
                        (self.im * other.re - self.re * other.im) / n)
        return NotImplemented

    def __rtruediv__(self, other):
        return GRat.coerce(other) / self

    def __pow__(self, k: int):
        if k < 0:
            return GRat(1) / self ** (-k)
        out = GRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self):
        return f"GRat({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


I = GRat(0, 1)


def gaussian_integers(values):
    """(den, [(re, im), ..]): the Gaussian rationals ``values`` (ints,
    Fractions or GRats) times den, the lcm of their denominators."""
    gs = [GRat.coerce(x) for x in values]
    den = math.lcm(1, *(x.denominator for g in gs for x in (g.re, g.im)))
    return den, [(g.re.numerator * (den // g.re.denominator),
                  g.im.numerator * (den // g.im.denominator)) for g in gs]


def scalar_to_json(x):
    """Serialize a base scalar: rationals as 'p/q', Gaussian as {re, im}."""
    if isinstance(x, GRat):
        return {"re": _rational_str(x.re), "im": _rational_str(x.im)}
    return _rational_str(as_fraction(x))


def _rational_str(q: Fraction) -> str:
    """str(q) past Python's limit on the digits of an int string, which is
    left in place: it also guards json.load against huge integers."""
    if q.denominator == 1:
        return _decimal(q.numerator)
    return f"{_decimal(q.numerator)}/{_decimal(q.denominator)}"


def _decimal(n: int) -> str:
    """str(n) below 2^1993 (600 digits, within every setting of that limit);
    a longer n is split in two at a power of ten."""
    if n.bit_length() < 1994:
        return str(n)
    if n < 0:
        return "-" + _decimal(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, so 10^k < n
    hi, lo = divmod(n, 10 ** k)
    return _decimal(hi) + _decimal(lo).zfill(k)


def as_scalar(c):
    """``c`` as a base scalar: a Fraction or GRat as is, an int as a Fraction."""
    if isinstance(c, (GRat, Fraction)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"unsupported scalar {c!r}")


# Budget of a rational string: at most this many characters and a decimal
# exponent of at most this size, Python's default limit on the digits of an
# int read from a string.  Fraction expands an exponent in full, so
# "1e4000000" would cost seconds; within the budget a string costs little.
RATIONAL_BUDGET = 4300

_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def scalar_from_json(obj, what="scalar"):
    """The exact scalar a JSON value encodes: an integer or a rational
    string as a Fraction, an object {"re": x, "im": y} of those as a GRat.
    A rational string longer than ``RATIONAL_BUDGET`` characters or with a
    decimal exponent beyond +-``RATIONAL_BUDGET`` is refused before it is
    parsed.  Anything else, bools and floats included, raises ValueError."""
    if isinstance(obj, dict) and obj.keys() == {"re", "im"}:
        return GRat(_rational_from_json(obj["re"], what),
                    _rational_from_json(obj["im"], what))
    return _rational_from_json(obj, what)


def _rational_from_json(x, what) -> Fraction:
    if type(x) is int:
        return Fraction(x)
    if type(x) is str:
        if len(x) > RATIONAL_BUDGET:
            raise ValueError(f"{what} is longer than {RATIONAL_BUDGET} "
                             f"characters")
        exp = _EXPONENT.search(x)
        if exp and abs(int(exp.group(1))) > RATIONAL_BUDGET:
            raise ValueError(f"{what} has a decimal exponent beyond "
                             f"{RATIONAL_BUDGET}: {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"{what} has a zero denominator: {x!r}") from None
        except ValueError:
            pass
    raise ValueError(f"{what} must be an exact scalar, got {x!r}")
