"""Polynomials and Laurent polynomials in the deformation parameter h.

Both rings are Euclidean domains over an exact base field (Fraction or
GRat), which is what the Smith-normal-form machinery needs.  The parameter
h carries grading weight 2 throughout the engine.

Canonical unit normalization (used for invariant factors):

* ``HPoly``   -- units are nonzero constants; canonical form is monic.
* ``HLaurent`` -- units are ``c*h^j`` with ``c != 0``; canonical form is a
  monic polynomial with nonzero constant term.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GRat, RatLike, as_scalar, scalar_to_json


class HPoly:
    """Element of k[h]; sparse map from exponent to base-field coefficient."""

    __slots__ = ("coeffs",)
    laurent = False

    def __init__(self, coeffs=None):
        terms = {}
        if coeffs:
            for j, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                c = as_scalar(c)
                if c:
                    terms[j] = terms[j] + c if j in terms else c
                    if not terms[j]:
                        del terms[j]
        for j in terms:
            self._check_exp(j)
        self.coeffs = terms

    @staticmethod
    def _check_exp(j):
        if j < 0:
            raise ValueError("negative h-exponent in polynomial ring")

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    @classmethod
    def h(cls, j: int = 1, c=1):
        return cls({j: c})

    @classmethod
    def from_scalar(cls, c):
        return cls({0: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def degree(self) -> int:
        """Degree in h; -1 for the zero element."""
        return max(self.coeffs) if self.coeffs else -1

    def valuation(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def leading(self):
        return self.coeffs[self.degree()]

    def constant(self):
        return self.coeffs.get(0, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, HPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (GRat, *RatLike)):
            if not other:
                return not self.coeffs
            return set(self.coeffs) == {0} and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        if set(self.coeffs) <= {0}:
            return hash(self.constant())    # as the scalar it equals
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if not isinstance(other, HPoly):
            other = type(self).from_scalar(as_scalar(other))
        cls = _join(type(self), type(other))
        out = dict(self.coeffs)
        for j, c in other.coeffs.items():
            s = out.get(j, 0) + c
            if s:
                out[j] = s
            else:
                out.pop(j, None)
        return cls(out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)({j: -c for j, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, HPoly):
            other = type(self).from_scalar(as_scalar(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, HPoly):
            c = as_scalar(other)
            return type(self)({j: a * c for j, a in self.coeffs.items()})
        cls = _join(type(self), type(other))
        out = {}
        for j1, c1 in self.coeffs.items():
            for j2, c2 in other.coeffs.items():
                j = j1 + j2
                s = out.get(j, 0) + c1 * c2
                if s:
                    out[j] = s
                else:
                    out.pop(j, None)
        return cls(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} of {type(self).__name__}")
        out = type(self).one()
        for _ in range(k):
            out = out * self
        return out

    # -- Euclidean structure -------------------------------------------------

    def euclid_size(self) -> int:
        """Euclidean norm used by SNF pivoting (degree)."""
        return self.degree()

    def is_unit(self) -> bool:
        return set(self.coeffs) == {0}

    def unit_part(self):
        """Canonical unit u with self == u * normal form (monic)."""
        if not self.coeffs:
            raise ValueError("zero has no unit part")
        return type(self)({0: self.leading()})

    def inv_unit(self):
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        c = self.coeffs[0]
        one = Fraction(1) if not isinstance(c, GRat) else GRat(1)
        return type(self)({0: one / c})

    def normalized(self):
        """Divide out the canonical unit part (monic normal form)."""
        if not self.coeffs:
            return self
        lead = self.leading()
        return type(self)({j: c / lead for j, c in self.coeffs.items()})

    def __divmod__(self, other):
        if not isinstance(other, HPoly):
            other = type(self).from_scalar(as_scalar(other))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        cls = _join(type(self), type(other))
        rem = dict(self.coeffs)
        quo = {}
        dlead = other.leading()
        ddeg = other.degree()
        while rem:
            rdeg = max(rem)
            if rdeg < ddeg:
                break
            q = rem[rdeg] / dlead
            quo[rdeg - ddeg] = q
            for j, c in other.coeffs.items():
                k = j + rdeg - ddeg
                s = rem.get(k, 0) - q * c
                if s:
                    rem[k] = s
                else:
                    rem.pop(k, None)
        return cls(quo), cls(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError(f"{other} does not divide {self}")
        return q

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in sorted(self.coeffs, reverse=True):
            c = self.coeffs[j]
            cs = str(c)
            if isinstance(c, GRat) and not (c.re == 0 or c.im == 0):
                cs = f"({cs})"
            if j == 0:
                parts.append(cs)
            else:
                hj = "h" if j == 1 else f"h^{j}"
                parts.append(hj if cs == "1" else f"-{hj}" if cs == "-1" else f"{cs}*{hj}")
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


class HLaurent(HPoly):
    """Element of k[h, h^-1]; exponents may be negative."""

    __slots__ = ()
    laurent = True

    @staticmethod
    def _check_exp(j):
        pass

    def euclid_size(self) -> int:
        """Exponent span; units (monomials) have size 0."""
        return -1 if not self.coeffs else max(self.coeffs) - min(self.coeffs)

    def is_unit(self) -> bool:
        return len(self.coeffs) == 1

    def unit_part(self):
        """The unit lead * h^valuation with self == unit * normalized."""
        if not self.coeffs:
            raise ValueError("zero has no unit part")
        return type(self)({self.valuation(): self.leading()})

    def inv_unit(self):
        if not self.is_unit():
            raise ValueError(f"{self} is not a unit")
        (j, c), = self.coeffs.items()
        one = Fraction(1) if not isinstance(c, GRat) else GRat(1)
        return type(self)({-j: one / c})

    def normalized(self):
        """Monic with nonzero constant term: divide by lead * h^valuation."""
        if not self.coeffs:
            return self
        lead, v = self.leading(), self.valuation()
        return type(self)({j - v: c / lead for j, c in self.coeffs.items()})

    def __divmod__(self, other):
        if not isinstance(other, HPoly):
            other = type(self).from_scalar(as_scalar(other))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        va, vb = self.valuation(), other.valuation()
        a = HPoly({j - va: c for j, c in self.coeffs.items()})
        b = HPoly({j - vb: c for j, c in other.coeffs.items()})
        q, r = divmod(a, b)
        return (HLaurent({j + va - vb: c for j, c in q.coeffs.items()}),
                HLaurent({j + va: c for j, c in r.coeffs.items()}))


def _join(a, b):
    return HLaurent if (a is HLaurent or b is HLaurent) else HPoly


def poly_gcd(a: HPoly, b: HPoly) -> HPoly:
    """Monic gcd in k[h] (Euclid); works for HLaurent via its divmod."""
    cls = _join(type(a), type(b))
    a, b = cls(dict(a.coeffs)), cls(dict(b.coeffs))
    while not b.is_zero():
        a, b = b, divmod(a, b)[1]
    return a.normalized() if not a.is_zero() else a


def hpoly_to_json(p: HPoly):
    return [[j, scalar_to_json(p.coeffs[j])] for j in sorted(p.coeffs)]
