"""Coefficient algebras on the two model-space families.

``PolyCoeff``    -- polynomial functions on affine R^m.
``FourierCoeff`` -- finite Fourier sums sum_k c_k exp(i k.theta) on T^m.

Both are closed under product and partial derivative, which keeps every
operator in the engine exact and finite.  The torus volume is normalized
to 1, so integrating a Fourier sum extracts its zero mode.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GRat, as_scalar, scalar_to_json


class _SparseFunc:
    """Shared sparse map {exponent-or-frequency tuple: scalar}."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        data = {}
        if terms:
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                key = tuple(int(k) for k in key)
                if len(key) != dim:
                    raise ValueError(f"key {key} does not match dimension {dim}")
                self._check_key(key)
                c = as_scalar(c)
                if c:
                    s = data.get(key, 0) + c
                    if s:
                        data[key] = s
                    else:
                        data.pop(key, None)
        self.terms = data

    @staticmethod
    def _check_key(key):
        pass

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    @classmethod
    def const(cls, dim: int, c):
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def one(cls, dim: int):
        return cls.const(dim, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * self.dim}

    def constant_value(self):
        return self.terms.get((0,) * self.dim, Fraction(0))

    def __eq__(self, other):
        if isinstance(other, _SparseFunc):
            if type(other) is type(self) and other.dim == self.dim:
                return self.terms == other.terms
            # constants of any class and dimension compare as the scalar
            # they equal (and hash like), so equality stays transitive
            return self.is_constant() and other.is_constant() and \
                self.constant_value() == other.constant_value()
        if isinstance(other, (int, Fraction, GRat)):
            if not other:
                return not self.terms
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self):
        if self.is_constant():
            return hash(self.constant_value())    # as the scalar it equals
        return hash((self.dim, frozenset(self.terms.items())))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            other = type(self).const(self.dim, as_scalar(other))
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return type(self)(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return type(self)(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            other = type(self).const(self.dim, as_scalar(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, type(self)):
            c = as_scalar(other)
            if not c:
                return type(self)(self.dim)
            return type(self)(self.dim, {k: a * c for k, a in self.terms.items()})
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = self._combine(k1, k2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return type(self)(self.dim, out)

    __rmul__ = __mul__

    @staticmethod
    def _combine(k1, k2):
        return tuple(a + b for a, b in zip(k1, k2))

    def __repr__(self):
        return f"{type(self).__name__}({self.dim}, {self.terms!r})"


class PolyCoeff(_SparseFunc):
    """Polynomial in x_1..x_m with exact scalar coefficients."""

    __slots__ = ()

    @staticmethod
    def _check_key(key):
        if any(e < 0 for e in key):
            raise ValueError("negative exponent in polynomial coefficient")

    @classmethod
    def variable(cls, dim: int, axis: int):
        """The coordinate function x_axis (1-based)."""
        if not 1 <= axis <= dim:
            raise IndexError(f"axis {axis} out of range 1..{dim}")
        key = tuple(1 if i == axis - 1 else 0 for i in range(dim))
        return cls(dim, {key: 1})

    def partial(self, axis: int) -> "PolyCoeff":
        if not 1 <= axis <= self.dim:
            raise IndexError(f"axis {axis} out of range 1..{self.dim}")
        a = axis - 1
        out = {}
        for key, c in self.terms.items():
            e = key[a]
            if e:
                k2 = key[:a] + (e - 1,) + key[a + 1:]
                s = out.get(k2, 0) + c * e
                if s:
                    out[k2] = s
        return PolyCoeff(self.dim, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            mono = "*".join(f"x{i+1}" + (f"^{e}" if e > 1 else "")
                            for i, e in enumerate(key) if e)
            c = str(self.terms[key])
            parts.append(c if not mono else mono if c == "1" else f"{c}*{mono}")
        return " + ".join(parts)


class FourierCoeff(_SparseFunc):
    """Finite sum of characters sum_k c_k exp(i k.theta), c_k Gaussian."""

    __slots__ = ()

    def __init__(self, dim, terms=None):
        super().__init__(dim, terms)
        self.terms = {k: GRat.coerce(c) for k, c in self.terms.items()}

    @classmethod
    def character(cls, dim: int, freq, c=1):
        """c * exp(i <freq, theta>)."""
        return cls(dim, {tuple(freq): c})

    def partial(self, axis: int) -> "FourierCoeff":
        if not 1 <= axis <= self.dim:
            raise IndexError(f"axis {axis} out of range 1..{self.dim}")
        a = axis - 1
        out = {}
        for key, c in self.terms.items():
            if key[a]:
                out[key] = c * GRat(0, key[a])
        return FourierCoeff(self.dim, out)

    def total_integral(self) -> GRat:
        """Integral over the torus with volume normalized to 1."""
        return self.terms.get((0,) * self.dim, GRat(0))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.terms[key]
            cs = str(c)
            if not (c.im == 0 or c.re == 0):
                cs = f"({cs})"
            if any(key):
                arg = "+".join(f"{k}t{i+1}" for i, k in enumerate(key) if k)
                mono = f"e(i({arg}))"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
            else:
                parts.append(cs)
        return " + ".join(parts)


def coeff_to_json(c):
    if isinstance(c, PolyCoeff):
        return {"poly": [[list(k), scalar_to_json(v)]
                         for k, v in sorted(c.terms.items())]}
    if isinstance(c, FourierCoeff):
        return {"fourier": [[list(k), scalar_to_json(v)]
                            for k, v in sorted(c.terms.items())]}
    return scalar_to_json(c)
