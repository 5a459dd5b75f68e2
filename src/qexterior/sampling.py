"""Seeded random generators for forms, bivectors, and models.

Every randomized suite draws from one :class:`Sampler` over the stdlib
Mersenne Twister; the PRNG name and version are embedded in report headers
so golden files stay stable across platforms.  Every integer draw is
``below(n)``: ``k = n.bit_length()`` bits from ``getrandbits`` until the
value is under ``n``, the rule of ``random.Random.randrange(n)``.  So
``randint`` draws as ``random.Random.randint`` does and ``mask(dim, k)`` as
``random.Random.sample(range(dim), k)``, whose pool branch it repeats (the
branch ``sample`` takes for every population of at most 21): the same
values from the same stream, without the stdlib's argument checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .coeffs import FourierCoeff, PolyCoeff
from .forms import Bivector, HForm
from .models import AFFINE, PoissonModel
from .scalars import GRat

PRNG_NAME = "mt19937-stdlib-random/v1"


class Sampler:
    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self._fractions = {}    # (num, den) -> Fraction(num, den)

    def below(self, n: int) -> int:
        """A uniform int in ``[0, n)``, drawn as ``randrange(n)`` draws it."""
        if n <= 0:
            raise ValueError(f"empty range [0, {n})")
        k = n.bit_length()
        r = self.rng.getrandbits(k)
        while r >= n:
            r = self.rng.getrandbits(k)
        return r

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)

    def fraction(self, lo: int = -6, hi: int = 6, max_den: int = 3) -> Fraction:
        """``Fraction(randint(lo, hi), randint(1, max_den))``, each value
        built on its first draw and kept."""
        num = lo + self.below(hi - lo + 1)
        den = 1 + self.below(max_den)
        f = self._fractions.get((num, den))
        if f is None:
            f = self._fractions[num, den] = Fraction(num, den)
        return f

    def nonzero_fraction(self, lo: int = -6, hi: int = 6) -> Fraction:
        if lo == hi == 0:
            raise ValueError("no nonzero numerator in 0..0")
        while True:
            f = self.fraction(lo, hi)
            if f:
                return f

    def grat(self) -> GRat:
        return GRat(self.fraction(), self.fraction())

    def antisymmetric_bivector(self, dim: int) -> Bivector:
        ent = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                self.rng.getrandbits(64)  # dropped; keeps the seeded streams
                w = self.fraction()
                if w:
                    ent[(i, j)] = w
        return Bivector(dim, ent)

    def mask(self, dim: int, degree: int) -> int:
        """The bits of ``sample(range(dim), degree)``, for ``dim <= 21``."""
        if not 0 <= degree <= dim <= 21:
            raise ValueError(f"cannot draw {degree} of {dim} bits "
                             f"(0 <= degree <= dim <= 21)")
        pool = list(range(dim))
        mask = 0
        for n in range(dim, dim - degree, -1):
            j = self.below(n)
            mask |= 1 << pool[j]
            pool[j] = pool[n - 1]
        return mask

    def ext_form(self, dim: int, degree=None, terms: int = 2,
                 h_max: int = 0, laurent: bool = False) -> HForm:
        """Random constant-coefficient form; ``degree`` is exterior degree."""
        data = {}
        for _ in range(terms):
            d = degree if degree is not None else self.randint(0, dim)
            j = self.randint(-h_max if laurent else 0, h_max)
            key = (j, self.mask(dim, d))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return HForm(dim, data, laurent)

    def poly_coeff(self, dim: int, max_exp: int = 2, terms: int = 2) -> PolyCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.randint(0, max_exp) for _ in range(dim))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return PolyCoeff(dim, data)

    def fourier_coeff(self, dim: int, span: int = 1, terms: int = 2) -> FourierCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.randint(-span, span) for _ in range(dim))
            c = GRat(self.fraction())
            old = data.get(key)
            data[key] = c if old is None else old + c
        return FourierCoeff(dim, data)

    def model_coeff(self, model: PoissonModel, span: int = 1):
        if model.kind == AFFINE:
            return self.poly_coeff(model.dim, max_exp=span + 1)
        return self.fourier_coeff(model.dim, span=span)

    def model_form(self, model: PoissonModel, degree=None, terms: int = 2,
                   h_max: int = 1, laurent: bool = False, span: int = 1) -> HForm:
        out = HForm.zero(model.dim, laurent)
        for _ in range(terms):
            d = degree if degree is not None else self.randint(0, model.dim)
            j = self.randint(-h_max if laurent else 0, h_max)
            c = self.model_coeff(model, span)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out

    def jacobi_model(self, family=None) -> PoissonModel:
        """A model whose bivector passes the Jacobi identity.

        Families: constant bivectors in any dimension, the so(3) linear
        structure, and decomposable X ^ Y structures with [X, Y] = 0.
        """
        if family is None:
            family = ("constant", "so3", "decomposable")[self.below(3)]
        if family == "constant":
            dim = self.randint(2, 4)
            return PoissonModel.affine(dim, {
                (i, j): self.fraction()
                for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
                if self.rng.random() < 0.8})
        if family == "so3":
            return PoissonModel.so3_affine()
        # f(x2) d1 ^ d3 on R^3: d1 and f(x2) d3 commute
        f = PolyCoeff(3, {(0, self.randint(0, 2), 0): self.nonzero_fraction()})
        return PoissonModel.affine(3, {(1, 3): f})

    def complexified_model_form(self, model: PoissonModel, degree=None,
                                terms: int = 2, h_max: int = 1,
                                laurent: bool = False) -> HForm:
        """Random form directly in the complex dz/dzbar frame."""
        out = HForm.zero(model.dim, laurent)
        for _ in range(terms):
            d = degree if degree is not None else self.randint(0, model.dim)
            j = self.randint(-h_max if laurent else 0, h_max)
            data = {tuple(self.randint(-1, 2) for _ in range(model.dim)):
                    self.grat()}
            c = FourierCoeff(model.dim, data)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out
