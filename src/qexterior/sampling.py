"""Seeded random generators for forms, bivectors, and models.

Every randomized suite draws from one :class:`Sampler`, a thin wrapper
over the stdlib Mersenne Twister; the PRNG name and version are embedded
in report headers so golden files stay stable across platforms.
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

    def fraction(self, lo: int = -6, hi: int = 6, max_den: int = 3) -> Fraction:
        num = self.rng.randint(lo, hi)
        den = self.rng.randint(1, max_den)
        return Fraction(num, den)

    def nonzero_fraction(self, lo: int = -6, hi: int = 6) -> Fraction:
        while True:
            f = self.fraction(lo, hi)
            if f:
                return f

    def grat(self) -> GRat:
        return GRat(self.fraction(), self.fraction())

    def antisymmetric_bivector(self, dim: int, density: float = 1.0) -> Bivector:
        ent = {}
        for i in range(1, dim + 1):
            for j in range(i + 1, dim + 1):
                if self.rng.random() <= density:
                    w = self.fraction()
                    if w:
                        ent[(i, j)] = w
        return Bivector(dim, ent)

    def mask(self, dim: int, degree: int) -> int:
        bits = self.rng.sample(range(dim), degree)
        mask = 0
        for b in bits:
            mask |= 1 << b
        return mask

    def ext_form(self, dim: int, degree=None, terms: int = 2,
                 h_max: int = 0, laurent: bool = False) -> HForm:
        """Random constant-coefficient form; ``degree`` is exterior degree."""
        data = {}
        for _ in range(terms):
            d = degree if degree is not None else self.rng.randint(0, dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            key = (j, self.mask(dim, d))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return HForm(dim, data, laurent)

    def poly_coeff(self, dim: int, max_exp: int = 2, terms: int = 2) -> PolyCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.rng.randint(0, max_exp) for _ in range(dim))
            c = self.fraction()
            old = data.get(key)
            data[key] = c if old is None else old + c
        return PolyCoeff(dim, data)

    def fourier_coeff(self, dim: int, span: int = 1, terms: int = 2) -> FourierCoeff:
        data = {}
        for _ in range(terms):
            key = tuple(self.rng.randint(-span, span) for _ in range(dim))
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
            d = degree if degree is not None else self.rng.randint(0, model.dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            c = self.model_coeff(model, span)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out

    def jacobi_model(self, family=None) -> PoissonModel:
        """A model whose bivector passes the Jacobi identity.

        Families: constant bivectors in any dimension, the so(3) linear
        structure, and decomposable X ^ Y structures with [X, Y] = 0.
        """
        if family is None:
            family = self.rng.choice(["constant", "so3", "decomposable"])
        if family == "constant":
            dim = self.rng.randint(2, 4)
            return PoissonModel.affine(dim, {
                (i, j): self.fraction()
                for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
                if self.rng.random() < 0.8})
        if family == "so3":
            return PoissonModel.so3_affine()
        # f(x2) d1 ^ d3 on R^3: d1 and f(x2) d3 commute
        f = PolyCoeff(3, {(0, self.rng.randint(0, 2), 0): self.nonzero_fraction()})
        return PoissonModel.affine(3, {(1, 3): f})

    def complexified_model_form(self, model: PoissonModel, degree=None,
                                terms: int = 2, h_max: int = 1,
                                laurent: bool = False) -> HForm:
        """Random form directly in the complex dz/dzbar frame."""
        out = HForm.zero(model.dim, laurent)
        for _ in range(terms):
            d = degree if degree is not None else self.rng.randint(0, model.dim)
            j = self.rng.randint(-h_max if laurent else 0, h_max)
            data = {tuple(self.rng.randint(-1, 2) for _ in range(model.dim)):
                    self.grat()}
            c = FourierCoeff(model.dim, data)
            out = out + HForm(model.dim, {(j, self.mask(model.dim, d)): c}, laurent)
        return out
