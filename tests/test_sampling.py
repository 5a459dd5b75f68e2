"""Seeded draws: the random inputs every suite and test builds on, draw
for draw those of ``random.Random`` and of ``oracles.StdlibSampler``."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import StdlibSampler, thinned_bivector

from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.forms import Bivector, HForm
from qexterior import sampling
from qexterior.models import PoissonModel
from qexterior.sampling import Sampler
from qexterior.scalars import GRat


def typed(x):
    """A JSON-able image of an exact value that keeps every type and every
    key in its order."""
    if isinstance(x, Fraction):
        return ["Fraction", str(x)]
    if isinstance(x, GRat):
        return ["GRat", typed(x.re), typed(x.im)]
    if isinstance(x, (PolyCoeff, FourierCoeff)):
        return [type(x).__name__, x.dim,
                [[list(k), typed(c)] for k, c in x.terms.items()]]
    if isinstance(x, HForm):
        return ["HForm", x.dim, x.laurent,
                [[j, m, typed(c)] for (j, m), c in x.terms.items()]]
    if isinstance(x, Bivector):
        return ["Bivector", x.dim,
                [[i, j, typed(w)] for (i, j), w in x.entries.items()]]
    return [type(x).__name__, repr(x)]


def draws_bytes() -> bytes:
    rows = []
    for seed in (0, 1, 7, 20240):
        s = Sampler(seed)
        affine = PoissonModel.affine(3, {(1, 2): Fraction(1)})
        torus = PoissonModel.torus(2, {(1, 2): Fraction(-1)})
        for dim in (1, 3, 5, 8):
            rows.append(typed(s.antisymmetric_bivector(dim)))
            rows.append(typed(thinned_bivector(s, dim, "0.4")))
            rows.append(typed(s.ext_form(dim, terms=6, h_max=1)))
            rows.append(typed(s.ext_form(dim, terms=6, h_max=2, laurent=True)))
            # one degree and one h-power: repeated keys sum their draws
            rows.append(typed(s.ext_form(min(dim, 2), degree=1, terms=8)))
            rows.append(typed(s.poly_coeff(dim, terms=5)))
            rows.append(typed(s.poly_coeff(1, max_exp=1, terms=6)))
            rows.append(typed(s.fourier_coeff(dim, terms=5)))
            rows.append(typed(s.fourier_coeff(1, span=1, terms=6)))
        rows.append(typed(s.model_form(affine, terms=4)))
        rows.append(typed(s.model_form(torus, terms=4, laurent=True)))
        rows.append([s.rng.random()])
    return json.dumps(rows, separators=(",", ":")).encode()


def test_pinned_draws():
    # recorded before the samplers stopped adding each drawn coefficient
    # to a fresh zero: a moved draw, key order or coefficient type fails
    assert hashlib.sha256(draws_bytes()).hexdigest() == \
        "423cd015962d00a46bd4c7678757220f377c0f46fe89f8a7779e79fad8cd7c80"


def test_thinning_compares_the_float_draw_exactly():
    # the 53-bit integer of random() against an exact density * 2^53 keeps
    # or drops the same pairs as random() <= density on the float
    r, s = random.Random(31), random.Random(31)
    for density in ("0.3", "0.4"):
        bound = Fraction(density) * 2 ** 53
        for _ in range(20000):
            a, b = s.getrandbits(32), s.getrandbits(32)
            assert ((a >> 5) * 2 ** 26 + (b >> 6) <= bound) == \
                (r.random() <= float(density))


# -- the draws of random.Random -----------------------------------------------

SEEDS = range(300)
RANGES = [(0, 0), (5, 5), (-3, -3), (0, 1), (0, 3), (-4, 3), (0, 15),
          (1, 2 ** 20), (-6, 6), (1, 3), (0, 8), (2, 8), (-1000, 2 ** 40)]


def randint_mismatches():
    """(seed, lo, hi) of every ``Sampler.randint`` draw, and ``(seed,)``
    of every stream position after them, that differ from
    ``random.Random(seed)``."""
    bad = []
    for seed in SEEDS:
        s, r = Sampler(seed), random.Random(seed)
        for lo, hi in RANGES:
            for _ in range(4):
                if s.randint(lo, hi) != r.randint(lo, hi):
                    bad.append((seed, lo, hi))
        if s.rng.random() != r.random():
            bad.append((seed,))
    return bad


def test_randint_draws_as_the_stdlib():
    assert randint_mismatches() == []


def test_mask_draws_as_sample():
    for seed in SEEDS:
        s, r = Sampler(seed), random.Random(seed)
        for dim in range(17):
            for degree in range(dim + 1):
                bits = r.sample(range(dim), degree)
                assert s.mask(dim, degree) == sum(1 << b for b in bits), \
                    (seed, dim, degree)
        assert s.rng.random() == r.random()


def model_typed(m):
    return ["PoissonModel", m.kind, m.dim, typed(m.w)]


def every_draw(s):
    """One call of every public sampler method, and of several argument
    shapes, as typed values; then the next ``random()`` of the stream."""
    affine = PoissonModel.affine(3, {(1, 2): Fraction(1)})
    torus = PoissonModel.torus(2, {(1, 2): Fraction(-1)})
    return [
        typed(s.fraction()), typed(s.fraction(-2, 9, 5)),
        typed(s.nonzero_fraction()), typed(s.nonzero_fraction(0, 1)),
        typed(s.grat()),
        typed(s.antisymmetric_bivector(5)),
        typed(thinned_bivector(s, 4, "0.4")),
        s.mask(7, 3), s.mask(16, 16), s.mask(5, 0),
        typed(s.ext_form(4, h_max=1)),
        typed(s.ext_form(3, degree=2, terms=5, h_max=2, laurent=True)),
        typed(s.ext_form(1, degree=1, terms=6)),
        typed(s.poly_coeff(3, terms=4)), typed(s.poly_coeff(1, max_exp=1)),
        typed(s.fourier_coeff(2, terms=4)), typed(s.fourier_coeff(3, span=2)),
        typed(s.model_coeff(affine)), typed(s.model_coeff(torus, span=2)),
        typed(s.model_form(affine)),
        typed(s.model_form(torus, degree=1, terms=3, laurent=True)),
        model_typed(s.jacobi_model()), model_typed(s.jacobi_model()),
        model_typed(s.jacobi_model("constant")),
        model_typed(s.jacobi_model("decomposable")),
        typed(s.complexified_model_form(torus)),
        typed(s.complexified_model_form(torus, degree=2, laurent=True)),
        [s.rng.random()]]


def test_every_method_draws_as_the_stdlib_sampler():
    for seed in SEEDS:
        assert every_draw(Sampler(seed)) == every_draw(StdlibSampler(seed)), \
            seed


def test_wide_fraction_range_is_not_tabulated(monkeypatch):
    # the first draw from a billion numerators builds one value, not the
    # range: a tabulating sampler stops at its third Fraction here
    built = []

    def counted(num, den):
        built.append((num, den))
        if len(built) > 2:
            raise AssertionError("the sampler tabulated its fraction range")
        return Fraction(num, den)

    monkeypatch.setattr(sampling, "Fraction", counted)
    s, r = Sampler(9), random.Random(9)
    num, den = r.randint(0, 10 ** 9), r.randint(1, 3)
    got = s.fraction(0, 10 ** 9)
    assert got == Fraction(num, den) and type(got) is Fraction
    assert built == [(num, den)]
    assert s.rng.random() == r.random()


@pytest.mark.parametrize("draw", [lambda s: s.randint(3, 2),
                                  lambda s: s.below(0),
                                  lambda s: s.mask(4, 5),
                                  lambda s: s.mask(22, 1),
                                  lambda s: s.nonzero_fraction(0, 0)])
def test_empty_draws_raise_before_drawing(draw):
    s, r = Sampler(5), random.Random(5)
    with pytest.raises(ValueError):
        draw(s)
    assert s.rng.random() == r.random()


def test_negative_control_one_bit_too_many(monkeypatch):
    # below reading k + 1 bits keeps every draw in range, but moves the
    # values and the stream; the oracle comparisons must see it
    def wide_below(self, n):
        k = n.bit_length() + 1
        r = self.rng.getrandbits(k)
        while r >= n:
            r = self.rng.getrandbits(k)
        return r

    monkeypatch.setattr(Sampler, "below", wide_below)
    assert len(randint_mismatches()) > len(SEEDS)
    assert every_draw(Sampler(1)) != every_draw(StdlibSampler(1))
