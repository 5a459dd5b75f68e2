"""Seeded draws: the random inputs every suite and test builds on."""

import hashlib
import json
from fractions import Fraction

from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.forms import Bivector, HForm
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
            rows.append(typed(s.antisymmetric_bivector(dim, density=0.4)))
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
