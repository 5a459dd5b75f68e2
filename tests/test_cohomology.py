"""Finite complexes, Smith-normal-form homology, and the cohomology
tables of torus models."""

import hashlib
import itertools
import json
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from oracles import (cartan_columns_at_mode, derham_table_snf,
                     dolbeault_matrix_symbolic, dolbeault_table_snf,
                     free_rank_oracle, grat_cartan_columns,
                     grat_delbar_kappa_v, grat_dh_kappa_v,
                     grat_homotopy_columns, grat_koszul_columns,
                     homotopy_certificate, integer_form_mismatches,
                     invariant_subcomplex,
                     label_columns, require_acyclic,
                     label_homotopy_certificate, matrix_of_dh_symbolic,
                     mode_subcomplex, ring_table_per_pair)
from qexterior import _kernels, cohomology, complexes, equivariant
from qexterior.cli import main
from qexterior.cohomology import (_delbar_kappa_v, _dolbeault_bases,
                                  graded_dims, quantum_derham_table,
                                  quantum_dolbeault_table, ring_table)
from qexterior.complexes import (CohomologyTable, DegreeHomology,
                                 FiniteComplex, complex_homology,
                                 box_modes, dense_complex, dense_matrix,
                                 dh_kappa_v, homotopy_columns,
                                 koszul_columns, require_modes)
from qexterior.equivariant import (GroupAction, _cartan_columns,
                                   _equivariant_basis, _integer_generators,
                                   equivariant_cohomology_table,
                                   invariant_modes)
from qexterior.forms import Bivector
from qexterior.hpoly import HLaurent, HPoly
from qexterior.models import PoissonModel
from qexterior.scalars import GRat
from qexterior.quantum import complex_frame_bivector, qwedge
from qexterior.sampling import Sampler
from qexterior.serialize import model_from_json
from qexterior.snf import smith_normal_form


@pytest.fixture(scope="module")
def t2():
    return PoissonModel.darboux_torus(1)


@pytest.fixture(scope="module")
def t2c():
    return PoissonModel.darboux_torus(1, complex_structure=True)


@pytest.fixture(scope="module")
def t4():
    return PoissonModel.darboux_torus(2)


class TestFiniteComplex:
    def test_square_zero_enforced(self):
        one = HPoly.one()
        with pytest.raises(ValueError):
            FiniteComplex([0, 1, 2], [["a"], ["b"], ["c"]],
                          [[[one]], [[one]]], ring=HPoly)

    def test_two_term_h_torsion(self):
        cx = FiniteComplex([0, 1], [["a"], ["b"]], [[[HPoly.h()]]], ring=HPoly)
        tab = complex_homology(cx)
        assert tab.rank(0) == 0
        assert tab.rank(1) == 0
        assert [str(t) for t in tab.torsion(1)] == ["h"]

    def test_two_term_h_laurent_acyclic(self):
        cx = FiniteComplex([0, 1], [["a"], ["b"]],
                           [[[HLaurent({1: Fraction(1)})]]], ring=HLaurent)
        tab = complex_homology(cx)
        assert tab.rank(0) == 0 and tab.rank(1) == 0
        assert not tab.total_torsion()

    def test_representatives_are_cycles(self, t2):
        tab = complex_homology(mode_subcomplex(t2, (0, 0)))
        for deg in tab.degrees():
            entry = tab.entries[deg]
            assert len(entry.representatives) >= entry.free_rank


class TestInvariantSubcomplex:
    def test_t2_bases(self, t2):
        cx = invariant_subcomplex(t2)
        assert [len(b) for b in cx.bases] == [1, 2, 1]
        assert all(x.is_zero() for D in cx.diffs for row in D for x in row)

    def test_t4_bases(self, t4):
        cx = invariant_subcomplex(t4)
        assert sum(len(b) for b in cx.bases) == 16

    def test_affine_rejected(self):
        r2 = PoissonModel.affine(2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            invariant_subcomplex(r2)

    def test_nonconstant_rejected(self):
        from qexterior.coeffs import FourierCoeff
        m = PoissonModel.torus(2, {(1, 2): FourierCoeff.character(2, (1, 0))})
        with pytest.raises(ValueError):
            invariant_subcomplex(m)


class TestModeSubcomplex:
    def test_mode_zero_matches_invariant(self, t2):
        cx = mode_subcomplex(t2, (0, 0))
        assert all(x.is_zero() for D in cx.diffs for row in D for x in row)

    def test_nonzero_mode_has_nonzero_d(self, t2):
        cx = mode_subcomplex(t2, (1, 0))
        assert len(cx.bases[0]) == 2 and len(cx.bases[1]) == 2
        assert any(not x.is_zero() for D in cx.diffs for row in D for x in row)

    def test_nonzero_mode_acyclic_laurent(self, t2):
        tab = complex_homology(mode_subcomplex(t2, (1, 0)))
        assert tab.total_rank() == 0
        assert not tab.total_torsion()

    def test_nonzero_mode_acyclic_polynomial(self, t2):
        tab = complex_homology(mode_subcomplex(t2, (1, 0), ring=HPoly))
        assert tab.total_rank() == 0
        assert not tab.total_torsion()

    def test_t4_nonzero_mode_acyclic_polynomial(self, t4):
        tab = complex_homology(mode_subcomplex(t4, (1, 0, -1, 0), ring=HPoly))
        assert tab.total_rank() == 0
        assert not tab.total_torsion()

    def test_mode_complexes_square_zero(self, t2, t4):
        s = Sampler(3)
        for model in (t2, t4):
            for _ in range(4):
                k = tuple(s.rng.randint(-2, 2) for _ in range(model.dim))
                mode_subcomplex(model, k)  # constructor validates D^2 = 0

    def test_free_rank_matches_fraction_field_oracle(self, t2):
        for k in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            cx = mode_subcomplex(t2, k)
            tab = complex_homology(cx)
            for spot, deg in enumerate(cx.degrees):
                dim = len(cx.bases[spot])
                oracle = free_rank_oracle(cx.out_matrix(spot),
                                          cx.in_matrix(spot), dim)
                assert tab.rank(deg) == oracle


def same_entries(A, B):
    """Equal matrices whose entries also agree in ring and scalar types."""
    def kind(x):
        return type(x), sorted((j, type(c)) for j, c in x.coeffs.items())
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(x == y and kind(x) == kind(y)
                                   for x, y in zip(ra, rb))
        for ra, rb in zip(A, B))


def matrix_of_dh(model, k, src, dst, ring):
    """The ring matrix of d_h on the mode k from the span of ``src`` to
    that of ``dst``, as the drivers build it."""
    cols = koszul_columns(*dh_kappa_v(
        model.constant_bivector().integer, k))
    return dense_matrix(cols, src, dst, ring)


def mode_certified(model, k):
    """Whether the homotopy certificate proves the nonzero mode k of the
    de Rham complex acyclic."""
    kappa, v, den = dh_kappa_v(model.constant_bivector().integer, k)
    return homotopy_certificate(koszul_columns(kappa, v, den),
                                homotopy_columns(kappa, den))


class TestDirectDhBuilder:
    """The direct mode-matrix builder against symbolic d_h on forms."""

    @pytest.mark.parametrize("dim,seeds", [(2, (1, 2, 3)), (4, (4, 5))])
    def test_matches_symbolic_builder(self, dim, seeds):
        masks = range(1 << dim)
        even = [m for m in masks if m.bit_count() % 2 == 0]
        odd = [m for m in masks if m.bit_count() % 2 == 1]
        for seed in seeds:
            model = PoissonModel.torus(
                dim, Sampler(seed).antisymmetric_bivector(dim))
            for k in itertools.product((-1, 0, 1), repeat=dim):
                for src, dst in ((even, odd), (odd, even)):
                    for ring in (HLaurent, HPoly):
                        assert same_entries(
                            matrix_of_dh(model, k, src, dst, ring),
                            matrix_of_dh_symbolic(model, k, src, dst, ring)), \
                            (seed, k, src[0] & 1, ring)

    def test_gaussian_bivector_and_wider_modes(self):
        # complex w entries and |k_i| = 2 reach the GRat arithmetic
        model = PoissonModel.torus(2, {(1, 2): GRat(Fraction(1, 2), 3)})
        for k in [(2, -1), (0, 2), (-2, 2)]:
            for src, dst in (([0, 3], [1, 2]), ([1, 2], [0, 3])):
                assert same_entries(
                    matrix_of_dh(model, k, src, dst, HLaurent),
                    matrix_of_dh_symbolic(model, k, src, dst, HLaurent))


def box(dim, radius):
    """The nonzero modes with |k_i| <= radius."""
    return [k for k in itertools.product(range(-radius, radius + 1),
                                         repeat=dim) if any(k)]


def certificate_bivectors(dim):
    """Dense (rational), sparse (Gaussian entries), degenerate (rank 2)
    and zero constant bivectors on T^dim; on T^1, where every bivector is
    zero, only the zero one."""
    if dim == 1:
        return {"zero": {}}
    return {
        "dense": Sampler(40 + dim).antisymmetric_bivector(dim),
        "sparse": {(2 * i + 1, 2 * i + 2): GRat(Fraction(1, i + 2), i - 1)
                   for i in range(dim // 2)},
        "degenerate": {(1, dim): Fraction(7, 3), (1, 2): Fraction(-2)}
        if dim > 2 else {(1, 2): Fraction(7, 3)},
        "zero": {},
    }


# (dim, kind) of every certificate bivector on T^1 .. T^5
CERTIFICATE_CASES = [(dim, kind) for dim in range(1, 6)
                     for kind in certificate_bivectors(dim)]


def unit_modes(dim):
    """The unit Fourier modes e_1, .., e_dim."""
    return [tuple(int(i == c) for i in range(dim)) for c in range(dim)]


def patch_builders(monkeypatch, wrap):
    """Replace the kappa_v builder of every driver by ``wrap(builder)``."""
    monkeypatch.setattr(cohomology, "dh_kappa_v", wrap(dh_kappa_v))
    monkeypatch.setattr(cohomology, "_delbar_kappa_v",
                        wrap(_delbar_kappa_v))
    monkeypatch.setattr(equivariant, "dh_kappa_v", wrap(dh_kappa_v))


@pytest.fixture
def certificates(monkeypatch):
    """What the drivers' homotopy certificate reads: the modes whose kappa
    and v it asks for, in order, and the (kappa, v, den) of every Koszul
    operator it builds."""
    seen = {"modes": [], "operators": []}

    def wrap(builder):
        def kappa_v(w, k):
            seen["modes"].append(k)
            return builder(w, k)
        return kappa_v

    def recording(kappa, v, den):
        seen["operators"].append((kappa, v, den))
        return koszul_columns(kappa, v, den)

    patch_builders(monkeypatch, wrap)
    monkeypatch.setattr(complexes, "koszul_columns", recording)
    return seen


def assert_certified_in_order(seen, modes, kappa_v):
    """The certificate read mode 0, the first nonzero mode, then the unit
    modes, whose operators alone it built, then the other nonzero modes
    once each; and the per-mode certificate it replaced proves each
    nonzero mode acyclic."""
    dim = len(modes[0])
    nonzero = [k for k in modes if any(k)]
    units = unit_modes(dim)
    assert seen["modes"] == [(0,) * dim, nonzero[0], *units, *nonzero[1:]]
    assert seen["operators"] == [kappa_v(e) for e in units]
    for k in nonzero:
        require_acyclic(k, *kappa_v(k))


class TestHomotopyCertificate:
    """The contracting-homotopy proof of acyclicity against the per-mode
    Smith normal form."""

    @pytest.mark.parametrize("dim,kind", CERTIFICATE_CASES)
    def test_agrees_with_snf_oracle(self, dim, kind):
        model = PoissonModel.torus(dim, certificate_bivectors(dim)[kind])
        # every mode of the box certifies; a seeded sample of |k_i| <= 2
        # is also computed by Smith normal form in both rings
        assert all(mode_certified(model, k)
                   for k in box(dim, 2 if dim <= 3 else 1))
        rng = random.Random(f"certificate:{dim}:{kind}")
        sample = rng.sample(box(dim, 2), 2 if dim < 5 else 1) + [(2,) * dim]
        for k in sample:
            assert mode_certified(model, k), k
            for ring in (HLaurent, HPoly):
                cx = mode_subcomplex(model, k, ring)
                tab = complex_homology(cx)
                assert [tab.rank(d) for d in tab.degrees()] == [0, 0], (k, ring)
                assert tab.total_torsion() == [], (k, ring)
                for spot in (0, 1):
                    assert free_rank_oracle(cx.out_matrix(spot),
                                            cx.in_matrix(spot),
                                            len(cx.bases[spot])) == 0

    def test_flipped_homotopy_rejected(self):
        model = PoissonModel.torus(4, certificate_bivectors(4)["dense"])
        bivector = model.constant_bivector().integer
        for k in box(4, 1):
            kappa, v, den = dh_kappa_v(bivector, k)
            d, h = koszul_columns(kappa, v, den), homotopy_columns(kappa, den)
            assert homotopy_certificate(d, h)
            flipped = ({x: {key: (-re, -im) for key, (re, im) in col.items()}
                        for x, col in h[0].items()}, h[1])
            assert not homotopy_certificate(d, flipped), k

    def test_nonzero_square_rejected(self):
        # kappa ^ - h iota_v with <kappa, v> != 0 is not a differential,
        # yet iota_{e_1} / kappa_1 still satisfies d h + h d = 1
        kappa, v = [(0, 1), (0, 0)], [(1, 0), (0, 0)]
        d, h = koszul_columns(kappa, v, 1), homotopy_columns(kappa, 1)
        assert not homotopy_certificate(d, h)
        assert homotopy_certificate(koszul_columns(kappa, [(0, 0)] * 2, 1), h)

    def test_identity_off_the_diagonal_rejected(self):
        # on the masks of two generators d e^0 = e^1 and d e^3 = e^2, so
        # h e^1 = e^0 and h e^2 = e^3 contract it; h e^2 = e^0 + e^3 keeps
        # every diagonal entry of d h + h d at 1 but adds e^0 to its value
        # on e^3 and e^1 to its value on e^2
        one = (1, 0)
        d = ({0: {(1, 0): one}, 1: {}, 2: {}, 3: {(2, 0): one}}, 1)
        h = {0: {}, 1: {(0, 0): one}, 2: {(3, 0): one}, 3: {}}
        assert homotopy_certificate(d, (h, 1))
        h[2] = {(0, 0): one, (3, 0): one}
        assert not homotopy_certificate(d, (h, 1))
        # an extra h^1 entry on the diagonal label is not the identity either
        kappa, v = [(0, 1), (0, 0)], [(0, 0), (3, 0)]
        h, den = homotopy_columns(kappa, 1)
        assert den == 1
        for mask in range(4):   # h + e^2 ^, whose commutator adds -3h
            if not mask & 2:
                odd = mask & 1
                h[mask] = {**h[mask], (mask | 2, 0): (-1, 0) if odd else one}
        assert not homotopy_certificate(koszul_columns(kappa, v, 1), (h, 1))

    def test_truncated_ends_and_components(self):
        # a column of the wrong parity or an image outside the masks is
        # never certified, even where d h + h d = 1
        one = (1, 0)
        d = {0: {(1, 0): one}, 1: {}}
        h = {0: {}, 1: {(0, 0): one}}
        assert homotopy_certificate((d, 1), (h, 1))
        # the same identity between the masks 0 and 3 of one parity
        assert not homotopy_certificate(({0: {(3, 0): one}, 3: {}}, 1),
                                        ({0: {}, 3: {(0, 0): one}}, 1))
        assert not homotopy_certificate(({**d, 0: {(1, 0): one, (4, 0): one}},
                                         1), (h, 1))

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    def test_derham_driver_certifies_every_mode(self, certificates, ring):
        model = model_from_json(PINNED_MODEL)
        bivector = model.constant_bivector().integer
        tab = quantum_derham_table(model, mode_box=1, ring=ring)
        assert len(certificates["modes"]) == 1 + 80 + 4
        assert_certified_in_order(certificates, box_modes(4, 1),
                                  lambda k: dh_kappa_v(bivector, k))
        assert tab.meta["anomalous_modes"] == []

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    def test_dolbeault_driver_certifies_every_mode(self, t2c, certificates,
                                                   ring):
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        # one Koszul operator per unit mode, on the masks, whatever the
        # levels p, and every nonzero mode read once
        for model in (t2c, t4c):
            certificates["modes"].clear()
            certificates["operators"].clear()
            wc = complex_frame_bivector(model.constant_bivector()).integer
            tab = quantum_dolbeault_table(model, mode_box=1, ring=ring)
            assert_certified_in_order(certificates, box_modes(model.dim, 1),
                                      lambda k: _delbar_kappa_v(wc, k))
            assert tab.meta["anomalous_modes"] == []

    def test_dolbeault_homotopy_on_non_darboux_bivector(self):
        # a J-invariant bivector that is not the Darboux one
        model = PoissonModel.torus(4, {(1, 3): Fraction(1), (2, 4): Fraction(1),
                                       (3, 4): Fraction(-2)},
                                   complex_structure=True)
        wc = complex_frame_bivector(model.constant_bivector()).integer
        for ring, laurent in ((HLaurent, True), (HPoly, False)):
            for p in range(-1 if laurent else 0, 4):
                qs = list(range(p - 3, p + 4)) if laurent else \
                    list(range(max(0, p - 2) - 1, p + 4))
                bases = _dolbeault_bases(2, p, qs, laurent)
                spots = [bases[q] for q in qs]
                labels = [lab for b in spots for lab in b]
                for k in box(4, 1)[::7]:
                    kappa, v, den = _delbar_kappa_v(wc, k)
                    d = label_columns(koszul_columns(kappa, v, den), labels)
                    h = label_columns(homotopy_columns(kappa, den), labels)
                    assert label_homotopy_certificate(
                        spots, range(1, len(qs) - 1), d, h), (p, k)


def dolbeault_spots(n, p, laurent):
    """The spots (q strata) of the Dolbeault complex for the first index
    p, as the driver lays them out: reported q and one q on either side."""
    qs = list(range(p - n - 1, p + n + 2)) if laurent else \
        list(range(max(0, p - n) - 1, p + n + 2))
    bases = _dolbeault_bases(n, p, qs, laurent)
    return qs, [bases[q] for q in qs]


def conjugate_pairing_on(mode, kappa_v):
    """``kappa_v`` with v + conj(kappa) on ``mode`` alone: there <kappa, v>
    gains sum |kappa_a|^2 > 0, so that mode's operator is no
    differential."""
    def mutant(k):
        kappa, v, den = kappa_v(k)
        if k == mode:
            v = [(a + p, b - q) for (a, b), (p, q) in zip(v, kappa)]
        return kappa, v, den
    return mutant


def assert_agrees_per_mode(modes, kappa_v, rng):
    """The unit certificate of ``require_modes`` and the per-mode
    certificate it replaced agree on every nonzero mode: both prove each
    acyclic, and on a seeded sample both reject the one mode whose v is
    made to pair with kappa, the first naming it."""
    require_modes(modes, kappa_v)
    nonzero = [k for k in modes if any(k)]
    for k in nonzero:
        require_acyclic(k, *kappa_v(k))
    for k in rng.sample(nonzero, 3):
        broken = conjugate_pairing_on(k, kappa_v)
        for settle in (lambda: require_acyclic(k, *broken(k)),
                       lambda: require_modes(modes, broken)):
            with pytest.raises(AssertionError, match=re.escape(
                    f"homotopy certificate failed on Fourier mode {k}")):
                settle()


class TestUnitCertificate:
    """``require_modes`` certifies the Koszul operators of the unit modes
    once and every other mode by linearity; it agrees with the per-mode
    certificate on the masks (``oracles.homotopy_certificate``)."""

    @pytest.mark.parametrize("dim,kind", CERTIFICATE_CASES)
    def test_agrees_with_per_mode_certificate(self, dim, kind):
        model = PoissonModel.torus(dim, certificate_bivectors(dim)[kind])
        bivector = model.constant_bivector().integer
        assert_agrees_per_mode(box_modes(dim, 2 if dim <= 3 else 1),
                               lambda k: dh_kappa_v(bivector, k),
                               random.Random(f"unit-certificate:{dim}:{kind}"))

    @pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_dolbeault_frames_agree(self, dim, kind):
        model = PoissonModel.torus(dim, COMPLEX_BIVECTORS[dim][kind],
                                   complex_structure=True)
        wc = complex_frame_bivector(model.constant_bivector()).integer
        assert_agrees_per_mode(box_modes(dim, 2 if dim == 2 else 1),
                               lambda k: _delbar_kappa_v(wc, k),
                               random.Random(f"unit-dolbeault:{dim}:{kind}"))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_koszul_columns_is_linear(self, m):
        # each entry is +- one number of (kappa, v), so the operator of a
        # x + b y is a (op of x) + b (op of y), zero entries dropped
        rng = random.Random(f"koszul-linear:{m}")

        def draw():
            return [(rng.choice([0, rng.randint(-4, 4)]),
                     rng.choice([0, rng.randint(-4, 4)])) for _ in range(m)]

        def combine(a, x, b, y):
            return [(a * p + b * r, a * q + b * t)
                    for (p, q), (r, t) in zip(x, y)]

        for _ in range(20):
            (kx, vx), (ky, vy) = (draw(), draw()), (draw(), draw())
            a, b, den = rng.randint(-3, 3), rng.randint(-3, 3), \
                rng.randint(1, 5)
            cols, den_ = koszul_columns(combine(a, kx, b, ky),
                                        combine(a, vx, b, vy), den)
            x, y = koszul_columns(kx, vx, den)[0], \
                koszul_columns(ky, vy, den)[0]
            assert den_ == den and cols.keys() == set(range(1 << m))
            for mask, col in cols.items():
                want = {}
                for key in x[mask].keys() | y[mask].keys():
                    (p, q), = combine(a, [x[mask].get(key, (0, 0))],
                                      b, [y[mask].get(key, (0, 0))])
                    if p or q:
                        want[key] = (p, q)
                assert col == want, (mask, a, b)


class TestNonzeroModesBySNF:
    """The Smith normal form, the oracle behind the certificates, finds no
    homology on the nonzero modes the drivers certify."""

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    def test_derham_box(self, ring):
        model = PoissonModel.torus(3, certificate_bivectors(3)["dense"])
        for k in box(3, 1):
            tab = complex_homology(mode_subcomplex(model, k, ring))
            assert tab.total_rank() == 0 and tab.total_torsion() == [], k

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    def test_dolbeault_modes(self, t2c, ring):
        laurent = ring is HLaurent
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        for model, modes in ((t2c, box(2, 1)), (t4c, box(4, 1)[::9])):
            n = model.dim // 2
            wc = complex_frame_bivector(model.constant_bivector()).integer
            for p in range(-2 if laurent else 0, n + 3):
                qs, spots = dolbeault_spots(n, p, laurent)
                labels = [lab for b in spots for lab in b]
                for k in modes:
                    d = label_columns(koszul_columns(*_delbar_kappa_v(wc, k)),
                                      labels)
                    tab = complex_homology(dense_complex(qs, spots, d, ring))
                    for q in qs[1:-1]:
                        assert tab.rank(q) == 0, (model.dim, p, q, k)
                        assert tab.torsion(q) == [], (model.dim, p, q, k)


def flip_unit_column(monkeypatch):
    """Negate the first wedge on the empty mask of every Koszul operator,
    which the certificate builds on the unit modes only: d_c iota_b +
    iota_b d_c then gives -(kappa_c)_b there."""
    def flipped(kappa, v, den):
        cols, den = koszul_columns(kappa, v, den)
        if cols[0]:
            key = next(iter(cols[0]))
            re_, im_ = cols[0][key]
            cols[0][key] = (-re_, -im_)
        return cols, den

    monkeypatch.setattr(complexes, "koszul_columns", flipped)


def flip_iota_sign(monkeypatch):
    """Negate the homotopy's entry on the full mask, so that each iota_b
    the certificate contracts with has one wrong sign."""
    def flipped(kappa, den):
        cols, den = homotopy_columns(kappa, den)
        full = max(cols)
        cols[full] = {key: (-re_, -im_)
                      for key, (re_, im_) in cols[full].items()}
        return cols, den

    monkeypatch.setattr(complexes, "homotopy_columns", flipped)


def nonlinear_on(mode):
    """A mutant that adds 1 to v_1 on the Fourier ``mode`` alone: kappa_v
    is then not linear there, so the certificate of the unit modes says
    nothing about that mode's operator."""
    def mutant(monkeypatch):
        def wrap(builder):
            def kappa_v(w, k):
                kappa, v, den = builder(w, k)
                if k == mode:
                    v = [(v[0][0] + 1, v[0][1])] + v[1:]
                return kappa, v, den
            return kappa_v
        patch_builders(monkeypatch, wrap)
    return mutant


def pair_kappa_with_v(monkeypatch):
    """v += kappa on every mode: linear, but <kappa, v> = sum_a kappa_a^2
    != 0, so kappa ^ - h iota_v no longer squares to zero."""
    def wrap(builder):
        def kappa_v(w, k):
            kappa, v, den = builder(w, k)
            return kappa, [(a + p, b + q)
                           for (a, b), (p, q) in zip(v, kappa)], den
        return kappa_v
    patch_builders(monkeypatch, wrap)


def count_snf_calls(monkeypatch):
    """A list that grows by one per Smith normal form the drivers take."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[0]))
        return smith_normal_form(*args, **kwargs)

    monkeypatch.setattr(complexes, "smith_normal_form", counting)
    return calls


def circle_table(model, mode_box):
    action = GroupAction(model, [[Fraction(1), Fraction(0)]])
    return equivariant_cohomology_table(model, action, 4, mode_box)


class TestCertifyOrFail:
    """No nonzero mode is computed by Smith normal form: the drivers
    certify it or raise."""

    @pytest.mark.parametrize("table,box_,modes", [
        (lambda m, b: quantum_derham_table(m, b, ring=HPoly), 1,
         [k for k in box(2, 1) if k not in unit_modes(2)]),
        (lambda m, b: quantum_dolbeault_table(m, b, ring=HLaurent), 1,
         [k for k in box(2, 1) if k not in unit_modes(2)]),
        (circle_table, 2, [(0, -2), (0, -1), (0, 2)]),
    ], ids=["derham", "dolbeault", "equivariant"])
    def test_failed_certificate_raises_naming_the_mode(self, t2c, monkeypatch,
                                                       table, box_, modes):
        # kappa_v made non-linear on one box mode after another: the unit
        # certificate holds, and that mode alone fails
        for mode in modes:
            with monkeypatch.context() as patch:
                nonlinear_on(mode)(patch)
                with pytest.raises(AssertionError, match=re.escape(
                        f"homotopy certificate failed on Fourier mode "
                        f"{mode}")):
                    table(t2c, box_)

    @pytest.mark.parametrize("table,first", [
        (lambda m: quantum_derham_table(m, 1, ring=HPoly), (-1, -1)),
        (lambda m: quantum_dolbeault_table(m, 1), (-1, -1)),
        (lambda m: circle_table(m, 1), (0, -1)),
    ], ids=["derham", "dolbeault", "equivariant"])
    def test_degenerate_mode_raises_naming_it(self, t2c, monkeypatch, table,
                                              first):
        # kappa = v = 0 on every mode is linear and passes the unit
        # certificate, but leaves no homotopy iota_{e_b} / kappa_b; a den
        # doubled on one mode keeps the linear numerators but halves the
        # operator, which the unit operators then do not sum to
        def vanishing(w, k, builder):
            kappa, v, den = builder(w, k)
            return [(0, 0)] * len(kappa), [(0, 0)] * len(v), den

        def doubled_den(w, k, builder):
            kappa, v, den = builder(w, k)
            return kappa, v, 2 * den if k == (0, -1) else den

        for mutant, mode in ((vanishing, first), (doubled_den, (0, -1))):
            with monkeypatch.context() as patch:
                patch_builders(patch, lambda builder, mutant=mutant:
                               lambda w, k: mutant(w, k, builder))
                with pytest.raises(AssertionError, match=re.escape(
                        f"homotopy certificate failed on Fourier mode "
                        f"{mode}")):
                    table(t2c)

    @pytest.mark.parametrize("label", [4, 3], ids=["outside", "same-parity"])
    def test_column_off_the_other_parity_raises(self, t2c, monkeypatch,
                                                label):
        # the empty mask of each unit operator gains an image outside the
        # masks of T^2, or one of its own parity: the unit certificate
        # names e_1 before any identity is evaluated on it
        def widened(kappa, v, den):
            cols, den = koszul_columns(kappa, v, den)
            cols[0][(label, 0)] = (1, 0)
            return cols, den

        monkeypatch.setattr(complexes, "koszul_columns", widened)
        for table in (quantum_derham_table, quantum_dolbeault_table,
                      lambda m: circle_table(m, 1)):
            with pytest.raises(AssertionError, match=re.escape(
                    "homotopy certificate failed on Fourier mode (1, 0)")):
                table(t2c)

    @pytest.mark.parametrize("argv,bidegree", [
        (["cohomology"], False), (["dolbeault"], True),
        (["equivariant", "--action", "circle"], False),
    ], ids=["cohomology", "dolbeault", "equivariant"])
    def test_failed_certificate_exits_three(self, tmp_path, monkeypatch,
                                            capsys, argv, bidegree):
        # every mutant raises naming a mode, and the command exits 3 with
        # it: a failed unit certificate names the unit mode (1, 0), which
        # is in no circle-invariant box; on the Dolbeault frame kappa and
        # v have disjoint slots, so a v with <kappa, v> != 0 fails the
        # bidegree check on the first mode
        files = {"t2c": PINNED_FILES["t2c"], "circle": PINNED_FILES["circle"]}
        for name, body in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(body),
                                                   encoding="utf-8")
        argv = [str(tmp_path / f"{a}.json") if a in files else a
                for a in argv]
        last = (0, -1) if argv[0] == "equivariant" else (1, 1)
        pairing = "delbar_h is not of bidegree (0, 1) on Fourier mode " \
            "(-1, -1)" if bidegree else \
            "homotopy certificate failed on Fourier mode (1, 0)"
        for mutant, message in (
                (flip_unit_column,
                 "homotopy certificate failed on Fourier mode (1, 0)"),
                (flip_iota_sign,
                 "homotopy certificate failed on Fourier mode (1, 0)"),
                (nonlinear_on(last),
                 f"homotopy certificate failed on Fourier mode {last}"),
                (pair_kappa_with_v, pairing)):
            with monkeypatch.context() as patch:
                mutant(patch)
                out = tmp_path / "report.json"
                assert main(argv + ["--model", str(tmp_path / "t2c.json"),
                                    "--out", str(out)]) == 3
            error = json.loads(capsys.readouterr().err)["error"]
            assert error["code"] == 3
            assert error["message"] == \
                f"internal error: AssertionError: {message}", mutant

    @pytest.mark.parametrize("table,takes_snf", [
        (lambda m, b: quantum_derham_table(m, b), False),
        (lambda m, b: quantum_derham_table(m, b, ring=HPoly), False),
        (lambda m, b: quantum_dolbeault_table(m, b), False),
        (lambda m, b: quantum_dolbeault_table(m, b, ring=HLaurent), False),
        (circle_table, True),
    ], ids=["derham-laurent", "derham-polynomial", "dolbeault-polynomial",
            "dolbeault-laurent", "equivariant"])
    def test_snf_calls_do_not_grow_with_the_box(self, t2c, monkeypatch,
                                                table, takes_snf):
        # the de Rham and Dolbeault tables take none at any box; the
        # equivariant one takes those of its mode-0 Cartan complex only
        calls = count_snf_calls(monkeypatch)
        table(t2c, 0)
        at_zero = list(calls)
        calls.clear()
        table(t2c, 2)
        assert bool(at_zero) == takes_snf and calls == at_zero


def equals_divided(operator, grat_columns):
    """Whether the operator (columns, den) divided by den is ``grat_columns``:
    the same labels and keys, and re / den and im / den equal to the parts
    of the GRat at every entry (compared by cross-multiplying)."""
    columns, den = operator
    if columns.keys() != grat_columns.keys():
        return False
    for lab, col in columns.items():
        grat_col = grat_columns[lab]
        if col.keys() != grat_col.keys():
            return False
        for key, (re_, im_) in col.items():
            g = GRat.coerce(grat_col[key])
            if re_ * g.re.denominator != g.re.numerator * den or \
                    im_ * g.im.denominator != g.im.numerator * den:
                return False
    return True


def oracle_bivectors(dim):
    """Seeded integer, rational and Gaussian constant bivectors on T^dim
    (all zero on T^1)."""
    rng = random.Random(f"integer-columns:{dim}")
    pairs = list(itertools.combinations(range(1, dim + 1), 2))
    return {
        "integer": {ij: rng.choice([-3, -1, 2, 5]) for ij in pairs},
        "rational": {ij: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                     for ij in pairs},
        "gaussian": {ij: GRat(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                              Fraction(rng.randint(-5, 5), rng.randint(1, 6)))
                     for ij in pairs},
    }


# J-invariant bivectors for the Dolbeault operator: on T^4,
# w^13 = w^24 and w^14 = -w^23.
COMPLEX_BIVECTORS = {
    2: {"integer": {(1, 2): 4}, "rational": {(1, 2): Fraction(-5, 3)},
        "gaussian": {(1, 2): GRat(Fraction(1, 2), 3)}},
    4: {"integer": {(1, 2): 2, (1, 3): 3, (2, 4): 3, (1, 4): -1, (2, 3): 1,
                    (3, 4): -5},
        "rational": {(1, 2): Fraction(3, 7), (1, 3): Fraction(1),
                     (2, 4): Fraction(1), (3, 4): Fraction(-2)},
        "gaussian": {(1, 2): GRat(Fraction(1, 2), 3), (1, 3): Fraction(1),
                     (2, 4): Fraction(1)}},
}


class TestBivectorIntegerForms:
    """The constant bivector decides its realness once, and both its
    integer forms match the free functions that built them before."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_certificate_bivectors(self, dim):
        for kind, entries in certificate_bivectors(dim).items():
            w = PoissonModel.torus(dim, entries).constant_bivector()
            assert integer_form_mismatches(w) == [], kind

    def test_dolbeault_frames(self):
        models = [PoissonModel.darboux_torus(n, complex_structure=True)
                  for n in (1, 2)]
        models += [PoissonModel.torus(dim, entries, complex_structure=True)
                   for dim, kinds in COMPLEX_BIVECTORS.items()
                   for entries in kinds.values()]
        for model in models:
            wc = complex_frame_bivector(model.constant_bivector())
            assert integer_form_mismatches(wc) == [], model

    @pytest.mark.parametrize("bivector,real", [
        ([[1, 2, "3"], [3, 4, "-2"]], True),
        ([[1, 2, "1/2"], [1, 3, "-2/3"], [2, 4, "5"]], True),
        ([[1, 2, {"re": "1", "im": "0"}], [3, 4, "2"]], True),
        ([[1, 2, {"re": "1", "im": "2"}]], False),
        ([[1, 2, "3"], [3, 4, {"re": "0", "im": "1/2"}]], False),
    ], ids=["integer", "rational", "real-gaussian-json", "gaussian", "mixed"])
    def test_fraction_entries_exactly_when_real(self, bivector, real):
        model = model_from_json({"space": "torus", "dim": 4,
                                 "bivector": bivector})
        w = model.constant_bivector()
        assert {type(c) for c in w.entries.values()} == \
            ({Fraction} if real else {GRat})
        assert (w.table.D is not None) is real


class TestIntegerColumns:
    """The Gaussian-integer operators the drivers certify equal the GRat
    builders of the oracle divided by their denominators, on every mode
    of box 2."""

    @pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_derham_and_homotopy(self, dim, kind):
        w = PoissonModel.torus(dim, oracle_bivectors(dim)[kind]) \
            .constant_bivector()
        bivector = w.integer
        for k in [(0,) * dim] + box(dim, 2):
            kappa, v, den = dh_kappa_v(bivector, k)
            g_kappa, g_v = grat_dh_kappa_v(w, k)
            assert equals_divided(koszul_columns(kappa, v, den),
                                  grat_koszul_columns(g_kappa, g_v)), k
            if any(k):
                assert equals_divided(homotopy_columns(kappa, den),
                                      grat_homotopy_columns(g_kappa)), k

    @pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_dolbeault_and_homotopy(self, dim, kind):
        model = PoissonModel.torus(dim, COMPLEX_BIVECTORS[dim][kind],
                                   complex_structure=True)
        wc = complex_frame_bivector(model.constant_bivector())
        bivector = wc.integer
        for k in [(0,) * dim] + box(dim, 2):
            kappa, v, den = _delbar_kappa_v(bivector, k)
            g_kappa, g_v = grat_delbar_kappa_v(wc, k)
            assert equals_divided(koszul_columns(kappa, v, den),
                                  grat_koszul_columns(g_kappa, g_v)), k
            if any(k):
                assert equals_divided(homotopy_columns(kappa, den),
                                      grat_homotopy_columns(g_kappa)), k

    @pytest.mark.parametrize("kind", ["integer", "rational", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_cartan(self, dim, kind):
        model = PoissonModel.torus(dim, oracle_bivectors(dim)[kind])
        w = model.constant_bivector()
        gens = [[Fraction(1, 2)] + [Fraction(0)] * (dim - 1)]
        if dim > 2:
            gens.append([Fraction(0), Fraction(2, 3), Fraction(-2, 3)]
                        + [Fraction(0)] * (dim - 3))
        action = GroupAction(model, gens)
        labels = [lab for n in range(4)
                  for lab in _equivariant_basis(model, len(gens), n)]
        bivector, generators = w.integer, _integer_generators(action)
        zero = (0,) * dim
        assert equals_divided(
            _cartan_columns(generators, labels),
            grat_cartan_columns(action, *grat_dh_kappa_v(w, zero), labels))
        for k in invariant_modes(action, 2):
            assert equals_divided(
                cartan_columns_at_mode(generators, *dh_kappa_v(bivector, k),
                                       labels),
                grat_cartan_columns(action, *grat_dh_kappa_v(w, k), labels)), k

    @pytest.mark.parametrize("table", [
        lambda m: quantum_derham_table(m, 1),
        lambda m: quantum_dolbeault_table(m, 1),
        lambda m: circle_table(m, 1),
    ], ids=["derham", "dolbeault", "equivariant"])
    def test_flipped_sign_raises_naming_the_mode(self, t2c, monkeypatch,
                                                 table):
        # one entry of the integer builder negated (the first wedge on the
        # empty mask, where d_c iota_b + iota_b d_c then gives -kappa_b),
        # or one sign of iota_b: the certificate of the unit modes fails
        # on e_1, which the circle-invariant box does not hold
        for mutant in (flip_unit_column, flip_iota_sign):
            with monkeypatch.context() as patch:
                mutant(patch)
                with pytest.raises(AssertionError, match=re.escape(
                        "homotopy certificate failed on Fourier mode "
                        "(1, 0)")):
                    table(t2c)
        table(t2c)


def same_table(a, b):
    """Equal tables: degrees, ranks, torsion, meta, and representatives
    with the same ordered (label, coeff) items, each coefficient equal in
    value, ring and scalar types."""
    assert a.ring is b.ring and a.degrees() == b.degrees()
    assert a.meta == b.meta
    for deg in a.degrees():
        ea, eb = a.entries[deg], b.entries[deg]
        assert (ea.degree, ea.free_rank) == (eb.degree, eb.free_rank), deg
        assert ea.torsion == eb.torsion, deg
        assert [list(r) for r in ea.representatives] == \
            [list(r) for r in eb.representatives], deg
        assert same_entries([list(r.values()) for r in ea.representatives],
                            [list(r.values()) for r in eb.representatives]), deg
    return True


class TestTablesMatchSnfOracles:
    """The tables read off the constant monomials equal the Smith normal
    forms of the mode-0 complexes the drivers took before."""

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    @pytest.mark.parametrize("kind", ["integer", "rational", "gaussian",
                                      "zero"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_derham(self, dim, kind, ring):
        entries = {} if kind == "zero" else oracle_bivectors(dim)[kind]
        model = PoissonModel.torus(dim, entries)
        assert same_table(quantum_derham_table(model, 1, ring=ring),
                          derham_table_snf(model, 1, ring=ring))
        assert same_table(
            quantum_derham_table(model, 0, max_degree=7, ring=ring),
            derham_table_snf(model, 0, max_degree=7, ring=ring))

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    @pytest.mark.parametrize("model", [
        PoissonModel.darboux_torus(1, complex_structure=True),
        PoissonModel.darboux_torus(2, complex_structure=True),
        PoissonModel.torus(4, {(1, 3): Fraction(1), (2, 4): Fraction(1),
                               (3, 4): Fraction(-2)}, complex_structure=True),
    ], ids=["darboux-t2", "darboux-t4", "j-invariant-t4"])
    def test_dolbeault(self, model, ring):
        assert same_table(quantum_dolbeault_table(model, 1, ring=ring),
                          dolbeault_table_snf(model, 1, ring=ring))


class TestSparseRepresentatives:
    """Each class of a table is stored by its nonzero coefficients only."""

    @pytest.mark.parametrize("ring", [HLaurent, HPoly])
    def test_every_class_is_one_basis_label(self, t4, ring):
        derham = quantum_derham_table(t4, 0, ring=ring)
        for p in derham.degrees():
            masks = [mask for mask in range(16) if mask.bit_count() == p]
            assert derham.entries[p].representatives == \
                [{mask: ring.one()} for mask in masks]
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)
        dolbeault = quantum_dolbeault_table(t4c, 0, ring=ring)
        for p, q in dolbeault.degrees():
            labels = _dolbeault_bases(2, p, [q], ring is HLaurent)[q]
            assert dolbeault.entries[(p, q)].representatives == \
                [{lab: ring.one()} for lab in labels]
        assert all(type(c) is ring
                   for tab in (derham, dolbeault)
                   for e in tab.entries.values()
                   for rep in e.representatives for c in rep.values())

    def test_mode_zero_table_memory_is_linear(self):
        # a dense vector per class would hold C(12, 6)^2 ring elements in
        # degree 6 alone
        model = PoissonModel.torus(12, {})
        tracemalloc.start()
        try:
            table = quantum_derham_table(model, mode_box=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.total_rank() == 4096
        assert peak < 16 * 2 ** 20


def nonzero_on_mode_zero(monkeypatch, part="kappa"):
    """Give mode 0 of every driver (the only mode with kappa = v = 0) a
    nonzero first entry of ``part``, kappa or v: its operator then has
    an entry, e^1 on the empty mask or e_1 |- on the full one."""
    def broken(builder):
        def kappa_v(w, k):
            kappa, v, den = builder(w, k)
            if not any(k):
                if part == "kappa":
                    kappa = [(1, 0)] + kappa[1:]
                else:
                    v = [(1, 0)] + v[1:]
            return kappa, v, den
        return kappa_v

    patch_builders(monkeypatch, broken)


MODE_ZERO_TABLES = [
    lambda m: quantum_derham_table(m, 1),
    lambda m: quantum_derham_table(m, 0, ring=HPoly),
    lambda m: quantum_dolbeault_table(m, 1),
    lambda m: quantum_dolbeault_table(m, 0, ring=HLaurent),
    lambda m: circle_table(m, 1),
    lambda m: circle_table(m, 0),
]
MODE_ZERO_IDS = ["derham", "derham-box-0", "dolbeault", "dolbeault-box-0",
                 "equivariant", "equivariant-box-0"]


class TestModeZero:
    """Mode 0 is read off the constant monomials only after its kappa and
    v are checked to vanish; each nonzero Dolbeault mode is checked to be
    of bidegree (0, 1)."""

    @pytest.mark.parametrize("table", MODE_ZERO_TABLES, ids=MODE_ZERO_IDS)
    def test_nonzero_mode_zero_raises(self, t2c, monkeypatch, table):
        nonzero_on_mode_zero(monkeypatch)
        with pytest.raises(AssertionError,
                           match=re.escape("Fourier mode (0, 0)")):
            table(t2c)

    @pytest.mark.parametrize("table", MODE_ZERO_TABLES, ids=MODE_ZERO_IDS)
    def test_nonzero_v_on_mode_zero_raises(self, t2c, monkeypatch, table):
        nonzero_on_mode_zero(monkeypatch, part="v")
        with pytest.raises(AssertionError, match=re.escape(
                "nonzero differential on Fourier mode (0, 0)")):
            table(t2c)

    @pytest.mark.parametrize("command", ["cohomology", "dolbeault",
                                         "equivariant"])
    def test_nonzero_mode_zero_exits_three(self, tmp_path, monkeypatch,
                                           capsys, command):
        path = tmp_path / "t2c.json"
        path.write_text(json.dumps(PINNED_FILES["t2c"]), encoding="utf-8")
        action = tmp_path / "circle.json"
        action.write_text(json.dumps(PINNED_FILES["circle"]),
                          encoding="utf-8")
        extra = ["--action", str(action)] if command == "equivariant" else []
        nonzero_on_mode_zero(monkeypatch)
        assert main([command, "--model", str(path), *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"]["message"] == \
            "internal error: AssertionError: nonzero differential on " \
            "Fourier mode (0, 0)"

    def test_dzbar_component_of_v_raises(self, monkeypatch):
        # the complex-frame bivector gains a dzbar-dzbar entry, so v = wc
        # kappa^{0,1} gets a dzbar component on every nonzero mode,
        # linearly: <kappa, v> and the homotopy identity on the masks are
        # unchanged, per mode and on the unit modes, but iota_v then moves
        # p, so only the bidegree check sees it
        t4c = PoissonModel.darboux_torus(2, complex_structure=True)

        def broken(w):
            wc = complex_frame_bivector(w)
            return Bivector(4, {**wc.entries, (3, 4): Fraction(1)})

        monkeypatch.setattr(cohomology, "complex_frame_bivector", broken)
        with pytest.raises(AssertionError, match=re.escape(
                "delbar_h is not of bidegree (0, 1) on Fourier mode "
                "(-1, -1, -1, -1)")):
            quantum_dolbeault_table(t4c, 1)
        wc = broken(t4c.constant_bivector()).integer
        modes = box_modes(4, 1)
        for k in modes:
            if any(k):
                require_acyclic(k, *_delbar_kappa_v(wc, k))
                assert _delbar_kappa_v(wc, k)[1][2:] != [(0, 0)] * 2, k
        require_modes(modes, lambda k: _delbar_kappa_v(wc, k))


class TestDirectDolbeaultBuilder:
    """delbar_h mode matrices from kappa^{0,1} against the symbolic
    Dolbeault splitting."""

    @pytest.mark.parametrize("entries", [
        None,
        {(1, 3): Fraction(1), (2, 4): Fraction(1), (3, 4): Fraction(-2)},
        {(1, 2): GRat(Fraction(1, 2), 3), (1, 3): Fraction(1),
         (2, 4): Fraction(1)},
    ], ids=["darboux", "rational", "gaussian"])
    def test_matches_symbolic_builder(self, entries):
        if entries is None:
            model = PoissonModel.darboux_torus(2, complex_structure=True)
        else:
            model = PoissonModel.torus(4, entries, complex_structure=True)
        wc = complex_frame_bivector(model.constant_bivector()).integer
        for ring, laurent in ((HLaurent, True), (HPoly, False)):
            p = 1
            qs = list(range(p - 3, p + 4)) if laurent else list(range(-1, p + 4))
            bases = _dolbeault_bases(2, p, qs, laurent)
            labels = [lab for q in qs for lab in bases[q]]
            for k in [(0, 0, 0, 0), (1, 0, 0, 0), (0, -1, 0, 0),
                      (1, -1, 2, 0), (-2, 1, 1, 1)]:
                d = label_columns(koszul_columns(*_delbar_kappa_v(wc, k)),
                                  labels)
                for q, q2 in zip(qs, qs[1:]):
                    assert same_entries(
                        dense_matrix(d, bases[q], bases[q2], ring),
                        dolbeault_matrix_symbolic(model, k, bases[q],
                                                  bases[q2], ring)), (k, q)


class TestModeSplitting:
    def test_dh_preserves_modes(self, t2, t4):
        """d_h never mixes Fourier modes when w is constant."""
        from qexterior.calculus import quantum_d
        s = Sampler(11)
        for model in (t2, t4):
            for _ in range(10):
                a = s.model_form(model)
                modes_in = set()
                for (_j, _m), c in a.terms.items():
                    modes_in |= set(c.terms)
                da = quantum_d(a, model)
                modes_out = set()
                for (_j, _m), c in da.terms.items():
                    modes_out |= set(c.terms)
                assert modes_out <= modes_in


class TestDerhamTables:
    def test_t2_laurent(self, t2):
        tab = quantum_derham_table(t2)
        assert {d: tab.rank(d) for d in tab.degrees()} == {0: 1, 1: 2, 2: 1}
        assert tab.total_rank() == 4
        assert tab.is_free()
        assert tab.meta["anomalous_modes"] == []

    def test_t4_laurent(self, t4):
        tab = quantum_derham_table(t4)
        assert tab.total_rank() == 16
        assert {d: tab.rank(d) for d in tab.degrees()} == \
            {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
        assert tab.is_free()
        assert tab.meta["anomalous_modes"] == []

    def test_t2_polynomial_graded_dims(self, t2):
        tab = quantum_derham_table(t2, ring=HPoly, max_degree=6)
        dims = tab.meta["graded_dims"]
        assert dims == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}

    def test_total_rank_is_betti_sum(self, t2, t4):
        # 2^(2n) = sum of Betti numbers of the torus
        assert quantum_derham_table(t2).total_rank() == 2 ** 2
        assert quantum_derham_table(t4).total_rank() == 2 ** 4


class TestRingTable:
    def test_t2_products(self, t2):
        tab = quantum_derham_table(t2)
        rt = ring_table(tab, t2)
        i1 = rt.class_index(1, 0)
        i2 = rt.class_index(1, 1)
        itop = rt.class_index(2, 0)
        iunit = rt.class_index(0, 0)
        w12 = t2.constant_bivector().entry(1, 2)
        prod = rt.product(i1, i2)
        assert prod == {itop: HLaurent.one(),
                        iunit: HLaurent({1: w12})}

    def test_unit_class(self, t2):
        rt = ring_table(quantum_derham_table(t2), t2)
        iunit = rt.class_index(0, 0)
        for j in range(len(rt.classes)):
            assert rt.product(iunit, j) == {j: HLaurent.one()}
            assert rt.product(j, iunit) == {j: HLaurent.one()}

    def test_t4_top_product(self, t4):
        rt = ring_table(quantum_derham_table(t4), t4)
        # locate [e12] and [e34] among degree-2 classes
        def find(mask):
            for i, (_deg, _idx, form) in enumerate(rt.classes):
                if set(form.terms) == {(0, mask)}:
                    return i
            raise AssertionError("class not found")
        i12 = find(0b0011)
        i34 = find(0b1100)
        itop = find(0b1111)
        prod = rt.product(i12, i34)
        assert prod.get(itop) == HLaurent.one()
        # calibrated standard w pairs (1,2) and (3,4) only: no h-corrections
        assert set(prod) == {itop}

    def test_structure_constants_laws(self, t2):
        rt = ring_table(quantum_derham_table(t2), t2)
        n = len(rt.classes)
        degs = [rt.classes[i][0] for i in range(n)]

        def as_vector(prod):
            return {k: v for k, v in prod.items()}

        for i in range(n):
            for j in range(n):
                pij = rt.product(i, j)
                pji = rt.product(j, i)
                sign = -1 if (degs[i] * degs[j]) % 2 else 1
                assert pij == {k: v * Fraction(sign) for k, v in pji.items()}
        # associativity through representatives
        s = Sampler(5)
        for _ in range(10):
            i, j, k = (s.rng.randrange(n) for _ in range(3))
            fi, fj, fk = (rt.classes[t][2] for t in (i, j, k))
            lhs = qwedge(qwedge(fi, fj, t2.w), fk, t2.w)
            rhs = qwedge(fi, qwedge(fj, fk, t2.w), t2.w)
            assert lhs == rhs


    @pytest.mark.parametrize("model", [
        PoissonModel.darboux_torus(1),
        PoissonModel.torus(2, {(1, 2): Fraction(-5, 3)}),
        PoissonModel.torus(3, {(1, 2): GRat(Fraction(1, 2), 3), (2, 3): 4}),
        PoissonModel.darboux_torus(2),
        PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5, (2, 3): 1,
                               (2, 4): -4, (3, 4): 6}),
    ], ids=["t2", "t2-rational", "t3-gaussian", "t4", "t4-integer"])
    def test_permutation_reading_matches_snf_solve(self, model):
        # the representatives of the invariant complex are basis monomials,
        # so the coordinates are read off the product without a solve; a
        # Smith-normal-form solve per pair gives the same values and types
        def signature(structure):
            return {key: {k: sorted((j, type(c), c) for j, c in v.coeffs.items())
                          for k, v in prod.items()}
                    for key, prod in structure.items()}

        for ring in (HLaurent, HPoly):
            tab = quantum_derham_table(model, mode_box=0, ring=ring)
            assert signature(ring_table(tab, model).structure) == \
                signature(ring_table_per_pair(tab, model, ring))

    @pytest.mark.parametrize("model,integer", [
        (PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5, (2, 3): 1,
                                (2, 4): -4, (3, 4): 6}), True),
        (PoissonModel.torus(4, {(1, 2): Fraction(-5, 3), (1, 4): Fraction(7, 2),
                                (2, 3): Fraction(1, 6), (3, 4): 2}), True),
        (PoissonModel.torus(4, {(1, 2): GRat(Fraction(1, 2), 3), (3, 4): 4}),
         False),
    ], ids=["t4-integer", "t4-rational", "t4-gaussian"])
    def test_real_bivector_takes_the_integer_kernel(self, monkeypatch, model,
                                                    integer):
        # the class products are read off the bivector's product table, one
        # mask pair each, without a qwedge call: a rational table (integer
        # rows D W) for a real w, a typed one for a Gaussian w
        tab = quantum_derham_table(model, mode_box=0)
        qwedges, tables = [], []
        qwedge_terms, product = _kernels.qwedge_terms, _kernels.QTable.product

        def counting(*args):
            qwedges.append(args)
            return qwedge_terms(*args)

        def reading(table, ma, mb):
            tables.append(table)
            return product(table, ma, mb)

        monkeypatch.setattr(_kernels, "qwedge_terms", counting)
        monkeypatch.setattr(_kernels.QTable, "product", reading)
        rt = ring_table(tab, model)
        assert len(rt.structure) == 256
        assert qwedges == []
        assert len(tables) == 256
        assert {table.D is not None for table in tables} == {integer}

    def test_negated_representative_matches_snf_solve(self, t4):
        # -e^I represents the same class line: the -1 pivots are read off
        tab = quantum_derham_table(t4, mode_box=0)
        for degree in (1, 2):
            reps = tab.entries[degree].representatives
            reps[-1] = {lab: -c for lab, c in reps[-1].items()}
        assert ring_table(tab, t4).structure == \
            ring_table_per_pair(tab, t4, HLaurent)

    @pytest.mark.parametrize("scale", [Fraction(2), HLaurent.h()],
                             ids=["two", "h"])
    def test_broken_representative_rejected(self, t2, scale):
        tab = quantum_derham_table(t2, mode_box=0)
        reps = tab.entries[1].representatives
        reps[0] = {lab: c * scale for lab, c in reps[0].items()}
        with pytest.raises(AssertionError, match="signed basis monomials"):
            ring_table(tab, t2)

    def test_signed_monomial_detection(self):
        # T^1 has the masks 0 and 1: the classes [1] and [e1]
        t1 = PoissonModel.torus(1, {})
        one = HPoly.one()

        def table(*reps):
            """A T^1 table whose classes are these maps on masks 0, 1."""
            return CohomologyTable(HPoly, [DegreeHomology(
                0, len(reps), [], list(reps))])

        def rejected(*reps):
            with pytest.raises(AssertionError, match="signed basis monomials"):
                ring_table(table(*reps), t1)

        # class 0 is -e^1: 1 * (-e^1) has the coordinate +1 on it
        rt = ring_table(table({1: -one}, {0: one}), t1)
        assert rt.product(1, 0) == rt.product(0, 1) == {0: one}
        assert rt.product(1, 1) == {1: one}
        assert rt.product(0, 0) == {}
        rejected({0: one, 1: one}, {1: one})              # two entries
        rejected({0: HPoly({0: Fraction(2)})}, {1: one})
        rejected({0: HPoly.h()}, {1: one})
        rejected({0: one}, {})                            # an empty class
        rejected({0: one}, {1: one}, {0: one})            # mask 0 twice
        rejected({0: one})                                # mask 1 missing

    @pytest.mark.parametrize("change", ["duplicated", "missing"])
    def test_duplicated_or_missing_mask_rejected(self, t4, change):
        tab = quantum_derham_table(t4, mode_box=0)
        reps = tab.entries[2].representatives
        if change == "duplicated":
            reps[1] = dict(reps[0])      # e^13 -> e^12: e^13 has no class
        else:
            del reps[-1]
        with pytest.raises(AssertionError, match="signed basis monomials"):
            ring_table(tab, t4)

    @pytest.mark.parametrize("model", [
        PoissonModel.darboux_torus(1),
        PoissonModel.torus(2, {(1, 2): Fraction(-5, 3)}),
        PoissonModel.darboux_torus(2),
        PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5, (2, 3): 1,
                               (2, 4): -4, (3, 4): 6}),
    ], ids=["t2", "t2-rational", "t4", "t4-integer"])
    def test_factor_once_matches_per_pair_solves(self, model):
        rings = (HLaurent, HPoly) if model.dim == 2 else (HLaurent,)
        for ring in rings:
            tab = quantum_derham_table(model, mode_box=0, ring=ring)
            assert ring_table(tab, model).structure == \
                ring_table_per_pair(tab, model, ring)


# Reports of one fixed integer bivector on T^4, pinned by sha256 when the
# engine still built d_h symbolically and solved each class product with
# its own Smith normal form: a changed answer fails here.
PINNED_MODEL = {"space": "torus", "dim": 4,
                "bivector": [[1, 2, "3"], [1, 3, "-2"], [1, 4, "5"],
                             [2, 3, "1"], [2, 4, "-4"], [3, 4, "6"]]}
PINNED_SHA256 = {
    "laurent": "a2385c34ddb6fbd227ea57ec304a036f411b25f7342678002f5585efe462ff78",
    "polynomial": "ddc14d3b20f9004cfb6d6e16fbc0fe63a1841cfdd275c5a973e006606499b670",
    "ring_table": "e1b6ff718f370bcf1c6faf6ab08cf8f5748d65d2e724329b2e2c03f1c85f86a6",
}


def ring_table_bytes(rt) -> bytes:
    """Canonical rendering of the classes and structure constants."""
    classes = [[deg, idx, sorted([j, m, str(c)] for (j, m), c in f.terms.items())]
               for deg, idx, f in rt.classes]
    structure = [[i, j, {str(k): str(c) for k, c in sorted(v.items())}]
                 for (i, j), v in sorted(rt.structure.items())]
    return json.dumps({"classes": classes, "structure": structure},
                      sort_keys=True, separators=(",", ":")).encode()


# Further reports, pinned when every nonzero mode was still proved acyclic
# by its own Smith normal form and the Dolbeault and Cartan mode matrices
# were built symbolically.
PINNED_FILES = {
    "t2c": {"space": "torus", "dim": 2, "symplectic": "darboux", "complex": True},
    "t4c": {"space": "torus", "dim": 4, "symplectic": "darboux", "complex": True},
    "t2": {"space": "torus", "dim": 2, "symplectic": "darboux"},
    "t3": {"space": "torus", "dim": 3,
           "bivector": [[1, 2, "2"], [1, 3, "-1/2"], [2, 3, "3"]]},
    "t4": PINNED_MODEL,
    "circle": {"generators": [["1", "0"]]},
    "two-translations": {"generators": [["1", "0", "0", "0"],
                                        ["0", "1", "-1", "0"]]},
    "non-coordinate-t4": {"generators": [["1", "2", "0", "0"]]},
    "non-coordinate-t2": {"generators": [["1", "2"]]},
    "dependent": {"generators": [["1", "0"], ["2", "0"]]},
    "rational": {"generators": [["1/2", "0", "1/3", "0"]]},
}
PINNED_REPORTS = {
    "dolbeault-t2c-laurent": (
        "dolbeault --model t2c --mode-box 1 --ring laurent",
        "600b5edcb3b3d1347eac1b460f48ba01e8d6aeef024fdf4d9783a18bd1ba8fb0"),
    "dolbeault-t2c-polynomial": (
        "dolbeault --model t2c --mode-box 1 --ring polynomial",
        "8a6c50658a3ceb1e08af54356fa2d875ae9019ed4a598f839ddf1ae66369278c"),
    "dolbeault-t4c-laurent": (
        "dolbeault --model t4c --mode-box 1 --ring laurent",
        "2303975e3285e3613c70b9eebae12eb14edd0492440b1fa4cb9d5e1bdd8e26e4"),
    "dolbeault-t4c-polynomial": (
        "dolbeault --model t4c --mode-box 1 --ring polynomial",
        "e7eea495a3724efd86b145252459484e78ad2f05bb85c3d1bc6a8a73c3266280"),
    "equivariant-t2": (
        "equivariant --model t2 --action circle --mode-box 1",
        "9e8bea5851fd5a5ea4c8c9f6669597f72e5f1c6e9fcad3e905a01b9827aea30f"),
    "equivariant-t4": (
        "equivariant --model t4 --action two-translations --mode-box 1 "
        "--cutoff 4",
        "5ace1478f819efc490086f662f22113e4b553176a84ae4f2d9a8b3713f8f506b"),
    # pinned while each nonzero equivariant mode was still certified on
    # the Cartan labels; the mode-0 classes are the Smith normal form's
    # own, such as -2 e^1 + e^2 in degree 1 of the non-coordinate action
    "equivariant-t4-non-coordinate": (
        "equivariant --model t4 --action non-coordinate-t4 --mode-box 1 "
        "--cutoff 8",
        "c4447ee8d08d0d287a1117098ad5c789f65eeb628f5f97ddf3a6d13e2f659f42"),
    "equivariant-t2-dependent": (
        "equivariant --model t2 --action dependent --mode-box 1",
        "dae648c451185ed94d29c32b70c1dc2b549a00a24d7eb6803052b7817e4cdb52"),
    "equivariant-t4-rational": (
        "equivariant --model t4 --action rational --mode-box 1 --cutoff 6",
        "7d8f0f591cd9c3f5894242e0ca553e351fe19107204eea920e55f3988683757d"),
    "equivariant-t2-box-0": (
        "equivariant --model t2 --action circle --mode-box 0",
        "dd6be114f57fdf36beac6d2ba45dd39b7c849a198ea4b606aa97dfb745fa9123"),
    "equivariant-t2-box-2": (
        "equivariant --model t2 --action non-coordinate-t2 --mode-box 2",
        "2ed473d5aa6bcee0e60a44ca84a064a24b980edb86343eb744dd9df285844c80"),
    "cohomology-t3-laurent": (
        "cohomology --model t3 --mode-box 2 --ring laurent",
        "c206affd5dbc6dc0814fa3950bc65c53d01a38b0bdba9afe1d39a8b08089d5c2"),
    "cohomology-t3-polynomial": (
        "cohomology --model t3 --mode-box 2 --ring polynomial",
        "beb35432bdc60f70f0331c271302bcc9e96ad758288b45394f4a77c0a9a4aff6"),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
    def test_report(self, tmp_path, name):
        command, digest = PINNED_REPORTS[name]
        argv = []
        for arg in command.split():
            if arg in PINNED_FILES:
                path = tmp_path / f"{arg}.json"
                path.write_text(json.dumps(PINNED_FILES[arg]), encoding="utf-8")
                arg = str(path)
            argv.append(arg)
        out = tmp_path / "report.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("ring", ["laurent", "polynomial"])
    def test_cohomology_report(self, tmp_path, ring):
        model_path = tmp_path / "t4.json"
        model_path.write_text(json.dumps(PINNED_MODEL), encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["cohomology", "--model", str(model_path),
                     "--mode-box", "1", "--ring", ring, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            PINNED_SHA256[ring]

    def test_ring_table(self):
        model = model_from_json(PINNED_MODEL)
        rt = ring_table(quantum_derham_table(model, mode_box=0), model)
        assert hashlib.sha256(ring_table_bytes(rt)).hexdigest() == \
            PINNED_SHA256["ring_table"]


class TestDolbeaultTable:
    def test_t2_matches_hodge_numbers(self, t2c):
        tab = quantum_dolbeault_table(t2c)
        hodge = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

        def expected(p, q):
            total = 0
            for j in range(0, min(p, q) + 1):
                total += hodge.get((p - j, q - j), 0)
            return total

        for p in range(0, 3):
            for q in range(0, 3):
                assert tab.rank((p, q)) == expected(p, q), (p, q)
        assert tab.meta["anomalous_modes"] == []

    def test_non_complex_model_rejected(self, t2):
        with pytest.raises(ValueError):
            quantum_dolbeault_table(t2)


class TestGradedDims:
    def test_laurent_every_parity(self, t2):
        tab = quantum_derham_table(t2)
        dims = graded_dims(tab, laurent=True, max_degree=4)
        # each total degree collects every class of matching parity
        assert dims == {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}
