"""Finite complexes, Smith-normal-form homology, and the cohomology
tables of torus models."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from oracles import matrix_of_dh_symbolic, ring_table_per_pair
from qexterior.cli import main
from qexterior.cohomology import (_matrix_of_dh, graded_dims,
                                  invariant_subcomplex, mode_subcomplex,
                                  quantum_derham_table,
                                  quantum_dolbeault_table, ring_table)
from qexterior.complexes import (FiniteComplex, complex_homology,
                                 free_rank_oracle)
from qexterior.hpoly import HLaurent, HPoly
from qexterior.models import PoissonModel
from qexterior.scalars import GRat
from qexterior.quantum import qwedge
from qexterior.sampling import Sampler
from qexterior.serialize import model_from_json


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
                            _matrix_of_dh(model, k, src, dst, ring),
                            matrix_of_dh_symbolic(model, k, src, dst, ring)), \
                            (seed, k, src[0] & 1, ring)

    def test_gaussian_bivector_and_wider_modes(self):
        # complex w entries and |k_i| = 2 reach the GRat arithmetic
        model = PoissonModel.torus(2, {(1, 2): GRat(Fraction(1, 2), 3)})
        for k in [(2, -1), (0, 2), (-2, 2)]:
            for src, dst in (([0, 3], [1, 2]), ([1, 2], [0, 3])):
                assert same_entries(
                    _matrix_of_dh(model, k, src, dst, HLaurent),
                    matrix_of_dh_symbolic(model, k, src, dst, HLaurent))


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
        PoissonModel.darboux_torus(2),
        PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5, (2, 3): 1,
                               (2, 4): -4, (3, 4): 6}),
    ], ids=["t2", "t2-rational", "t4", "t4-integer"])
    def test_factor_once_matches_per_pair_solves(self, model):
        rings = (HLaurent, HPoly) if model.dim == 2 else (HLaurent,)
        for ring in rings:
            tab = quantum_derham_table(model, mode_box=0, ring=ring)
            assert ring_table(tab, model, ring).structure == \
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


class TestPinnedOutputs:
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
