"""The spectrum layer against the algorithms it replaced (tests/oracles.py):
Hessenberg charpoly vs determinant interpolation and the star table of
one Omega vs the per-call star formula, plus the (x - n)^size certificate
that replaced the root search."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from oracles import (antisymmetric_invertible, charpoly_interpolation,
                     det_by_columns, inverse_gauss_jordan, rank_by_rows,
                     symplectic_star_uncached)
from qexterior import lefschetz
from qexterior.forms import HForm, StarTable, symplectic_star
from qexterior.hpoly import HPoly
from qexterior.lefschetz import DarbouxSpace, Mh_matrix
from qexterior.linalg import (charpoly, det, factor_charpoly,
                              geometric_multiplicity, matrix_inverse, rank)
from qexterior.models import PoissonModel, darboux_matrix
from qexterior.sampling import Sampler
from qexterior.scalars import GRat

fractions_st = st.builds(Fraction,
                         st.integers(min_value=-9, max_value=9),
                         st.integers(min_value=1, max_value=6))
# Half the entries zero, so subdiagonal pivots vanish and rows must swap.
entries_st = st.one_of(st.just(Fraction(0)), fractions_st)


def _matrices(max_size):
    return st.integers(min_value=0, max_value=max_size).flatmap(
        lambda n: st.lists(st.lists(entries_st, min_size=n, max_size=n),
                           min_size=n, max_size=n))


def _linear(r):
    return HPoly({1: Fraction(1), 0: -r})


class TestCharpoly:
    @given(_matrices(8))
    @settings(max_examples=120, deadline=None)
    def test_matches_interpolation(self, rows):
        assert charpoly(rows) == charpoly_interpolation(rows)

    def test_zero_subdiagonal_pivots(self):
        z, o = Fraction(0), Fraction(1)
        cases = [
            # column 0 is zero below the diagonal: no pivot, skip the step
            [[o, 2 * o, 3 * o], [z, 4 * o, 5 * o], [z, 6 * o, 7 * o]],
            # the pivot sits two rows down: rows and columns swap
            [[o, o, z, z], [z, o, o, z], [5 * o, z, o, o], [z, z, o, o]],
            # block diagonal: a zero subdiagonal survives the reduction
            [[o, 2 * o, z, z], [3 * o, 4 * o, z, z],
             [z, z, 5 * o, 6 * o], [z, z, 7 * o, 8 * o]],
        ]
        for rows in cases:
            assert charpoly(rows) == charpoly_interpolation(rows)

    def test_integer_entries(self):
        rows = [[0, 1, 2], [3, 0, 4], [5, 6, 0]]
        p = charpoly(rows)
        assert p == charpoly_interpolation(
            [[Fraction(x) for x in row] for row in rows])
        assert all(isinstance(c, Fraction) for c in p.coeffs.values())

    def test_leaves_input_unchanged(self):
        rows = [[Fraction(i * 3 + j) for j in range(3)] for i in range(3)]
        copy = [list(r) for r in rows]
        charpoly(rows)
        assert rows == copy


class TestIntegerMatrices:
    """Plain int entries are read as Fractions: no float ever appears."""

    def test_det_is_a_fraction(self):
        d = det([[2, 1], [1, 1]])
        assert d == 1 and type(d) is Fraction

    def test_huge_entries_stay_exact(self):
        # through floats, 10**20 + 1 rounds to 10**20: det 0 and rank 1
        rows = [[10**20, 1], [10**20 + 1, 1]]
        assert det(rows) == -1
        assert rank(rows) == 2
        inv = matrix_inverse(rows)
        assert inv == [[-1, 1], [10**20 + 1, -10**20]]
        assert all(type(x) is Fraction for row in inv for x in row)


def _typed(x):
    """A value with its type, entry by entry; errors by class and text."""
    if isinstance(x, list):
        return [_typed(y) for y in x]
    return type(x), x


def _outcome(f, rows):
    try:
        return "value", _typed(f(rows))
    except Exception as exc:       # noqa: BLE001 - the error is compared
        return "error", type(exc), str(exc)


def _entry(rng, kind):
    """A random entry of the kind int, Fraction or GRat, zero 40% of the
    time (so pivots vanish and rows swap)."""
    if rng.random() < 0.4:
        return {"int": 0, "fraction": Fraction(0), "grat": GRat(0)}[kind]
    num, den = rng.randint(-6, 6), rng.randint(1, 4)
    if kind == "int":
        return num
    if kind == "fraction":
        return Fraction(num, den)
    return GRat(Fraction(num, den), rng.randint(-3, 3))


def _seeded_matrices(seed, kinds, count=150):
    """(square, rectangular) pairs of sizes 0..6 with entries of one kind
    each, or of a kind drawn per entry ("mixed")."""
    rng = random.Random(seed)
    for _ in range(count):
        kind = rng.choice(kinds)
        pick = (lambda: _entry(rng, rng.choice(["int", "fraction", "grat"]))) \
            if kind == "mixed" else (lambda: _entry(rng, kind))
        n, c = rng.randint(0, 6), rng.randint(0, 6)
        yield ([[pick() for _ in range(n)] for _ in range(n)],
               [[pick() for _ in range(c)] for _ in range(n)])


class TestOneElimination:
    """det, rank and matrix_inverse share one forward elimination; each
    agrees in value and type with the elimination it replaced, singular,
    rectangular and empty inputs included."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_det_and_rank_match_the_separate_eliminations(self, seed):
        for square, rect in _seeded_matrices(
                seed, ["int", "fraction", "grat", "mixed"]):
            assert _outcome(det, square) == _outcome(det_by_columns, square)
            for rows in (square, rect):
                assert _outcome(rank, rows) == _outcome(rank_by_rows, rows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inverse_matches_gauss_jordan(self, seed):
        # one entry type per matrix, as every caller passes (a symplectic
        # matrix is read as Fractions)
        singular = 0
        for square, _rect in _seeded_matrices(seed,
                                              ["int", "fraction", "grat"]):
            got = _outcome(matrix_inverse, square)
            assert got == _outcome(inverse_gauss_jordan, square)
            singular += got[0] == "error"
        assert 0 < singular < 150

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inverse_of_mixed_entries_has_the_same_values(self, seed):
        # with Fraction and GRat entries mixed in one matrix, which entries
        # come out as GRat follows the order of the row operations; the
        # values agree
        for square, _rect in _seeded_matrices(seed, ["mixed"]):
            try:
                want = inverse_gauss_jordan(square)
            except ValueError:
                with pytest.raises(ValueError, match="singular matrix"):
                    matrix_inverse(square)
                continue
            assert matrix_inverse(square) == want

    def test_empty_and_degenerate_shapes(self):
        assert _typed(det([])) == (Fraction, 1)
        assert matrix_inverse([]) == []
        assert rank([]) == rank([[]]) == rank([[], []]) == 0
        assert _typed(det([[0, 0], [0, 5]])) == (Fraction, 0)
        assert _typed(det([[GRat(2), 1], [0, 0]])) == (GRat, 0)
        with pytest.raises(ValueError, match="singular matrix"):
            matrix_inverse([[1, 2], [2, 4]])


class TestCertificate:
    """factor_charpoly certifies p == (x - n)^deg p and nothing else."""

    @pytest.mark.parametrize("n", [Fraction(3), Fraction(-7, 2), Fraction(0),
                                   Fraction(10) ** 400 + 7])
    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_accepts_a_pure_power(self, n, size):
        f = factor_charpoly(_linear(n) ** size, n)
        assert f.rational_roots == {n: size}
        assert f.quadratics == {}
        assert str(f.remainder) == "1"      # the report's "unfactored"

    def test_rejects_every_other_shape(self):
        big = Fraction(10) ** 400 + 7
        for p, n in [
            (_linear(Fraction(3)) * _linear(Fraction(4)), 3),
            (_linear(big) ** 2 * _linear(big + 1), big),  # off by one at 10^400
            (_linear(Fraction(1)) ** 2, 2),                # the wrong eigenvalue
            # x^2 - 2x - 1/4: the claimed pair 1 +- sqrt(5)/2
            (HPoly({2: Fraction(1), 1: Fraction(-2), 0: Fraction(-1, 4)}), 1),
            (HPoly.from_scalar(Fraction(2)), 1),           # not monic
        ]:
            with pytest.raises(AssertionError, match=r"is not \(x - "):
                factor_charpoly(p, n)


class TestDarbouxBlocks:
    @pytest.mark.parametrize("n", [1, 2])
    def test_spectra_match_oracles(self, n):
        space = DarbouxSpace(n)
        for k in range(-2 * n, 2 * n + 1):
            M = Mh_matrix(space, k)
            p = charpoly(M)
            assert p == charpoly_interpolation(M)
            assert p == _linear(Fraction(n)) ** len(M)
            assert factor_charpoly(p, n).rational_roots == {n: len(M)}


class TestGeometricMultiplicity:
    def test_eigenspace_dimension(self):
        o, z = Fraction(1), Fraction(0)
        jordan = [[z, -o], [o, 2 * o]]            # (x - 1)^2, one block
        assert geometric_multiplicity(jordan, o) == 1
        ident = [[o, z], [z, o]]
        assert geometric_multiplicity(ident, o) == 2
        assert geometric_multiplicity(ident, 2 * o) == 0
        assert geometric_multiplicity([[3, 1], [0, 3]], 3) == 1
        assert geometric_multiplicity([], 1) == 0


def _h_form(s, dim):
    """Random Laurent form with h-powers and exact coefficients."""
    return s.ext_form(dim, h_max=2, laurent=True, terms=4)


class TestStarTable:
    def test_matches_uncached_formula(self):
        s = Sampler(4101)
        for dim in (2, 4, 6):
            for _ in range(6):
                om = antisymmetric_invertible(s, dim)
                star = StarTable(om)
                for _ in range(4):
                    a = _h_form(s, dim)
                    assert symplectic_star(a, star) == \
                        symplectic_star_uncached(a, om)

    def test_matches_uncached_on_darboux_basis(self):
        for n in (1, 2, 3):
            om = darboux_matrix(n)
            star = StarTable(om)
            for mask in range(1 << (2 * n)):
                a = HForm(2 * n, {(1, mask): Fraction(2, 3),
                                  (-1, mask ^ 1): Fraction(-5)}, laurent=True)
                assert symplectic_star(a, star) == \
                    symplectic_star_uncached(a, om)

    def test_minors_keep_the_entry_type(self):
        # the minors come from the table of w* = -Omega^-1: read back as
        # Fractions on a rational Omega, Gaussian on a Gaussian one
        g = GRat(Fraction(1, 2), 3)
        z = GRat(0)
        gaussian = [[z, g, z, z], [-g, z, z, z],
                    [z, z, z, GRat(2, -1)], [z, z, GRat(-2, 1), z]]
        for om in (darboux_matrix(2), gaussian):
            star = StarTable(om)
            for mask in range(16):
                a = HForm(4, {(0, mask): Fraction(1)})
                got, oracle = symplectic_star(a, star), \
                    symplectic_star_uncached(a, om)
                assert got == oracle, mask
                assert [type(c) for c in got.terms.values()] == \
                    [type(oracle.terms[key]) for key in got.terms], mask

    def test_invalid_omega_raises_in_the_constructor(self):
        singular = [[Fraction(0)] * 2] * 2
        odd = [[Fraction(0)] * 3] * 3
        unsymmetric = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        for om in (singular, odd, unsymmetric):
            with pytest.raises(ValueError):
                StarTable(om)

    def test_polynomial_h_form_still_rejected(self):
        star = StarTable(darboux_matrix(1))
        symplectic_star(HForm.basis(2, 1), star)      # a row now filled
        for _ in range(2):
            with pytest.raises(ValueError):
                symplectic_star(HForm(2, {(1, 0): Fraction(1)}), star)
        with pytest.raises(ValueError, match="dimension mismatch"):
            symplectic_star(HForm.basis(4, 1), star)

    def test_commutator_check_builds_one_table(self, monkeypatch):
        built = count_star_tables(monkeypatch)
        assert lefschetz.commutator_check(2).ok
        assert built == [4]

    def test_hard_lefschetz_check_builds_no_table(self, monkeypatch):
        # the M_h blocks use L_h only, never the star
        built = count_star_tables(monkeypatch)
        assert lefschetz.hard_lefschetz_check(2).all_invertible
        assert built == []

    def test_d_commutators_build_only_their_own_table(self, monkeypatch):
        # the model's space builds the one table of the model's Omega,
        # on the first L_h*
        model = PoissonModel.darboux_torus(2)
        forms = [Sampler(7).model_form(model, laurent=True)]
        built = count_star_tables(monkeypatch)
        assert lefschetz.lefschetz_d_commutators(model, forms).ok
        assert built == [4]


def count_star_tables(monkeypatch):
    """The sizes of the StarTables the lefschetz module builds from now
    on, in order."""
    built = []

    class Counted(StarTable):
        def __init__(self, omega):
            built.append(len(omega))
            super().__init__(omega)

    monkeypatch.setattr(lefschetz, "StarTable", Counted)
    return built
