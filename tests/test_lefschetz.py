"""Lefschetz operators, commutator algebra, exact spectra, recursion
lemma, and the quantum Hard Lefschetz verification."""

import hashlib
import importlib.util
import json
import random
import re
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qexterior import lefschetz, linalg
from qexterior.cli import main
from qexterior._kernels import wedge_terms
from qexterior.forms import (Bivector, HForm, bivector_contract,
                             exp_contract_terms)
from qexterior.hpoly import HPoly
from qexterior.lefschetz import (Columns, DarbouxSpace, Mh_matrix,
                                 SpectrumReport, _a_factor, apply_Ah,
                                 apply_Lh, apply_Lh_star, commutator_check,
                                 hard_lefschetz_check, lefschetz_columns,
                                 lefschetz_d_commutators, paper_conformance)
from qexterior.linalg import charpoly, det
from qexterior.models import PoissonModel
from qexterior.sampling import Sampler
from qexterior.serialize import dump_json, spectrum_to_json

from oracles import (HessenbergSpectrumReport, OperatorColumns, apply_Mh,
                     commutator_check_per_form, commutator_check_per_label,
                     flip_lh_bivector, hard_lefschetz_check_per_block,
                     operator_matrix_per_form, recursion_matrix,
                     recursion_verify, stratum_rank_by_elimination)


TRANSPORT = r"M_h E x != E \(N \+ n\) x"


def assert_block_fails(capsys, n, k, message):
    """hard_lefschetz_check(n) fails the block of degree k with
    ``message`` (a regex), and ``lefschetz --n n`` exits 3 with that
    error on stderr."""
    with pytest.raises(AssertionError,
                       match=rf"^M_h block of degree {k}: {message}"):
        hard_lefschetz_check(n)
    assert main(["lefschetz", "--n", str(n)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(rf"AssertionError: M_h block of degree {k}: {message}",
                     captured.err)


@pytest.fixture(scope="module")
def s1():
    return DarbouxSpace(1)


class TestOperators:
    def test_Ah_middle_degree(self, s1):
        e1 = HForm.basis(2, 1, laurent=True)
        assert apply_Ah(e1, s1).is_zero()

    def test_Lh_unit(self, s1):
        one = HForm.scalar(2, Fraction(1), laurent=True)
        assert apply_Lh(one, s1) == HForm.monomial(2, [1, 2], laurent=True)

    def test_Lh_degree_one(self, s1):
        # L_h e^i = -a h e^i with a = w^{12} = -1 of the calibrated dual
        e1 = HForm.basis(2, 1, laurent=True)
        a = s1.w.entry(1, 2)
        assert a == -1
        assert apply_Lh(e1, s1) == HForm(2, {(1, 1): -a}, laurent=True)

    def test_Lh_star_needs_laurent(self, s1):
        with pytest.raises(ValueError):
            apply_Lh_star(HForm.basis(2, 1), s1)

    def test_omega_squared(self, s1):
        # omega ^_h omega = 2 h omega - h^2 under the calibration
        om = s1.omega_form
        got = apply_Lh(om, s1)
        expect = HForm(2, {(1, 3): Fraction(2), (2, 0): Fraction(-1)},
                       laurent=True)
        assert got == expect


class TestMhMatrices:
    def test_k0(self, s1):
        assert Mh_matrix(s1, 0) == [[Fraction(0), Fraction(-1)],
                                    [Fraction(1), Fraction(2)]]

    def test_k1(self, s1):
        assert Mh_matrix(s1, 1) == [[Fraction(1), Fraction(0)],
                                    [Fraction(0), Fraction(1)]]

    def test_k2(self, s1):
        assert Mh_matrix(s1, 2) == [[Fraction(2), Fraction(1)],
                                    [Fraction(-1), Fraction(0)]]

    def test_block_sizes(self):
        s2 = DarbouxSpace(2)
        assert len(s2.basis(0)) == 8
        assert len(s2.basis(1)) == 8


def _patch_columns(monkeypatch, L=None, Ls=None):
    """Make ``lefschetz_columns`` hand out ``L(lab, column)`` and
    ``Ls(lab, column)`` in place of the calibrated columns."""
    real = lefschetz.lefschetz_columns

    def patched(space):
        cols = real(space)
        return tuple(cols[i] if f is None else
                     Columns(lambda lab, f=f, c=cols[i]: f(lab, c[lab]))
                     for i, f in enumerate((L, Ls)))

    monkeypatch.setattr(lefschetz, "lefschetz_columns", patched)


def _plus_identity(lab, col):
    out = dict(col)
    out[lab] = out.get(lab, 0) + 1
    return {y: c for y, c in out.items() if c}


def _doubled_on_h0(lab, col):
    return {y: 2 * c for y, c in col.items()} if lab[0] == 0 else col


def _drop_empty_mask(lab, col):
    return {y: c for y, c in col.items() if y[1]}


def _a_factor_3j(lab, n):
    return n - lab[1].bit_count() - 3 * lab[0]


def _a_factor_odd_e1(lab, n):
    return _a_factor(lab, n) + (lab[1] & 1)


# One targeted mutant per identity that can fail: the columns patched
# through lefschetz_columns and the A_h factor of a label.  [h,h^-1]=0,
# Mh=h^-1Lh and Mh*=hLh* hold by the definitions of the shift, M_h and
# M_h*.  Each mutant must make its identity fail, so that no identity is
# compared with itself.
MUTANTS = {
    "[Lh,Lh*]=0": ({"L": _drop_empty_mask}, None),
    "[Lh,Ah]=2Lh": ({"L": _plus_identity}, None),
    "[Lh*,Ah]=-2Lh*": ({"Ls": _plus_identity}, None),
    "[Lh,h]=0": ({"L": _doubled_on_h0}, None),
    "[Lh,h^-1]=0": ({"L": _doubled_on_h0}, None),
    "[Lh*,h]=0": ({"Ls": _doubled_on_h0}, None),
    "[Lh*,h^-1]=0": ({"Ls": _doubled_on_h0}, None),
    "[Ah,h]=-2h": ({}, _a_factor_3j),
    "[Ah,h^-1]=2h^-1": ({}, _a_factor_3j),
    "[Mh,Mh*]=0": ({"Ls": _drop_empty_mask}, None),
    "[Mh,Ah]=0": ({}, _a_factor_odd_e1),
    "[Mh*,Ah]=0": ({}, _a_factor_odd_e1),
}


class TestCommutators:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_identities(self, n):
        rep = commutator_check(n)
        assert rep.ok, rep.failures

    def test_negative_control(self, monkeypatch):
        flip_lh_bivector(monkeypatch)
        rep = commutator_check(1)
        assert not rep.ok
        assert "[Lh,Lh*]=0" in rep.failures

    @pytest.mark.parametrize("factor", [-1, 3], ids=["negated", "tripled"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_scale_of_Lh_star(self, monkeypatch, capsys, n, factor):
        # every identity is linear in L_h*, so a rescaled L_h* passes all
        # fifteen; the certificate M_h* = M_h - 2n fails on the first label
        _patch_columns(monkeypatch,
                       Ls=lambda lab, col: {y: factor * c
                                            for y, c in col.items()})
        message = (f"M_h* = M_h - 2n fails on degree {-2 * n - 2}, "
                   f"basis element h^{-n - 1}")
        with pytest.raises(AssertionError, match=re.escape(message)):
            commutator_check(n)
        assert main(["lefschetz", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"AssertionError: {message}" in captured.err

    @pytest.mark.parametrize("name", list(MUTANTS))
    @pytest.mark.parametrize("n", [1, 2])
    def test_mutant_fails_its_identity(self, monkeypatch, n, name):
        columns, factor = MUTANTS[name]
        _patch_columns(monkeypatch, **columns)
        if factor is not None:
            monkeypatch.setattr(lefschetz, "_a_factor", factor)
        rep = commutator_check(n)
        assert rep.results[name] is False
        assert rep.failures[name].startswith("degree ")

    def test_d_commutators_on_torus_forms(self):
        s = Sampler(77)
        for n in (1, 2):
            model = PoissonModel.darboux_torus(n)
            forms = [s.model_form(model, laurent=True) for _ in range(12)]
            rep = lefschetz_d_commutators(model, forms)
            assert rep.ok, rep.failures


def _report(rep):
    return rep.results, rep.failures, rep.notes, rep.window


class TestOperatorColumnsOracle:
    """The column-composing check and matrices against the per-form ones."""

    @pytest.mark.parametrize("corrupt_w", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutator_reports_identical(self, monkeypatch, n, corrupt_w):
        want = commutator_check_per_form(n, corrupt_w=corrupt_w)
        if corrupt_w:
            flip_lh_bivector(monkeypatch)
        got = commutator_check(n)
        assert _report(got) == _report(want)
        assert got.ok != corrupt_w

    def test_commutator_report_n4_seeded_window(self):
        lo = random.Random(4).randint(-10, 8)
        window = [lo, lo + 1, lo + 2]
        got = commutator_check(4, window=window)
        assert _report(got) == _report(commutator_check_per_form(4, window))
        assert got.ok

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_Mh_matrix_matches_per_form(self, n):
        calibrated, zero = DarbouxSpace(n), DarbouxSpace(n)
        zero.w = Bivector.zero(2 * n)
        for space in (calibrated, zero):
            for k in range(-(2 * n + 2), 2 * n + 3):
                got = Mh_matrix(space, k)
                want = operator_matrix_per_form(
                    lambda x: apply_Mh(x, space), space, k, 0)
                assert got == want
                assert all(type(c) is Fraction for row in got for c in row)

    def test_columns_keep_non_integral_values(self):
        # w^{12} / 3 makes the table's D = 3: an order-k term is d / 3^k,
        # and one that comes out integral is stored as an int
        space = DarbouxSpace(2)
        space.w = Bivector(4, {(1, 2): Fraction(-1, 3), (3, 4): Fraction(-1)})
        L, _Ls = lefschetz_columns(space)
        # omega ^_h e^{ij} = e^1234 + 2 h e^{ij} - h^2 under w^{ij} = -1,
        # see TestOperators
        assert L[(0, 3)] == {(0, 15): 1, (1, 3): Fraction(2, 3),
                             (2, 0): Fraction(-1, 9)}
        assert L[(0, 12)] == {(0, 15): 1, (1, 12): 2, (2, 0): -1}
        assert all(type(c) is int for c in L[(0, 12)].values())
        oracle = OperatorColumns(lambda x: apply_Lh(x, space), space)
        for k in range(-3, 4):
            for lab in space.basis(k):
                assert L[lab] == oracle[lab]
                assert {key: type(c) for key, c in L[lab].items()} == \
                    {key: type(c) for key, c in oracle[lab].items()}
        for k in (-1, 0, 1):
            assert Mh_matrix(space, k) == operator_matrix_per_form(
                lambda x: apply_Mh(x, space), space, k, 0)

    def test_columns_store_integral_values_as_int(self, s1):
        L, _Ls = lefschetz_columns(s1)
        assert L[(0, 3)] == {(1, 3): 2, (2, 0): -1}
        assert all(type(c) is int for c in L[(0, 3)].values())

    def test_column_is_the_operator_on_its_label(self):
        # every label for n <= 3 and a seeded window of three degrees at
        # n = 4: the L_h and L_h* columns are apply_Lh and apply_Lh_star
        # on the label's unit form, every coefficient an int
        lo = random.Random(7).randint(-10, 8)
        for n, degrees in [(1, range(-4, 5)), (2, range(-6, 7)),
                           (3, range(-8, 9)), (4, range(lo, lo + 3))]:
            space = DarbouxSpace(n)
            L, Ls = lefschetz_columns(space)
            for op, cols in [(apply_Lh, L), (apply_Lh_star, Ls)]:
                for k in degrees:
                    for lab in space.basis(k):
                        unit = HForm(2 * n, {lab: Fraction(1)}, laurent=True)
                        assert HForm(2 * n, cols[lab], laurent=True) == \
                            op(unit, space), (n, op.__name__, lab)
                        assert all(type(c) is int
                                   for c in cols[lab].values())


class TestStarIdentity:
    """M_h* = M_h - 2n, i.e. L_h* = h^-2 L_h - 2n h^-1: the star-defined
    adjoint is a polynomial in L_h, which is why [Mh,Mh*] = 0 holds."""

    @pytest.mark.parametrize("n,degrees", [
        (1, range(-4, 5)), (2, range(-6, 7)), (3, range(-8, 9)),
        (4, (-3, 0, 4)),
    ], ids=["n1", "n2", "n3", "n4-window"])
    def test_Lh_star_is_shifted_Lh(self, n, degrees):
        space = DarbouxSpace(n)
        L, Ls = lefschetz_columns(space)
        for k in degrees:
            for j, mask in space.basis(k):
                expected = {(j2 - 2, m2): c
                            for (j2, m2), c in L[(j, mask)].items()}
                key = (j - 1, mask)
                expected[key] = expected.get(key, 0) - 2 * n
                assert Ls[(j, mask)] == {key: c for key, c in expected.items()
                                         if c}, (n, j, mask)


class TestSpectra:
    """The Hessenberg oracle on small matrices."""

    def test_jordan_block(self):
        M = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(2)]]
        rep = HessenbergSpectrumReport(M, 1)
        assert rep.charpoly == HPoly({2: 1, 1: -2, 0: 1})
        assert not rep.diagonalizable
        assert rep.det == 1
        assert rep.invertible

    def test_identity(self):
        M = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        rep = HessenbergSpectrumReport(M, 1)
        assert rep.diagonalizable
        assert rep.factorization.rational_roots == {Fraction(1): 2}

    def test_conformance_reporting(self):
        # the n = 1 degree-0 block: eigenvalue n with a Jordan block; the
        # claimed one-dimensional eigenspace decomposition fails and the
        # report must say so rather than hide it
        M = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(2)]]
        rep = HessenbergSpectrumReport(M, 1)
        conf = paper_conformance(rep)
        assert conf["status"] == "mismatch"
        assert any("geometric multiplicity" in issue for issue in conf["issues"])


class TestClassicalCount:
    """M_h - n = E (h^-1 omega^) E^-1, so the eigenspace of n on the block
    of degree k is E applied to the kernel of omega^ on the forms of degree
    q = k (mod 2).  omega^ : Lambda^q -> Lambda^{q+2} on R^{2n} is injective
    below q = n - 1 and onto from there, so that kernel telescopes to
    C(2n, q0), q0 the least q >= n - 1 with q = k (mod 2)."""

    @staticmethod
    def expected(n, k):
        q0 = n - 1 if (k - (n - 1)) % 2 == 0 else n
        return {str(n): (2 ** (2 * n - 1), comb(2 * n, q0))}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_block(self, n):
        rep = hard_lefschetz_check(n)
        assert list(rep.blocks) == list(range(-2 * n, 2 * n + 1))
        for k, block in rep.blocks.items():
            assert block.geometric == self.expected(n, k), k

    @pytest.mark.parametrize("k,geometric", [(0, 70), (1, 56)])
    def test_n4_middle_blocks(self, k, geometric):
        rep = SpectrumReport(DarbouxSpace(4), k)
        assert rep.geometric == self.expected(4, k) == {"4": (128, geometric)}
        assert rep.det == 4 ** 128


class TestTransportCertificate:
    """SpectrumReport(space, k) certifies a block by M_h E = E (N + n) and
    reads its data off N; it must equal the Hessenberg oracle on the
    block's matrix, down to the bytes of the report."""

    @staticmethod
    def assert_agrees(space, k):
        n = space.n
        got = SpectrumReport(space, k)
        want = HessenbergSpectrumReport(Mh_matrix(space, k), n)
        assert got.size == want.size
        assert got.charpoly == want.charpoly
        assert [(j, str(c)) for j, c in got.charpoly.coeffs.items()] == \
            [(j, str(c)) for j, c in want.charpoly.coeffs.items()]
        assert (got.det, str(got.det)) == (want.det, str(want.det))
        f, g = got.factorization, want.factorization
        assert list(f.rational_roots.items()) == \
            list(g.rational_roots.items())
        assert (f.quadratics, f.remainder) == (g.quadratics, g.remainder)
        assert got.geometric == want.geometric
        assert got.diagonalizable == want.diagonalizable
        assert got.invertible == want.invertible
        assert got.eigen_summary() == want.eigen_summary()
        conformance = paper_conformance(want)
        assert paper_conformance(got) == conformance
        assert dump_json(spectrum_to_json(got, conformance)) == \
            dump_json(spectrum_to_json(want, conformance))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_block_agrees_with_hessenberg(self, n):
        space = DarbouxSpace(n)
        for k in range(-2 * n, 2 * n + 1):
            self.assert_agrees(space, k)

    def test_n4_window_agrees_with_hessenberg(self):
        space = DarbouxSpace(4)
        lo = random.Random("transport-n4").randint(-8, 6)
        for k in range(lo, lo + 3):
            self.assert_agrees(space, k)

    def test_check_builds_no_block_matrix(self, monkeypatch):
        # the certificate works on columns; tests/test_repo.py keeps the
        # charpoly and its factorization out of the library
        def forbidden(*_args):
            raise AssertionError("Mh_matrix called")

        monkeypatch.setattr(lefschetz, "Mh_matrix", forbidden)
        assert hard_lefschetz_check(2).all_invertible


class TestRecursion:
    def test_base_case(self):
        M = [[Fraction(0)]]
        Mp = recursion_matrix(M)
        lhs = charpoly([[-x for x in row] for row in Mp])
        assert lhs == HPoly({2: 1, 1: 2, 0: 1})  # (x + 1)^2
        assert recursion_verify(M)

    def test_random_matrices(self):
        s = Sampler(83)
        for size in range(1, 9):
            M = [[s.fraction() for _ in range(size)] for _ in range(size)]
            assert recursion_verify(M)

    def test_iterated_doubling(self):
        # det(M' + x I) = det(M + (x + 1) I)^2: each step adds 1 to the one
        # eigenvalue of [0] and doubles its multiplicity
        M = [[Fraction(0)]]
        for step in range(1, 5):
            assert recursion_verify(M)
            M = recursion_matrix(M)
            rep = HessenbergSpectrumReport(M, step)
            assert rep.factorization.rational_roots == {Fraction(step):
                                                        2 ** step}


class TestHardLefschetz:
    @pytest.mark.parametrize("n", [1, 2])
    def test_invertible(self, n):
        rep = hard_lefschetz_check(n)
        assert rep.all_invertible
        for k, block in rep.blocks.items():
            assert block.det != 0

    def test_t2_determinants_unit(self):
        rep = hard_lefschetz_check(1)
        assert {k: b.det for k, b in rep.blocks.items()} == \
            {k: Fraction(1) for k in rep.blocks}

    def test_negative_control_zero_bivector(self, monkeypatch, capsys):
        # w = 0 leaves the classical h^-1 omega^, which is nilpotent: every
        # block is singular, fails the Hessenberg oracle's (x - n)^size, and
        # fails the transport certificate, whose E is then the identity
        space = DarbouxSpace(1)
        space.w = Bivector.zero(2)
        for k in range(-2, 3):
            M = Mh_matrix(space, k)
            assert det(M) == 0
            with pytest.raises(AssertionError, match=r"is not \(x - 1\)\^2"):
                HessenbergSpectrumReport(M, 1)
            with pytest.raises(AssertionError, match=(
                    rf"M_h block of degree {k}: {TRANSPORT} on degree {k}, ")):
                SpectrumReport(space, k)
        real = DarbouxSpace.__init__

        def zero(self, n):
            real(self, n)
            self.w = Bivector.zero(2 * n)

        monkeypatch.setattr(DarbouxSpace, "__init__", zero)
        assert_block_fails(capsys, 2, -4, TRANSPORT)

    def test_corrupted_block_names_its_degree(self, monkeypatch, capsys):
        # the L_h column of e^1 gains h e^1, so M_h e^1 = 2 e^1 while
        # E (N + n) e^1 = e^1; only the block of degree 1 reads that column
        real = lefschetz.lh_column
        target = (0, 0b01)

        def corrupted(space, lab):
            col = real(space, lab)
            if lab == target:
                key = (lab[0] + 1, lab[1])
                col[key] = col.get(key, 0) + 1
            return col

        monkeypatch.setattr(lefschetz, "lh_column", corrupted)
        for k in (-1, 0, 2):
            hard_lefschetz_check(1, window=[k])
        assert_block_fails(capsys, 1, 1, rf"{TRANSPORT} on degree 1, "
                           r"basis element e1(?!\d)")

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_calibration_sign_caught_by_the_blocks(self, monkeypatch, capsys,
                                                   n):
        # w flipped for L_h, L_h* and E alike passes every commutator
        # identity; the scale certificate M_h* = M_h - 2n of the commutator
        # check and the transport certificate of the blocks both see it
        real = DarbouxSpace.__init__

        def flipped(self, n):
            real(self, n)
            self.w = self.w.map_entries(lambda v: -v)

        monkeypatch.setattr(DarbouxSpace, "__init__", flipped)
        with pytest.raises(AssertionError, match=(
                rf"M_h\* = M_h - 2n fails on degree {-2 * n - 2}, ")):
            commutator_check(n)
        with pytest.raises(AssertionError, match=(
                rf"M_h block of degree {-2 * n}: {TRANSPORT} on degree "
                rf"{-2 * n}, ")):
            hard_lefschetz_check(n)
        assert main(["lefschetz", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AssertionError: M_h* = M_h - 2n fails on degree " \
            f"{-2 * n - 2}, " in captured.err

    @pytest.mark.parametrize("factorials,shift,n", [
        (False, 1, 2), (False, 1, 3), (True, 0, 1), (True, 0, 2)],
        ids=["no-1/k!-n2", "no-1/k!-n3", "no-h-n1", "no-h-n2"])
    def test_broken_E_caught(self, monkeypatch, capsys, factorials, shift,
                             n):
        # E = exp(h iota_w) without its 1/k! (which iota_w^2 = 0 on T^2
        # cannot show) or without its h shift fails the identity in the
        # first block
        def broken(w, terms):
            out = term = HForm(w.dim, terms, laurent=True)
            k = 0
            while term:
                k += 1
                term = bivector_contract(w, term).h_shift(shift) * \
                    Fraction(1, k if factorials else 1)
                out = out + term
            return out.terms

        monkeypatch.setattr(lefschetz, "exp_contract_terms", broken)
        assert_block_fails(capsys, n, -2 * n, TRANSPORT)

    @pytest.mark.parametrize("n", [1, 2])
    def test_E_must_be_unitriangular(self, monkeypatch, capsys, n):
        # E = 0 and E = exp(h iota_w) N satisfy M_h E = E (N + n) on every
        # label, but neither is invertible: only the check that E x is x
        # plus lower exterior degrees of the block rejects them
        real = lefschetz.exp_contract_terms
        space = DarbouxSpace(n)
        omega = space.omega_form.terms

        def times_N(w, terms):
            return real(w, {(j - 1, m): c for (j, m), c in
                            wedge_terms(omega, terms).items()})

        for broken in (lambda w, terms: {}, times_N):
            monkeypatch.setattr(lefschetz, "exp_contract_terms", broken)
            assert_block_fails(capsys, n, -2 * n, "E x is not x plus lower "
                               "exterior degrees of the block, ")

    def test_E_must_not_mix_one_exterior_degree(self, monkeypatch):
        # sigma: e^1 <-> e^3, e^2 <-> e^4 keeps omega and w, so E (1 + sigma)
        # satisfies M_h E = E (N + n) too, and is singular since
        # sigma^2 = 1; on the odd blocks of n = 2 no mask is fixed by
        # sigma, every E x has coefficient 1 on x, and only the strictly
        # lower exterior degree rejects it
        real = lefschetz.exp_contract_terms
        image = {0: 2, 1: 3, 2: 0, 3: 1}

        def sigma(terms):
            out = {}
            for (j, m), c in terms.items():
                y = {(j, 0): c}
                for i in range(4):
                    if m >> i & 1:
                        y = wedge_terms(y, {(0, 1 << image[i]): 1})
                for key, v in y.items():
                    out[key] = out.get(key, 0) + v
            return out

        def mixing(w, terms):
            both = dict(terms)
            for key, v in sigma(terms).items():
                both[key] = both.get(key, 0) + v
            return real(w, {key: v for key, v in both.items() if v})

        monkeypatch.setattr(lefschetz, "exp_contract_terms", mixing)
        for k in (-3, 1):
            with pytest.raises(AssertionError, match=(
                    rf"^M_h block of degree {k}: E x is not x plus lower ")):
                hard_lefschetz_check(2, window=[k])

    def test_conformance_recorded(self):
        rep = hard_lefschetz_check(1)
        statuses = {k: c["status"] for k, c in rep.conformance.items()}
        # even-degree blocks carry the Jordan structure: mismatch recorded
        assert statuses[0] == "mismatch"
        # and no block is silently dropped
        assert set(statuses) == set(rep.blocks)


def _outcome(check, n, window):
    """What ``check(n, window)`` gives, in the fields the per-label and
    per-block oracles pin: a commutator report's results (in order),
    failures, notes and window, a Lefschetz report's blocks (in order, as
    the bytes of their spectrum reports) and conformance, or the message
    of the AssertionError it raises."""
    try:
        rep = check(n, window)
    except AssertionError as exc:
        return "raised", str(exc)
    if isinstance(rep, lefschetz.CommutatorReport):
        return ("commutators", list(rep.results.items()),
                list(rep.failures.items()), rep.notes, rep.window)
    return ("blocks", [(k, dump_json(spectrum_to_json(b, rep.conformance[k])))
                       for k, b in rep.blocks.items()],
            list(rep.conformance.items()))


def assert_same_as_oracles(n, commutator_window=None, block_window=None):
    """commutator_check and hard_lefschetz_check give what the per-label
    and per-block oracles give, on the full windows unless others are
    named; returns the two outcomes."""
    got = _outcome(commutator_check, n, commutator_window)
    assert got == _outcome(commutator_check_per_label, n, commutator_window)
    blocks = _outcome(hard_lefschetz_check, n, block_window)
    assert blocks == _outcome(hard_lefschetz_check_per_block, n, block_window)
    return got, blocks


def _replace_w(new_w):
    """A patch that gives every DarbouxSpace the bivector new_w(w)."""
    def patch(monkeypatch):
        real = DarbouxSpace.__init__

        def replaced(self, n):
            real(self, n)
            self.w = new_w(self.w)

        monkeypatch.setattr(DarbouxSpace, "__init__", replaced)
    return patch


def _E_without(factorials, shift):
    """E without its 1/k! or without its h shift, as in
    TestHardLefschetz.test_broken_E_caught."""
    def broken(w, terms):
        out = term = HForm(w.dim, terms, laurent=True)
        k = 0
        while term:
            k += 1
            term = bivector_contract(w, term).h_shift(shift) * \
                Fraction(1, k if factorials else 1)
            out = out + term
        return out.terms
    return broken


def _E_times_N(w, terms):
    omega = DarbouxSpace(w.dim // 2).omega_form.terms
    return exp_contract_terms(w, {(j - 1, m): c for (j, m), c in
                                  wedge_terms(omega, terms).items()})


def _E_mixing(w, terms):
    # E (1 + sigma) with sigma: e^1 <-> e^3, e^2 <-> e^4 on n = 2, as in
    # TestHardLefschetz.test_E_must_not_mix_one_exterior_degree
    image = {0: 2, 1: 3, 2: 0, 3: 1}
    both = dict(terms)
    for (j, m), c in terms.items():
        y = {(j, 0): c}
        for i in range(4):
            if m >> i & 1:
                y = wedge_terms(y, {(0, 1 << image[i]): 1})
        for key, v in y.items():
            both[key] = both.get(key, 0) + v
    return exp_contract_terms(w, {key: v for key, v in both.items() if v})


def _patch_E(broken):
    return lambda mp: mp.setattr(lefschetz, "exp_contract_terms", broken)


def _patch_mutant(name):
    columns, factor = MUTANTS[name]

    def patch(mp):
        _patch_columns(mp, **columns)
        if factor is not None:
            mp.setattr(lefschetz, "_a_factor", factor)
    return patch


def _scaled_Lh_star(factor):
    return lambda mp: _patch_columns(
        mp, Ls=lambda lab, col: {y: factor * c for y, c in col.items()})


# Every negative control of TestCommutators and TestHardLefschetz, as
# (id, patch, values of n).
ORACLE_MUTANTS = (
    [(f"identity {name}", _patch_mutant(name), (1, 2)) for name in MUTANTS]
    + [(f"Lh* times {f}", _scaled_Lh_star(f), (1, 2, 3)) for f in (-1, 3)]
    + [("Lh under the flipped w", flip_lh_bivector, (1, 2, 3)),
       ("flipped w", _replace_w(lambda w: w.map_entries(lambda v: -v)),
        (1, 2, 3)),
       ("zero w", _replace_w(lambda w: Bivector.zero(w.dim)), (1, 2)),
       ("E without 1/k!", _patch_E(_E_without(False, 1)), (2, 3)),
       ("E without h", _patch_E(_E_without(True, 0)), (1, 2)),
       ("E = 0", _patch_E(lambda w, terms: {}), (1, 2)),
       ("E times N", _patch_E(_E_times_N), (1, 2)),
       ("mixing E", _patch_E(_E_mixing), (2,))])


class TestPerMaskOracles:
    """The generator certificates of commutator_check and
    hard_lefschetz_check against the per-label and per-block checks they
    replace (tests/oracles.py): the same reports, down to the order of the
    results and the bytes of every block, or the same AssertionError."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_full_windows(self, n):
        comm, blocks = assert_same_as_oracles(n)
        assert comm[0] == "commutators" and all(ok for _, ok in comm[1])
        assert blocks[0] == "blocks" and len(blocks[1]) == 4 * n + 1

    def test_every_three_degree_window_n3(self):
        # the commutator windows the benchmark draws (lo in -8..6) and the
        # three-degree windows of blocks
        for lo in range(-8, 7):
            assert_same_as_oracles(3, [lo, lo + 1, lo + 2], [])
        for lo in range(-6, 5):
            assert_same_as_oracles(3, [], [lo, lo + 1, lo + 2])

    def test_seeded_window_n5(self):
        rng = random.Random("per-mask-n5")
        lo, k = rng.randint(-12, 10), rng.randint(-10, 8)
        comm, blocks = assert_same_as_oracles(5, [lo, lo + 1, lo + 2],
                                              [k, k + 1, k + 2])
        assert comm[0] == "commutators" and blocks[0] == "blocks"

    @pytest.mark.parametrize("name,patch,n", [
        (name, patch, n) for name, patch, ns in ORACLE_MUTANTS for n in ns],
        ids=[f"{name}-n{n}" for name, _patch, ns in ORACLE_MUTANTS
             for n in ns])
    def test_every_negative_control(self, monkeypatch, name, patch, n):
        patch(monkeypatch)
        comm, blocks = assert_same_as_oracles(n)
        windows = [[k] for k in range(-2 * n, 2 * n + 1)]
        for window in windows + [[-3, 1], [-3, -1, 1]]:
            assert _outcome(hard_lefschetz_check, n, window) == \
                _outcome(hard_lefschetz_check_per_block, n, window)
        # each control is caught by one of the two checks
        assert comm[0] == "raised" or blocks[0] == "raised" or \
            not all(ok for _, ok in comm[1])


def _shifted_column_plus_h(lab, col):
    # L x gains h x: the column at lab gains the label one power of h up
    out = dict(col)
    key = (lab[0] + 1, lab[1])
    out[key] = out.get(key, 0) + 1
    return {y: c for y, c in out.items() if c}


def _corrupt_lh_column(monkeypatch, labels):
    real = lefschetz.lh_column

    def corrupted(space, lab):
        col = real(space, lab)
        return _shifted_column_plus_h(lab, col) if labels(lab) else col

    monkeypatch.setattr(lefschetz, "lh_column", corrupted)


class TestHShiftControls:
    """Negative controls of the reduction to the generators (0, mask):
    columns broken only at (1, mask), or at one label above the first
    block of its parity, must fail exactly as in the per-label and
    per-block oracles, in process and from the lefschetz command (exit 3
    with the error on stderr, or exit 1 where only an identity fails)."""

    @staticmethod
    def assert_cli_raises(capsys, n, message):
        assert main(["lefschetz", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"AssertionError: {message}" in captured.err

    @pytest.mark.parametrize("n", [1, 2])
    def test_Lh_broken_at_h_times_every_mask(self, monkeypatch, capsys, n):
        _corrupt_lh_column(monkeypatch, lambda lab: lab[0] == 1)
        comm, blocks = assert_same_as_oracles(n)
        assert comm[0] == "commutators"
        assert dict(comm[1])["[Lh,h]=0"] is False
        assert blocks[0] == "raised"
        assert blocks[1].startswith("M_h block of degree ")
        self.assert_cli_raises(capsys, n, blocks[1])

    @pytest.mark.parametrize("n", [1, 2])
    def test_Lh_star_broken_at_h_times_every_mask(self, monkeypatch, capsys,
                                                  n):
        # the blocks do not read L_h*, so the commutator identities alone
        # fail: the command reports them and exits 1
        _patch_columns(monkeypatch, Ls=lambda lab, col: (
            _shifted_column_plus_h(lab, col) if lab[0] == 1 else col))
        comm, blocks = assert_same_as_oracles(n)
        results = dict(comm[1])
        assert results["[Lh*,h]=0"] is False and blocks[0] == "blocks"
        assert main(["lefschetz", "--n", str(n)]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["status"] == "fail"
        assert report["commutators"] == results
        assert captured.err == ""

    def test_Lh_star_broken_on_the_odd_masks_only(self, monkeypatch):
        # a window holding both parities takes the generators of both
        _patch_columns(monkeypatch, Ls=lambda lab, col: (
            _shifted_column_plus_h(lab, col)
            if lab[0] == 1 and lab[1].bit_count() % 2 else col))
        comm, _blocks = assert_same_as_oracles(2)
        assert dict(comm[1])["[Lh*,h]=0"] is False
        for lo in range(-6, 5):
            assert_same_as_oracles(2, [lo, lo + 1, lo + 2], [])

    def test_one_Lh_column_two_blocks_up(self, monkeypatch, capsys):
        # (1, 0) = h in the block of degree 2 on T^2, two blocks above the
        # first even block -2 and no generator; E e12 = e12 - h reads it
        _corrupt_lh_column(monkeypatch, lambda lab: lab == (1, 0))
        comm, blocks = assert_same_as_oracles(1)
        assert dict(comm[1])["[Lh,h]=0"] is False
        assert blocks == ("raised", "M_h block of degree 2: M_h E x != "
                          "E (N + n) x on degree 2, basis element e12")
        self.assert_cli_raises(capsys, 1, blocks[1])

    def test_one_Lh_column_no_generator_reads(self, monkeypatch, capsys):
        # e^{13} meets both Darboux pairs of T^4, so no generator's E x
        # holds h e^{13}: only the h-shift check of the L_h columns sees
        # this column, which the block of degree 4 reads
        _corrupt_lh_column(monkeypatch, lambda lab: lab == (1, 0b0101))
        comm, blocks = assert_same_as_oracles(2)
        assert dict(comm[1])["[Lh,h]=0"] is False
        assert blocks == ("raised", "M_h block of degree 4: M_h E x != "
                          "E (N + n) x on degree 4, basis element h*e13")
        self.assert_cli_raises(capsys, 2, blocks[1])

    @pytest.mark.parametrize("n", [1, 2])
    def test_E_broken_at_h_times_every_mask(self, monkeypatch, capsys, n):
        # no generator's certificate reads E at (1, mask): only the h-shift
        # check of the E columns sees it
        real = lefschetz.exp_contract_terms

        def broken(w, terms):
            out = real(w, terms)
            if any(j == 1 for j, _m in terms):
                out = {key: 2 * c for key, c in out.items()}
            return out

        monkeypatch.setattr(lefschetz, "exp_contract_terms", broken)
        _comm, blocks = assert_same_as_oracles(n)
        assert blocks[0] == "raised"
        assert blocks[1].startswith("M_h block of degree ")
        self.assert_cli_raises(capsys, n, blocks[1])


class TestStratumRanks:
    """rank N, read off the identity [Lambda, N] = (p - n) h^-1 in closed
    form, against every stratum map ranked by elimination
    (oracles.stratum_rank_by_elimination); and the controls of that
    identity."""

    @staticmethod
    def closed_form(space, labels):
        return lefschetz._certify_transport(
            space, labels, *lefschetz._transport_columns(space))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_block_and_parity_agrees_with_elimination(self, n):
        space = DarbouxSpace(n)
        for k in range(-2 * n, 2 * n + 1):
            basis = space.basis(k)
            assert self.closed_form(space, basis) == \
                stratum_rank_by_elimination(space, basis), k
        for parity in (0, 1):
            rep = SpectrumReport.of_parity(space, parity)
            generators = [(0, m) for m in range(1 << 2 * n)
                          if m.bit_count() % 2 == parity]
            rank_N = stratum_rank_by_elimination(space, generators)
            assert rep.geometric == {str(n): (rep.size, rep.size - rank_N)}

    def test_n5_window_agrees_with_elimination(self):
        space = DarbouxSpace(5)
        lo = random.Random("stratum-ranks-n5").randint(-10, 8)
        for k in range(lo, lo + 3):
            basis = space.basis(k)
            assert self.closed_form(space, basis) == \
                stratum_rank_by_elimination(space, basis), k

    def test_no_stratum_map_is_eliminated(self, monkeypatch, capsys,
                                          tmp_path):
        # rank N is read off the sl(2) identity: the blocks run no
        # elimination at all (the star table of the commutator check
        # inverts Omega), and the n = 3 report keeps its pinned bytes
        # (tests/test_quantum.py)
        def forbidden(*_args):
            raise AssertionError("elimination called")

        monkeypatch.setattr(linalg, "rank", forbidden)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "_echelon", forbidden)
            assert hard_lefschetz_check(3).all_invertible
        out = tmp_path / "lefschetz.json"
        assert main(["lefschetz", "--n", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "92f62d87bf3c4a01278a637bcf385b8fe08ec1c0cb1a93f648a1be6be14d8404"
        assert capsys.readouterr().err == ""

    def test_doubled_Lambda_caught(self, monkeypatch, capsys):
        # Lambda read off E but doubled: E, and so the transport
        # certificate, is untouched, and [Lambda, N] 1 = -2n != -n fails
        # on the first label of the block of degree -2n
        real = lefschetz._lowering
        monkeypatch.setattr(lefschetz, "_lowering", lambda E, lab: {
            y: 2 * c for y, c in real(E, lab).items()})
        assert_block_fails(capsys, 2, -4, r"\[Lambda, N\] x != \(p - n\) "
                           r"h\^-1 x on degree -4, basis element h\^-2\b")


class TestBenchmarkDigests:
    """The Lefschetz jobs of the benchmark, rebuilt with its own job
    builders, against the sha256 digests in its reference file."""

    def test_reference_digests_replay(self, tmp_path):
        root = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        reference = json.loads((root / "reference.json").read_text())
        digests = {key: sha for key, sha in reference["digests"].items()
                   if key.startswith(("cli:lefschetz:", "commutator_check:",
                                      "hard_lefschetz_check:"))}
        assert len(digests) == 42
        mismatched = []
        for key, want in digests.items():
            kind, *fields = key.split(":")
            args = dict(f.split("=") for f in fields if "=" in f)
            n = int(args["n"])
            if kind == "cli":
                job = workloads._cli_job(
                    key, ["lefschetz", "--n", str(n)],
                    tmp_path / "lefschetz.json",
                    workloads._check_lefschetz_report)
            elif kind == "commutator_check":
                lo, hi = map(int, args["window"].split(".."))
                job = workloads._commutator_job(n, list(range(lo, hi + 1)))
            else:
                job = workloads._spectrum_job(n, int(args["k"]))
            assert job.key == key
            result = job.run()
            assert job.check(result) == [], key
            if hashlib.sha256(job.output(result)).hexdigest() != want:
                mismatched.append(key)
        assert mismatched == []
