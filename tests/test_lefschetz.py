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

from qexterior import lefschetz
from qexterior.cli import main
from qexterior.forms import Bivector, HForm
from qexterior.hpoly import HPoly
from qexterior.lefschetz import (Columns, DarbouxSpace, Mh_matrix,
                                 SpectrumReport, _a_factor, apply_Ah,
                                 apply_Lh, apply_Lh_star, commutator_check,
                                 hard_lefschetz_check, lefschetz_columns,
                                 lefschetz_d_commutators, paper_conformance)
from qexterior.linalg import charpoly, det
from qexterior.models import PoissonModel
from qexterior.sampling import Sampler

from oracles import (OperatorColumns, apply_Mh, commutator_check_per_form,
                     flip_lh_bivector, operator_matrix_per_form,
                     recursion_matrix, recursion_verify)


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
    def test_jordan_block(self):
        M = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(2)]]
        rep = SpectrumReport(M, 1)
        assert rep.charpoly == HPoly({2: 1, 1: -2, 0: 1})
        assert not rep.diagonalizable
        assert rep.det == 1
        assert rep.invertible

    def test_identity(self):
        M = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        rep = SpectrumReport(M, 1)
        assert rep.diagonalizable
        assert rep.factorization.rational_roots == {Fraction(1): 2}

    def test_conformance_reporting(self):
        # the n = 1 degree-0 block: eigenvalue n with a Jordan block; the
        # claimed one-dimensional eigenspace decomposition fails and the
        # report must say so rather than hide it
        M = [[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(2)]]
        rep = SpectrumReport(M, 1)
        conf = paper_conformance(rep, 1)
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
        rep = SpectrumReport(Mh_matrix(DarbouxSpace(4), k), 4)
        assert rep.geometric == self.expected(4, k) == {"4": (128, geometric)}
        assert rep.det == 4 ** 128


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
            rep = SpectrumReport(M, step)
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

    def test_negative_control_zero_bivector(self):
        # w = 0 leaves the classical h^-1 omega^, which is nilpotent: every
        # block is singular and fails the (x - n)^size certificate
        space = DarbouxSpace(1)
        space.w = Bivector.zero(2)
        for k in range(-2, 3):
            M = Mh_matrix(space, k)
            assert det(M) == 0
            with pytest.raises(AssertionError, match=r"is not \(x - 1\)\^2"):
                SpectrumReport(M, 1)

    def test_corrupted_block_names_its_degree(self, monkeypatch, capsys):
        real = lefschetz.Mh_matrix

        def corrupted(space, k):
            M = real(space, k)
            if k == 1:
                M[0][0] += 1       # the trace is no longer n * size
            return M

        monkeypatch.setattr(lefschetz, "Mh_matrix", corrupted)
        with pytest.raises(AssertionError, match="M_h block of degree 1: "):
            hard_lefschetz_check(1)
        assert main(["lefschetz", "--n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AssertionError: M_h block of degree 1: " in captured.err

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_calibration_sign_caught_by_the_blocks(self, monkeypatch, capsys,
                                                   n):
        # w flipped for L_h and L_h* alike passes every commutator
        # identity; the scale certificate M_h* = M_h - 2n of the commutator
        # check and the (x - n)^size certificate of the blocks both see it
        real = DarbouxSpace.__init__

        def flipped(self, n):
            real(self, n)
            self.w = self.w.map_entries(lambda v: -v)

        monkeypatch.setattr(DarbouxSpace, "__init__", flipped)
        with pytest.raises(AssertionError, match=(
                rf"M_h\* = M_h - 2n fails on degree {-2 * n - 2}, ")):
            commutator_check(n)
        with pytest.raises(AssertionError, match=(
                rf"M_h block of degree {-2 * n}: characteristic polynomial "
                rf"is not \(x - {n}\)\^{2 ** (2 * n - 1)}")):
            hard_lefschetz_check(n)
        assert main(["lefschetz", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "AssertionError: M_h* = M_h - 2n fails on degree " \
            f"{-2 * n - 2}, " in captured.err

    def test_conformance_recorded(self):
        rep = hard_lefschetz_check(1)
        statuses = {k: c["status"] for k, c in rep.conformance.items()}
        # even-degree blocks carry the Jordan structure: mismatch recorded
        assert statuses[0] == "mismatch"
        # and no block is silently dropped
        assert set(statuses) == set(rep.blocks)


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
