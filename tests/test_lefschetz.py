"""Lefschetz operators, commutator algebra, exact spectra, recursion
lemma, and the quantum Hard Lefschetz verification."""

import hashlib
import importlib.util
import json
import random
import re
import sys
from collections import Counter
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
from qexterior.lefschetz import (DarbouxSpace, Mh_matrix, SpectrumReport,
                                 _a_factor, apply_Ah, apply_Lh,
                                 apply_Lh_star, commutator_check,
                                 hard_lefschetz_check,
                                 lefschetz_d_commutators, paper_conformance)
from qexterior.linalg import charpoly, det
from qexterior.models import PoissonModel, darboux_matrix
from qexterior.sampling import Sampler
from qexterior.serialize import dump_json, spectrum_to_json

from oracles import (HessenbergSpectrumReport, OperatorColumns, ah_per_form,
                     apply_Mh, commutator_check_per_form,
                     commutator_check_per_label, congruent_torus,
                     flip_lh_bivector, hard_lefschetz_check_per_block,
                     lh_per_form, lh_star_per_form, operator_matrix_per_form,
                     recursion_matrix, recursion_verify,
                     stratum_rank_by_elimination)
from test_calculus import COEFFICIENT_KINDS, retyped


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


# The spaces the form operators are compared on: Darboux for n = 1..4 and
# two seeded omega = P^T Omega_0 P, whose w has table denominator 6.
FORM_SPACES = {f"darboux-{n}": (lambda n=n: DarbouxSpace(n))
               for n in (1, 2, 3, 4)}
FORM_SPACES.update({f"congruent-{n}": (
    lambda n=n: DarbouxSpace.of_model(congruent_torus(Sampler(42), n)))
    for n in (1, 2)})


class TestFormOperators:
    """apply_Lh, apply_Lh_star and apply_Ah read the space's ``L`` and
    ``Ls`` columns and the A_h factor of a label; they agree with the
    per-form operators they replace (a qwedge with omega, two stars
    around it, and one factor per homogeneous component)."""

    @pytest.mark.parametrize("kind", COEFFICIENT_KINDS,
                             ids=[k.__name__ for k in COEFFICIENT_KINDS])
    @pytest.mark.parametrize("name", list(FORM_SPACES))
    def test_operators_are_the_per_form_oracles(self, name, kind):
        space = FORM_SPACES[name]()
        s = Sampler(100 + 10 * list(FORM_SPACES).index(name)
                    + COEFFICIENT_KINDS.index(kind))
        for trial in range(6):
            laurent = trial % 3 != 0
            x = retyped(s, s.ext_form(space.dim, terms=4, h_max=2,
                                      laurent=laurent), kind)
            images = [(apply_Lh(x, space), lh_per_form(x, space, space.w)),
                      (apply_Ah(x, space), ah_per_form(x, space))]
            if laurent:
                images.append((apply_Lh_star(x, space),
                               lh_star_per_form(x, space)))
            for got, want in images:
                assert got == want, x
                if kind is int and name.startswith("darboux"):
                    # Darboux columns hold ints, so int coefficients stay
                    # ints where the qwedge gave Fractions of equal value
                    assert all(type(c) is int for c in got.terms.values())
            assert images[0][0].laurent and images[1][0].laurent == laurent

    @pytest.mark.parametrize("op", [apply_Lh, apply_Lh_star, apply_Ah],
                             ids=["Lh", "Lh_star", "Ah"])
    def test_dimension_mismatch(self, op):
        # a form of another dimension is refused, not read off columns of
        # the wrong space
        space = DarbouxSpace(2)
        for dim in (2, 6):
            x = HForm(dim, {(0, 1): Fraction(1)}, laurent=True)
            with pytest.raises(ValueError,
                               match=f"dimension mismatch {dim} != 4"):
                op(x, space)

    def test_Lh_star_refuses_a_polynomial_form(self):
        space = DarbouxSpace(2)
        for x in (HForm.basis(4, 1), HForm.scalar(4, Fraction(2))):
            with pytest.raises(ValueError, match="needs Laurent mode"):
                apply_Lh_star(x, space)


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


class PerLabelColumns(dict):
    """A column store that calls ``fill`` on every label it serves, as
    ``lefschetz.Columns`` did before it served the h-shifts of its (0, mask)
    columns: its columns need not commute with h."""

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, lab):
        col = self[lab] = self.fill(lab)
        return col


def _patch_columns(monkeypatch, L=None, Ls=None, E=None, per_label=False):
    """Make every ``DarbouxSpace`` fill its ``L``, ``Ls`` and ``E`` columns
    with ``L(lab, column)``, ``Ls(lab, column)`` and ``E(lab, column)``,
    ``column`` the calibrated column of a twin space: the L_h* columns stay
    read off calibrated L_h columns whatever ``L`` does.  The fills see
    only the labels (0, mask); with ``per_label``, the three stores are
    :class:`PerLabelColumns` that see every label they serve."""
    real = DarbouxSpace.__init__

    def patched(self, n):
        real(self, n)
        twin = DarbouxSpace.__new__(DarbouxSpace)
        real(twin, n)
        for name, f in (("L", L), ("Ls", Ls), ("E", E)):
            calibrated = getattr(twin, name)
            fill = lambda lab, f=f, c=calibrated: (
                c[lab] if f is None else f(lab, c[lab]))
            if per_label:
                setattr(self, name, PerLabelColumns(fill))
            else:
                getattr(self, name).fill = fill

    monkeypatch.setattr(DarbouxSpace, "__init__", patched)


def _plus_identity(lab, col):
    out = dict(col)
    out[lab] = out.get(lab, 0) + 1
    return {y: c for y, c in out.items() if c}


def _doubled_per_power_of_h(lab, col):
    # the column of h^j e^mask times 2^j: the operator times h is 2h times
    # the operator on every label, so its [., h^{+-1}] identities fail on
    # every label alike
    return {y: c * Fraction(2) ** lab[0] for y, c in col.items()}


def _drop_empty_mask(lab, col):
    return {y: c for y, c in col.items() if y[1]}


def _a_factor_3j(lab, n):
    return n - lab[1].bit_count() - 3 * lab[0]


def _a_factor_odd_e1(lab, n):
    return _a_factor(lab, n) + (lab[1] & 1)


# One targeted mutant per identity that can fail: the columns patched
# through the space's fills, whole stores that do not commute with h, and
# the A_h factor of a label.  [h,h^-1]=0, Mh=h^-1Lh and Mh*=hLh* hold by
# the definitions of the shift, M_h and M_h*.  Each mutant must make its
# identity fail, so that no identity is compared with itself.
NOT_H_LINEAR_L = {"L": _doubled_per_power_of_h, "per_label": True}
NOT_H_LINEAR_LS = {"Ls": _doubled_per_power_of_h, "per_label": True}
MUTANTS = {
    "[Lh,Lh*]=0": ({"L": _drop_empty_mask}, None),
    "[Lh,Ah]=2Lh": ({"L": _plus_identity}, None),
    "[Lh*,Ah]=-2Lh*": ({"Ls": _plus_identity}, None),
    "[Lh,h]=0": (NOT_H_LINEAR_L, None),
    "[Lh,h^-1]=0": (NOT_H_LINEAR_L, None),
    "[Lh*,h]=0": (NOT_H_LINEAR_LS, None),
    "[Lh*,h^-1]=0": (NOT_H_LINEAR_LS, None),
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

    @pytest.mark.parametrize("window", [[], range(0), ()],
                             ids=["list", "range", "tuple"])
    def test_empty_window_is_refused(self, window):
        # no identity would be checked, so the report would pass vacuously
        with pytest.raises(ValueError, match="empty degree window"):
            commutator_check(2, window=window)

    def test_d_commutators_on_torus_forms(self):
        s = Sampler(77)
        for n in (1, 2):
            model = PoissonModel.darboux_torus(n)
            forms = [s.model_form(model, laurent=True) for _ in range(12)]
            rep = lefschetz_d_commutators(model, forms)
            assert rep.ok, rep.failures


def _negated_of_model(monkeypatch):
    """Make ``DarbouxSpace.of_model`` give its space the model's w with
    the calibration sign flipped."""
    real = DarbouxSpace.of_model.__func__

    def negated(cls, model):
        space = real(cls, model)
        space.w = space.w.map_entries(lambda v: -v)
        return space

    monkeypatch.setattr(DarbouxSpace, "of_model", classmethod(negated))


def per_form_operators(space):
    """``(name, oracle, columns)`` of L_h and L_h* on ``space``: the
    per-form operator on HForms and the space's column store."""
    return [("L_h", lambda x: lh_per_form(x, space, space.w), space.L),
            ("L_h*", lambda x: lh_star_per_form(x, space), space.Ls)]


class TestModelSpace:
    """The space of a symplectic model's own omega and w."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_columns_are_the_operators_off_darboux(self, n):
        # a seeded omega = P^T Omega_0 P with w = Omega^{-1} of
        # denominator 6, so every order-k minor is read back over 6^k
        model = congruent_torus(Sampler(42), n)
        space = DarbouxSpace.of_model(model)
        assert model.omega != darboux_matrix(n)
        assert space.w.table.D == space.star.wstar.table.D == 6
        for name, op, cols in per_form_operators(space):
            for j in (-1, 0, 1):
                for mask in range(1 << 2 * n):
                    lab = (j, mask)
                    unit = HForm(2 * n, {lab: Fraction(1)}, laurent=True)
                    assert HForm(2 * n, cols[lab], laurent=True) == \
                        op(unit), (n, name, lab)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_darboux_model_gives_the_darboux_columns(self, n):
        space = DarbouxSpace.of_model(PoissonModel.darboux_torus(n))
        darboux = DarbouxSpace(n)
        assert (space.n, space.omega, space.w) == \
            (darboux.n, darboux.omega, darboux.w)
        for name in ("L", "Ls"):
            for j in (-1, 0, 1):
                for mask in range(1 << 2 * n):
                    assert getattr(space, name)[(j, mask)] == \
                        getattr(darboux, name)[(j, mask)], (name, j, mask)

    @pytest.mark.parametrize("model,seed,trials,digest", [
        (None, 7, 100,
         "22fd40c62ee67b6a93767d6ca1439fbdd72bebcfe0a99d0ed27fec375afa6a40"),
        (8, 0, 12,
         "88d82f05d394d851ab0a45bb913914cc4f472f4db1e33950cf6d2e9c1719e3f5"),
    ], ids=["no-model", "darboux-T8"])
    def test_check_suite_reports_pinned(self, tmp_path, model, seed, trials,
                                        digest):
        # check --suite lefschetz with no model (the Darboux T^2) and on the
        # Darboux T^8; the digests were recorded when apply_Lh was a qwedge
        # with omega and apply_Lh_star two stars around it
        out = tmp_path / "check.json"
        argv = ["check", "--suite", "lefschetz", "--seed", str(seed),
                "--trials", str(trials), "--out", str(out)]
        if model is not None:
            path = tmp_path / "model.json"
            path.write_text(json.dumps({"space": "torus", "dim": model,
                                        "symplectic": "darboux"}),
                            encoding="utf-8")
            argv += ["--model", str(path)]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_of_model_needs_a_symplectic_model(self):
        with pytest.raises(ValueError, match="needs a symplectic model"):
            DarbouxSpace.of_model(PoissonModel.torus(2, {(1, 2): 1}))

    def test_d_commutators_off_darboux(self, monkeypatch, tmp_path):
        # the library check and check --suite lefschetz --model on a
        # seeded non-Darboux T^4; the report's digest was recorded when
        # the check still built its own L_h, L_h* and star table
        model = congruent_torus(Sampler(42), 2)
        s = Sampler(9)
        forms = [s.model_form(model, laurent=True) for _ in range(6)]
        assert lefschetz_d_commutators(model, forms).ok
        path, out = tmp_path / "t4.json", tmp_path / "check.json"
        path.write_text(json.dumps({
            "space": "torus", "dim": 4,
            "symplectic": [[str(x) for x in row] for row in model.omega],
            "bivector": [[i, j, str(c)] for (i, j), c in
                         sorted(model.constant_bivector().entries.items())]}),
            encoding="utf-8")
        argv = ["check", "--suite", "lefschetz", "--model", str(path),
                "--trials", "6", "--seed", "3"]
        assert main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            "a559485d25e91e0365158877b00c1159d7a7d49383febb076213669c8b8f029c"
        # the negative control: L_h and L_h* under the negated w
        _negated_of_model(monkeypatch)
        rep = lefschetz_d_commutators(model, forms)
        assert rep.results == {"[Lh,dh]=0": False, "[Lh*,dh]=0": False,
                               "[Ah,dh]=-dh": True}
        assert main(argv + ["--out", str(out)]) == 1
        assert json.loads(out.read_text())["status"] == "fail"


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
        L = space.L
        # omega ^_h e^{ij} = e^1234 + 2 h e^{ij} - h^2 under w^{ij} = -1,
        # see TestOperators
        assert L[(0, 3)] == {(0, 15): 1, (1, 3): Fraction(2, 3),
                             (2, 0): Fraction(-1, 9)}
        assert L[(0, 12)] == {(0, 15): 1, (1, 12): 2, (2, 0): -1}
        assert all(type(c) is int for c in L[(0, 12)].values())
        oracle = OperatorColumns(lambda x: lh_per_form(x, space, space.w),
                                 space)
        for k in range(-3, 4):
            for lab in space.basis(k):
                assert L[lab] == oracle[lab]
                assert {key: type(c) for key, c in L[lab].items()} == \
                    {key: type(c) for key, c in oracle[lab].items()}
        for k in (-1, 0, 1):
            assert Mh_matrix(space, k) == operator_matrix_per_form(
                lambda x: apply_Mh(x, space), space, k, 0)

    def test_columns_store_integral_values_as_int(self, s1):
        L = s1.L
        assert L[(0, 3)] == {(1, 3): 2, (2, 0): -1}
        assert all(type(c) is int for c in L[(0, 3)].values())

    def test_column_is_the_operator_on_its_label(self):
        # every label for n <= 3 and a seeded window of three degrees at
        # n = 4: the L_h and L_h* columns are the per-form qwedge and the
        # two stars around it on the label's unit form, every coefficient
        # an int
        lo = random.Random(7).randint(-10, 8)
        for n, degrees in [(1, range(-4, 5)), (2, range(-6, 7)),
                           (3, range(-8, 9)), (4, range(lo, lo + 3))]:
            space = DarbouxSpace(n)
            for name, op, cols in per_form_operators(space):
                for k in degrees:
                    for lab in space.basis(k):
                        unit = HForm(2 * n, {lab: Fraction(1)}, laurent=True)
                        assert HForm(2 * n, cols[lab], laurent=True) == \
                            op(unit), (n, name, lab)
                        assert all(type(c) is int
                                   for c in cols[lab].values())

    def test_E_column_is_the_series_on_its_label(self):
        # the E store, on every label for n <= 3 and a seeded window of
        # three degrees at n = 4, against the per-form series
        # sum_k h^k iota_w^k / k! on the label's unit form: every power of
        # h the store serves by its one shift, read independently
        lo = random.Random(11).randint(-10, 8)
        for n, degrees in [(1, range(-4, 5)), (2, range(-6, 7)),
                           (3, range(-8, 9)), (4, range(lo, lo + 3))]:
            space = DarbouxSpace(n)
            for k in degrees:
                for lab in space.basis(k):
                    want = term = HForm(2 * n, {lab: Fraction(1)},
                                        laurent=True)
                    order = 0
                    while term:
                        order += 1
                        term = bivector_contract(space.w, term).h_shift(1) \
                            * Fraction(1, order)
                        want = want + term
                    assert HForm(2 * n, space.E[lab], laurent=True) == \
                        want, (n, lab)
                    assert all(type(c) is int
                               for c in space.E[lab].values())


class TestStarIdentity:
    """M_h* = M_h - 2n, i.e. L_h* = h^-2 L_h - 2n h^-1: the star-defined
    adjoint is a polynomial in L_h, which is why [Mh,Mh*] = 0 holds."""

    @pytest.mark.parametrize("n,degrees", [
        (1, range(-4, 5)), (2, range(-6, 7)), (3, range(-8, 9)),
        (4, (-3, 0, 4)),
    ], ids=["n1", "n2", "n3", "n4-window"])
    def test_Lh_star_is_shifted_Lh(self, n, degrees):
        space = DarbouxSpace(n)
        L, Ls = space.L, space.Ls
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

    def test_scalars_past_the_int_digit_limit(self):
        # det = 7^8192 has 6,924 digits (the n = 7 value), past the 4,300
        # that str() of an int writes by default
        big = Fraction(7) ** 8192
        with pytest.raises(ValueError):
            str(big)
        report = SpectrumReport.__new__(SpectrumReport)
        report._read_off(7, 2, 0)
        report.det = big
        report.charpoly = HPoly({0: big, 1: -big / 7, 2: Fraction(1)})
        got = spectrum_to_json(report, paper_conformance(report))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = [str(big), str(-big / 7)]
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want[0]) == 6924
        assert got["det"] == want[0]
        assert got["charpoly"] == [[0, want[0]], [1, want[1]], [2, "1"]]
        assert json.loads(dump_json(got))["det"] == want[0]

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

    @pytest.mark.parametrize("window", [[], range(0), ()],
                             ids=["list", "range", "tuple"])
    def test_empty_window_is_refused(self, window):
        # no block would be certified, so all_invertible would hold
        # vacuously
        with pytest.raises(ValueError, match="empty degree window"):
            hard_lefschetz_check(2, window=window)

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
        # E (N + n) e^1 = e^1; the store serves that column at every power
        # of h, so every odd block reads it and the even blocks pass
        real = lefschetz.lh_column
        target = (0, 0b01)

        def corrupted(space, lab):
            col = real(space, lab)
            if lab == target:
                key = (lab[0] + 1, lab[1])
                col[key] = col.get(key, 0) + 1
            return col

        monkeypatch.setattr(lefschetz, "lh_column", corrupted)
        for k in (-2, 0, 2):
            hard_lefschetz_check(1, window=[k])
        # the full window fails on its first odd block, -1
        for window, k, label in ((None, -1, r"h\^-1\*e1"), ([1, 0], 1, "e1"),
                                 ([3, 2], 3, r"h\*e1")):
            with pytest.raises(AssertionError, match=(
                    rf"^M_h block of degree {k}: {TRANSPORT} on degree {k}, "
                    rf"basis element {label}(?!\d)")):
                hard_lefschetz_check(1, window=window)
        # the command's commutator check, run first, reads the same column
        # in its first odd block
        assert main(["lefschetz", "--n", "1"]) == 3
        assert "AssertionError: M_h* = M_h - 2n fails on degree -3, basis " \
            "element h^-2*e1" in capsys.readouterr().err

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


def assert_commutators_as_oracle(n, window=None):
    """commutator_check gives what the per-label oracle gives, on the full
    window unless another is named; returns the outcome."""
    got = _outcome(commutator_check, n, window)
    assert got == _outcome(commutator_check_per_label, n, window)
    return got


def assert_blocks_as_oracle(n, window=None):
    """hard_lefschetz_check gives what the per-block oracle gives, on the
    full window unless another is named; returns the outcome."""
    got = _outcome(hard_lefschetz_check, n, window)
    assert got == _outcome(hard_lefschetz_check_per_block, n, window)
    return got


def assert_same_as_oracles(n, commutator_window=None, block_window=None):
    """Both checks give what their oracles give; returns the two
    outcomes."""
    return (assert_commutators_as_oracle(n, commutator_window),
            assert_blocks_as_oracle(n, block_window))


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
            assert_commutators_as_oracle(3, [lo, lo + 1, lo + 2])
        for lo in range(-6, 5):
            assert_blocks_as_oracle(3, [lo, lo + 1, lo + 2])

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


class TestOneSpacePerCommand:
    """The lefschetz command runs both checks on one DarbouxSpace, whose
    column stores each check reads."""

    def test_each_Lh_column_is_built_once(self, monkeypatch, tmp_path):
        # one lh_column call per mask, on (0, mask): 64 at n = 3, where a
        # fill per label read took 240 calls (and 368 with a space per
        # check)
        real, calls = lefschetz.lh_column, Counter()

        def counted(space, lab):
            calls[lab] += 1
            return real(space, lab)

        monkeypatch.setattr(lefschetz, "lh_column", counted)
        out = tmp_path / "lefschetz.json"
        assert main(["lefschetz", "--n", "3", "--out", str(out)]) == 0
        assert sorted(calls) == [(0, mask) for mask in range(64)]
        assert set(calls.values()) == {1}

    def test_fills_see_only_the_generators(self, monkeypatch, tmp_path):
        # the L, Ls and E stores call their fills on (0, mask) alone, once
        # per mask, in both checks and in the command; every other column
        # is the h-shift of one of those
        seen = Counter()
        real = DarbouxSpace.__init__

        def recorded(self, n):
            real(self, n)
            for name in ("L", "Ls", "E"):
                store = getattr(self, name)
                store.fill = lambda lab, f=store.fill, name=name: (
                    seen.update([(name, lab)]) or f(lab))

        monkeypatch.setattr(DarbouxSpace, "__init__", recorded)
        command = ["lefschetz", "--n", "3", "--out", str(tmp_path / "r")]
        for run, n, stores in [
                (lambda: commutator_check(2), 2, ("L", "Ls")),
                (lambda: hard_lefschetz_check(2), 2, ("L", "E")),
                (lambda: main(command), 3, ("L", "Ls", "E"))]:
            seen.clear()
            run()
            assert sorted(seen) == [(name, (0, mask)) for name in sorted(stores)
                                    for mask in range(1 << 2 * n)]
            assert set(seen.values()) == {1}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_shared_space_gives_what_an_int_gives(self, n):
        space = DarbouxSpace(n)
        got = [_outcome(lambda _n, w: commutator_check(space, w), n, None),
               _outcome(lambda _n, w: hard_lefschetz_check(space, w), n,
                        None)]
        assert got == [_outcome(commutator_check, n, None),
                       _outcome(hard_lefschetz_check, n, None)]
        assert space.L and space.Ls and space.E


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
    """Negative controls of the one shift in the column stores: an L_h,
    L_h* or E store that does not commute with h (its column of h^j e^mask
    the calibrated one times 2^j, so broken at h times every mask and at
    every other power of h alike), and one L_h fill broken on (0, mask),
    which the store then serves at every level.  Both checks must fail
    exactly as the per-label and per-block oracles do, in process and from
    the lefschetz command (exit 3 with the error on stderr, or exit 1 where
    only an identity fails)."""

    @staticmethod
    def assert_cli_raises(capsys, n, message):
        assert main(["lefschetz", "--n", str(n)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"AssertionError: {message}" in captured.err

    @pytest.mark.parametrize("n", [1, 2])
    def test_Lh_broken_at_h_times_every_mask(self, monkeypatch, capsys, n):
        _patch_columns(monkeypatch, **NOT_H_LINEAR_L)
        comm, blocks = assert_same_as_oracles(n)
        assert comm[0] == "commutators"
        assert dict(comm[1])["[Lh,h]=0"] is False
        assert blocks[0] == "raised"
        assert blocks[1].startswith(f"M_h block of degree {-2 * n}: ")
        self.assert_cli_raises(capsys, n, blocks[1])

    @pytest.mark.parametrize("n", [1, 2])
    def test_Lh_star_broken_at_h_times_every_mask(self, monkeypatch, capsys,
                                                  n):
        # the blocks do not read L_h*, so the commutator identities alone
        # fail: the command reports them and exits 1
        _patch_columns(monkeypatch, **NOT_H_LINEAR_LS)
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
        # a window holding both parities takes the first block of both
        _patch_columns(monkeypatch, per_label=True, Ls=lambda lab, col: (
            _doubled_per_power_of_h(lab, col) if lab[1].bit_count() % 2
            else col))
        comm, _blocks = assert_same_as_oracles(2)
        assert dict(comm[1])["[Lh*,h]=0"] is False
        for lo in range(-6, 5):
            assert_commutators_as_oracle(2, [lo, lo + 1, lo + 2])

    @pytest.mark.parametrize("n", [1, 2])
    def test_E_broken_at_h_times_every_mask(self, monkeypatch, capsys, n):
        # the commutator check does not read E: the blocks alone fail
        _patch_columns(monkeypatch, E=_doubled_per_power_of_h,
                       per_label=True)
        comm, blocks = assert_same_as_oracles(n)
        assert comm[0] == "commutators" and all(ok for _, ok in comm[1])
        assert blocks[0] == "raised"
        assert blocks[1].startswith(f"M_h block of degree {-2 * n}: ")
        self.assert_cli_raises(capsys, n, blocks[1])

    @pytest.mark.parametrize("n,mask", [(1, 0), (2, 0b0101)],
                             ids=["T2-1", "T4-e13"])
    def test_one_Lh_fill_every_level(self, monkeypatch, capsys, n, mask):
        # the fill of (0, mask) gains h e^mask, and the store serves that
        # column's h-shifts, so the first block of the mask's parity reads
        # it.  L_h* is read off L_h, so every identity holds and the scale
        # certificate fails, on the label of the mask in the first block;
        # the command runs the commutator check first
        _corrupt_lh_column(monkeypatch, lambda lab: lab == (0, mask))
        comm, blocks = assert_same_as_oracles(n)
        k, j = -2 * n, -n - mask.bit_count() // 2

        def label(j):
            return HForm(2 * n, {(j, mask): 1}, laurent=True)

        assert comm == ("raised", f"M_h* = M_h - 2n fails on degree {k - 2}, "
                        f"basis element {label(j - 1)}")
        assert blocks == ("raised", f"M_h block of degree {k}: M_h E x != "
                          f"E (N + n) x on degree {k}, basis element "
                          f"{label(j)}")
        self.assert_cli_raises(capsys, n, comm[1])


class TestStratumRanks:
    """rank N, read off the identity [Lambda, N] = (p - n) h^-1 in closed
    form, against every stratum map ranked by elimination
    (oracles.stratum_rank_by_elimination); and the controls of that
    identity."""

    @staticmethod
    def closed_form(space, labels):
        return lefschetz._certify_transport(space, labels)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_block_and_parity_agrees_with_elimination(self, n):
        space = DarbouxSpace(n)
        for k in range(-2 * n, 2 * n + 1):
            basis = space.basis(k)
            assert self.closed_form(space, basis) == \
                stratum_rank_by_elimination(space, basis), k
        for k in (-2 * n, 1 - 2 * n):
            # the report every block of k's parity reads
            rep = SpectrumReport(space, k)
            generators = [(0, m) for m in range(1 << 2 * n)
                          if m.bit_count() % 2 == k % 2]
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
