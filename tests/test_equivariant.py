"""Quantum Cartan model: contraction, differential, the anticommutator
identity, and truncated equivariant tables."""

import itertools
import re
from fractions import Fraction

import pytest

from oracles import (cartan_columns_at_mode, equivariant_matrix_symbolic,
                     homotopy_certificate, label_columns,
                     label_homotopy_certificate, require_acyclic)
from qexterior import complexes, equivariant
from qexterior.coeffs import FourierCoeff, PolyCoeff
from qexterior.cohomology import quantum_derham_table
from qexterior.complexes import (complex_homology, dense_complex,
                                 dense_matrix, dh_kappa_v, homotopy_columns,
                                 koszul_columns, require_modes)
from qexterior.equivariant import (EquivariantElement, GroupAction,
                                   _equivariant_basis, _integer_generators,
                                   anticommutator_check, cartan_d,
                                   contract_generator,
                                   equivariant_cohomology_table,
                                   invariant_modes, lie_bivector)
from qexterior.forms import HForm
from qexterior.hpoly import HLaurent, HPoly
from qexterior.models import PoissonModel
from qexterior.sampling import Sampler


@pytest.fixture(scope="module")
def t2():
    return PoissonModel.darboux_torus(1)


@pytest.fixture(scope="module")
def circle_action(t2):
    return GroupAction(t2, [[Fraction(1), Fraction(0)]])


def invariant_element(s, model, action, d=1):
    terms = {}
    for _ in range(2):
        A = tuple(s.rng.randint(0, 2) for _ in range(d))
        c = FourierCoeff(model.dim,
                         {(0, s.rng.randint(-1, 1)): Fraction(s.rng.randint(-3, 3))})
        f = HForm(model.dim,
                  {(s.rng.randint(0, 1), s.mask(model.dim, s.rng.randint(0, model.dim))): c})
        if f:
            terms[A] = terms.get(A, HForm.zero(model.dim)) + f
    return EquivariantElement(model, d, terms)


class TestGroupAction:
    def test_translation_recognized(self, circle_action):
        assert circle_action.is_translation()
        assert circle_action.translation_vector(0) == [1, 0]

    def test_noncommuting_rejected(self):
        so3 = PoissonModel.so3_affine()
        x = lambda i: PolyCoeff.variable(3, i)
        rot3 = [-x(2), x(1), PolyCoeff.zero(3)]
        rot1 = [PolyCoeff.zero(3), -x(3), x(2)]
        with pytest.raises(ValueError):
            GroupAction(so3, [rot3, rot1])

    def test_nonpreserving_rejected(self):
        model = PoissonModel.torus(
            2, {(1, 2): FourierCoeff.character(2, (1, 0))})
        with pytest.raises(ValueError):
            GroupAction(model, [[Fraction(1), Fraction(0)]])

    def test_lie_bivector_zero_for_rotation(self):
        so3 = PoissonModel.so3_affine()
        x = lambda i: PolyCoeff.variable(3, i)
        assert lie_bivector([-x(2), x(1), PolyCoeff.zero(3)], so3) is None


class TestContraction:
    def test_examples(self, t2, circle_action):
        assert contract_generator(0, t2.form_monomial([1]), circle_action) == \
            t2.form_scalar(1)
        assert contract_generator(0, t2.form_monomial([2]),
                                  circle_action).is_zero()

    def test_index_range(self, t2, circle_action):
        with pytest.raises(IndexError):
            contract_generator(1, t2.form_scalar(1), circle_action)

    def test_preserves_invariance(self, t2, circle_action, sampler):
        for _ in range(15):
            c = FourierCoeff(2, {(0, sampler.rng.randint(-1, 1)):
                                 Fraction(sampler.rng.randint(-3, 3))})
            a = HForm(2, {(0, sampler.mask(2, sampler.rng.randint(0, 2))): c})
            if not a:
                continue
            assert circle_action.is_invariant_form(a)
            out = contract_generator(0, a, circle_action)
            if out:
                assert circle_action.is_invariant_form(out)


class TestCartanDifferential:
    def test_invariant_function(self, t2, circle_action):
        c = FourierCoeff.character(2, (0, 1))
        x = EquivariantElement(t2, 1, {(0,): t2.form_scalar(c)})
        Dx = cartan_d(x, circle_action)
        from qexterior.calculus import quantum_d
        assert Dx.terms == {(0,): quantum_d(t2.form_scalar(c), t2)}

    def test_dtheta1_gives_theta(self, t2, circle_action):
        x = EquivariantElement(t2, 1, {(0,): t2.form_monomial([1])})
        Dx = cartan_d(x, circle_action)
        assert Dx.terms == {(1,): t2.form_scalar(1)}

    def test_d_squared_zero(self, t2, circle_action):
        s = Sampler(101)
        for _ in range(25):
            x = invariant_element(s, t2, circle_action)
            assert cartan_d(cartan_d(x, circle_action),
                            circle_action).is_zero()

    def test_degree_raises_by_one(self, t2, circle_action):
        s = Sampler(103)
        for _ in range(15):
            x = invariant_element(s, t2, circle_action)
            degs = x.total_degrees()
            if len(degs) != 1:
                continue
            Dx = cartan_d(x, circle_action)
            if Dx:
                assert Dx.total_degrees() == {degs.pop() + 1}

    def test_noninvariant_rejected(self, t2, circle_action):
        c = FourierCoeff.character(2, (1, 0))
        x = EquivariantElement(t2, 1, {(0,): t2.form_scalar(c)})
        with pytest.raises(ValueError):
            cartan_d(x, circle_action)

    def test_output_invariant(self, t2, circle_action):
        s = Sampler(107)
        for _ in range(15):
            x = invariant_element(s, t2, circle_action)
            assert cartan_d(x, circle_action).is_invariant(circle_action)


class TestAnticommutator:
    def test_translation_pass(self, t2, circle_action, sampler):
        forms = [sampler.model_form(t2) for _ in range(20)]
        assert anticommutator_check(circle_action, forms)

    def test_corrupted_bivector_fails(self, sampler):
        model = PoissonModel.torus(
            2, {(1, 2): FourierCoeff.character(2, (1, 0))})
        # GroupAction refuses a generator that moves w, so the action is
        # built on the constant T^2 and then handed the moved bivector
        action = GroupAction(PoissonModel.darboux_torus(1),
                             [[Fraction(1), Fraction(0)]])
        action.model = model
        forms = [sampler.model_form(model, degree=2) for _ in range(10)]
        rep = anticommutator_check(action, forms)
        assert not rep.ok
        assert rep.failures

    def test_so3_rotation_pass(self, sampler):
        so3 = PoissonModel.so3_affine()
        x = lambda i: PolyCoeff.variable(3, i)
        action = GroupAction(so3, [[-x(2), x(1), PolyCoeff.zero(3)]])
        forms = [sampler.model_form(so3) for _ in range(15)]
        assert anticommutator_check(action, forms)


class TestEquivariantTable:
    def test_free_circle_action_ranks(self, t2, circle_action):
        tab = equivariant_cohomology_table(t2, circle_action, cutoff=6)
        assert {d: tab.rank(d) for d in tab.degrees()} == \
            {n: 1 for n in range(7)}
        assert not tab.total_torsion()
        assert tab.meta["cutoff"] == 6

    def test_trivial_action_matches_derham(self, t2):
        trivial = GroupAction(t2, [])
        tab = equivariant_cohomology_table(t2, trivial, cutoff=5)
        derham = quantum_derham_table(t2, ring=HPoly, max_degree=5)
        dims = derham.meta["graded_dims"]
        for n in range(6):
            assert tab.rank(n) == dims[n]

    def test_invariant_modes(self, circle_action):
        modes = set(invariant_modes(circle_action, 1))
        assert modes == {(0, -1), (0, 0), (0, 1)}

    def test_negative_cutoff_rejected(self, t2, circle_action):
        with pytest.raises(ValueError):
            equivariant_cohomology_table(t2, circle_action, cutoff=-1)

    def test_nontranslation_rejected(self):
        so3 = PoissonModel.so3_affine()
        x = lambda i: PolyCoeff.variable(3, i)
        action = GroupAction(so3, [[-x(2), x(1), PolyCoeff.zero(3)]])
        with pytest.raises(ValueError):
            equivariant_cohomology_table(so3, action, cutoff=3)

    def test_two_generator_full_translation(self, t2):
        action = GroupAction(t2, [[Fraction(1), Fraction(0)],
                                  [Fraction(0), Fraction(1)]])
        tab = equivariant_cohomology_table(t2, action, cutoff=4)
        assert tab.meta["modes"] == [(0, 0)]
        # free action of the full torus: the Koszul differential
        # Theta^a iota_a leaves only the point cohomology times Q[h]
        assert {d: tab.rank(d) for d in tab.degrees()} == \
            {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def translation_actions():
    """A circle on T^2 and two translations on a T^4 integer bivector."""
    t2 = PoissonModel.darboux_torus(1)
    t4 = PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5, (2, 3): 1,
                                (2, 4): -4, (3, 4): 6})
    return [(t2, GroupAction(t2, [[Fraction(1), Fraction(0)]]), 6),
            (t4, GroupAction(t4, [[1, 0, 0, 0], [0, 1, -1, 0]]), 4)]


class TestHomotopyCertificate:
    """Every nonzero invariant mode of a translation action is acyclic in
    the truncated Cartan complex, proved by iota_{e_b} / (i k_b)."""

    def test_direct_builder_matches_cartan_d(self):
        for model, action, cutoff in translation_actions():
            d = action.n_generators
            bases = [_equivariant_basis(model, d, n) for n in range(cutoff + 2)]
            labels = [lab for b in bases for lab in b]
            for k in invariant_modes(action, 1)[::3]:
                cols = cartan_columns_at_mode(
                    _integer_generators(action),
                    *dh_kappa_v(model.constant_bivector().integer, k),
                    labels)
                for n in range(cutoff + 1):
                    for ring in (HPoly, HLaurent):
                        direct = dense_matrix(cols, bases[n], bases[n + 1], ring)
                        symbolic = equivariant_matrix_symbolic(
                            model, action, k, bases[n], bases[n + 1], ring)
                        assert [[(x, sorted((j, type(c)) for j, c in x.coeffs.items()))
                                 for x in row] for row in direct] == \
                            [[(x, sorted((j, type(c)) for j, c in x.coeffs.items()))
                              for x in row] for row in symbolic], (k, n)

    def test_every_nonzero_mode_certified(self, monkeypatch):
        # every nonzero invariant mode is read once, and each passes the
        # per-mode certificate on the masks that the table ran before
        seen = record_modes(monkeypatch)
        for model, action, cutoff in translation_actions():
            seen.clear()
            tab = equivariant_cohomology_table(model, action, cutoff, 1)
            nonzero = [k for k in tab.meta["modes"] if any(k)]
            units = [tuple(int(i == c) for i in range(model.dim))
                     for c in range(model.dim)]
            assert nonzero
            assert seen == [(0,) * model.dim, nonzero[0], *units,
                            *nonzero[1:]]
            bivector = model.constant_bivector().integer
            for k in nonzero:
                require_acyclic(k, *dh_kappa_v(bivector, k))

    def test_nonzero_modes_acyclic_by_snf(self):
        # the Smith normal form oracle agrees: no homology on any nonzero
        # invariant mode in the reported degrees
        for model, action, cutoff in translation_actions():
            degrees = list(range(cutoff + 2))
            bases = [_equivariant_basis(model, action.n_generators, n)
                     for n in degrees]
            labels = [lab for b in bases for lab in b]
            nonzero = [k for k in invariant_modes(action, 1) if any(k)]
            assert nonzero
            for k in nonzero:
                cols = cartan_columns_at_mode(
                    _integer_generators(action),
                    *dh_kappa_v(model.constant_bivector().integer, k),
                    labels)
                tab = complex_homology(dense_complex(degrees, bases, cols,
                                                     HPoly))
                for n in range(cutoff + 1):
                    assert tab.rank(n) == 0 and tab.torsion(n) == [], (k, n)


def agreement_actions():
    """(model, generators, box): coordinate, non-coordinate, rational and
    dependent translations on T^1..T^4, one to three generators."""
    t1 = PoissonModel.torus(1, {})
    t2 = PoissonModel.darboux_torus(1)
    t3 = PoissonModel.torus(3, {(1, 2): 2, (1, 3): Fraction(-1, 2),
                                (2, 3): 3})
    t4 = PoissonModel.torus(4, {(1, 2): 3, (1, 3): -2, (1, 4): 5,
                                (2, 3): 1, (2, 4): -4, (3, 4): 6})
    return [
        (t1, [[0]], 2),
        (t1, [[Fraction(1, 2)]], 2),
        (t2, [[1, 0]], 2),
        (t2, [[1, 2]], 2),
        (t2, [[1, 0], [2, 0]], 2),
        (t3, [[Fraction(1, 2), 0, Fraction(1, 3)]], 2),
        (t3, [[1, 0, 0], [0, 1, -1]], 2),
        (t4, [[1, 2, 0, 0]], 2),
        (t4, [[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, -1, 0]], 2),
    ]


def cartan_label_certificate(model, action, k, cutoff):
    """The certificate the table ran before: the Cartan operator of the
    mode k on every label of the truncated complex, with the homotopy
    lifted onto the labels, at the reported degrees."""
    bases = [_equivariant_basis(model, action.n_generators, n)
             for n in range(cutoff + 2)]
    labels = [lab for b in bases for lab in b]
    kappa, v, den = dh_kappa_v(model.constant_bivector().integer, k)
    return label_homotopy_certificate(
        bases, range(cutoff + 1),
        cartan_columns_at_mode(_integer_generators(action), kappa, v, den,
                               labels),
        label_columns(homotopy_columns(kappa, den), labels))


def record_modes(monkeypatch):
    """The list of modes whose kappa and v the equivariant table asks
    for, in order."""
    seen = []

    def recording(bivector, k):
        seen.append(k)
        return dh_kappa_v(bivector, k)

    monkeypatch.setattr(equivariant, "dh_kappa_v", recording)
    return seen


def built(*args, **kwargs):
    raise AssertionError("a Smith normal form was taken")


class TestMaskCertificate:
    """Each nonzero invariant mode is settled by d_h's certificate on the
    masks after the exact check kappa(X_a) = 0, in agreement with the
    Cartan-label certificate it replaces."""

    CUTOFF = 3

    @pytest.mark.parametrize("index", range(len(agreement_actions())))
    def test_agrees_with_cartan_label_certificate(self, index):
        model, gens, box = agreement_actions()[index]
        action = GroupAction(model, gens)
        bivector = model.constant_bivector().integer
        for k in invariant_modes(action, box):
            if not any(k):
                continue
            require_acyclic(k, *dh_kappa_v(bivector, k))
            assert cartan_label_certificate(model, action, k, self.CUTOFF), k

    def test_non_invariant_mode_raises_naming_it(self, monkeypatch):
        # a mode the action does not fix, handed to the table as invariant:
        # D no longer squares to zero, the oracle rejects it, and the
        # table raises before any Smith normal form
        monkeypatch.setattr(complexes, "smith_normal_form", built)
        checked = 0
        for model, gens, _box in agreement_actions():
            action = GroupAction(model, gens)
            modes = set(invariant_modes(action, 1))
            for k in itertools.product((-1, 0, 1), repeat=model.dim):
                if k in modes:
                    continue
                assert not cartan_label_certificate(model, action, k,
                                                    self.CUTOFF), k
                monkeypatch.setattr(equivariant, "invariant_modes",
                                    lambda action, box, k=k: [k])
                with pytest.raises(AssertionError, match=re.escape(
                        f"Fourier mode {k} is not invariant under generator")):
                    equivariant_cohomology_table(model, action, self.CUTOFF)
                checked += 1
        assert checked

    def test_once_per_nonzero_mode_on_the_masks(self, monkeypatch):
        # mode 0, the first nonzero invariant mode, the unit modes, whose
        # Koszul operators on the masks are the only ones built, then the
        # other nonzero modes, each once
        modes = record_modes(monkeypatch)
        operators = []

        def recording(kappa, v, den):
            cols = koszul_columns(kappa, v, den)
            operators.append(sorted(cols[0]))
            return cols

        monkeypatch.setattr(complexes, "koszul_columns", recording)
        for model, gens, box in agreement_actions():
            action = GroupAction(model, gens)
            modes.clear()
            operators.clear()
            tab = equivariant_cohomology_table(model, action, 4, box)
            masks = list(range(1 << model.dim))
            units = [tuple(int(i == c) for i in range(model.dim))
                     for c in range(model.dim)]
            nonzero = [k for k in tab.meta["modes"] if any(k)]
            # a box with no nonzero invariant mode builds nothing
            assert modes == [(0,) * model.dim] + (
                [nonzero[0], *units, *nonzero[1:]] if nonzero else [])
            assert operators == [masks] * (model.dim if nonzero else 0)

    @pytest.mark.parametrize("index", range(len(agreement_actions())))
    def test_require_modes_agrees_per_mode(self, index):
        # on every nonzero invariant mode of the box, alone, the unit
        # certificate passes exactly when the per-mode one does: always
        # for d_h, never once v = kappa makes <kappa, v> != 0
        model, gens, box = agreement_actions()[index]
        bivector = model.constant_bivector().integer

        def paired(k):
            kappa, v, den = dh_kappa_v(bivector, k)
            return kappa, [(a + p, b + q)
                           for (a, b), (p, q) in zip(v, kappa)], den

        for k in invariant_modes(GroupAction(model, gens), box):
            if not any(k):
                continue
            for kappa_v in (lambda k: dh_kappa_v(bivector, k), paired):
                kappa, v, den = kappa_v(k)
                old = homotopy_certificate(koszul_columns(kappa, v, den),
                                           homotopy_columns(kappa, den))
                try:
                    require_modes([k], kappa_v)
                    new = True
                except AssertionError:
                    new = False
                assert old == new == (kappa_v is not paired), k

