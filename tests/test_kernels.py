"""Term kernels: the parity-mask signs and plans against the bit-by-bit
oracles, the minor table against elimination, and the forms wrapped from
kernel output without validation."""

import importlib.util
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracles
from oracles import (det_by_columns, integer_form_mismatches,
                     thinned_bivector)
from qexterior import _kernels as K
from qexterior.coeffs import FourierCoeff
from qexterior.forms import (Bivector, HForm, StarTable, bivector_contract,
                             contract_vector, symplectic_star, wedge)
from qexterior.lefschetz import DarbouxSpace
from qexterior.linalg import det
from qexterior.models import PoissonModel
from qexterior.quantum import qwedge
from qexterior.sampling import Sampler
from qexterior.scalars import GRat


def inversion_sign(a_bits, b_bits):
    """Independent sign oracle: count inversions of the concatenation."""
    seq = sorted(a_bits) + sorted(b_bits)
    inv = sum(1 for i in range(len(seq)) for j in range(i + 1, len(seq))
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def bits(mask):
    return [i for i in range(8) if mask >> i & 1]


def back_parity(mask, S):
    """Parity of the library's sign for contracting S ascending from the
    back of e^mask."""
    return (K.odd_above(mask) & S).bit_count() & 1


def front_parity(mask, T):
    """Parity of the library's sign for contracting T ascending from the
    front of e^mask."""
    k = T.bit_count()
    return ((K.odd_below(mask) & T).bit_count() + k * (k - 1) // 2) & 1


def wedge_mismatches(nbits):
    """Disjoint mask pairs on which the wedge sign differs from the oracle."""
    return [(a, b) for a in range(1 << nbits) for b in range(1 << nbits)
            if not a & b and K.wedge_sign(a, b) != oracles.wedge_sign(a, b)]


def contraction_mismatches(nbits):
    """(side, mask, submask) on which a contraction sign differs from the
    oracle's bit-by-bit contraction."""
    bad = []
    for mask in range(1 << nbits):
        for side, parity, sign_of in [("back", back_parity, oracles.back_sign),
                                      ("front", front_parity,
                                       oracles.front_sign)]:
            for group in oracles.contraction_signs(mask, sign_of).values():
                for sub, sign in group:
                    if (-1) ** parity(mask, sub) != sign:
                        bad.append((side, mask, sub))
    return bad


def plan_mismatches(pairs):
    """Mask pairs whose uncached plan differs from the oracle's."""
    return [(ma, mb) for ma, mb in pairs
            if K.qwedge_plan.__wrapped__(ma, mb) != oracles.qwedge_plan(ma, mb)]


def seeded_pairs(nbits, count, seed=22):
    rng = Sampler(seed).rng
    return [(rng.getrandbits(nbits), rng.getrandbits(nbits))
            for _ in range(count)]


class TestSignOracles:
    def test_wedge_sign_matches_inversion_count(self):
        for a in range(64):
            for b in range(64):
                if a & b:
                    continue
                assert K.wedge_sign(a, b) == inversion_sign(bits(a), bits(b))

    def test_front_sign_is_position_parity(self):
        for mask in range(1, 64):
            for i in bits(mask):
                pos = sorted(bits(mask)).index(i)  # 0-based position
                assert (-1) ** front_parity(mask, 1 << i) == (-1) ** pos

    def test_back_sign_relation(self):
        # back = (-1)^(k-1) * front on degree-k monomials
        for mask in range(1, 64):
            k = bin(mask).count("1")
            for i in bits(mask):
                assert (-1) ** back_parity(mask, 1 << i) == \
                    (-1) ** (k - 1) * (-1) ** front_parity(mask, 1 << i)

    def test_parity_masks_count_bits(self):
        # odd_below holds above the top bit of the mask too, and both
        # hold past the first log steps of odd_above
        masks = list(range(1 << 10)) + [m for pair in seeded_pairs(200, 100)
                                        for m in pair]
        for mask in masks:
            above, below = K.odd_above(mask), K.odd_below(mask)
            assert above >= 0
            for i in range(mask.bit_length() + 3):
                assert above >> i & 1 == (mask >> (i + 1)).bit_count() & 1
                assert below >> i & 1 == \
                    (mask & ((1 << i) - 1)).bit_count() & 1

    def test_wedge_sign_matches_oracle(self):
        assert wedge_mismatches(8) == []

    def test_contraction_signs_match_oracle(self):
        assert contraction_mismatches(8) == []

    def test_qwedge_plan_matches_oracle(self):
        assert plan_mismatches((ma, mb) for ma in range(1 << 7)
                               for mb in range(1 << 7)) == []
        assert plan_mismatches(seeded_pairs(10, 300)) == []

    def test_negative_control_flipped_parity_bit(self, monkeypatch):
        # bit 3 of every parity mask flipped: exactly the signs that read
        # it go wrong, and every wrong plan involves index 3
        real = K.odd_above
        monkeypatch.setattr(K, "odd_above", lambda mask: real(mask) ^ 8)
        assert wedge_mismatches(5) == [
            (a, b) for a in range(32) for b in range(32)
            if not a & b and b & 8]
        bad = contraction_mismatches(5)
        # both sides of each of the 3^4 (mask, submask) pairs holding bit 3
        assert len(bad) == 2 * 3 ** 4 and all(sub & 8 for *_, sub in bad)
        bad = plan_mismatches((ma, mb) for ma in range(16) for mb in range(16))
        assert bad and all((ma | mb) & 8 for ma, mb in bad)


# -- minors -------------------------------------------------------------------


def minor_mismatches(w, max_order):
    """Every QTable.minor(S, T) of ``w`` with |S| = |T| <= max_order that
    differs from det_by_columns on the submatrix W[S, T] (a rational table
    read back over D^k) or has the wrong type: an int numerator on a
    rational table, the entry type on any other, the int 0 when zero."""
    table, W = w.table, w.matrix()
    entry_type = int if table.D is not None else GRat
    bad = []
    for k in range(1, max_order + 1):
        for rows in combinations(range(w.dim), k):
            for cols in combinations(range(w.dim), k):
                got = table.minor(sum(1 << i for i in rows),
                                  sum(1 << j for j in cols))
                want = det_by_columns([[W[i][j] for j in cols]
                                       for i in rows])
                value = got if table.D is None else Fraction(got,
                                                             table.D ** k)
                typ = entry_type if got else int
                if value != want or type(got) is not typ:
                    bad.append((rows, cols, got, want))
    return bad


def seeded_bivector(dim, density, gaussian):
    s = Sampler(7000 + 10 * dim + int(10 * Fraction(density))
                + 100 * gaussian)
    w = thinned_bivector(s, dim, density)
    if gaussian:
        w = w.map_entries(lambda x: GRat(x, s.fraction()))
    return w


class TestMinorOracle:
    """Every minor of a table against elimination on its submatrix."""

    @pytest.mark.parametrize("gaussian", [False, True])
    @pytest.mark.parametrize("density", ["0.3", "1.0"])
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_every_minor(self, dim, density, gaussian):
        w = seeded_bivector(dim, density, gaussian)
        if w.entries:
            assert (w.table.D is None) is gaussian
        assert minor_mismatches(w, 4 if dim == 8 else dim) == []

    def test_rational_minors_are_read_back_over_d_to_the_k(self):
        w = Bivector(3, {(1, 2): Fraction(1, 2), (1, 3): Fraction(2, 3),
                         (2, 3): Fraction(5)})
        assert w.table.D == 6
        assert w.table.minor(0b1, 0b10) == 3
        assert w.table.minor(0b10, 0b1) == -3
        assert minor_mismatches(w, 3) == []

    @pytest.mark.parametrize("gaussian", [False, True])
    def test_negative_control_mis_signed_row(self, gaussian):
        # an order-1 minor read with the wrong sign out of one row
        w = seeded_bivector(4, "1.0", gaussian)
        row = w.table.rows[0]
        col = next(iter(row))
        row[col] = -row[col]
        bad = minor_mismatches(w, 1)
        assert [(rows, cols) for rows, cols, _g, _w in bad] == \
            [((0,), (col.bit_length() - 1,))]


# -- the integer forms of a bivector ------------------------------------------


ENTRY_KINDS = ("Fraction", "GRat", "real GRat", "mixed", "PolyCoeff",
               "FourierCoeff")


def seeded_entry_bivector(dim, kind):
    """A seeded bivector on dim generators whose entries are of ``kind``;
    "mixed" draws a Fraction or a GRat per entry."""
    s = Sampler(8000 + 10 * dim + ENTRY_KINDS.index(kind))
    entry = {
        "Fraction": lambda x: x,
        "GRat": lambda x: GRat(x, s.fraction()),
        "real GRat": GRat,
        "mixed": lambda x: GRat(x, s.fraction()) if s.below(2) else x,
        "PolyCoeff": lambda x: s.poly_coeff(dim),
        "FourierCoeff": lambda x: s.fourier_coeff(dim),
    }[kind]
    return s.antisymmetric_bivector(dim).map_entries(entry)


class TestBivectorIntegerForms:
    """``Bivector.table`` and ``Bivector.integer`` against the free
    functions that built them from the entries before the bivector did."""

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_seeded_entries(self, dim, kind):
        # function entries take the typed path of GRat ones, at more cost
        w = seeded_entry_bivector(dim, kind)
        assert w.entries or dim == 1
        assert integer_form_mismatches(
            w, 2 if kind.endswith("Coeff") else 3) == []

    def test_negative_control_scaled_table(self):
        # a table whose rows are those of W over a wrong D
        w = Bivector(3, {(1, 2): Fraction(1, 2), (1, 3): Fraction(2, 3)})
        w.table.D = 12
        assert integer_form_mismatches(w) == ["D, one"]


# -- paired plans -------------------------------------------------------------


PAIRED_KINDS = ("Fraction", "GRat", "FourierCoeff")


def seeded_pairing(dim, kind, seed):
    """A table of a seeded partial pairing on dim generators: each row has
    at most one entry, of ``kind``; some draws pair no row (w = 0)."""
    s = Sampler(seed)
    order = list(range(1, dim + 1))
    s.rng.shuffle(order)
    paired = 2 * s.randint(0, dim // 2)
    entry = {"Fraction": lambda: s.fraction(1, 6),
             "GRat": lambda: GRat(s.fraction(1, 6), s.fraction()),
             "FourierCoeff": lambda: s.fourier_coeff(dim)}[kind]
    entries = {tuple(sorted(order[t:t + 2])): entry()
               for t in range(0, paired, 2)}
    if kind == "Fraction":
        return K.QTable.rational(dim, dict(sorted(entries.items())))
    return K.QTable(dim, [(i, j, w) for (i, j), w in sorted(entries.items())])


def paired_mismatches(table, dense, masks):
    """Mask pairs whose product under ``table`` differs from the one under
    ``dense`` (the same entries, ``pairs = None``) as a multiset of
    (k, mask, type, coefficient); each (k, mask) occurs once per list."""
    def listed(t, ma, mb):
        return sorted(((k, m, type(d), d) for k, m, d in t.product(ma, mb)),
                      key=lambda x: x[:2])
    return [(ma, mb) for ma, mb in masks
            if listed(table, ma, mb) != listed(dense, ma, mb)]


def dense_copy(make):
    dense = make()
    dense.pairs = None
    return dense


def mask_pairs(dim, seed):
    if dim <= 4:
        return [(ma, mb) for ma in range(1 << dim) for mb in range(1 << dim)]
    return seeded_pairs(dim, 150, seed)


class TestPairedPlans:
    """Products under a table whose every row has at most one entry read
    the plan given its partners; the product is the full plan's."""

    @pytest.mark.parametrize("kind", PAIRED_KINDS)
    @pytest.mark.parametrize("dim", range(1, 9))
    def test_paired_product_is_the_dense_one(self, dim, kind):
        for seed in range(9000 + 10 * dim, 9000 + 10 * dim + 4):
            table = seeded_pairing(dim, kind, seed)
            assert table.pairs is not None
            assert all(table.pairs[i] == next(iter(row), 0)
                       for i, row in enumerate(table.rows))
            dense = dense_copy(lambda: seeded_pairing(dim, kind, seed))
            assert paired_mismatches(table, dense,
                                     mask_pairs(dim, seed)) == []

    def test_zero_bivector_pairs_nothing(self):
        for dim in range(1, 6):
            dense = dense_copy(lambda: K.QTable(dim, []))
            for table in (K.QTable.rational(dim, {}), K.QTable(dim, [])):
                assert table.pairs == (0,) * dim
                assert paired_mismatches(table, dense,
                                         mask_pairs(dim, 1)) == []

    def test_negative_control_swapped_partners(self):
        # rows 1 and 3 trade partners: the minors listed are the wrong ones
        make = lambda: K.QTable(4, [(1, 2, Fraction(2)), (3, 4, Fraction(3))])
        table = make()
        assert table.pairs == (2, 1, 8, 4)
        table.pairs = (8, 1, 2, 4)
        assert paired_mismatches(table, dense_copy(make), mask_pairs(4, 1))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_darboux_qwedge_is_the_bruteforce_product(self, n):
        w = DarbouxSpace(n).w
        assert w.table.pairs is not None
        s = Sampler(9100 + n)
        for _ in range(12):
            # degrees up to 3, which keep the brute force under a second
            a, b = (s.ext_form(2 * n, degree=s.randint(0, min(2 * n, 3)),
                               h_max=1) for _ in "ab")
            assert qwedge(a, b, w) == oracles.qwedge_bruteforce(a, b, w)

    def test_which_tables_are_paired(self):
        for n in (1, 2, 3):
            pairs = DarbouxSpace(n).w.table.pairs
            assert pairs == tuple(1 << (i ^ 1) for i in range(2 * n))
        # dense: a congruent Darboux space, the benchmark's torus bivector
        # and a product-law suite's draw
        assert DarbouxSpace.of_model(
            oracles.congruent_torus(Sampler(42), 2)).w.table.pairs is None
        root = Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", root / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        w = workloads.torus_bivector(random.Random("torus_tables:11:0"), 4)
        assert Bivector(4, w).table.pairs is None
        assert K.QTable.rational(
            4, Sampler(11).bivector_entries(4)).pairs is None


# -- forms wrapped without validation -----------------------------------------


def clean(f: HForm) -> bool:
    """Whether a form equals its own revalidation by the public constructor,
    term for term, in key order and with the coefficient types."""
    g = HForm(f.dim, f.terms, f.laurent)
    return g.laurent == f.laurent and \
        [(k, type(c), c) for k, c in g.terms.items()] == \
        [(k, type(c), c) for k, c in f.terms.items()]


COEFFS = ("Fraction", "GRat", "PolyCoeff")


def seeded_form(s: Sampler, dim: int, coeff: str, laurent: bool) -> HForm:
    if coeff == "PolyCoeff":
        return s.model_form(PoissonModel.affine(dim), terms=4, laurent=laurent)
    f = s.ext_form(dim, terms=4, h_max=2 if laurent else 1, laurent=laurent)
    if coeff == "GRat":
        f = f.map_coeffs(lambda c: GRat(c, s.fraction()))
    return f


def seeded_star(s: Sampler, dim: int) -> StarTable:
    while True:
        omega = s.antisymmetric_bivector(dim).matrix()
        if det(omega):
            return StarTable(omega)


def clean_outputs(caller: str, dim: int, coeff: str, laurent: bool,
                  trials: int = 6):
    """Seeded outputs of one caller of ``HForm._from_clean``."""
    s = Sampler(1000 * CLEAN_CALLERS.index(caller) + 10 * dim
                + 2 * COEFFS.index(coeff) + laurent)
    star = seeded_star(s, dim) if caller == "symplectic_star" else None
    for _ in range(trials):
        a = seeded_form(s, dim, coeff, laurent)
        b = seeded_form(s, dim, coeff, laurent and s.rng.random() < 0.5)
        if caller == "qwedge":
            w = thinned_bivector(s, dim, s.rng.choice(["0.3", "1.0"]))
            yield qwedge(a, b, w)
        elif caller == "wedge":
            yield wedge(a, b)
        elif caller == "symplectic_star":
            yield symplectic_star(a if laurent else a.at_h(0), star)
        elif caller == "HForm.__add__":
            # b - a + a cancels every term of a not in b
            yield a + b
            yield (b + -a) + a
        elif caller == "HForm.__neg__":
            yield -a
        elif caller == "HForm.to_laurent":
            f = a.to_laurent()
            assert f.terms is not a.terms
            yield f


CLEAN_CALLERS = ("qwedge", "wedge", "symplectic_star", "HForm.__add__",
                 "HForm.__neg__", "HForm.to_laurent")


class TestCleanKernelOutput:
    """The callers that wrap kernel output without validating it give the
    form the public constructor would: no zero coefficient, no mask beyond
    the dimension, no negative h-power in polynomial mode."""

    @pytest.mark.parametrize("laurent", [False, True])
    @pytest.mark.parametrize("coeff", COEFFS)
    @pytest.mark.parametrize("caller", CLEAN_CALLERS)
    def test_outputs_revalidate_unchanged(self, caller, coeff, laurent):
        for dim in range(1, 9):
            if caller == "symplectic_star" and dim % 2:
                continue
            trials = 2 if dim > 6 and caller == "qwedge" else 6
            outs = list(clean_outputs(caller, dim, coeff, laurent, trials))
            assert outs and all(clean(f) for f in outs), (caller, dim)

    def test_polynomial_qwedge_of_so3(self):
        s = Sampler(95)
        model = s.jacobi_model("so3")
        for _ in range(10):
            prod = qwedge(s.model_form(model, terms=3),
                          s.model_form(model, terms=3), model.w)
            assert clean(prod)

    @pytest.mark.parametrize("kernel,caller", [
        ("wedge_terms", "wedge"), ("qwedge_terms", "qwedge")])
    def test_negative_control_leaked_zero(self, monkeypatch, kernel, caller):
        real = getattr(K, kernel)

        def leaky(*args):
            out = real(*args)
            out[next(iter(out), (0, 0))] = Fraction(0)
            return out

        monkeypatch.setattr(K, kernel, leaky)
        outs = list(clean_outputs(caller, 3, "Fraction", False))
        assert not any(clean(f) for f in outs)


# -- the one contraction kernel -----------------------------------------------


def same_terms(got: HForm, want: HForm) -> bool:
    """Whether two forms agree term for term, in key order and with the
    coefficient types."""
    return [(k, type(c), c) for k, c in got.terms.items()] == \
        [(k, type(c), c) for k, c in want.terms.items()]


def contraction_models():
    """Seeded Poisson models of every entry kind: constant, so(3) and
    decomposable affine ones, the Darboux T^4, and f(theta_3) d_1 ^ d_2
    on T^3, a torus bivector that is not constant."""
    s = Sampler(61)
    models = [s.jacobi_model(family)
              for family in ("constant", "so3", "decomposable")]
    f = FourierCoeff(3, {(0, 0, 1): GRat(2, -1),
                         (0, 0, -2): GRat(Fraction(1, 3))})
    return models + [PoissonModel.darboux_torus(2),
                     PoissonModel.torus(3, {(1, 2): f})]


CONTRACTION_IDS = ["constant", "so3", "decomposable", "T4",
                   "torus-f(theta3)"]


def seeded_vector(s: Sampler, model: PoissonModel, scalar: bool) -> list:
    """Components of a vector field, about a third of them zero: seeded
    Fractions, or functions of the model's coefficient type."""
    return [0 if not s.below(3) else
            s.fraction() if scalar else s.model_coeff(model)
            for _ in range(model.dim)]


def patch_contraction_oracles(monkeypatch):
    """Route the library operators' iota_w and iota_X through the loops
    of ``oracles`` instead of the kernel contraction."""
    from qexterior import calculus, equivariant
    monkeypatch.setattr(calculus, "bivector_contract",
                        oracles.bivector_contract_per_entry)
    monkeypatch.setattr(calculus, "contract_vector",
                        oracles.contract_vector_per_index)
    monkeypatch.setattr(equivariant, "contract_vector",
                        oracles.contract_vector_per_index)


class TestContractionOracle:
    """``contract_vector`` and ``bivector_contract``, thin wrappers over
    ``_kernels.iota_terms``, against the per-index and per-entry ``HForm``
    loops they replaced (``oracles``, whose contraction signs are counted
    bit by bit), directly and through every library operator that
    contracts."""

    @pytest.mark.parametrize("model", contraction_models(),
                             ids=CONTRACTION_IDS)
    def test_direct(self, model):
        s = Sampler(70 + model.dim)
        for laurent in (False, True):
            for _ in range(4):
                x = s.model_form(model, terms=4, laurent=laurent)
                for w in (model.w, thinned_bivector(s, model.dim, "0.7")):
                    assert same_terms(
                        bivector_contract(w, x),
                        oracles.bivector_contract_per_entry(w, x)), (w, x)
                for scalar in (False, True):
                    X = seeded_vector(s, model, scalar)
                    assert same_terms(
                        contract_vector(X, x),
                        oracles.contract_vector_per_index(X, x)), (X, x)

    def test_vector_index_range(self):
        with pytest.raises(IndexError):
            contract_vector([0, 0, 1], HForm.basis(2, 1))
        assert contract_vector([1, 0, 0], HForm.basis(2, 1)) == \
            HForm.scalar(2, Fraction(1))

    @pytest.mark.parametrize("model", contraction_models(),
                             ids=CONTRACTION_IDS)
    def test_through_the_calculus_operators(self, model, monkeypatch):
        from qexterior.calculus import koszul_delta, lie_derivative, quantum_d
        s = Sampler(80 + model.dim)
        cases = [(s.model_form(model, terms=4, laurent=laurent),
                  seeded_vector(s, model, scalar=False))
                 for laurent in (False, True) for _ in range(3)]

        def outputs():
            return [f for x, X in cases for f in (
                koszul_delta(x, model), quantum_d(x, model),
                lie_derivative(X, x))]

        got = outputs()
        patch_contraction_oracles(monkeypatch)
        want = outputs()
        assert len(got) == len(want) == 18
        assert all(same_terms(a, b) for a, b in zip(got, want))

    def test_through_contract_generator(self, monkeypatch):
        from qexterior.coeffs import PolyCoeff
        from qexterior.equivariant import GroupAction, contract_generator
        s = Sampler(90)
        t4 = PoissonModel.darboux_torus(2)
        so3 = PoissonModel.so3_affine()
        x = [PolyCoeff.variable(3, i) for i in (1, 2, 3)]
        actions = [
            GroupAction(t4, [[s.fraction() for _ in range(4)]
                             for _ in range(2)]),
            GroupAction(so3, [[-x[1], x[0], PolyCoeff.zero(3)]])]

        def outputs():
            s = Sampler(91)
            return [contract_generator(a, s.model_form(act.model, terms=4,
                                                       laurent=laurent), act)
                    for act in actions for a in range(act.n_generators)
                    for laurent in (False, True) for _ in range(3)]

        got = outputs()
        patch_contraction_oracles(monkeypatch)
        want = outputs()
        assert any(got) and all(same_terms(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("n", [1, 2])
    def test_through_dolbeault_operators(self, n, monkeypatch):
        from qexterior.calculus import dolbeault_operators
        model = PoissonModel.darboux_torus(n, complex_structure=True)
        s = Sampler(100 + n)
        forms = [s.complexified_model_form(model, terms=3, laurent=laurent)
                 for laurent in (False, True) for _ in range(3)]

        def outputs():
            return [getattr(ops, name) for ops in
                    (dolbeault_operators(a, model) for a in forms)
                    for name in ops.__slots__]

        got = outputs()
        patch_contraction_oracles(monkeypatch)
        want = outputs()
        assert len(got) == len(want) == 36
        assert all(same_terms(a, b) for a, b in zip(got, want))

    def test_negative_control_contractions_swapped(self, monkeypatch):
        # contracting e_j before e_i flips the sign of every w^ij term
        real = K.iota_terms
        monkeypatch.setattr(K, "iota_terms", lambda terms, pairs: real(
            terms, [(indices[::-1], c) for indices, c in pairs]))
        s = Sampler(110)
        w = s.antisymmetric_bivector(4)
        x = s.ext_form(4, degree=3, terms=4)
        assert bivector_contract(w, x)
        assert not same_terms(bivector_contract(w, x),
                              oracles.bivector_contract_per_entry(w, x))

    def test_negative_control_front_sign_read_above(self, monkeypatch):
        # the front contraction's sign read off odd_above, the back one's
        # mask; on an odd degree the bits above and below an index of the
        # mask have the same parity, so the draw has an even degree
        monkeypatch.setattr(K, "odd_below", K.odd_above)
        s = Sampler(110)
        X = [s.nonzero_fraction() for _ in range(4)]
        x = s.ext_form(4, degree=2, terms=4)
        assert contract_vector(X, x)
        assert not same_terms(contract_vector(X, x),
                              oracles.contract_vector_per_index(X, x))
