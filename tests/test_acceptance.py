"""Acceptance criteria, one test per criterion.

Every check is exact (a single mismatching coefficient fails); the two
timed criteria assert their wall-clock budgets.  Each test prints one
PASS line on success so `pytest -s tests/test_acceptance.py` doubles as
the acceptance report.
"""

import time
from fractions import Fraction

import pytest

from oracles import recursion_matrix, recursion_verify
from qexterior.calculus import (dolbeault_operators, exterior_d,
                                frame_formula_d, koszul_delta, quantum_d,
                                stokes_check)
from qexterior.chern import (QConnection, char_form, covariant_square_check,
                             quantum_curvature, transgression_check)
from qexterior.cohomology import quantum_derham_table, \
    quantum_dolbeault_table, ring_table
from qexterior.equivariant import (GroupAction, anticommutator_check,
                                   cartan_d, equivariant_cohomology_table)
from qexterior.forms import HForm
from qexterior.hpoly import HLaurent, HPoly
from qexterior.lefschetz import (commutator_check, hard_lefschetz_check,
                                 lefschetz_d_commutators)
from qexterior.linalg import det
from qexterior.models import PoissonModel
from qexterior.quantum import (frobenius_pairing, gram_matrix, qwedge,
                               wwedge)
from qexterior.sampling import Sampler


def report(num, text):
    print(f"\nACCEPTANCE {num:>2}: PASS - {text}")


@pytest.fixture(scope="module")
def t2():
    return PoissonModel.darboux_torus(1)


@pytest.fixture(scope="module")
def t4():
    return PoissonModel.darboux_torus(2)


@pytest.fixture(scope="module")
def t2c():
    return PoissonModel.darboux_torus(1, complex_structure=True)


def test_01_quantum_product_laws():
    """Supercommutativity and associativity on 200 seeded triples, dims
    2..8, random rational antisymmetric w; budget 60 s."""
    start = time.monotonic()
    s = Sampler(1001)
    triples = 0
    while triples < 200:
        dim = 2 + triples % 7
        w = s.antisymmetric_bivector(dim)
        degs = [s.rng.randint(0, dim) for _ in range(3)]
        a, b, c = (s.ext_form(dim, degree=d, h_max=1) for d in degs)
        assert qwedge(qwedge(a, b, w), c, w) == qwedge(a, qwedge(b, c, w), w)
        rhs = qwedge(b, a, w)
        if (degs[0] * degs[1]) % 2:
            rhs = -rhs
        assert qwedge(a, b, w) == rhs
        triples += 1
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"associativity + supercommutativity on {triples} triples "
              f"(dims 2-8) in {elapsed:.1f}s")


def test_02_normalization():
    """e^i ^_w e^j = e^i ^ e^j + w^ij for all i, j in dims <= 6."""
    s = Sampler(1002)
    checked = 0
    for dim in range(2, 7):
        w = s.antisymmetric_bivector(dim)
        for i in range(1, dim + 1):
            for j in range(1, dim + 1):
                ei, ej = HForm.basis(dim, i), HForm.basis(dim, j)
                expect = (ei ^ ej)
                wij = w.entry(i, j)
                if wij:
                    expect = expect + HForm.scalar(dim, wij)
                assert wwedge(ei, ej, w) == expect
                checked += 1
    report(2, f"product normalization on {checked} basis pairs, dims 2-6")


def test_03_koszul_identities():
    """delta^2 = 0 and d delta + delta d = 0 on >= 100 random forms over
    constant, so(3)-linear, and random Jacobi-passing bivectors."""
    s = Sampler(1003)
    models = [s.jacobi_model("constant"), PoissonModel.so3_affine(),
              s.jacobi_model("decomposable"),
              PoissonModel.darboux_torus(1), PoissonModel.darboux_torus(2)]
    checked = 0
    while checked < 100:
        model = models[checked % len(models)]
        a = s.model_form(model)
        assert koszul_delta(koszul_delta(a, model), model).is_zero()
        anti = exterior_d(koszul_delta(a, model)) + \
            koszul_delta(exterior_d(a), model)
        assert anti.is_zero()
        checked += 1
    report(3, f"delta^2 = 0 and d delta + delta d = 0 on {checked} forms "
              "over 5 bivector families")


def test_04_quantum_differential():
    """d_h^2 = 0 and the Leibniz rule on >= 200 homogeneous pairs; the
    local-frame oracle agrees with d - h delta on constant-w inputs."""
    s = Sampler(1004)
    so3 = PoissonModel.so3_affine()
    t2 = PoissonModel.darboux_torus(1)
    t4 = PoissonModel.darboux_torus(2)
    pairs = 0
    while pairs < 200:
        model = (t2, t4, so3)[pairs % 3]
        da = s.rng.randint(0, model.dim)
        a = s.model_form(model, degree=da)
        b = s.model_form(model, degree=s.rng.randint(0, model.dim))
        assert quantum_d(quantum_d(a, model), model).is_zero()
        lhs = quantum_d(qwedge(a, b, model.w), model)
        sign = Fraction(-1 if da % 2 else 1)
        rhs = qwedge(quantum_d(a, model), b, model.w) + \
            qwedge(a, quantum_d(b, model), model.w) * sign
        assert lhs == rhs
        pairs += 1
    frame_checked = 0
    for model in (t2, t4):
        for _ in range(40):
            a = s.model_form(model, laurent=bool(s.rng.randint(0, 1)))
            assert frame_formula_d(a, model) == quantum_d(a, model)
            frame_checked += 1
    report(4, f"d_h^2 = 0 + Leibniz on {pairs} pairs; frame oracle agrees "
              f"on {frame_checked} constant-w inputs")


def test_05_quantum_stokes(t2, t4):
    """int_h d a = int_h h delta a = int_h d_h a = 0 on >= 100 random
    Fourier forms on T^2 and T^4."""
    s = Sampler(1005)
    checked = 0
    while checked < 100:
        model = t2 if checked % 2 else t4
        a = s.model_form(model, degree=s.rng.randint(0, model.dim))
        rep = stokes_check(a, model)
        assert rep.int_d.is_zero()
        assert rep.int_hdelta.is_zero()
        assert rep.int_dh.is_zero()
        checked += 1
    report(5, f"quantum Stokes vanishings on {checked} forms over T2/T4")


def test_06_derham_tables(t2, t4):
    """Laurent quantum cohomology of T^2 (T^4) free of rank 4 (16), no
    torsion, nonzero modes acyclic; ring table reproduces the product
    normalization on classes; budget 120 s."""
    start = time.monotonic()
    tab2 = quantum_derham_table(t2)
    assert tab2.total_rank() == 4
    assert {d: tab2.rank(d) for d in tab2.degrees()} == {0: 1, 1: 2, 2: 1}
    assert tab2.total_torsion() == []
    assert tab2.meta["anomalous_modes"] == []
    tab4 = quantum_derham_table(t4)
    assert tab4.total_rank() == 16
    assert tab4.total_torsion() == []
    assert tab4.meta["anomalous_modes"] == []
    rt = ring_table(tab2, t2)
    i1, i2 = rt.class_index(1, 0), rt.class_index(1, 1)
    itop, iunit = rt.class_index(2, 0), rt.class_index(0, 0)
    w12 = t2.constant_bivector().entry(1, 2)
    assert rt.product(i1, i2) == {itop: HLaurent.one(),
                                  iunit: HLaurent({1: w12})}
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(6, f"T2 rank 4 / T4 rank 16, free, all nonzero modes acyclic; "
              f"[e1][e2] = [e12] + h w12 [1]; {elapsed:.1f}s")


def test_07_lefschetz_algebra():
    """Commutator identities and the abelian (M_h, M_h*, A_h) family for
    n <= 3; [L_h, d_h] = [L_h*, d_h] = 0, [A_h, d_h] = -d_h on random
    torus forms."""
    for n in (1, 2, 3):
        rep = commutator_check(n)
        assert rep.ok, rep.failures
    s = Sampler(1007)
    checked = 0
    for n in (1, 2):
        model = PoissonModel.darboux_torus(n)
        forms = [s.model_form(model, laurent=True) for _ in range(15)]
        rep = lefschetz_d_commutators(model, forms)
        assert rep.ok, rep.failures
        checked += len(forms)
    report(7, f"Lefschetz commutator algebra exact for n = 1, 2, 3; d_h "
              f"commutators on {checked} torus forms")


def test_08_recursion_lemma():
    """det(M' + x I) = det(M + (x+1) I)^2 for random matrices up to size 8
    and four iterations from the 1x1 base."""
    s = Sampler(1008)
    for size in range(1, 9):
        M = [[s.fraction() for _ in range(size)] for _ in range(size)]
        assert recursion_verify(M)
    M = [[Fraction(0)]]
    for _ in range(4):
        assert recursion_verify(M)
        M = recursion_matrix(M)
    assert len(M) == 16
    report(8, "block-recursion determinant identity: sizes 1-8 random + "
              "4 iterations from [0]")


def test_09_hard_lefschetz():
    """det(M_h) != 0 on every homogeneous piece for n <= 3; the
    eigenvalue conformance report is generated and the documented
    mismatch with the claimed {n, n +- sqrt5/2} spectrum is recorded."""
    golden_n1 = {
        0: {"charpoly": {2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)},
            "diagonalizable": False, "det": Fraction(1)},
        1: {"charpoly": {2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)},
            "diagonalizable": True, "det": Fraction(1)},
        2: {"charpoly": {2: Fraction(1), 1: Fraction(-2), 0: Fraction(1)},
            "diagonalizable": False, "det": Fraction(1)},
    }
    mismatch_any = False
    for n in (1, 2, 3):
        window = range(-(2 * n), 2 * n + 1)
        rep = hard_lefschetz_check(n, window=window)
        assert rep.all_invertible
        for k, block in rep.blocks.items():
            assert block.det != 0
            conf = rep.conformance[k]
            assert conf["status"] in ("match", "mismatch")
            if conf["status"] == "mismatch":
                mismatch_any = True
                assert conf["issues"]
        if n == 1:
            for k, want in golden_n1.items():
                block = rep.blocks[k]
                assert block.charpoly.coeffs == want["charpoly"], k
                assert block.diagonalizable == want["diagonalizable"], k
                assert block.det == want["det"], k
    # the documented discrepancy: under the pinned conventions the n = 1
    # even blocks are (x-1)^2 Jordan blocks, not the claimed
    # one-dimensional n +- sqrt5/2 decomposition
    assert mismatch_any
    report(9, "M_h invertible on every piece for n = 1, 2, 3; spectrum "
              "conformance recorded (documented mismatch with the claimed "
              "sqrt5 spectrum)")


def test_10_dolbeault(t2c):
    """Dolbeault operator identities on >= 100 random complexified forms;
    the T^2 table reproduces Hodge-number ranks."""
    s = Sampler(1010)
    t4c = PoissonModel.darboux_torus(2, complex_structure=True)
    checked = 0
    while checked < 100:
        model = t2c if checked % 2 else t4c
        a = s.complexified_model_form(model)
        ops = dolbeault_operators(a, model)
        assert dolbeault_operators(ops.holo_h, model).holo_h.is_zero()
        assert dolbeault_operators(ops.antiholo_h, model).antiholo_h.is_zero()
        mixed = dolbeault_operators(ops.holo_h, model).antiholo_h + \
            dolbeault_operators(ops.antiholo_h, model).holo_h
        assert mixed.is_zero()
        # sum reconstruction against the complex-frame d_h
        full = ops.holo + ops.antiholo - \
            (ops.delta_0m1 + ops.delta_m10).h_shift(1)
        assert ops.holo_h + ops.antiholo_h == full
        checked += 1
    tab = quantum_dolbeault_table(t2c)
    hodge = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}

    def expected(p, q):
        return sum(hodge.get((p - j, q - j), 0)
                   for j in range(0, min(p, q) + 1))

    for p in range(3):
        for q in range(3):
            assert tab.rank((p, q)) == expected(p, q), (p, q)
    report(10, f"Dolbeault identities on {checked} forms; T2 table matches "
               "Hodge ranks tensored with the h-ring")


def test_11_chern_weil(t2):
    """(d_h^nabla)^2 = curvature action and d_h tr(F^k) = 0 for k <= 3,
    rank <= 3; rank-1 transgression exactness."""
    s = Sampler(1011)
    cases = 0
    for rank in (1, 2, 3):
        for _ in range(3):
            theta = [[s.model_form(t2, degree=1, h_max=0)
                      for _ in range(rank)] for _ in range(rank)]
            conn = QConnection(t2, theta)
            phi = [s.model_form(t2, degree=s.rng.randint(0, 2), h_max=0)
                   for _ in range(rank)]
            assert covariant_square_check(phi, conn)
            F = quantum_curvature(conn)
            for k in (1, 2, 3):
                assert quantum_d(char_form(F, k, t2), t2).is_zero()
            cases += 1
    th0 = s.model_form(t2, degree=1, h_max=0)
    th1 = s.model_form(t2, degree=1, h_max=0)
    res = transgression_check(QConnection(t2, [[th0]]),
                              QConnection(t2, [[th1]]), 1)
    assert res.ok
    delta = quantum_d(th1, t2) - quantum_d(th0, t2)
    assert quantum_d(res.eta, t2) == delta.to_laurent()
    report(11, f"covariant-square and closedness on {cases} random "
               "connections (rank <= 3, k <= 3); rank-1 transgression exact")


def test_12_equivariant(t2, t4):
    """delta iota_a + iota_a delta = 0 and D^2 = 0 for translation actions
    on T^2 / T^4; the trivial-action table equals the plain table."""
    s = Sampler(1012)
    for model, gen in ((t2, [Fraction(1), Fraction(0)]),
                       (t4, [Fraction(1), Fraction(0), Fraction(0),
                             Fraction(0)])):
        action = GroupAction(model, [gen])
        forms = [s.model_form(model) for _ in range(20)]
        assert anticommutator_check(action, forms)
        for _ in range(10):
            c_terms = {k: v for k, v in
                       s.fourier_coeff(model.dim).terms.items() if k[0] == 0}
            from qexterior.coeffs import FourierCoeff
            c = FourierCoeff(model.dim, c_terms)
            form = HForm(model.dim,
                         {(s.rng.randint(0, 1),
                           s.mask(model.dim, s.rng.randint(0, model.dim))): c}) \
                if c else model.form_scalar(1)
            from qexterior.equivariant import EquivariantElement
            x = EquivariantElement(model, 1, {(s.rng.randint(0, 2),): form})
            assert cartan_d(cartan_d(x, action), action).is_zero()
    trivial = GroupAction(t2, [])
    tab = equivariant_cohomology_table(t2, trivial, cutoff=5)
    derham = quantum_derham_table(t2, ring=HPoly, max_degree=5)
    dims = derham.meta["graded_dims"]
    for n in range(6):
        assert tab.rank(n) == dims[n]
    report(12, "anticommutator + D^2 = 0 on T2/T4 translations; trivial "
               "action reproduces the plain table")


def test_13_frobenius_structure():
    """Pairing associativity on random triples and nonzero Gram
    determinants in dims <= 6."""
    s = Sampler(1013)
    for _ in range(60):
        dim = s.rng.randint(2, 6)
        w = s.antisymmetric_bivector(dim)
        a, b, c = (s.ext_form(dim, degree=s.rng.randint(0, dim))
                   for _ in range(3))
        assert frobenius_pairing(wwedge(a, b, w), c, w) == \
            frobenius_pairing(a, wwedge(b, c, w), w)
    for dim in range(2, 7):
        g = gram_matrix(s.antisymmetric_bivector(dim))
        assert det([[Fraction(x) for x in row] for row in g]) != 0
    report(13, "Frobenius pairing associativity (60 triples) and "
               "nondegenerate Gram matrices, dims 2-6")
