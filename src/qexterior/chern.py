"""Quantum Chern-Weil theory on trivial bundles over model spaces.

Connections are r x r matrices of honest 1-forms; the quantum curvature is
F_h = d_h theta + theta ^_h theta (matrix product under the quantum
wedge), an even matrix of graded-degree-2 entries.  Characteristic forms
are the trace powers tr(F^{^_h k}), which are d_h-closed; elementary
symmetric (Chern) combinations follow from Newton's identities inside the
commutative even-degree subalgebra and are not needed separately here.
"""

from __future__ import annotations

import itertools

from .calculus import quantum_d
from .coeffs import FourierCoeff
from .complexes import dh_kappa_v, gaussian_rational, homotopy_columns
from .forms import HForm
from .models import PoissonModel, TORUS
from .quantum import qwedge


class QConnection:
    """Connection matrix theta on a trivial rank-r bundle."""

    def __init__(self, model: PoissonModel, theta):
        self.model = model
        self.rank = len(theta)
        for row in theta:
            if len(row) != self.rank:
                raise ValueError("connection matrix must be square")
            for entry in row:
                if entry.dim != model.dim:
                    raise ValueError("connection entry dimension mismatch")
                for (j, mask) in entry.terms:
                    if j != 0 or mask.bit_count() != 1:
                        raise ValueError("connection entries must be "
                                         "h-free 1-forms")
        self.theta = [list(row) for row in theta]

    @classmethod
    def zero(cls, model: PoissonModel, rank: int):
        z = HForm.zero(model.dim)
        return cls(model, [[z for _ in range(rank)] for _ in range(rank)])


def _mat_qwedge(A, B, model):
    """The matrix product A B under ^_h, A r x s and B s x c (rows of
    h-forms)."""
    dim = model.dim
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = HForm.zero(dim)
            for a, b_row in zip(row, B):
                if a and b_row[j]:
                    acc = acc + qwedge(a, b_row[j], model.w)
            out_row.append(acc)
        out.append(out_row)
    return out


def quantum_curvature(conn: QConnection):
    """F_h = d_h theta + theta ^_h theta, entrywise."""
    model = conn.model
    F = _mat_qwedge(conn.theta, conn.theta, model)
    for i in range(conn.rank):
        for j in range(conn.rank):
            F[i][j] = F[i][j] + quantum_d(conn.theta[i][j], model)
    return F


def quantum_covariant_d(phi, conn: QConnection):
    """Columns of h-forms: (d_h^nabla phi)^k = theta^k_j ^_h phi^j + d_h phi^k."""
    model = conn.model
    if len(phi) != conn.rank:
        raise ValueError("section has wrong rank")
    wedged = _mat_qwedge(conn.theta, [[x] for x in phi], model)
    return [quantum_d(x, model) + row[0] for x, row in zip(phi, wedged)]


def covariant_square_check(phi, conn: QConnection) -> bool:
    """(d_h^nabla)^2 phi == F_h applied to phi (even entries commute)."""
    lhs = quantum_covariant_d(quantum_covariant_d(phi, conn), conn)
    rhs = _mat_qwedge(quantum_curvature(conn), [[x] for x in phi], conn.model)
    return all(a == row[0] for a, row in zip(lhs, rhs))


def char_forms(F, model: PoissonModel):
    """tr(F^{^_h k}) for k = 1, 2, ..., one matrix product per further k;
    each is d_h-closed by the quantum Bianchi identity."""
    power = F
    while True:
        out = HForm.zero(model.dim)
        for i in range(len(F)):
            out = out + power[i][i]
        yield out
        power = _mat_qwedge(power, F, model)


def char_form(F, k: int, model: PoissonModel) -> HForm:
    """tr(F^{^_h k}), the k-th of :func:`char_forms`."""
    if k < 1:
        raise ValueError("power must be >= 1")
    return next(itertools.islice(char_forms(F, model), k - 1, None))


# -- transgression ----------------------------------------------------------------


class TransgressionResult:
    def __init__(self, ok, eta=None, obstruction_mode=None):
        self.ok = ok
        self.eta = eta
        self.obstruction_mode = obstruction_mode

    def __bool__(self):
        return self.ok


def solve_dh_primitive(model: PoissonModel, delta: HForm) -> TransgressionResult:
    """Solve d_h eta = delta on a torus with constant w.

    eta_k = H_k delta_k on each nonzero Fourier mode k, with H_k the
    Koszul-Brylinski homotopy iota_{e_b} / kappa_b of the tables; it solves
    the mode exactly when delta_k is closed.  Mode 0, where d_h is zero, is
    skipped.  The residual d_h eta - delta is then computed once with the
    symbolic operator: its first nonzero mode in sorted order is the
    obstruction (a genuine cohomology class in the target), and with none
    eta, in the ring mode of delta, is returned.  eta is not unique.
    """
    if model.kind != TORUS:
        raise ValueError("the d_h solve requires a torus model")
    if not model.is_constant_w():
        raise ValueError("the d_h solve requires constant w")
    if len({mask.bit_count() & 1 for (_j, mask) in delta.terms}) > 1:
        raise ValueError("target form has mixed parity")
    m = model.dim
    bivector = model.constant_bivector().integer
    homotopies = {}
    terms = []
    for (j, mask), c in delta.terms.items():
        for mode, amp in c.terms.items():
            if not any(mode):
                continue
            H = homotopies.get(mode)
            if H is None:
                kappa, _v, den = dh_kappa_v(bivector, mode)
                H = homotopies[mode] = homotopy_columns(kappa, den)
            columns, den = H
            for (mask2, j2), x in columns[mask].items():
                terms.append(((j + j2, mask2), FourierCoeff.character(
                    m, mode, amp * gaussian_rational(x, den))))
    eta = HForm(m, terms, delta.laurent)
    residual = quantum_d(eta, model) - delta
    bad = {mode for c in residual.terms.values() for mode in c.terms}
    if bad:
        return TransgressionResult(False, None, obstruction_mode=min(bad))
    return TransgressionResult(True, eta)


def transgression_check(conn0: QConnection, conn1: QConnection,
                        k: int) -> TransgressionResult:
    """Solve d_h eta = tr(F_1^k) - tr(F_0^k) mode by mode on a torus.

    Pass returns eta; an unsolvable mode is reported as the obstruction (a
    genuine cohomology difference).
    """
    model = conn0.model
    delta = char_form(quantum_curvature(conn1), k, model) - \
        char_form(quantum_curvature(conn0), k, model)
    return solve_dh_primitive(model, delta)
