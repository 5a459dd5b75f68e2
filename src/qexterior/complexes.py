"""Finite cochain complexes over k[h] / k[h,h^-1] and their homology.

A :class:`FiniteComplex` is an ordered list of free components with
explicit basis labels and differential matrices D_k mapping component k to
component k+1 (rows indexed by the target basis).  Two-periodic complexes
(the Fourier-mode complexes of d_h) set ``cyclic=True``, in which case the
last differential wraps around to component 0.

Homology at each spot is ker(out)/im(in) as a module over the coefficient
PID, computed from Smith normal forms; free ranks, torsion invariant
factors, and representative cycles are returned and the representatives
are re-verified against the outgoing differential.
"""

from __future__ import annotations

from .hpoly import HPoly
from .snf import mat_promote, rank_fraction_field, smith_normal_form


class FiniteComplex:
    """Explicit finite complex; validates shapes and D_{k+1} D_k = 0."""

    def __init__(self, degrees, bases, diffs, ring=HPoly, cyclic=False,
                 meta=None):
        if len(degrees) != len(bases):
            raise ValueError("degrees and bases disagree")
        expected = len(bases) if cyclic else len(bases) - 1
        if len(diffs) != max(expected, 0):
            raise ValueError("wrong number of differentials")
        self.degrees = list(degrees)
        self.bases = [list(b) for b in bases]
        self.ring = ring
        self.cyclic = cyclic
        self.meta = dict(meta or {})
        self.diffs = []
        for k, D in enumerate(diffs):
            src = len(self.bases[k])
            dst = len(self.bases[(k + 1) % len(bases)])
            D = mat_promote(D, ring) if dst else []
            if len(D) != dst or any(len(row) != src for row in D):
                raise ValueError(f"differential {k} has wrong shape")
            self.diffs.append(D)
        self._check_square_zero()

    def _check_square_zero(self):
        for k in range(len(self.diffs)):
            if self.cyclic:
                nxt = (k + 1) % len(self.diffs)
            else:
                nxt = k + 1
                if nxt >= len(self.diffs):
                    break
            A, B = self.diffs[nxt], self.diffs[k]
            if not A or not B:
                continue
            for i in range(len(A)):
                nz_a = [(t, a) for t, a in enumerate(A[i]) if not a.is_zero()]
                for j in range(len(B[0])):
                    s = self.ring.zero()
                    for t, a in nz_a:
                        if not B[t][j].is_zero():
                            s = s + a * B[t][j]
                    if not s.is_zero():
                        raise ValueError(f"complex is not square-zero at spot {k}")

    def out_matrix(self, spot: int):
        if spot < len(self.diffs):
            return self.diffs[spot]
        return None

    def in_matrix(self, spot: int):
        if spot > 0:
            return self.diffs[spot - 1]
        if self.cyclic and self.diffs:
            return self.diffs[-1]
        return None


class DegreeHomology:
    """Homology data at a single degree."""

    def __init__(self, degree, free_rank, torsion, representatives, labels):
        self.degree = degree
        self.free_rank = free_rank
        self.torsion = torsion              # list of ring elements
        self.representatives = representatives  # list of coefficient vectors
        self.labels = labels


class CohomologyTable:
    """Per-degree free rank, torsion factors, and verified representatives."""

    def __init__(self, ring, entries, meta=None):
        self.ring = ring
        self.entries = {e.degree: e for e in entries}
        self.meta = dict(meta or {})

    def degrees(self):
        return sorted(self.entries)

    def rank(self, degree) -> int:
        e = self.entries.get(degree)
        return e.free_rank if e else 0

    def torsion(self, degree):
        e = self.entries.get(degree)
        return list(e.torsion) if e else []

    def total_rank(self) -> int:
        return sum(e.free_rank for e in self.entries.values())

    def total_torsion(self):
        out = []
        for e in self.entries.values():
            out.extend(e.torsion)
        return out

    def is_free(self) -> bool:
        return not self.total_torsion()

    def __repr__(self):
        bits = ", ".join(f"{d}: {e.free_rank}" + (f"+{len(e.torsion)}t" if e.torsion else "")
                         for d, e in sorted(self.entries.items()))
        return f"CohomologyTable({bits})"


def _kernel_basis(snf, cols):
    """Columns of V past the rank span ker(A) over the PID."""
    return [[snf.V[r][k] for r in range(cols)] for k in range(snf.rank, cols)]


def homology_at(out_mat, in_mat, dim, ring):
    """ker(out)/im(in) for one spot; returns (free_rank, torsion, reps)."""
    if dim == 0:
        return 0, [], []
    if out_mat is None or not out_mat:
        kernel = [[ring.one() if i == j else ring.zero() for i in range(dim)]
                  for j in range(dim)]
        vinv = None
        out_rank = 0
    else:
        snf_out = smith_normal_form(out_mat, ring, track=("V", "Vinv"))
        out_rank = snf_out.rank
        kernel = _kernel_basis(snf_out, dim)
        vinv = snf_out.Vinv
    kdim = len(kernel)
    if kdim == 0:
        return 0, [], []
    if in_mat is None or not in_mat or all(x.is_zero() for row in in_mat for x in row):
        return kdim, [], kernel
    in_mat = mat_promote(in_mat, ring)
    n_in = len(in_mat[0])
    # express image generators in kernel coordinates
    coords = []
    for g in range(n_in):
        col = [in_mat[r][g] for r in range(dim)]
        if vinv is None:
            vec = col
        else:
            nz_col = [(t, c) for t, c in enumerate(col) if not c.is_zero()]
            vec = []
            for r in range(dim):
                s = ring.zero()
                for t, c in nz_col:
                    if not vinv[r][t].is_zero():
                        s = s + vinv[r][t] * c
                vec.append(s)
            for r in range(out_rank):
                if not vec[r].is_zero():
                    raise ValueError("image does not lie in the kernel "
                                     "(complex is not square-zero)")
            vec = vec[out_rank:]
        coords.append(vec)
    M = [[coords[g][r] for g in range(n_in)] for r in range(kdim)]
    snf_m = smith_normal_form(M, ring, track=("Uinv",))
    free_rank = kdim - snf_m.rank
    torsion = snf_m.torsion_factors()
    # new kernel basis adapted to the image lattice: columns of K * Uinv
    reps = []
    rep_slots = [i for i, d in enumerate(snf_m.diag) if not d.is_zero() and not d.is_unit()]
    rep_slots += list(range(snf_m.rank, kdim))
    for slot in rep_slots:
        vec = [sum((kernel[t][r] * snf_m.Uinv[t][slot] for t in range(kdim)),
                   start=ring.zero()) for r in range(dim)]
        reps.append(vec)
    return free_rank, torsion, reps


def complex_homology(cx: FiniteComplex, ring=None) -> CohomologyTable:
    """Homology of a finite complex over its PID, with verified reps."""
    ring = ring or cx.ring
    entries = []
    for spot, degree in enumerate(cx.degrees):
        dim = len(cx.bases[spot])
        out_mat = cx.out_matrix(spot)
        in_mat = cx.in_matrix(spot)
        free_rank, torsion, reps = homology_at(out_mat, in_mat, dim, ring)
        _verify_cycles(out_mat, reps, ring)
        entries.append(DegreeHomology(degree, free_rank, torsion, reps,
                                      cx.bases[spot]))
    return CohomologyTable(ring, entries, meta=dict(cx.meta))


def _verify_cycles(out_mat, reps, ring):
    if out_mat is None or not out_mat:
        return
    for vec in reps:
        for i in range(len(out_mat)):
            s = ring.zero()
            for j, c in enumerate(vec):
                if not c.is_zero():
                    s = s + out_mat[i][j] * c
            if not s.is_zero():
                raise ValueError("representative is not a cycle")


def free_rank_oracle(out_mat, in_mat, dim) -> int:
    """Fraction-field rank bookkeeping: dim - rank(out) - rank(in)."""
    r_out = rank_fraction_field(out_mat) if out_mat else 0
    r_in = rank_fraction_field(in_mat) if in_mat else 0
    return dim - r_out - r_in
