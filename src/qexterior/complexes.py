"""Finite cochain complexes over k[h] / k[h,h^-1] and their homology.

A :class:`FiniteComplex` is an ordered list of free components with
explicit basis labels and differential matrices D_k mapping component k to
component k+1 (rows indexed by the target basis).

Homology at each spot is ker(out)/im(in) as a module over the coefficient
PID, computed from Smith normal forms; free ranks, torsion invariant
factors, and representative cycles are returned and the representatives
are re-verified against the outgoing differential.  A representative is
the map ``{label: coeff}`` of its nonzero coefficients, in basis order.

Operators whose every entry is a monomial ``c h^j`` are also kept as
sparse columns over one denominator: an operator is ``(columns, den)``
with ``columns`` mapping ``label -> {(label', j): (re, im)}``, the Gaussian
integer numerators of its entries over the positive int ``den``.  This
module is the one place that builds and settles a Fourier-mode complex:
:func:`box_modes` enumerates the modes of a box, :func:`dh_kappa_v` gives
kappa and v of d_h = kappa ^ - h iota_v on a mode under the integer form
``Bivector.integer`` of w (the 2m numbers of :func:`koszul_mode`),
:func:`koszul_columns` builds such an operator on the 2^m masks and
:func:`homotopy_columns` its contracting homotopy.
:func:`require_modes` settles every mode of a box, or raises: with
constant w the torus mode 0 has kappa = v = 0, so its operator vanishes
and :func:`free_homology` is each spot's homology, and every other mode is
proved acyclic by linearity from the unit modes.  :func:`dense_complex` is
the ring-matrix view of an operator; only the equivariant Cartan complex
of mode 0, whose Theta^a iota_a part does not vanish, takes its
Smith-normal-form homology.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._kernels import odd_below
from .hpoly import HPoly
from .scalars import GRat
from .snf import mat_identity, mat_promote, mat_vec, smith_normal_form


class FiniteComplex:
    """Explicit finite complex; validates shapes (ValueError) and, as an
    internal check (AssertionError), D_{k+1} D_k = 0."""

    def __init__(self, degrees, bases, diffs, ring=HPoly):
        if len(degrees) != len(bases):
            raise ValueError("degrees and bases disagree")
        if len(diffs) != max(len(bases) - 1, 0):
            raise ValueError("wrong number of differentials")
        self.degrees = list(degrees)
        self.bases = [list(b) for b in bases]
        self.ring = ring
        self.diffs = []
        for k, D in enumerate(diffs):
            src = len(self.bases[k])
            dst = len(self.bases[k + 1])
            D = mat_promote(D, ring) if dst else []
            if len(D) != dst or any(len(row) != src for row in D):
                raise ValueError(f"differential {k} has wrong shape")
            self.diffs.append(D)
        self._check_square_zero()

    def _check_square_zero(self):
        for k in range(len(self.diffs) - 1):
            A, B = self.diffs[k + 1], self.diffs[k]
            for col in zip(*B):
                if any(mat_vec(A, _pairs(col), self.ring)):
                    raise AssertionError(f"complex is not square-zero at spot {k}")

    def out_matrix(self, spot: int):
        if spot < len(self.diffs):
            return self.diffs[spot]
        return None

    def in_matrix(self, spot: int):
        if spot > 0:
            return self.diffs[spot - 1]
        return None


class DegreeHomology:
    """Homology data at a single degree; each representative maps the
    labels of its nonzero coefficients, in basis order, to them."""

    def __init__(self, degree, free_rank, torsion, representatives):
        self.degree = degree
        self.free_rank = free_rank
        self.torsion = torsion              # list of ring elements
        self.representatives = representatives  # list of {label: coeff}


class CohomologyTable:
    """Per-degree free rank, torsion factors, and verified representatives."""

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = {e.degree: e for e in entries}
        self.meta = {}

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

    def __repr__(self):
        bits = ", ".join(f"{d}: {e.free_rank}" + (f"+{len(e.torsion)}t" if e.torsion else "")
                         for d, e in sorted(self.entries.items()))
        return f"CohomologyTable({bits})"


def homology_at(out_mat, in_mat, dim, ring):
    """ker(out)/im(in) for one spot; returns (free_rank, torsion, reps)."""
    if dim == 0:
        return 0, [], []
    if out_mat is None or not out_mat:
        V = mat_identity(dim, ring)
        vinv = None
        out_rank = 0
    else:
        snf_out = smith_normal_form(out_mat, ring, track=("V", "Vinv"))
        out_rank = snf_out.rank
        V = snf_out.V
        vinv = snf_out.Vinv
    # the columns of V past the rank span ker(out) over the PID
    kernel = [row[out_rank:] for row in V]
    kdim = dim - out_rank
    if kdim == 0:
        return 0, [], []
    if in_mat is None or not in_mat or all(x.is_zero() for row in in_mat for x in row):
        return kdim, [], [list(col) for col in zip(*kernel)]
    in_mat = mat_promote(in_mat, ring)
    # express image generators in kernel coordinates
    coords = []
    for col in zip(*in_mat):
        if vinv is None:
            coords.append(col)
            continue
        vec = mat_vec(vinv, _pairs(col), ring)
        if any(vec[:out_rank]):
            raise AssertionError("image does not lie in the kernel "
                                 "(complex is not square-zero)")
        coords.append(vec[out_rank:])
    snf_m = smith_normal_form([list(row) for row in zip(*coords)], ring,
                              track=("Uinv",))
    free_rank = kdim - snf_m.rank
    torsion = snf_m.torsion_factors()
    # new kernel basis adapted to the image lattice: columns of K * Uinv
    rep_slots = [i for i, d in enumerate(snf_m.diag) if not d.is_zero() and not d.is_unit()]
    rep_slots += list(range(snf_m.rank, kdim))
    reps = [mat_vec(kernel, _pairs(row[slot] for row in snf_m.Uinv), ring)
            for slot in rep_slots]
    return free_rank, torsion, reps


def _pairs(vec):
    """The nonzero (index, entry) pairs of a ring vector."""
    return [(t, x) for t, x in enumerate(vec) if not x.is_zero()]


def free_homology(degree, labels, ring) -> DegreeHomology:
    """The homology of a spot whose differentials in and out vanish: free
    on ``labels``, each basis vector its own representative."""
    return DegreeHomology(degree, len(labels), [],
                          [{lab: ring.one()} for lab in labels])


def complex_homology(cx: FiniteComplex) -> CohomologyTable:
    """Homology of a finite complex over its PID, with verified reps."""
    ring = cx.ring
    entries = []
    for spot, degree in enumerate(cx.degrees):
        dim = len(cx.bases[spot])
        out_mat = cx.out_matrix(spot)
        in_mat = cx.in_matrix(spot)
        free_rank, torsion, reps = homology_at(out_mat, in_mat, dim, ring)
        _verify_cycles(out_mat, reps, ring)
        reps = [{lab: c for lab, c in zip(cx.bases[spot], vec)
                 if not c.is_zero()} for vec in reps]
        entries.append(DegreeHomology(degree, free_rank, torsion, reps))
    return CohomologyTable(ring, entries)


def _verify_cycles(out_mat, reps, ring):
    """Raise AssertionError unless out_mat sends every representative to 0;
    a representative the library computed that is not a cycle is its own
    fault."""
    for vec in reps:
        if any(mat_vec(out_mat or [], _pairs(vec), ring)):
            raise AssertionError("representative is not a cycle")


# -- monomial columns ----------------------------------------------------------


def gaussian_rational(entry, den) -> GRat:
    """The entry (re, im) of an operator over ``den`` as a GRat."""
    return GRat(Fraction(entry[0], den), Fraction(entry[1], den))


def dense_matrix(operator, src, dst, ring):
    """Ring matrix of the operator ``(columns, den)`` from the span of the
    labels ``src`` to that of ``dst`` (rows indexed by ``dst``); its
    scalars are GRats."""
    columns, den = operator
    dst_index = {lab: i for i, lab in enumerate(dst)}
    rows = [[ring.zero() for _ in src] for _ in dst]
    for col, lab in enumerate(src):
        for (lab2, j), c in columns[lab].items():
            row = dst_index.get(lab2)
            if row is None:
                raise AssertionError("differential left the target component")
            rows[row][col] = rows[row][col] + \
                ring({j: gaussian_rational(c, den)})
    return rows


def dense_complex(degrees, bases, operator, ring):
    """The :class:`FiniteComplex` whose differentials are the dense views
    of ``operator`` between consecutive spots of ``bases``."""
    mats = [dense_matrix(operator, src, dst, ring)
            for src, dst in zip(bases, bases[1:])]
    return FiniteComplex(degrees, bases, mats, ring=ring)


def box_modes(dim, mode_box):
    """The Fourier modes of the box [-mode_box, mode_box]^dim."""
    if mode_box < 0:
        raise ValueError("mode_box must be nonnegative")
    return list(itertools.product(range(-mode_box, mode_box + 1), repeat=dim))


def koszul_mode(bivector, kappa, den):
    """kappa and v = w kappa of one Fourier mode over one denominator.

    ``kappa`` holds Gaussian integers over ``den`` and ``bivector`` is
    the (W, D) ``Bivector.integer`` of w.  Returns (D kappa, W kappa,
    D den): v_a = sum_b w^ab kappa_b is (W kappa)_a / (D den), so only
    the 2m numbers of the mode are formed, all over D den.
    """
    W, D = bivector
    v = []
    for row in W:
        re = im = 0
        for b, (c, d) in row:
            p, q = kappa[b]
            re += c * p - d * q
            im += c * q + d * p
        v.append((re, im))
    return [(D * p, D * q) for p, q in kappa], v, D * den


def dh_kappa_v(bivector, k):
    """kappa, v and their denominator for d_h = d - h delta on the Fourier
    mode k, under ``bivector`` = ``Bivector.integer`` of w.

    On e^{i k.theta} e^I the operator d is wedging from the left with
    kappa = sum_b i k_b e^b.  Since iota_w = sum_{a<b} w^ab e_b |- e_a |-
    is second order, the pinned delta = d o iota_w - iota_w o d is the
    commutator -[iota_w, kappa ^], a first-order contraction:
    delta e^I = sum_a v_a e_a |- e^I with v_a = sum_b w^ab kappa_b, and
    <kappa, v> = sum w^ab kappa_a kappa_b = 0.  They are the Gaussian
    amplitudes of the Fourier coefficients they stand for, here Gaussian
    integers (re, im) over one denominator; ``koszul_columns(*dh_kappa_v(
    bivector, k))`` is the operator d_h.
    """
    return koszul_mode(bivector, [(0, kb) for kb in k], 1)


def koszul_columns(kappa, v, den):
    """The operator (columns, den) of kappa ^ - h iota_v on every mask of
    len(kappa) generators, for Gaussian integers kappa and v over ``den``:
    columns map mask -> {(mask', j): (re, im)}.

    e^b ^ e^I and e_a |- e^I both carry the sign (-1)^(number of indices
    of I below the moved one).  When <kappa, v> = 0 the operator squares
    to zero.
    """
    wedges = [(1 << b, (p, q), (-p, -q)) for b, (p, q) in enumerate(kappa)
              if p or q]
    contractions = [(1 << a, (-p, -q), (p, q)) for a, (p, q) in enumerate(v)
                    if p or q]
    cols = {}
    for mask in range(1 << len(kappa)):
        below = odd_below(mask)
        col = {}
        for bit, even, odd in wedges:
            if not mask & bit:
                col[(mask | bit, 0)] = odd if below & bit else even
        for bit, even, odd in contractions:
            if mask & bit:
                col[(mask ^ bit, 1)] = odd if below & bit else even
        cols[mask] = col
    return cols, den


def homotopy_columns(kappa, den):
    """The operator (columns, den') of H = iota_{e_b} / kappa_b, b the
    first index with kappa_b != 0, for Gaussian integers kappa over
    ``den``: 1 / kappa_b = den conj(kappa_b) / |kappa_b|^2, reduced.

    kappa ^ H + H kappa ^ = 1, and H anticommutes with every constant
    contraction, so H contracts each operator kappa ^ - h iota_v (+ further
    contractions): the Koszul-Brylinski homotopy of a constant Poisson
    structure.
    """
    b = next(i for i, (p, q) in enumerate(kappa) if p or q)
    bit = 1 << b
    p, q = kappa[b]
    re, im, norm = den * p, -den * q, p * p + q * q
    g = math.gcd(re, im, norm)
    inv, neg = (re // g, im // g), (-re // g, -im // g)
    cols = {mask: {(mask ^ bit, 0): neg if odd_below(mask) & bit else inv}
            if mask & bit else {} for mask in range(1 << len(kappa))}
    return cols, norm // g


def _apply(columns, vec, out):
    """Add the image of the sparse vector ``vec`` under ``columns`` to
    ``out``; both map (label, j) to a nonzero Gaussian integer (re, im)."""
    for (lab, j), (a, b) in vec.items():
        for (lab2, j2), (c, d) in columns[lab].items():
            key = (lab2, j + j2)
            re, im = a * c - b * d, a * d + b * c
            s = out.get(key)
            if s is not None:
                re, im = re + s[0], im + s[1]
            if re or im:
                out[key] = (re, im)
            else:
                del out[key]
    return out


def require_modes(modes, kappa_v, check=None):
    """Settle mode 0 and the Fourier ``modes`` of a box for kappa ^ - h
    iota_v, with ``kappa_v(k)`` = (kappa, v, den) of the mode k, or raise
    AssertionError naming the first mode that fails.

    Mode 0 comes first: its operator must vanish, and it has an entry
    exactly when some kappa_b or v_a is nonzero (mask 0 takes every wedge,
    the full mask every contraction), so those 2m numbers are checked.
    Each nonzero mode follows in box order: ``check(k, kappa, v)``, when
    given, then the homotopy certificate.  :func:`koszul_columns` is
    linear in (kappa, v), so after the first check the operators d_c of
    the unit modes e_c are certified once, in order (a failure names e_c,
    which need not be in the box and is never checked): on every mask
    each entry of the column is nonzero and on a mask of the other
    parity, and d_c iota_b + iota_b d_c = (kappa_c)_b; then d_c d_c' +
    d_c' d_c = 0 for c' <= c on the full mask alone.  That suffices: for
    E = d_c d_c' + d_c' d_c the super-Jacobi identity gives [E, iota_b] =
    [d_c, [d_c', iota_b]] + [d_c', [d_c, iota_b]], and both inner brackets
    are scalars, so E commutes with every iota_b; each e^x is +-iota_{top
    ^ x} e^top (the iota_b for the bits of top, the full mask, not in x),
    and E is h-linear, so E = 0 exactly when E e^top = 0.  The identities
    of d_c and of every earlier unit hold before its anticommutators are
    read, so the first unit to fail is the one a check on every mask
    would name.  A mode k then needs kappa_v(k) = sum_c k_c kappa_v(e_c),
    summed in one pass over its nonzero k_c, over the units' one den, and
    some kappa_b(k) != 0: d(k) = sum_c k_c d_c squares to zero and d(k) H
    + H d(k) = 1 for H = iota_{e_b} / kappa_b(k), over k[h] and
    k[h,h^-1] alike.
    """
    m = len(modes[0])
    zero = (0,) * m
    kappa, v, _den = kappa_v(zero)
    if any(p or q for p, q in kappa + v):
        raise AssertionError(f"nonzero differential on Fourier mode {zero}")
    units = []
    for k in filter(any, modes):
        kappa, v, den = kappa_v(k)
        if check is not None:
            check(k, kappa, v)
        if not units:
            # iota_{e_b} is the homotopy of kappa = e^b, over 1
            iotas = [homotopy_columns([(0, 0)] * b + [(1, 0)] * (m - b), 1)[0]
                     for b in range(m)]
            top = (1 << m) - 1
            for c in range(m):
                unit = tuple(int(i == c) for i in range(m))
                u_kappa, u_v, u_den = kappa_v(unit)
                d = koszul_columns(u_kappa, u_v, u_den)[0]
                units.append((d, u_kappa + u_v, u_den))
                if not (_contracts(d, u_kappa, iotas) and
                        not any(_apply(d2, d[top], _apply(d, d2[top], {}))
                                for d2, _kv, _den in units)):
                    raise AssertionError(f"homotopy certificate failed "
                                         f"on Fourier mode {unit}")
            unit_den = units[0][2]
            if any(u_den != unit_den for _d, _kv, u_den in units):
                unit_den = None
        sums = [(0, 0)] * (2 * m)
        for kc, (_d, kv, _den) in zip(k, units):
            if kc:
                sums = [(a + kc * p, b + kc * q)
                        for (a, b), (p, q) in zip(sums, kv)]
        if den != unit_den or not any(p or q for p, q in kappa) or \
                kappa + v != sums:
            raise AssertionError(f"homotopy certificate failed on Fourier "
                                 f"mode {k}")


def _contracts(d, kappa, iotas):
    """Whether each entry of every column of the operator ``d``, and of
    each iota_b of ``iotas`` on the same mask, is nonzero and on a mask of
    the other parity, and then d iota_b + iota_b d = kappa_b on every
    mask."""
    return all(lab in d and (lab ^ x).bit_count() & 1 and (re or im)
               for x, dx in d.items()
               for col in (dx, *(i[x] for i in iotas))
               for (lab, _j), (re, im) in col.items()) and \
        all(_apply(i, dx, _apply(d, i[x], {}) if i[x] else {}) ==
            ({(x, 0): kb} if any(kb) else {})
            for x, dx in d.items() for i, kb in zip(iotas, kappa))
