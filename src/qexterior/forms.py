"""Exterior forms with h-powers over an m-dimensional based space.

A form is a sparse sum of terms ``c * h^j * e^I`` where I is an ascending
index set stored as a bitmask (bit i-1 <-> basis covector e^i) and c is any
exact coefficient (Fraction, GRat, PolyCoeff, FourierCoeff).  The graded
degree of a term is ``|I| + 2j``.  Polynomial mode enforces j >= 0; Laurent
mode allows any integer j.

Conventions (pinned, see README):

* ``contract_front(i, a)`` implements ``e_i |- a`` with
  ``(v |- a)(v_1, ..)= a(v, v_1, ..)``;
* ``contract_back(a, i)`` implements ``a -| e_i`` with
  ``(a -| v)(v_1, ..) = a(v_1, .., v)``;
* ``bivector_contract`` implements
  ``w |- a = sum_{i<j} w^ij a(e_i, e_j, ..)``;
* the symplectic star is defined by
  ``b ^ *a = Lambda^k(w)(b, a) * omega^n/n!`` with w the dual bivector of
  Omega, extended to h-coefficients by ``*h = h^-1``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm
from types import MappingProxyType

from . import _kernels as K
from .linalg import det, matrix_inverse
from .scalars import GRat, gaussian_integers


def _mask_from_indices(indices, dim):
    mask = 0
    for i in indices:
        if not 1 <= i <= dim:
            raise IndexError(f"index {i} out of range 1..{dim}")
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i}")
        mask |= bit
    return mask


def mask_indices(mask: int):
    """Ascending 1-based indices of a bitmask."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


class HForm:
    """Sparse exterior form with coefficients in an exact algebra.

    ``terms`` maps ``(j, mask)`` to a nonzero coefficient, every mask below
    ``2^dim``, and ``j >= 0`` unless ``laurent``.  The public constructor
    validates and merges its terms.  The private ``_from_clean`` skips
    that, and only these callers use it, each on a dict it built itself
    from forms of one dimension: :func:`~qexterior.quantum.qwedge`,
    :func:`wedge`, :func:`symplectic_star`, ``+`` and ``-`` (addition),
    which drop every zero sum; ``-a``, which negates nonzero coefficients;
    and :meth:`to_laurent`, which copies the terms.  Their masks are unions
    or complements of their inputs' masks; their h-exponents are sums of
    the inputs' exponents and contraction orders, or a negated exponent
    that the star allows only in Laurent mode.
    """

    __slots__ = ("dim", "laurent", "terms")

    def __init__(self, dim: int, terms=None, laurent: bool = False):
        self.dim = dim
        self.laurent = laurent
        data = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (j, mask), c in items:
                if mask >> dim:
                    raise ValueError(f"mask {mask:b} exceeds dimension {dim}")
                if j < 0 and not laurent:
                    raise ValueError("negative h-exponent in polynomial mode")
                if c:
                    key = (j, mask)
                    s = data.get(key)
                    s = c if s is None else s + c
                    if s:
                        data[key] = s
                    else:
                        data.pop(key, None)
        self.terms = data

    @classmethod
    def _from_clean(cls, dim: int, terms: dict, laurent: bool):
        """Wrap a term dict that is already clean, without validating or
        re-merging its terms; the form takes ownership of ``terms``."""
        form = object.__new__(cls)
        form.dim = dim
        form.laurent = laurent
        form.terms = terms
        return form

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, laurent: bool = False):
        return cls(dim, None, laurent)

    @classmethod
    def scalar(cls, dim: int, c, laurent: bool = False):
        return cls(dim, {(0, 0): c}, laurent)

    @classmethod
    def basis(cls, dim: int, i: int, laurent: bool = False):
        """The basis covector e^i (1-based)."""
        return cls(dim, {(0, _mask_from_indices([i], dim)): Fraction(1)}, laurent)

    @classmethod
    def monomial(cls, dim: int, indices, coeff=Fraction(1), h: int = 0,
                 laurent: bool = False):
        """coeff * h^h_exp * e^{i_1 .. i_k} with ascending indices."""
        return cls(dim, {(h, _mask_from_indices(indices, dim)): coeff}, laurent)

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, HForm):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self):
        return hash((self.dim, frozenset((k, str(v)) for k, v in self.terms.items())))

    def _join_mode(self, other: "HForm") -> bool:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch {self.dim} != {other.dim}")
        return self.laurent or other.laurent

    def __add__(self, other):
        if not isinstance(other, HForm):
            return NotImplemented
        laurent = self._join_mode(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key, 0) + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return HForm._from_clean(self.dim, out, laurent)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HForm._from_clean(self.dim,
                                 {k: -c for k, c in self.terms.items()},
                                 self.laurent)

    def __mul__(self, c):
        """Multiply every coefficient by a scalar or coefficient object."""
        if isinstance(c, HForm):
            return NotImplemented
        if not c:
            return HForm.zero(self.dim, self.laurent)
        return HForm(self.dim, {k: v * c for k, v in self.terms.items()}, self.laurent)

    __rmul__ = __mul__

    def __xor__(self, other):
        """Classical wedge product (sugar for :func:`wedge`)."""
        return wedge(self, other)

    def h_shift(self, k: int) -> "HForm":
        """Multiply by h^k."""
        terms = {(j + k, m): c for (j, m), c in self.terms.items()}
        if not self.laurent and any(j < 0 for (j, _m) in terms):
            raise ValueError("h-shift would leave the polynomial ring")
        return HForm(self.dim, terms, self.laurent)

    def to_laurent(self) -> "HForm":
        return HForm._from_clean(self.dim, dict(self.terms), True)

    def at_h(self, value) -> "HForm":
        """Substitute a scalar for h (e.g. 1 for the w-product, 0 classical)."""
        if isinstance(value, int):
            value = Fraction(value)
        out = {}
        for (j, m), c in self.terms.items():
            if j == 0:
                cc = c
            elif not value:
                continue
            else:
                cc = c * value**j
            s = out.get((0, m), 0) + cc
            if s:
                out[(0, m)] = s
            else:
                out.pop((0, m), None)
        return HForm(self.dim, out, self.laurent)

    def map_coeffs(self, f) -> "HForm":
        return HForm(self.dim, {k: f(c) for k, c in self.terms.items()}, self.laurent)

    def coeff(self, indices=(), h: int = 0):
        """Coefficient of h^h * e^indices (0 if absent)."""
        return self.terms.get((h, _mask_from_indices(indices, self.dim)), 0)

    def graded_degree(self):
        """Common graded degree |I| + 2j, or None if inhomogeneous/zero."""
        degs = {m.bit_count() + 2 * j for (j, m) in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def homogeneous_components(self) -> dict:
        """Split by graded degree |I| + 2j."""
        out = {}
        for (j, m), c in self.terms.items():
            n = m.bit_count() + 2 * j
            out.setdefault(n, {})[(j, m)] = c
        return {n: HForm(self.dim, t, self.laurent) for n, t in sorted(out.items())}

    def exterior_components(self) -> dict:
        """Split by exterior degree |I| alone."""
        out = {}
        for (j, m), c in self.terms.items():
            out.setdefault(m.bit_count(), {})[(j, m)] = c
        return {k: HForm(self.dim, t, self.laurent) for k, t in sorted(out.items())}

    def max_exterior_degree(self) -> int:
        return max((m.bit_count() for (_j, m) in self.terms), default=0)

    def __repr__(self):
        return f"HForm({self.dim}, {self.terms!r}, laurent={self.laurent})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (j, m) in sorted(self.terms, key=lambda k: (k[1].bit_count(), k[1], k[0])):
            c = self.terms[(j, m)]
            bits = []
            cs = str(c)
            if "+" in cs or " " in cs or "-" in cs[1:]:
                cs = f"({cs})"
            neg = cs == "-1" and (j or m)
            if neg:
                cs = ""
            if cs and (cs != "1" or (m == 0 and j == 0)):
                bits.append(cs)
            if j:
                bits.append("h" if j == 1 else f"h^{j}")
            if m:
                bits.append("e" + "".join(str(i) for i in mask_indices(m)))
            parts.append(("-" if neg else "") + "*".join(bits))
        return " + ".join(parts)


class Bivector:
    """Antisymmetric matrix of coefficients w^{ij}; stored on i < j.

    The entry w^{ij} is exactly the coefficient appearing in the product
    normalization ``e^i ^_w e^j = e^i ^ e^j + w^{ij}``: a writer expressing
    w = sum_{i<j} c_ij d_i ^ d_j supplies entries[(i, j)] = c_ij.

    ``entries`` is read-only, so the minor table built on first use
    (``table``, for ``qwedge``) stays its; ``integer`` builds the mode
    operators' form of w on each read.
    """

    __slots__ = ("dim", "entries", "_table")

    def __init__(self, dim: int, entries=None):
        self.dim = dim
        data = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), w in items:
                if not (1 <= i <= dim and 1 <= j <= dim) or i == j:
                    raise ValueError(f"bad bivector index pair ({i}, {j})")
                if j < i:
                    i, j, w = j, i, -w
                if w:
                    if (i, j) in data:
                        data[(i, j)] = data[(i, j)] + w
                        if not data[(i, j)]:
                            del data[(i, j)]
                    else:
                        data[(i, j)] = w
        self.entries = MappingProxyType(data)
        self._table = None

    @property
    def table(self) -> K.QTable:
        """The minor table of ``qwedge`` under this bivector: rational (rows
        D W in ints) when every entry is a Fraction, typed otherwise."""
        if self._table is None:
            items = sorted(self.entries.items())
            D = 1
            for _ij, w in items:
                if type(w) is not Fraction:
                    self._table = K.QTable(self.dim, None, [
                        (i, j, w) for (i, j), w in items])
                    break
                D = lcm(D, w.denominator)
            else:
                self._table = K.QTable(self.dim, D, [
                    (i, j, w.numerator * (D // w.denominator))
                    for (i, j), w in items])
        return self._table

    @property
    def integer(self):
        """(W, D) of a constant bivector for the mode operators: D is the
        lcm of the entries' denominators (real and imaginary parts) and W[a]
        lists (b, (re, im)) for each entry of row a of D w (0-based, both
        triangles)."""
        items = sorted(self.entries.items())
        D, nums = gaussian_integers([c for _ij, c in items])
        W = [[] for _ in range(self.dim)]
        for ((i, j), _c), (re, im) in zip(items, nums):
            W[i - 1].append((j - 1, (re, im)))
            W[j - 1].append((i - 1, (-re, -im)))
        return W, D

    @classmethod
    def zero(cls, dim: int):
        return cls(dim)

    def entry(self, i: int, j: int):
        """Signed entry w^{ij} (1-based); 0 when absent."""
        if i < j:
            return self.entries.get((i, j), 0)
        if i > j:
            w = self.entries.get((j, i), 0)
            return -w if w else 0
        return 0

    def matrix(self):
        rows = [[0] * self.dim for _ in range(self.dim)]
        for (i, j), w in self.entries.items():
            rows[i - 1][j - 1] = w
            rows[j - 1][i - 1] = -w
        return rows

    def is_constant(self) -> bool:
        return all(not hasattr(w, "partial") or w.is_constant()
                   for w in self.entries.values())

    def map_entries(self, f) -> "Bivector":
        return Bivector(self.dim, {k: f(w) for k, w in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, Bivector):
            return NotImplemented
        return self.dim == other.dim and self.entries == other.entries

    def __repr__(self):
        return f"Bivector({self.dim}, {dict(self.entries)!r})"


# -- classical operations -----------------------------------------------------


def wedge(a: HForm, b: HForm) -> HForm:
    """Classical exterior product."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch {a.dim} != {b.dim}")
    return HForm._from_clean(a.dim, K.wedge_terms(a.terms, b.terms),
                             a.laurent or b.laurent)


def contract_front(i: int, a: HForm) -> HForm:
    """e_i |- a: evaluation of a on e_i in the first slot (1-based i)."""
    if not 1 <= i <= a.dim:
        raise IndexError(f"index {i} out of range 1..{a.dim}")
    return HForm(a.dim, K.contract_terms(a.terms, i - 1, front=True),
                 a.laurent)


def contract_back(a: HForm, i: int) -> HForm:
    """a -| e_i: evaluation of a on e_i in the last slot (1-based i)."""
    if not 1 <= i <= a.dim:
        raise IndexError(f"index {i} out of range 1..{a.dim}")
    return HForm(a.dim, K.contract_terms(a.terms, i - 1, front=False),
                 a.laurent)


def contract_vector(coeffs, a: HForm) -> HForm:
    """Front contraction by the vector sum_i coeffs[i-1] * e_i."""
    out = HForm.zero(a.dim, a.laurent)
    for i, c in enumerate(coeffs, start=1):
        if c:
            out = out + contract_front(i, a) * c
    return out


def bivector_contract(w: Bivector, a: HForm) -> HForm:
    """w |- a = sum_{i<j} w^{ij} a(e_i, e_j, ...); drops degree by 2."""
    if w.dim != a.dim:
        raise ValueError(f"dimension mismatch {w.dim} != {a.dim}")
    out = HForm.zero(a.dim, a.laurent)
    for (i, j), wij in w.entries.items():
        t = contract_front(j, contract_front(i, a))
        if t:
            out = out + t * wij
    return out


def exp_contract_terms(w: Bivector, terms: dict) -> dict:
    """E = exp(h iota_w) = sum_k h^k iota_w^k / k! on a term dict, for a
    constant bivector w and iota_w the contraction of
    :func:`bivector_contract`; the series ends, since iota_w lowers the
    exterior degree by 2.  Integral Fraction entries are read as ints, so
    int coefficients stay ints while integral; any other coefficient has
    the type that coefficient * entry / k gives it."""
    entries = [(i - 1, j - 1, c.numerator if type(c) is Fraction
                and c.denominator == 1 else c)
               for (i, j), c in w.entries.items()]
    out = dict(terms)
    term = terms
    k = 0
    while term:
        k += 1
        step = {}
        for i, j, c in entries:
            inner = K.contract_terms(K.contract_terms(term, i, True), j, True)
            for (jh, m), d in inner.items():
                key = (jh + 1, m)
                s = step.get(key)
                s = d * c if s is None else s + d * c
                if s:
                    step[key] = s
                else:
                    step.pop(key, None)
        if k > 1:
            step = {key: (s // k if s % k == 0 else Fraction(s, k))
                    if type(s) is int else s / k
                    for key, s in step.items()}
        for key, c in step.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        term = step
    return out


def berezin_integral(a: HForm):
    """Coefficient of the top monomial e^{1..m}; requires an h-free form."""
    if any(j for (j, _m) in a.terms):
        raise ValueError("Berezin integral expects an h-free form")
    return a.terms.get((0, (1 << a.dim) - 1), 0)


def graded_degree(a: HForm):
    """Graded degree of a homogeneous form (h has degree 2), else None."""
    return a.graded_degree()


# -- symplectic star ----------------------------------------------------------


def omega_form(omega, laurent: bool = False) -> HForm:
    """The 2-form sum_{i<j} Omega[i][j] e^{ij} of a constant matrix."""
    dim = len(omega)
    terms = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            if omega[i][j]:
                terms[(0, (1 << i) | (1 << j))] = omega[i][j]
    return HForm(dim, terms, laurent)


def check_symplectic(omega):
    dim = len(omega)
    if dim % 2:
        raise ValueError("symplectic matrix needs even dimension")
    for i in range(dim):
        if omega[i][i]:
            raise ValueError("symplectic matrix has nonzero diagonal")
        for j in range(dim):
            if omega[i][j] != -omega[j][i]:
                raise ValueError("symplectic matrix is not antisymmetric")
    if not det(omega):
        raise ValueError("symplectic matrix is singular")


class StarTable:
    """The symplectic star of one matrix Omega, one basis monomial e^J at a
    time; build it once per Omega and pass it to :func:`symplectic_star`.

    ``row(J)`` lists (complement of I, Lambda^k(w)[I, J] * pf * sign) over
    the index sets I with |I| = |J| and a nonzero minor, where pf is the
    top coefficient of omega^n/n! and sign that of e^I ^ e^{comp I}.
    The constructor validates Omega (ValueError if it is not symplectic)
    and computes the inverse and pf; rows are filled on first use.  The
    minors det w*[I, J] of w* = -Omega^{-1} are those of the bivector
    ``wstar``'s own table; for a rational Omega they are the integers
    det (D w*)[I, J], read back over D^k as Fractions.
    """

    __slots__ = ("dim", "wstar", "pf", "rows")

    def __init__(self, omega):
        check_symplectic(omega)
        dim = len(omega)
        self.dim = dim
        inv = matrix_inverse(omega)
        self.wstar = Bivector(dim, {
            (i + 1, j + 1): -inv[i][j] for i in range(dim)
            for j in range(i + 1, dim) if inv[i][j]})
        vol = HForm.scalar(dim, Fraction(1))
        om = omega_form(omega)
        for k in range(1, dim // 2 + 1):
            vol = wedge(vol, om) * Fraction(1, k)
        self.pf = vol.terms.get((0, (1 << dim) - 1), Fraction(0))
        self.rows = {}

    def row(self, maskJ):
        row = self.rows.get(maskJ)
        if row is not None:
            return row
        dim, wstar, pf = self.dim, self.wstar.table, self.pf
        full = (1 << dim) - 1
        k = maskJ.bit_count()
        row = []
        for idxI in combinations(range(dim), k):
            maskI = 0
            for i in idxI:
                maskI |= 1 << i
            lam = wstar.minor(maskI, maskJ) if k else 1
            if wstar.D is not None:
                lam = Fraction(lam, wstar.D ** k)
            if lam:
                comp = full ^ maskI
                row.append((comp, lam * pf * K.wedge_sign(maskI, comp)))
        self.rows[maskJ] = row
        return row


def symplectic_star(a: HForm, star: StarTable) -> HForm:
    """Symplectic star determined by b ^ *a = Lambda^k(w)(b, a) omega^n/n!.

    Here w is the dual bivector of Omega (w(e^i, e^j) = -(Omega^-1)[i][j],
    which makes *1 = omega^n/n! and *e^1 = e^1 in the Darboux model) and
    the star is extended to h-coefficients by *h = h^-1; ``star`` is the
    :class:`StarTable` of Omega.
    """
    dim = a.dim
    if star.dim != dim:
        raise ValueError("matrix dimension mismatch")
    if any(j for (j, _m) in a.terms) and not a.laurent:
        raise ValueError("star of an h-carrying form requires Laurent mode")

    out = {}
    for (j, maskJ), c in a.terms.items():
        for comp, scale in star.row(maskJ):
            key = (-j, comp)
            s = out.get(key, 0) + c * scale
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return HForm._from_clean(dim, out, a.laurent)
