"""JSON (and LaTeX) encoding of engine objects.

Wire formats:

* scalars: rationals as "p/q" strings, Gaussian rationals as
  {"re": "p/q", "im": "r/s"}; h-polynomials as [[exponent, scalar], ...];
* forms: [{"indices": [i1 < .. < ik], "h": j, "coeff": <scalar|coeff>}, ...];
* coefficient functions: {"poly": [[[e1..em], scalar], ...]} or
  {"fourier": [[[k1..km], scalar], ...]};
* models: {"space": "torus"|"affine", "dim": m (1 <= m <= 16),
  "bivector": [[i, j, coeff], ...], "symplectic": "darboux"|matrix,
  "complex": bool};
* actions: {"generators": [[c1..cm], ...]};
* connections: {"rank": r, "theta": [[form, ...], ...]};
* tables: per degree {"rank": r, "torsion": [...], "reps": [[{"basis":
  label, "coeff": coeff}, ...], ...]}, each class its nonzero terms.

On input a JSON integer is also a scalar, and the loaders refuse anything
else (bools and floats included) with ValueError.

Every report embeds the convention block and the PRNG name in the header
``cli.main`` adds, making output bytes a pure function of (command, config,
seed).
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .coeffs import FourierCoeff, PolyCoeff, coeff_to_json
from .forms import Bivector, HForm, mask_indices
from .hpoly import hpoly_to_json
from .models import AFFINE, TORUS, PoissonModel, darboux_dual, darboux_matrix
from .sampling import PRNG_NAME
from .scalars import scalar_from_json, scalar_to_json

CONVENTIONS = {
    "product_normalization": "e^i ^_w e^j = e^i ^ e^j + w^ij",
    "bivector_contraction": "w |- a = sum_{i<j} w^ij a(e_i, e_j, ...)",
    "koszul_delta": "delta = d o (w |-) - (w |-) o d",
    "quantum_differential": "d_h = d - h*delta",
    "symplectic_star": "b ^ *a = Lambda^k(w)(b, a) omega^n/n! with the "
                       "dual bivector -Omega^{-1}; *h = h^{-1}",
    "lefschetz_calibration": "L_h uses W = Omega^{-1} (M_h acts by +n on "
                             "degree-1 elements)",
    "torus_volume": "1",
    "prng": PRNG_NAME,
}


def form_to_json(a: HForm):
    out = []
    for (j, mask) in sorted(a.terms, key=lambda k: (k[1].bit_count(), k[1], k[0])):
        out.append({"indices": mask_indices(mask), "h": j,
                    "coeff": coeff_to_json(a.terms[(j, mask)])})
    return out


# -- decoding ------------------------------------------------------------------
# The loaders below are the only way JSON input reaches the engine.  Each
# checks the shape of what it reads and raises ValueError on anything else,
# so malformed input never surfaces as a TypeError, KeyError or IndexError.


def _exact_int(x, what) -> int:
    """``x`` itself when it is a JSON integer; bools, floats and strings
    are refused rather than rounded or parsed."""
    if type(x) is not int:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def _list(x, what) -> list:
    if not isinstance(x, list):
        raise ValueError(f"{what} must be a list, got {x!r}")
    return x


def _object(x, what) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object, not "
                         f"{type(x).__name__}")
    return x


def _coeff_from_json(obj, kind, dim, what):
    """A coefficient function on a ``kind`` model: an exact scalar as a
    constant, or {"poly": terms} on affine and {"fourier": terms} on torus
    models, with terms [[[k1..km], scalar], ...] keyed by JSON integers."""
    cls, name = (PolyCoeff, "poly") if kind == AFFINE else \
        (FourierCoeff, "fourier")
    if not (isinstance(obj, dict) and len(obj) == 1
            and ("poly" in obj or "fourier" in obj)):
        return cls.const(dim, scalar_from_json(obj, what))
    if name not in obj:
        raise ValueError(f"{what} must be a scalar or a {name!r} "
                         f"coefficient on {kind} models, got {obj!r}")
    terms = {}
    for term in _list(obj[name], what):
        if not (isinstance(term, list) and len(term) == 2
                and isinstance(term[0], list)):
            raise ValueError(f"{what} terms must be [[k1..k{dim}], scalar] "
                             f"pairs, got {term!r}")
        key = tuple(_exact_int(k, f"{name} key") for k in term[0])
        terms[key] = scalar_from_json(term[1], what)
    return cls(dim, terms)


def _form_mask(indices, dim) -> int:
    """The mask of e^{i_1 .. i_k}; the indices must be strictly ascending
    JSON integers in 1..dim, since any other order would flip the sign."""
    indices = [_exact_int(i, "form index")
               for i in _list(indices, "form indices")]
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"form indices must be strictly ascending, "
                         f"got {indices}")
    if indices and not 1 <= indices[0] <= indices[-1] <= dim:
        raise ValueError(f"form index out of range 1..{dim}: {indices}")
    return sum(1 << (i - 1) for i in indices)


def form_from_json(obj, model: PoissonModel, laurent: bool = False) -> HForm:
    terms = {}
    for item in _list(obj, "a form"):
        if not (isinstance(item, dict) and "indices" in item
                and "coeff" in item):
            raise ValueError(f"form terms must be objects with \"indices\" "
                             f"and \"coeff\", got {item!r}")
        mask = _form_mask(item["indices"], model.dim)
        coeff = _coeff_from_json(item["coeff"], model.kind, model.dim,
                                 "form coefficient")
        key = (_exact_int(item.get("h", 0), "form h-exponent"), mask)
        terms[key] = terms.get(key, 0) + coeff
    return HForm(model.dim, terms, laurent)


def _symplectic_from_json(rows, dim):
    """A dim x dim list of rows of real exact scalars."""
    if not (isinstance(rows, list) and len(rows) == dim and all(
            isinstance(row, list) and len(row) == dim for row in rows)):
        raise ValueError(f"symplectic must be \"darboux\" or a {dim}x{dim} "
                         f"list of rows, got {rows!r}")
    out = [[scalar_from_json(x, "symplectic entry") for x in row]
           for row in rows]
    if any(not isinstance(x, Fraction) for row in out for x in row):
        raise ValueError(f"symplectic entries must be real, got {rows!r}")
    return out


# The largest model dimension any command accepts, the largest that the
# table commands' work budget admits (2^16 basis labels <= cli.TABLE_BUDGET).
# Past it, building the model alone takes seconds: a torus of dimension 100
# takes 14.7 s, and 24 s with "symplectic": "darboux", on a 2-vCPU Xeon
# with Python 3.11.
MAX_MODEL_DIM = 16


def model_from_json(obj) -> PoissonModel:
    _object(obj, "a model")
    kind = obj.get("space")
    if kind not in (AFFINE, TORUS):
        raise ValueError(f"unknown space {kind!r}")
    dim = _exact_int(obj.get("dim"), "model dimension")
    if not 1 <= dim <= MAX_MODEL_DIM:
        raise ValueError(f"model dimension must be in 1..{MAX_MODEL_DIM}, "
                         f"got {dim}")
    entries = {}
    for item in _list(obj.get("bivector", []), "model bivector"):
        if not isinstance(item, list) or len(item) != 3:
            raise ValueError(f"bivector entries must be [i, j, coeff] "
                             f"triples, got {item!r}")
        i = _exact_int(item[0], "bivector index")
        j = _exact_int(item[1], "bivector index")
        if not 1 <= i < j <= dim:
            raise ValueError(f"bivector indices must satisfy 1 <= i < j <= "
                             f"{dim}, got [{i}, {j}]")
        if (i, j) in entries:
            raise ValueError(f"bivector pair [{i}, {j}] is given twice")
        entries[(i, j)] = _coeff_from_json(item[2], kind, dim,
                                           "bivector coefficient")
    symp = obj.get("symplectic")
    if symp == "darboux":
        if dim % 2:
            raise ValueError("darboux needs even dimension")
        symp = darboux_matrix(dim // 2)
        if not entries:
            cls = PolyCoeff if kind == AFFINE else FourierCoeff
            entries = {ij: cls.const(dim, c)
                       for ij, c in darboux_dual(dim // 2).items()}
    elif symp is not None:
        symp = _symplectic_from_json(symp, dim)
    complex_structure = obj.get("complex", False)
    if type(complex_structure) is not bool:
        raise ValueError(f"complex must be true or false, got "
                         f"{complex_structure!r}")
    w = Bivector(dim, entries)
    return PoissonModel(kind, dim, w, symplectic=symp,
                        complex_structure=complex_structure)


def action_from_json(obj, model: PoissonModel):
    from .equivariant import GroupAction
    _object(obj, "an action")
    gens = []
    for row in _list(obj.get("generators", []), "action generators"):
        if not isinstance(row, list) or len(row) != model.dim:
            raise ValueError(f"each generator must list {model.dim} "
                             f"components, got {row!r}")
        gens.append([scalar_from_json(c, "generator component") for c in row])
    return GroupAction(model, gens)


def connection_from_json(obj, model: PoissonModel):
    from .chern import QConnection
    _object(obj, "a connection")
    rank = _exact_int(obj.get("rank"), "connection rank")
    if rank < 1:
        raise ValueError(f"connection rank must be at least 1, got {rank}")
    theta = _list(obj.get("theta"), "connection theta")
    if len(theta) != rank:
        raise ValueError(f"connection theta has {len(theta)} rows, not {rank}")
    return QConnection(model, [[form_from_json(cell, model) for cell in
                                _list(row, "connection theta row")]
                               for row in theta])


def _rep_to_jsonable(rep):
    """A representative {label: coeff} of a table, its labels masks (de
    Rham), (j, mask) (Dolbeault) or (mode, label) (equivariant)."""
    out = []
    for lab, coeff in rep.items():
        if isinstance(lab, int):
            label = {"indices": mask_indices(lab)}
        elif isinstance(lab[0], int):
            label = {"h": lab[0], "indices": mask_indices(lab[1])}
        else:
            label = {"mode": list(lab[0]), "label": str(lab[1])}
        out.append({"basis": label, "coeff": hpoly_to_json(coeff)})
    return out


def table_to_json(table):
    degrees = []
    for deg in table.degrees():
        e = table.entries[deg]
        degrees.append({
            "degree": list(deg) if isinstance(deg, tuple) else deg,
            "rank": e.free_rank,
            "torsion": [str(t) for t in e.torsion],
            "reps": [_rep_to_jsonable(rep) for rep in e.representatives],
        })
    meta = {}
    for k, v in table.meta.items():
        if k == "modes":
            meta[k] = [list(m) for m in v]
        elif k == "graded_dims":
            meta[k] = {str(kk): vv for kk, vv in v.items()}
        else:
            meta[k] = v
    return {"table": degrees, "meta": meta}


def table_to_latex(table) -> str:
    lines = [r"\begin{tabular}{lll}",
             r"degree & rank & torsion \\ \hline"]
    for deg in table.degrees():
        e = table.entries[deg]
        tor = ", ".join(str(t) for t in e.torsion) or "--"
        lines.append(f"{deg} & {e.free_rank} & {tor} " + r"\\")
    lines.append(r"\end{tabular}")
    return "\n".join(lines)


def spectrum_to_json(report, conformance):
    poly = report.charpoly
    return {
        "size": report.size,
        "charpoly": [[j, scalar_to_json(poly.coeffs[j])]
                     for j in sorted(poly.coeffs)],
        "factors": {
            "rational_roots": {str(r): m for r, m in
                               sorted(report.factorization.rational_roots.items())},
            "quadratics": [{"b": str(b), "c": str(c), "multiplicity": m}
                           for (b, c), m in
                           sorted(report.factorization.quadratics.items())],
            "unfactored": str(report.factorization.remainder),
        },
        "eigenspaces": report.eigen_summary(),
        "diagonalizable": report.diagonalizable,
        "det": scalar_to_json(report.det),
        "invertible": report.invertible,
        "paper_conformance": conformance["status"],
        "conformance_issues": conformance["issues"],
    }


def _json_key(key) -> str:
    """A dict key as ``json`` writes it; floats are refused."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, bool or None, not "
                    f"{type(key).__name__}")


def _write_json(obj, head, out, nl):
    """Append the JSON text of ``obj``, with ``head`` (separator, newline,
    indent and key) before it, to the chunk list ``out``; ``nl`` is the
    newline and indent of ``obj``'s own line.  A scalar takes one chunk
    together with its head, which keeps the list short."""
    if isinstance(obj, str):
        out.append(head + encode_basestring_ascii(obj))
    elif obj is None:
        out.append(head + "null")
    elif obj is True:
        out.append(head + "true")
    elif obj is False:
        out.append(head + "false")
    elif isinstance(obj, int):
        out.append(head + int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append(head + "[]")
            return
        inner = nl + "  "
        head += "[" + inner
        sep = "," + inner
        for item in obj:
            kind = type(item)
            if kind is int:
                out.append(head + int.__repr__(item))
            elif kind is str:
                out.append(head + encode_basestring_ascii(item))
            else:
                _write_json(item, head, out, inner)
            head = sep
        out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append(head + "{}")
            return
        inner = nl + "  "
        head += "{" + inner
        sep = "," + inner
        for key, value in sorted(obj.items()):
            head += encode_basestring_ascii(
                key if type(key) is str else _json_key(key)) + ": "
            kind = type(value)
            if kind is int:
                out.append(head + int.__repr__(value))
            elif kind is str:
                out.append(head + encode_basestring_ascii(value))
            else:
                _write_json(value, head, out, inner)
            head = sep
        out.append(nl + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON "
                        f"serializable")


def dump_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte,
    for the str, int, bool, None, list, tuple and dict values reports are
    made of; a float, like any other type, raises TypeError."""
    out = []
    _write_json(obj, "", out, "\n")
    out.append("\n")
    return "".join(out)
