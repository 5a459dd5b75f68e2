"""Exact symbolic engine for quantum exterior calculus on Poisson model
spaces: the quantum exterior product, the quantum differential d_h = d - h
delta, quantum de Rham / Dolbeault / equivariant cohomology over k[h] and
k[h, h^-1], quantum Lefschetz spectra, quantum integrals, and quantum
characteristic forms -- all over exact rational or Gaussian-rational
arithmetic.

The namespace is lazy (PEP 562): ``import qexterior`` loads no submodule,
and each public name below is looked up in its home module on every
access, which imports that module the first time.  A submodule itself,
``qexterior.lefschetz`` say, is an attribute only once it is imported
(``from qexterior import lefschetz`` does that).
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "_kernels": ("kernel_backend",),
    "calculus": ("dolbeault_operators", "exterior_d", "frame_formula_d",
                 "koszul_delta", "qintegral", "quantum_d", "stokes_check"),
    "chern": ("QConnection", "char_form", "quantum_covariant_d",
              "quantum_curvature", "transgression_check"),
    "coeffs": ("FourierCoeff", "PolyCoeff"),
    "cohomology": ("quantum_derham_table", "quantum_dolbeault_table",
                   "ring_table"),
    "complexes": ("CohomologyTable", "FiniteComplex", "complex_homology"),
    "equivariant": ("EquivariantElement", "GroupAction",
                    "anticommutator_check", "cartan_d", "contract_generator",
                    "equivariant_cohomology_table"),
    "forms": ("Bivector", "HForm", "StarTable", "berezin_integral",
              "bivector_contract", "symplectic_star", "wedge"),
    "hpoly": ("HLaurent", "HPoly"),
    "lefschetz": ("DarbouxSpace", "Mh_matrix", "SpectrumReport", "apply_Ah",
                  "apply_Lh", "apply_Lh_star", "commutator_check",
                  "hard_lefschetz_check"),
    "models": ("PoissonModel", "jacobi_check"),
    "quantum": ("frobenius_pairing", "gram_matrix", "qwedge", "wwedge"),
    "scalars": ("GRat",),
    "snf": ("smith_normal_form",),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
