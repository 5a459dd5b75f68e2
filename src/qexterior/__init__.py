"""Exact symbolic engine for quantum exterior calculus on Poisson model
spaces: the quantum exterior product, the quantum differential d_h = d - h
delta, quantum de Rham / Dolbeault / equivariant cohomology over k[h] and
k[h, h^-1], quantum Lefschetz spectra, quantum integrals, and quantum
characteristic forms -- all over exact rational or Gaussian-rational
arithmetic.
"""

from ._kernels import kernel_backend
from .calculus import (dolbeault_operators, exterior_d, frame_formula_d,
                       koszul_delta, qintegral, quantum_d, stokes_check)
from .chern import (QConnection, char_form, quantum_covariant_d,
                    quantum_curvature, transgression_check)
from .coeffs import FourierCoeff, PolyCoeff
from .cohomology import (quantum_derham_table, quantum_dolbeault_table,
                         ring_table)
from .complexes import CohomologyTable, FiniteComplex, complex_homology
from .equivariant import (EquivariantElement, GroupAction,
                          anticommutator_check, cartan_d, contract_generator,
                          equivariant_cohomology_table)
from .forms import (Bivector, HForm, StarTable, berezin_integral,
                    bivector_contract, contract_back, contract_front,
                    symplectic_star, wedge)
from .hpoly import HLaurent, HPoly
from .lefschetz import (DarbouxSpace, Mh_matrix, SpectrumReport, apply_Ah,
                        apply_Lh, apply_Lh_star, commutator_check,
                        hard_lefschetz_check)
from .models import PoissonModel, jacobi_check
from .quantum import frobenius_pairing, gram_matrix, qwedge, wwedge
from .scalars import GRat
from .snf import smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "Bivector", "CohomologyTable", "DarbouxSpace", "EquivariantElement",
    "FiniteComplex", "FourierCoeff", "GRat", "GroupAction", "HForm",
    "HLaurent", "HPoly", "Mh_matrix", "PoissonModel", "PolyCoeff",
    "QConnection", "SpectrumReport", "StarTable", "anticommutator_check",
    "apply_Ah", "apply_Lh", "apply_Lh_star", "berezin_integral",
    "bivector_contract", "cartan_d", "char_form", "commutator_check",
    "complex_homology",
    "contract_back", "contract_front", "contract_generator",
    "dolbeault_operators",
    "equivariant_cohomology_table", "exterior_d", "frame_formula_d",
    "frobenius_pairing", "gram_matrix",
    "hard_lefschetz_check", "jacobi_check", "kernel_backend",
    "koszul_delta", "qintegral",
    "quantum_covariant_d", "quantum_curvature", "quantum_d",
    "quantum_derham_table", "quantum_dolbeault_table", "qwedge",
    "ring_table", "smith_normal_form", "stokes_check", "symplectic_star",
    "transgression_check", "wedge", "wwedge",
]
