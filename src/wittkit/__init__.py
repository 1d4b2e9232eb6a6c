"""Exact-arithmetic Witt and spectral bases for Clifford algebras.

Everything is computed over rationals extended by j and by square roots of
small integers, so every identity check is an exact equality, never a
floating-point comparison.
"""

from .errors import (DimensionMismatchError, ExtractorUnavailableError,
                     NonMonomialError, NotAVectorError, RangeError,
                     SignatureMismatchError, UnsupportedError)
from .scalars import Scalar
from .ga import (Multivector, Signature, anticommutator, g3, g13, g_1n, g_nn,
                 gp, gp_chain, grade_project, reverse, sym_dot, wedge,
                 wedge_chain)
from .witt_global import (CentralMatrix, GlobalWitt, MvMatrix, SpectralBasis,
                          check_duality_relations, make_global_witt,
                          spectral_basis_nn)
from .omega import (OmegaMatrix, OmegaVariant, bareiss_det, det_omega,
                    fast_apply, gram_check, omega)
from .witt_local import (C8Table, FrameMap, LocalWitt, NegativeSearchReport,
                         c8_complex_table, c8_tabulated_coefficients,
                         check_frame_relations, check_local_relations,
                         complex_identification_g22, ef_from_c,
                         hadamard_identification, hadamard_nilpotents,
                         make_local_witt, no_identification_g12,
                         pseudoscalar_identity)
from .dirac import (DiracFrame, DiracIdempotents, DiracRep, NewDiracData,
                    dirac_frame, dirac_idempotents, dirac_spectral_new,
                    dirac_spectral_standard, g11_embedding_check,
                    gamma_anticommutation_check, idempotent_orders_agree,
                    intertwining_relations, new_border_form,
                    new_rep_extra_matrices, new_witt_pair, pauli_impostor_check,
                    pauli_spectral, pseudoscalar_anticommutes)
from .verify import Check, VerifyReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "Scalar",
    "Signature", "Multivector", "g_nn", "g_1n", "g3", "g13",
    "gp", "wedge", "sym_dot", "reverse", "grade_project", "gp_chain",
    "wedge_chain", "anticommutator",
    "GlobalWitt", "make_global_witt", "check_duality_relations",
    "SpectralBasis", "spectral_basis_nn", "MvMatrix", "CentralMatrix",
    "OmegaMatrix", "OmegaVariant", "omega", "gram_check", "det_omega",
    "bareiss_det", "fast_apply",
    "LocalWitt", "make_local_witt", "check_local_relations", "ef_from_c",
    "check_frame_relations", "FrameMap", "hadamard_nilpotents",
    "hadamard_identification", "pseudoscalar_identity",
    "no_identification_g12", "complex_identification_g22",
    "NegativeSearchReport", "C8Table", "c8_complex_table",
    "c8_tabulated_coefficients",
    "DiracFrame", "DiracIdempotents", "DiracRep", "NewDiracData",
    "dirac_frame", "dirac_idempotents", "idempotent_orders_agree",
    "intertwining_relations", "dirac_spectral_standard", "dirac_spectral_new",
    "new_witt_pair", "new_border_form", "new_rep_extra_matrices",
    "gamma_anticommutation_check",
    "pseudoscalar_anticommutes", "pauli_spectral", "pauli_impostor_check",
    "g11_embedding_check",
    "Check", "VerifyReport", "run_suite", "run_all",
    "RangeError", "SignatureMismatchError", "NotAVectorError",
    "NonMonomialError", "DimensionMismatchError", "ExtractorUnavailableError",
    "UnsupportedError",
]
