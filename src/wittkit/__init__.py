"""Exact-arithmetic Witt and spectral bases for Clifford algebras.

Everything is computed over rationals extended by j and by square roots of
small integers, so every identity check is an exact equality, never a
floating-point comparison.

Submodules load on first use: ``import wittkit`` runs only ``omega`` (and
what it imports), and every other exported name imports its home module
the first time it is read (PEP 562).
"""

import importlib

# omega is bound eagerly: importing the submodule wittkit.omega binds the
# module to the package attribute of the same name, which a lazy name would
# then never replace
from .omega import omega

__version__ = "0.1.0"

# each exported name by its home module; __all__ is this table in order
_HOMES = {
    "scalars": "Scalar",
    "ga": "Signature Multivector g_nn g_1n g3 g13 gp wedge reverse grade_project "
          "gp_chain wedge_chain anticommutator anticommutator_relations",
    "witt_global": "GlobalWitt make_global_witt check_duality_relations SpectralBasis "
                   "spectral_basis_nn MvMatrix CentralMatrix",
    "omega": "OmegaMatrix OmegaVariant omega gram_check det_omega bareiss_det fast_apply",
    "witt_local": "LocalWitt make_local_witt check_local_relations ef_from_c "
                  "check_frame_relations FrameMap hadamard_nilpotents "
                  "hadamard_identification pseudoscalar_identity no_identification_g12 "
                  "complex_identification_g22 NegativeSearchReport C8Table "
                  "c8_complex_table c8_tabulated_coefficients",
    "dirac": "DiracFrame DiracIdempotents NewDiracData dirac_frame "
             "dirac_idempotents idempotent_orders_agree intertwining_relations "
             "dirac_spectral_standard dirac_spectral_new new_witt_pair new_border_form "
             "new_rep_extra_matrices gamma_anticommutation_check pseudoscalar_anticommutes "
             "pauli_spectral pauli_impostor_check g11_embedding_check",
    "verify": "Check VerifyReport run_suite run_all",
    "errors": "RangeError SignatureMismatchError NonMonomialError "
              "DimensionMismatchError ExtractorUnavailableError UnsupportedError",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _HOMES:          # wittkit.ga and the like, as the eager package had them
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
