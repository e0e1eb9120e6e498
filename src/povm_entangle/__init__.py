"""Certify entangled measurements from detector tomography data.

The package reconstructs two-qubit POVMs from coincidence counts, brings
each element to a Pauli standard form by local filtering, derives the
optimal product-state quasidistribution whose negativities certify an
entangled measurement, propagates counting statistics by Monte Carlo
resampling, and evaluates probe-state witnesses for multipartite and qudit
detector outcomes.

Apart from the two error classes and ``__version__``, every public name is
resolved on first use (PEP 562), so importing the package, or one of its
modules, loads only the modules actually used.
"""

from importlib import import_module

from .errors import ConvergenceError, ValidationError

__version__ = "0.1.0"

# home module -> the public names the package exports from it
_EXPORTS = {
    "montecarlo": (
        "ElementUncertainty", "McConfig", "UncertaintyReport", "counting_covariance",
        "covariance_factor", "match_grid", "project_probabilities", "propagate",
        "sample_frequencies",
    ),
    "operators": (
        "HermitianOperator", "PovmSet", "bell_povm", "bloch_vector", "ghz_state",
        "lambda_operator", "me_state", "min_eigenvalue", "noisy_ghz_element",
        "noisy_me_element", "partial_transpose", "pauli_expand",
    ),
    "pauli": ("pauli_eigenstate",),
    "quasidist": (
        "LABELS", "NegativityReport", "QuasiDistribution", "negativity_report",
        "optimal_quasidistribution", "quasidistribution_from_pi",
    ),
    "simulate": (
        "DetectorModel", "bell_model", "draw_counts", "effective_elements",
        "expected_frequencies", "model_from_spec",
    ),
    "standard_form": (
        "LocalTransform", "StandardForm", "TildeDecomposition", "back_transform",
        "diagonalize_correlations", "remove_local_terms", "su2_from_so3", "to_standard_form",
    ),
    "tomography": (
        "BasisMap", "CoincidenceCounts", "RelativeFrequencies", "closest_bell_labels",
        "combine_outcomes", "physicality_correct", "reconstruct_correlations",
        "reconstruct_povm", "relative_frequencies", "sampling_matrices",
    ),
    "witness": (
        "ProbeState", "SeparabilityResult", "WitnessResult", "ghz_probe",
        "lambda_gmax_analytic", "me_probe", "noise_threshold",
        "separability_eigenvalue_numeric", "witness_evaluate",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(["ConvergenceError", "ValidationError", *_HOME])


def __getattr__(name: str):
    # Deliberately not cached in this module's globals: every lookup reads
    # the home module's attribute, so a later rebinding there is seen here.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
