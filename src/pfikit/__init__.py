"""Post-field-ionization model kit.

Charge-state-ratio curves and crossover fields for the Kingham PFI model,
calibration fits, isotope-constrained mass-peak deconvolution, and the
overlap-resolution pipeline.

Each submodule, and each name below that it exports, is loaded on first access
(PEP 562), so ``import pfikit`` runs no submodule and imports no numpy until a
name needs it.
"""

import importlib

# module -> the names the package exports from it; the private ``_numerics`` is
# reachable as ``pfikit._numerics`` but not listed in ``__all__``
_EXPORTS = {
    "_numerics": (),
    "calibrate": ("FitReport", "ScanPoint", "fit_ie", "fit_z_offset", "sensitivity_scan"),
    "constants": ("CONSTANTS", "PhysConstants"),
    "curves": ("CrossoverResult", "FieldEstimate", "FieldGrid", "KinghamCurve",
               "csr_from_fractions", "csr_to_field", "evaluate_csr", "find_f50",
               "fractions_at", "generate_curve", "read_curve_csv", "write_curve_csv"),
    "errors": ("AmbiguityError", "BracketError", "ConfigError", "DegenerateMatrixError",
               "DomainError", "FitRangeError", "NumericalError", "PfiKitError"),
    "geometry": ("CrossingGeometry", "Environment", "critical_distance"),
    "pipeline": ("FLAG_KINDS", "ConsistencyFlag", "OverlapCase", "OverlapResolution",
                 "ResolutionReport", "audit_consistency", "composition_by_element",
                 "kellogg_field", "load_pipeline_config", "resolve_overlap", "run_pipeline"),
    "species": ("SpeciesParams", "builtin_species", "load_species_file", "resolve_species"),
    "spectrum": ("Assignment", "CsrEstimate", "DeconvolutionResult", "Isotope",
                 "IsotopeTable", "OverlapMatrix", "Peak", "RangedPeakSet",
                 "build_overlap_matrix", "compute_csr", "deconvolve",
                 "isotopologue_distribution", "load_isotopes", "parse_composition",
                 "primary_counts", "raw_csr", "read_peaks_csv", "write_peaks_csv"),
    "tunneling": ("charge_fractions", "pfi_step_probability"),
    "zmodel": ("KINGHAM_Z", "ZModel", "load_zmodel"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_LOADER = {"importlib", "_EXPORTS", "_HOME", "_LOADER", "__getattr__", "__dir__"}

__version__ = "0.1.0"

__all__ = sorted(name for name in [*_EXPORTS, *_HOME] if not name.startswith("_"))


def __getattr__(name: str):
    """Load the submodule ``name``, or the module that exports ``name``, and bind it."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """Every export and submodule, loaded or not, without the loader's own names."""
    return sorted({*globals(), *_EXPORTS, *_HOME} - _LOADER)
