"""Post-field-ionization model kit.

Charge-state-ratio curves and crossover fields for the Kingham PFI model,
calibration fits, isotope-constrained mass-peak deconvolution, and the
overlap-resolution pipeline.
"""

from .calibrate import FitReport, ScanPoint, fit_ie, fit_z_offset, sensitivity_scan
from .constants import CONSTANTS, PhysConstants
from .curves import (CrossoverResult, FieldEstimate, FieldGrid, KinghamCurve,
                     csr_from_fractions, csr_to_field, evaluate_csr, find_f50,
                     generate_curve, read_curve_csv, write_curve_csv)
from .errors import (AmbiguityError, BracketError, ConfigError,
                     DegenerateMatrixError, DomainError, FitRangeError, NumericalError,
                     PfiKitError)
from .geometry import CrossingGeometry, Environment, critical_distance
from .pipeline import (FLAG_KINDS, ConsistencyFlag, OverlapCase, OverlapResolution,
                       ResolutionReport, audit_consistency, composition_by_element,
                       fraction_at, kellogg_field, load_pipeline_config,
                       resolve_overlap, run_pipeline)
from .species import SpeciesParams, builtin_species, load_species_file, resolve_species
from .spectrum import (Assignment, CsrEstimate, DeconvolutionResult, Isotope,
                       IsotopeTable, OverlapMatrix, Peak, RangedPeakSet,
                       build_overlap_matrix, compute_csr, deconvolve,
                       isotopologue_distribution, load_isotopes,
                       parse_composition, primary_counts, raw_csr, read_peaks_csv,
                       write_peaks_csv)
from .tunneling import PfiStepResult, charge_fractions, pfi_step_probability
from .zmodel import KINGHAM_Z, ZModel, load_zmodel

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
