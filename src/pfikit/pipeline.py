"""End-to-end overlap resolution: field estimate, peak budget, consistency audit.

The route: measure the CSR of a clean reference species, invert its
calibration curve to get the local field, evaluate every analyte species'
charge-state fractions at that field, then walk the declared peak overlaps in
order, predicting how many counts of the anchor's partner charge state hide
inside each shared peak and handing the remainder to the claimant species.
A final audit compares the resolved spectrum against the model and the
declared nominal composition and emits advisory flags; it never raises.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .curves import (FieldEstimate, KinghamCurve, csr_from_fractions, csr_to_field,
                     read_curve_csv)
from .errors import ConfigError, DomainError
from .species import json_float, json_int, read_json
from .spectrum import (RANGING_TOLERANCE_DA, CsrEstimate, Peak, RangedPeakSet,
                       parse_composition, primary_counts, raw_csr, read_peaks_csv,
                       state_label)

UNEXPECTED_FRACTION_THRESHOLD = 1e-4
CSR_MISMATCH_TOLERANCE = 0.05

FLAG_KINDS = ("composition_exceeds_nominal", "predicted_counts_exceed_peak",
              "unexpected_charge_state_present", "missing_expected_peak",
              "csr_prediction_mismatch")


def kellogg_field(voltage_v: float, f0_vnm: float, v0_v: float) -> float:
    """Field from the specimen voltage by proportional rescaling.

    A reference pair (f0, v0) anchors the proportionality; the field at
    voltage V is f0 * V / v0.
    """
    if not math.isfinite(voltage_v):
        raise DomainError(f"voltage {voltage_v} V must be finite")
    if not 0.0 < v0_v < math.inf:
        raise DomainError(f"reference voltage {v0_v} V must be positive and finite")
    if not 0.0 < f0_vnm < math.inf:
        raise DomainError(f"reference field {f0_vnm} V/nm must be positive and finite")
    return f0_vnm * voltage_v / v0_v


def fraction_at(curve: KinghamCurve, field_vnm: float, charge: int) -> float:
    """Charge-state fraction at a field, linear interpolation on the grid.

    Fraction columns are charge-ordered starting at 1+; charges beyond the
    three stored columns have fraction 0.
    """
    grid = curve.field_grid_vnm
    if not grid[0] <= field_vnm <= grid[-1]:
        raise DomainError(f"{curve.species_name}: field {field_vnm:g} V/nm outside "
                          f"the curve grid [{grid[0]:g}, {grid[-1]:g}]")
    if charge < 1:
        raise DomainError(f"charge {charge} must be >= 1")
    if charge > curve.fractions.shape[1]:
        return 0.0
    return float(np.interp(field_vnm, grid, curve.fractions[:, charge - 1]))


@dataclass(frozen=True)
class OverlapCase:
    """One declared peak overlap.

    The anchor (species, charge) has a clean peak elsewhere; its partner
    charge state hides inside the shared peak; the claimant (species, charge)
    owns whatever the partner prediction leaves behind.
    """

    shared_mz_da: float
    anchor: tuple[str, int]
    partner_charge: int
    claimant: tuple[str, int]

    def __post_init__(self):
        if self.partner_charge < 1 or self.anchor[1] < 1 or self.claimant[1] < 1:
            raise DomainError("charges must be >= 1")
        if self.partner_charge == self.anchor[1]:
            raise DomainError("partner charge must differ from the anchor charge")


@dataclass(frozen=True)
class OverlapResolution:
    """Count budget of the shared peak of one ``case``, named in the audit and narrative.

    ``predicted_counts`` is the raw partner prediction
    anchor * fraction_partner / fraction_anchor; ``assigned_counts`` caps it
    at the shared peak, ``remainder_counts`` goes to the claimant, and any
    ``deficit_counts`` (prediction exceeding the peak) is an inconsistency
    surfaced by the audit.  assigned + remainder equals the shared counts exactly.
    """

    shared_counts: float
    anchor_counts: float
    fraction_anchor: float
    fraction_partner: float
    predicted_counts: float
    assigned_counts: float
    remainder_counts: float
    deficit_counts: float
    case: OverlapCase


def resolve_overlap(shared_counts: float, anchor_counts: float,
                    fraction_partner: float, fraction_anchor: float,
                    case: OverlapCase) -> OverlapResolution:
    """Split one shared peak between the anchor's partner state and the claimant."""
    if shared_counts < 0.0 or anchor_counts < 0.0:
        raise DomainError("counts must be nonnegative")
    if not 0.0 <= fraction_partner <= 1.0 or not 0.0 <= fraction_anchor <= 1.0:
        raise DomainError("fractions must lie in [0, 1]")
    if fraction_anchor <= 0.0:
        if anchor_counts > 0.0:
            raise DomainError(
                "anchor fraction is 0 while anchor counts are present; the "
                "partner prediction saturates")
        predicted = 0.0
    else:
        predicted = anchor_counts * fraction_partner / fraction_anchor
    assigned = min(predicted, shared_counts)
    remainder = shared_counts - assigned
    if assigned < remainder:
        # recompute the smaller share from the larger one: subtracting a
        # float in [s/2, s] from s is exact, so assigned + remainder == s
        assigned = shared_counts - remainder
    deficit = max(0.0, predicted - shared_counts)
    return OverlapResolution(shared_counts, anchor_counts, fraction_anchor,
                             fraction_partner, predicted, assigned, remainder,
                             deficit, case)


@dataclass(frozen=True)
class ConsistencyFlag:
    """One advisory audit finding."""

    kind: str
    subject: str
    detail: str
    numbers: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.kind not in FLAG_KINDS:
            raise ConfigError(f"unknown flag kind {self.kind!r}")


def composition_by_element(counts: dict[tuple[str, int], float],
                           compositions: dict[str, tuple[str, int]] | None = None
                           ) -> dict[str, float]:
    """Atomic fractions per element from (species, charge) ion counts."""
    atoms: dict[str, float] = {}
    for (species, _), value in counts.items():
        element, size = parse_composition(species, compositions)
        atoms[element] = atoms.get(element, 0.0) + size * value
    total = sum(atoms.values())
    if total <= 0.0:
        raise DomainError("no atoms counted; composition undefined")
    return {element: n / total for element, n in sorted(atoms.items())}


def audit_consistency(peak_set: RangedPeakSet,
                      resolved: dict[tuple[str, int], float],
                      fractions: dict[str, dict[int, float]],
                      resolutions: tuple[OverlapResolution, ...] = (),
                      nominal_fraction: dict[str, float] | None = None,
                      compositions: dict[str, tuple[str, int]] | None = None
                      ) -> tuple[ConsistencyFlag, ...]:
    """Advisory checks of the resolved spectrum against model and nominals.

    Total function: returns flags kind by kind in FLAG_KINDS order, which is the
    order of the checks below, subjects in input order; never raises.
    """
    flags: list[ConsistencyFlag] = []

    if nominal_fraction:
        measured = composition_by_element(resolved, compositions)
        for element in sorted(nominal_fraction):
            nominal = nominal_fraction[element]
            got = measured.get(element, 0.0)
            if got > nominal:
                flags.append(ConsistencyFlag(
                    "composition_exceeds_nominal", element,
                    f"resolved {element} fraction {100 * got:.2f} at.% exceeds "
                    f"the nominal {100 * nominal:.2f} at.%",
                    (("measured", got), ("nominal", nominal))))

    for res in resolutions:
        if res.deficit_counts > 0.0:
            species, _ = res.case.anchor
            label = state_label(species, res.case.partner_charge)
            flags.append(ConsistencyFlag(
                "predicted_counts_exceed_peak",
                f"{label} at {res.case.shared_mz_da:g} Da",
                f"model predicts {res.predicted_counts:.1f} {label} counts but the "
                f"shared peak at {res.case.shared_mz_da:g} Da holds only "
                f"{res.shared_counts:.0f}",
                (("predicted", res.predicted_counts),
                 ("observed", res.shared_counts),
                 ("deficit", res.deficit_counts))))

    for (species, charge), value in resolved.items():
        if species not in fractions or value <= 0.0:
            continue
        predicted = fractions[species].get(charge, 0.0)
        if predicted < UNEXPECTED_FRACTION_THRESHOLD:
            flags.append(ConsistencyFlag(
                "unexpected_charge_state_present", state_label(species, charge),
                f"{state_label(species, charge)} carries {value:.0f} counts but "
                f"the model fraction at this field is {predicted:.2e}",
                (("counts", value), ("fraction", predicted))))

    ranged_states = {(a.species, a.charge)
                     for peak in peak_set.peaks for a in peak.assignments}
    for species in fractions:
        for charge, predicted in sorted(fractions[species].items()):
            if (predicted >= UNEXPECTED_FRACTION_THRESHOLD
                    and (species, charge) not in ranged_states):
                flags.append(ConsistencyFlag(
                    "missing_expected_peak", state_label(species, charge),
                    f"the model expects fraction {predicted:.4f} of "
                    f"{state_label(species, charge)} but no peak is ranged for it",
                    (("fraction", predicted),)))

    overlap_species = {name for res in resolutions
                       for name in (res.case.anchor[0], res.case.claimant[0])}
    for species in fractions:
        if species in overlap_species:
            continue
        n_lo = resolved.get((species, 1), 0.0)
        n_hi = resolved.get((species, 2), 0.0)
        if n_lo + n_hi <= 0.0:
            continue
        table = fractions[species]
        predicted_csr = csr_from_fractions((table.get(1, 0.0), table.get(2, 0.0)))
        observed_csr = csr_from_fractions((n_lo, n_hi))
        if abs(observed_csr - predicted_csr) > CSR_MISMATCH_TOLERANCE:
            flags.append(ConsistencyFlag(
                "csr_prediction_mismatch", species,
                f"{species}: model CSR {predicted_csr:.4f} at the estimated field "
                f"but the resolved spectrum gives {observed_csr:.4f}",
                (("predicted", predicted_csr), ("observed", observed_csr))))
    return tuple(flags)


@dataclass(frozen=True)
class ResolutionReport:
    """Everything the overlap pipeline produced, JSON- and text-serializable."""

    reference_species: str
    reference_csr: CsrEstimate
    field: FieldEstimate
    fractions: dict[str, dict[int, float]]
    counts_before: dict[tuple[str, int], float]
    counts_after: dict[tuple[str, int], float]
    composition_before: dict[str, float]
    composition_after: dict[str, float]
    resolutions: tuple[OverlapResolution, ...]
    flags: tuple[ConsistencyFlag, ...]

    def narrative(self) -> str:
        lines = [
            f"Reference {self.reference_species} CSR "
            f"{self.reference_csr.value:.4f} +/- {self.reference_csr.two_sigma:.4f} "
            f"puts the field at {self.field.field_vnm:.2f} V/nm."]
        for res in self.resolutions:
            anchor = state_label(*res.case.anchor)
            partner = state_label(res.case.anchor[0], res.case.partner_charge)
            claimant = state_label(*res.case.claimant)
            if res.deficit_counts > 0.0:
                lines.append(
                    f"At {res.case.shared_mz_da:g} Da the predicted {partner} "
                    f"({res.predicted_counts:.0f} from {anchor} "
                    f"{res.anchor_counts:.0f}) exceeds the peak "
                    f"({res.shared_counts:.0f}); {claimant} gets nothing and the "
                    f"surplus is flagged.")
            else:
                lines.append(
                    f"At {res.case.shared_mz_da:g} Da, {partner} accounts for "
                    f"{res.assigned_counts:.0f} of {res.shared_counts:.0f} counts; "
                    f"{claimant} keeps {res.remainder_counts:.0f}.")
        for flag in self.flags:
            lines.append(f"[{flag.kind}] {flag.detail}.")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "reference_species": self.reference_species,
            "reference_csr": asdict(self.reference_csr),
            "field": asdict(self.field),
            "fractions": {s: {str(q): v for q, v in table.items()}
                          for s, table in self.fractions.items()},
            "counts_before": {state_label(*k): v
                              for k, v in sorted(self.counts_before.items())},
            "counts_after": {state_label(*k): v
                             for k, v in sorted(self.counts_after.items())},
            "composition_before": self.composition_before,
            "composition_after": self.composition_after,
            "resolutions": [asdict(r) for r in self.resolutions],
            "flags": [asdict(flag) for flag in self.flags],
            "narrative": self.narrative(),
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"field estimate: {self.field.field_vnm:.4f} V/nm"]
        if self.field.interval_vnm is not None:
            lo, hi = self.field.interval_vnm
            lines[0] += f"  (2-sigma [{lo:.4f}, {hi:.4f}])"
        lines.append("model fractions at the estimated field:")
        for species in self.fractions:
            table = self.fractions[species]
            csr = csr_from_fractions((table.get(1, 0.0), table.get(2, 0.0)))
            lines.append(f"  {species}: " + "  ".join(
                f"{q}+ {v:.4f}" for q, v in sorted(table.items())) +
                f"  csr {csr:.4f}")
        lines.append("composition (at.%):")
        for element in sorted(set(self.composition_before) | set(self.composition_after)):
            before = 100.0 * self.composition_before.get(element, 0.0)
            after = 100.0 * self.composition_after.get(element, 0.0)
            lines.append(f"  {element}: {before:.2f} -> {after:.2f}")
        lines.append(f"flags ({len(self.flags)}):")
        for flag in self.flags:
            lines.append(f"  [{flag.kind}] {flag.subject}: {flag.detail}")
        lines.append("narrative:")
        for line in self.narrative().splitlines():
            lines.append(f"  {line}")
        return "\n".join(lines) + "\n"


def _find_peak(peak_set: RangedPeakSet, mz_da: float) -> Peak:
    for peak in peak_set.peaks:
        if abs(peak.mz_da - mz_da) <= RANGING_TOLERANCE_DA:
            return peak
    raise ConfigError(f"no ranged peak at {mz_da:g} Da")


def _config_value(mapping, key: str, convert, where: str):
    """``convert(mapping[key])``; a missing or malformed key raises ConfigError naming it."""
    try:
        return convert(mapping[key])
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise ConfigError(f"pipeline config: {where} needs a valid {key!r} "
                          f"({type(exc).__name__}: {exc})") from exc


def _name_and_number(value) -> tuple[str, int]:
    name, number = value
    return str(name), json_int(number)


def _object_of(convert):
    """Converter for a JSON object whose values each convert with ``convert``."""
    return lambda value: {str(key): convert(item) for key, item in value.items()}


def run_pipeline(config: dict, base_dir: str | os.PathLike = ".") -> ResolutionReport:
    """Execute the overlap-resolution recipe described by a config mapping.

    Keys: ``peaks`` (ranged-peak CSV), ``reference`` (species, optional
    charge_pair, which must be [1, 2]: the curves tabulate 2+/(1+ + 2+)),
    ``curves`` (species -> curve CSV evaluated at the estimated
    field), ``overlaps`` (ordered list of shared_mz, anchor [species, charge],
    partner_charge, claimant [species, charge]), optional ``nominal_fraction``
    (element -> atomic fraction) and ``compositions`` (species ->
    [element, cluster size]).
    """
    def path_of(name: str) -> str:
        return os.path.join(base_dir, name)

    if not isinstance(config, dict):
        raise ConfigError(f"pipeline config must be a JSON object, not {type(config).__name__}")
    for key in ("peaks", "reference", "curves"):
        if key not in config:
            raise ConfigError(f"pipeline config lacks the {key!r} key")

    peak_set = read_peaks_csv(path_of(_config_value(config, "peaks", os.fspath, "the top level")))
    compositions = (_config_value(config, "compositions", _object_of(_name_and_number),
                                  "the top level") if config.get("compositions") else {})

    reference = config["reference"]
    ref_species = _config_value(reference, "species", str, "reference")
    if reference.get("charge_pair", [1, 2]) not in ([1, 2], (1, 2)):
        raise ConfigError(f"reference charge_pair {reference['charge_pair']!r} must be "
                          "[1, 2]: the curves tabulate 2+/(1+ + 2+)")
    ref_csr = raw_csr(peak_set, ref_species)

    curves = {species: read_curve_csv(path_of(path)) for species, path in
              _config_value(config, "curves", _object_of(str), "the top level").items()}
    if ref_species not in curves:
        raise ConfigError(f"reference species {ref_species!r} has no curve")
    estimate = csr_to_field(curves[ref_species], ref_csr.value, ref_csr.two_sigma)

    fractions = {species: {charge: fraction_at(curve, estimate.field_vnm, charge)
                           for charge in range(1, curve.fractions.shape[1] + 1)}
                 for species, curve in curves.items()}

    counts_before = primary_counts(peak_set)
    counts = dict(counts_before)
    resolutions = []
    overlaps = (_config_value(config, "overlaps", list, "the top level")
                if config.get("overlaps") else [])
    for index, raw_case in enumerate(overlaps):
        where = f"overlap {index}"
        case = OverlapCase(_config_value(raw_case, "shared_mz", json_float, where),
                           _config_value(raw_case, "anchor", _name_and_number, where),
                           _config_value(raw_case, "partner_charge", json_int, where),
                           _config_value(raw_case, "claimant", _name_and_number, where))
        anchor_species, anchor_charge = case.anchor
        if anchor_species not in fractions:
            raise ConfigError(f"anchor species {anchor_species!r} has no curve")
        shared_peak = _find_peak(peak_set, case.shared_mz_da)
        if not shared_peak.assignments:
            raise ConfigError(f"shared peak at {case.shared_mz_da:g} Da has no "
                              "assignments")
        resolution = resolve_overlap(
            shared_peak.counts, counts.get(case.anchor, 0.0),
            fractions[anchor_species].get(case.partner_charge, 0.0),
            fractions[anchor_species].get(anchor_charge, 0.0), case)
        primary = shared_peak.assignments[0]
        holder = (primary.species, primary.charge)
        counts[holder] = counts.get(holder, 0.0) - shared_peak.counts
        partner_key = (anchor_species, case.partner_charge)
        counts[partner_key] = counts.get(partner_key, 0.0) + resolution.assigned_counts
        counts[case.claimant] = (counts.get(case.claimant, 0.0)
                                 + resolution.remainder_counts)
        resolutions.append(resolution)

    nominal = (_config_value(config, "nominal_fraction", _object_of(json_float), "the top level")
               if config.get("nominal_fraction") else None)
    flags = audit_consistency(peak_set, counts, fractions, tuple(resolutions), nominal,
                              compositions)
    return ResolutionReport(
        ref_species, ref_csr, estimate, fractions, counts_before, counts,
        composition_by_element(counts_before, compositions),
        composition_by_element(counts, compositions),
        tuple(resolutions), flags)


def load_pipeline_config(path: str | os.PathLike):
    """The JSON value in a pipeline config file; :func:`run_pipeline` checks it."""
    return read_json(path, "pipeline config")
