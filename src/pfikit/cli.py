"""Command-line interface.

Subcommands cover the library surface: curve generation, crossover finding,
calibration fits, sensitivity scans, spectrum deconvolution, CSR extraction,
field estimation, the overlap-resolution pipeline, and voltage-proportional
field rescaling.  All numeric output is deterministic: CSV carries 9
significant digits, JSON is sorted with indent 2.

Exit codes: 0 success, 2 configuration, 3 numerical, 4 fit range,
5 degenerate matrix.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from . import calibrate, curves, pipeline, spectrum
from .errors import ConfigError, PfiKitError
from .geometry import Environment
from .species import SpeciesParams, asset_path, resolve_species
from .zmodel import ZModel, load_zmodel

NAMED_ZMODELS = {"kingham": "z_kingham.json", "si3": "z_si3_fit.json",
                 "si4": "z_si4_fit.json"}


@dataclass(frozen=True)
class RunConfig:
    """Validated CLI-level settings shared by every subcommand."""

    species: tuple[SpeciesParams, ...]
    zmodel: ZModel
    env: Environment
    grid: curves.FieldGrid
    out: str | None
    fmt: str
    verbose: bool

    def __post_init__(self):
        phi = self.env.work_function_ev
        if not 0.0 < phi <= 10.0:
            raise ConfigError(f"work function {phi} eV outside (0, 10]")


def _parse_grid(text: str) -> curves.FieldGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad grid {text!r}; expected lo:hi:step")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    return curves.FieldGrid(lo, hi, step)


def _resolve_zmodel(ref: str) -> ZModel:
    named = NAMED_ZMODELS.get(ref.lower())
    if named is not None:
        return load_zmodel(asset_path(named))
    if os.path.exists(ref):
        return load_zmodel(ref)
    raise ConfigError(f"unknown Z model {ref!r}: not a file and not one of "
                      f"{sorted(NAMED_ZMODELS)}")


# Model flags and their defaults; commands without them still see the defaults.
MODEL_DEFAULTS = {"species": [], "zmodel": "kingham", "phi": None, "screening": 0.0,
                  "grid": "5:45:0.1"}


def _model_flags(parser: argparse.ArgumentParser, zmodel: bool) -> None:
    parser.add_argument("--species", action="append",
                        help="shipped species name or species JSON file; repeatable")
    if zmodel:
        parser.add_argument("--zmodel",
                            help="named Z model (kingham, si3, si4) or JSON file")
    parser.add_argument("--phi", type=float,
                        help="work function in eV (default 4.9 for every species; "
                             "Rh's tabulated crossover needs 4.8)")
    parser.add_argument("--lambda", dest="screening", type=float,
                        help="screening length in nm (default 0)")
    parser.add_argument("--grid", help="field grid lo:hi:step in V/nm")


def _output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (or directory "
                        "for curves); default stdout")
    parser.add_argument("--format", dest="fmt", choices=("text", "json", "csv"),
                        default="text")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the configuration and exit")


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Resolve the common flags; ``args.species_count`` is "none", "one" or "some"."""
    species: list[SpeciesParams] = []
    for ref in args.species:
        species.extend(resolve_species(ref))
    if args.species_count != "none" and not species:
        raise ConfigError("no species given (use --species)")
    if args.species_count == "one" and len(species) != 1:
        raise ConfigError("this command takes exactly one --species")
    phi = args.phi if args.phi is not None else 4.9
    env = Environment(work_function_ev=phi, screening_length_nm=args.screening)
    return RunConfig(tuple(species), _resolve_zmodel(args.zmodel), env,
                     _parse_grid(args.grid), args.out, args.fmt, args.verbose)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _note(config: RunConfig, message: str) -> None:
    if config.verbose:
        print(message, file=sys.stderr)


def _search(config: RunConfig) -> tuple[float, float]:
    return config.grid.low_vnm, config.grid.high_vnm


def cmd_curves(config: RunConfig, args: argparse.Namespace) -> int:
    multiple = len(config.species) > 1
    if multiple and config.out is None:
        raise ConfigError("several species need --out pointing at a directory")
    if multiple or (config.out is not None and os.path.isdir(config.out)):
        os.makedirs(config.out, exist_ok=True)
    for sp in config.species:
        _note(config, f"curve {sp.name} on {config.grid.low_vnm}:"
              f"{config.grid.high_vnm}:{config.grid.step_vnm}")
        curve = curves.generate_curve(sp, config.env, config.zmodel, config.grid)
        if config.out is None:
            curves.dump_curve_csv(curve, sys.stdout)
        else:
            target = config.out
            if os.path.isdir(target):
                target = os.path.join(target, f"{sp.name.lower()}_curve.csv")
            curves.write_curve_csv(curve, target)
            _note(config, f"wrote {target}")
    return 0


def cmd_f50(config: RunConfig, args: argparse.Namespace) -> int:
    rows = [(sp.name, curves.find_f50(sp, config.env, config.zmodel, _search(config)))
            for sp in config.species]
    if config.fmt == "json":
        payload = {name: {"f50_vnm": r.f50_vnm, "bracket_vnm": list(r.bracket_vnm)}
                   for name, r in rows}
        _emit(_json_dumps(payload), config.out)
    elif config.fmt == "csv":
        lines = ["species,f50_Vnm"] + [f"{name},{r.f50_vnm:.9g}" for name, r in rows]
        _emit("\n".join(lines) + "\n", config.out)
    else:
        _emit("".join(f"{name}: F50 = {r.f50_vnm:.9g} V/nm\n" for name, r in rows),
              config.out)
    return 0


def _fit_payload(report: calibrate.FitReport) -> dict:
    payload = {
        "kind": report.kind,
        "species": report.species_name,
        "parameter": report.parameter,
        "target_f50_vnm": report.target_f50_vnm,
        "achieved_f50_vnm": report.achieved_f50_vnm,
        "residual_vnm": report.residual_vnm,
        "fitted_value": report.fitted_value,
        "nominal_value": report.nominal_value,
        "absolute_shift": report.absolute_shift,
        "relative_shift": report.relative_shift,
    }
    if report.note:
        payload["note"] = report.note
    return payload


def cmd_fit_z(config: RunConfig, args: argparse.Namespace) -> int:
    report = calibrate.fit_z_offset(config.species[0], config.env, args.target,
                                    c1=args.c1, search_vnm=_search(config))
    _emit(_json_dumps(_fit_payload(report)), config.out)
    return 0


def cmd_fit_ie(config: RunConfig, args: argparse.Namespace) -> int:
    report = calibrate.fit_ie(config.species[0], config.env, config.zmodel, args.target,
                              ie_index=args.ie_index, search_vnm=_search(config))
    _emit(_json_dumps(_fit_payload(report)), config.out)
    return 0


def cmd_scan(config: RunConfig, args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("no scan values given")
    points = calibrate.sensitivity_scan(config.species[0], config.env, config.zmodel,
                                        args.parameter, values,
                                        search_vnm=_search(config))
    if config.fmt == "json":
        payload = [{"parameter": p.parameter, "value": p.value,
                    "f50_vnm": p.f50_vnm} for p in points]
        _emit(_json_dumps(payload), config.out)
    else:
        lines = ["parameter,value,f50_Vnm"]
        lines += [f"{p.parameter},{p.value:.9g},{p.f50_vnm:.9g}" for p in points]
        _emit("\n".join(lines) + "\n", config.out)
    return 0


def cmd_deconv(config: RunConfig, args: argparse.Namespace) -> int:
    peak_set = spectrum.read_peaks_csv(args.peaks)
    matrix = spectrum.build_overlap_matrix(peak_set, spectrum.load_isotopes(args.isotopes))
    result = spectrum.deconvolve(peak_set, matrix)
    payload = {
        "totals": {f"{s}:{q}+": v for (s, q), v in result.totals.items()},
        "solver_totals": {f"{s}:{q}+": v
                          for (s, q), v in result.solver_totals.items()},
        "residual_norm": result.residual_norm,
        "unassigned_counts": sum(result.unassigned),
        "per_peak": [
            {"mz_Da": mz, "contributions": {f"{s}:{q}+": v
                                            for (s, q), v in row.items()}}
            for mz, row in zip(matrix.peak_mz_da, result.per_peak)],
    }
    _emit(_json_dumps(payload), config.out)
    return 0


def cmd_csr(config: RunConfig, args: argparse.Namespace) -> int:
    peak_set = spectrum.read_peaks_csv(args.peaks)
    pair = (args.charge_low, args.charge_high)
    if args.raw:
        estimate = spectrum.raw_csr(peak_set, args.name, pair)
    else:
        matrix = spectrum.build_overlap_matrix(peak_set,
                                               spectrum.load_isotopes(args.isotopes))
        estimate = spectrum.compute_csr(spectrum.deconvolve(peak_set, matrix),
                                        args.name, pair)
    _emit(_json_dumps(dataclasses.asdict(estimate)), config.out)
    return 0


def cmd_field(config: RunConfig, args: argparse.Namespace) -> int:
    curve = curves.read_curve_csv(args.curve)
    estimate = curves.csr_to_field(curve, args.csr, args.two_sigma)
    _emit(_json_dumps(dataclasses.asdict(estimate)), config.out)
    return 0


def cmd_resolve(config: RunConfig, args: argparse.Namespace) -> int:
    base_dir = args.base_dir if args.base_dir is not None else os.path.dirname(
        os.path.abspath(args.config))
    report = pipeline.run_pipeline(pipeline.load_pipeline_config(args.config),
                                   base_dir)
    if config.fmt == "json":
        _emit(report.to_json() + "\n", config.out)
    else:
        _emit(report.to_text(), config.out)
    return 0


def cmd_kellogg(config: RunConfig, args: argparse.Namespace) -> int:
    value = pipeline.kellogg_field(args.voltage, args.f0, args.v0)
    if config.fmt == "json":
        _emit(_json_dumps({"field_vnm": value}), config.out)
    else:
        _emit(f"{value:.9g}\n", config.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfikit",
        description="Post-field-ionization charge-state ratios, crossover "
                    "fields, calibration fits, and overlap-resolved spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, species_count: str = "none",
                zmodel: bool = True) -> argparse.ArgumentParser:
        """A subcommand; one that takes species also takes the other model flags."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, species_count=species_count, **MODEL_DEFAULTS)
        if species_count != "none":
            _model_flags(p, zmodel)
        _output_flags(p)
        return p

    command("curves", cmd_curves, "write CSR-vs-field curves as CSV", "some")
    command("f50", cmd_f50, "field where the CSR crosses 0.5", "some")

    p = command("fit-z", cmd_fit_z, "fit the Z-model offset c0 to a target F50", "one",
                zmodel=False)
    p.add_argument("--target", type=float, required=True, help="target F50 in V/nm")
    p.add_argument("--c1", type=float, default=1.0, help="fixed c1 coefficient")

    p = command("fit-ie", cmd_fit_ie, "fit one ionization energy to a target F50", "one")
    p.add_argument("--target", type=float, required=True, help="target F50 in V/nm")
    p.add_argument("--ie-index", type=int, default=2,
                   help="1-based ladder index to vary (default 2)")

    p = command("scan", cmd_scan, "F50 sensitivity scan over m_q or phi", "one")
    p.add_argument("--parameter", choices=("m_q", "phi"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")

    p = command("deconv", cmd_deconv, "isotope-constrained peak deconvolution")
    p.add_argument("--peaks", required=True, help="ranged peaks CSV")
    p.add_argument("--isotopes", default=None, help="isotope table JSON")

    p = command("csr", cmd_csr, "charge-state ratio with counting statistics")
    p.add_argument("--peaks", required=True, help="ranged peaks CSV")
    p.add_argument("--name", required=True, help="species name in the peak table")
    p.add_argument("--charge-low", type=int, default=1)
    p.add_argument("--charge-high", type=int, default=2)
    p.add_argument("--raw", action="store_true",
                   help="primary-assignment CSR, no deconvolution")
    p.add_argument("--isotopes", default=None, help="isotope table JSON")

    p = command("field", cmd_field, "invert a curve at a measured CSR")
    p.add_argument("--curve", required=True, help="curve CSV")
    p.add_argument("--csr", type=float, required=True)
    p.add_argument("--two-sigma", type=float, default=None)

    p = command("resolve", cmd_resolve, "run the overlap-resolution pipeline")
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--base-dir", default=None,
                   help="directory for files named in the config "
                        "(default: the config's directory)")

    p = command("kellogg", cmd_kellogg, "field from voltage by proportional rescaling")
    p.add_argument("--voltage", type=float, required=True, help="specimen voltage in V")
    p.add_argument("--f0", type=float, required=True, help="reference field in V/nm")
    p.add_argument("--v0", type=float, required=True, help="reference voltage in V")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _build_config(args)
        if args.dry_run:
            names = ", ".join(sp.name for sp in config.species) or "(none)"
            print(f"dry run: {args.command} configuration is valid; species: {names}",
                  file=sys.stderr)
            return 0
        return args.handler(config, args)
    except PfiKitError as exc:
        print(f"pfikit: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)


if __name__ == "__main__":
    sys.exit(main())
