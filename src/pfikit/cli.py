"""Command-line interface.

Subcommands cover the library surface: curve generation, crossover finding,
calibration fits, sensitivity scans, spectrum deconvolution, CSR extraction,
field estimation, the overlap-resolution pipeline, and voltage-proportional
field rescaling.  Each takes only the flags it reads, and ``--format`` offers
only the formats it writes, its default first.  All numeric output is
deterministic: CSV carries 9 significant digits, JSON is sorted with indent 2.

Exit codes: 0 success, 2 configuration (an input file that cannot be read or an
``--out`` that cannot be written included), 3 numerical, 4 fit range, 5 degenerate
matrix.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from dataclasses import asdict

from . import calibrate, curves, pipeline, spectrum
from .errors import ConfigError, PfiKitError
from .geometry import Environment
from .species import asset_path, resolve_species
from .zmodel import ZModel, load_zmodel

NAMED_ZMODELS = {"kingham": "z_kingham.json", "si3": "z_si3_fit.json",
                 "si4": "z_si4_fit.json"}


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


def _model_flags(parser: argparse.ArgumentParser, zmodel: bool) -> None:
    parser.add_argument("--species", action="append", default=[],
                        help="shipped species name or species JSON file; repeatable")
    if zmodel:
        parser.add_argument("--zmodel", default="kingham",
                            help="named Z model (kingham, si3, si4) or JSON file")
    parser.add_argument("--phi", type=float, default=4.9,
                        help="work function in eV (default 4.9 for every species; "
                             "Rh's tabulated crossover needs 4.8)")
    parser.add_argument("--lambda", dest="screening", type=float, default=0.0,
                        help="screening length in nm (default 0)")
    parser.add_argument("--grid", default="5:45:0.1", help="field grid lo:hi:step in V/nm")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the configuration and exit")


def _resolve_model(args: argparse.Namespace) -> None:
    """Replace the model flags' text by what it names; ``args.species_count`` is
    "one" or "some"."""
    species = [sp for ref in args.species for sp in resolve_species(ref)]
    if not species:
        raise ConfigError("no species given (use --species)")
    if args.species_count == "one" and len(species) != 1:
        raise ConfigError("this command takes exactly one --species")
    if not 0.0 < args.phi <= 10.0:
        raise ConfigError(f"work function {args.phi} eV outside (0, 10]")
    args.species = tuple(species)
    args.env = Environment(work_function_ev=args.phi, screening_length_nm=args.screening)
    if "zmodel" in args:
        args.zmodel = _resolve_zmodel(args.zmodel)
    args.grid = _parse_grid(args.grid)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _search(args: argparse.Namespace) -> tuple[float, float]:
    return args.grid.low_vnm, args.grid.high_vnm


def cmd_curves(args: argparse.Namespace) -> int:
    def note(message: str) -> None:
        if args.verbose:
            print(message, file=sys.stderr)

    multiple = len(args.species) > 1
    if multiple and args.out is None:
        raise ConfigError("several species need --out pointing at a directory")
    if multiple or (args.out is not None and os.path.isdir(args.out)):
        os.makedirs(args.out, exist_ok=True)
    for sp in args.species:
        note(f"curve {sp.name} on {args.grid.low_vnm}:{args.grid.high_vnm}:"
             f"{args.grid.step_vnm}")
        curve = curves.generate_curve(sp, args.env, args.zmodel, args.grid)
        if args.out is None:
            curves.dump_curve_csv(curve, sys.stdout)
        else:
            target = args.out
            if os.path.isdir(target):
                target = os.path.join(target, f"{sp.name.lower()}_curve.csv")
            curves.write_curve_csv(curve, target)
            note(f"wrote {target}")
    return 0


def cmd_f50(args: argparse.Namespace) -> int:
    rows = [(sp.name, curves.find_f50(sp, args.env, args.zmodel, _search(args)))
            for sp in args.species]
    if args.fmt == "json":
        payload = {name: {"f50_vnm": r.f50_vnm, "bracket_vnm": list(r.bracket_vnm)}
                   for name, r in rows}
        _emit(_json_dumps(payload), args.out)
    elif args.fmt == "csv":
        lines = ["species,f50_Vnm"] + [f"{name},{r.f50_vnm:.9g}" for name, r in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        _emit("".join(f"{name}: F50 = {r.f50_vnm:.9g} V/nm\n" for name, r in rows),
              args.out)
    return 0


def cmd_fit_z(args: argparse.Namespace) -> int:
    report = calibrate.fit_z_offset(args.species[0], args.env, args.target,
                                    c1=args.c1, search_vnm=_search(args))
    _emit(_json_dumps(asdict(report)), args.out)
    return 0


def cmd_fit_ie(args: argparse.Namespace) -> int:
    report = calibrate.fit_ie(args.species[0], args.env, args.zmodel, args.target,
                              ie_index=args.ie_index, search_vnm=_search(args))
    _emit(_json_dumps(asdict(report)), args.out)
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --values {args.values!r}: {exc}") from exc
    if not values:
        raise ConfigError("no scan values given")
    points = calibrate.sensitivity_scan(args.species[0], args.env, args.zmodel,
                                        args.parameter, values, search_vnm=_search(args))
    if args.fmt == "json":
        _emit(_json_dumps([asdict(p) for p in points]), args.out)
    else:
        lines = ["parameter,value,f50_Vnm"]
        lines += [f"{p.parameter},{p.value:.9g},{p.f50_vnm:.9g}" for p in points]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_deconv(args: argparse.Namespace) -> int:
    peak_set = spectrum.read_peaks_csv(args.peaks)
    matrix = spectrum.build_overlap_matrix(peak_set, spectrum.load_isotopes(args.isotopes))
    result = spectrum.deconvolve(peak_set, matrix)

    def labelled(values: dict) -> dict:
        return {spectrum.state_label(*state): v for state, v in values.items()}

    payload = {
        "totals": labelled(result.totals),
        "solver_totals": labelled(result.solver_totals),
        "residual_norm": result.residual_norm,
        "unassigned_counts": sum(result.unassigned),
        "per_peak": [{"mz_Da": mz, "contributions": labelled(row)}
                     for mz, row in zip(matrix.peak_mz_da, result.per_peak)],
    }
    _emit(_json_dumps(payload), args.out)
    return 0


def cmd_csr(args: argparse.Namespace) -> int:
    peak_set = spectrum.read_peaks_csv(args.peaks)
    pair = (args.charge_low, args.charge_high)
    if args.raw:
        estimate = spectrum.raw_csr(peak_set, args.name, pair)
    else:
        matrix = spectrum.build_overlap_matrix(peak_set,
                                               spectrum.load_isotopes(args.isotopes))
        estimate = spectrum.compute_csr(spectrum.deconvolve(peak_set, matrix),
                                        args.name, pair)
    _emit(_json_dumps(asdict(estimate)), args.out)
    return 0


def cmd_field(args: argparse.Namespace) -> int:
    curve = curves.read_curve_csv(args.curve)
    estimate = curves.csr_to_field(curve, args.csr, args.two_sigma)
    _emit(_json_dumps(asdict(estimate)), args.out)
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    base_dir = args.base_dir if args.base_dir is not None else os.path.dirname(
        os.path.abspath(args.config))
    report = pipeline.run_pipeline(pipeline.load_pipeline_config(args.config),
                                   base_dir)
    if args.fmt == "json":
        _emit(report.to_json() + "\n", args.out)
    else:
        _emit(report.to_text(), args.out)
    return 0


def cmd_kellogg(args: argparse.Namespace) -> int:
    value = pipeline.kellogg_field(args.voltage, args.f0, args.v0)
    if args.fmt == "json":
        _emit(_json_dumps({"field_vnm": value}), args.out)
    else:
        _emit(f"{value:.9g}\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfikit",
        description="Post-field-ionization charge-state ratios, crossover "
                    "fields, calibration fits, and overlap-resolved spectra.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str, formats: tuple[str, ...],
                species_count: str | None = None,
                zmodel: bool = True) -> argparse.ArgumentParser:
        """A subcommand writing ``formats``, the first by default; one that takes
        species (one or some) also takes the other model flags and --dry-run."""
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler, species_count=species_count)
        if species_count is not None:
            _model_flags(p, zmodel)
        p.add_argument("--out", default=None, help="output file (or directory "
                       "for curves); default stdout")
        p.add_argument("--format", dest="fmt", choices=formats, default=formats[0])
        return p

    p = command("curves", cmd_curves, "write CSR-vs-field curves as CSV", ("csv",), "some")
    p.add_argument("--verbose", action="store_true", help="report each curve on stderr")
    command("f50", cmd_f50, "field where the CSR crosses 0.5", ("text", "json", "csv"),
            "some")

    p = command("fit-z", cmd_fit_z, "fit the Z-model offset c0 to a target F50", ("json",),
                "one", zmodel=False)
    p.add_argument("--target", type=float, required=True, help="target F50 in V/nm")
    p.add_argument("--c1", type=float, default=1.0, help="fixed c1 coefficient")

    p = command("fit-ie", cmd_fit_ie, "fit one ionization energy to a target F50",
                ("json",), "one")
    p.add_argument("--target", type=float, required=True, help="target F50 in V/nm")
    p.add_argument("--ie-index", type=int, default=2,
                   help="1-based ladder index to vary (default 2)")

    p = command("scan", cmd_scan, "F50 sensitivity scan over m_q or phi", ("csv", "json"),
                "one")
    p.add_argument("--parameter", choices=("m_q", "phi"), required=True)
    p.add_argument("--values", required=True, help="comma-separated values")

    p = command("deconv", cmd_deconv, "isotope-constrained peak deconvolution", ("json",))
    p.add_argument("--peaks", required=True, help="ranged peaks CSV")
    p.add_argument("--isotopes", default=None, help="isotope table JSON")

    p = command("csr", cmd_csr, "charge-state ratio with counting statistics", ("json",))
    p.add_argument("--peaks", required=True, help="ranged peaks CSV")
    p.add_argument("--name", required=True, help="species name in the peak table")
    p.add_argument("--charge-low", type=int, default=1)
    p.add_argument("--charge-high", type=int, default=2)
    p.add_argument("--raw", action="store_true",
                   help="primary-assignment CSR, no deconvolution")
    p.add_argument("--isotopes", default=None, help="isotope table JSON")

    p = command("field", cmd_field, "invert a curve at a measured CSR", ("json",))
    p.add_argument("--curve", required=True, help="curve CSV")
    p.add_argument("--csr", type=float, required=True)
    p.add_argument("--two-sigma", type=float, default=None)

    p = command("resolve", cmd_resolve, "run the overlap-resolution pipeline",
                ("text", "json"))
    p.add_argument("--config", required=True, help="pipeline JSON config")
    p.add_argument("--base-dir", default=None,
                   help="directory for files named in the config "
                        "(default: the config's directory)")

    p = command("kellogg", cmd_kellogg, "field from voltage by proportional rescaling",
                ("text", "json"))
    p.add_argument("--voltage", type=float, required=True, help="specimen voltage in V")
    p.add_argument("--f0", type=float, required=True, help="reference field in V/nm")
    p.add_argument("--v0", type=float, required=True, help="reference voltage in V")

    return parser


def run(action: Callable[[], int | None]) -> int:
    """Exit code of ``action()``: its return value (None reads 0), or, when it raises a
    pfikit error or fails to write, the error's code after one line on stderr."""
    try:
        return action() or 0
    except PfiKitError as exc:
        print(f"pfikit: error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    except OSError as exc:
        # input files are read through species.read_text, so this is a failed write
        print(f"pfikit: error: cannot write output: {exc}", file=sys.stderr)
        return ConfigError.exit_code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    def command() -> int:
        if args.species_count is not None:
            _resolve_model(args)
            if args.dry_run:
                names = ", ".join(sp.name for sp in args.species)
                print(f"dry run: {args.command} configuration is valid; species: {names}",
                      file=sys.stderr)
                return 0
        return args.handler(args)

    return run(command)


if __name__ == "__main__":
    sys.exit(main())
