"""Calibrate the larger silicon clusters against measured crossover fields.

Two one-parameter routes reconcile Si3 and Si4 with observation: lowering the
Z-model offset c0 (weaker effective screening of the tunneling electron) or
raising the second ionization energy within +/-30 % of nominal.  The Si4
target of 17.0 V/nm is a stand-in pending a measured value, and its printed
lines are tagged accordingly.

Usage: python scripts/refit_z_and_ie.py
"""

from __future__ import annotations

import sys

from pfikit import Environment, KINGHAM_Z, fit_ie, fit_z_offset, resolve_species
from pfikit.cli import run

TARGETS_VNM = {"si3": 17.7, "si4": 17.0}
SI4_NOTE = "target 17.0 V/nm is a stand-in, not a measured crossover"


def main() -> None:
    env = Environment(work_function_ev=4.9)
    for name, target in TARGETS_VNM.items():
        species = resolve_species(name)[0]
        tag = f"  [{SI4_NOTE}]" if name == "si4" else ""

        z_report = fit_z_offset(species, env, target)
        print(f"{species.name}: c0 = {z_report.fitted_value:.4f} "
              f"(F50 {z_report.achieved_f50_vnm:.4f} V/nm, "
              f"target {target}, residual {z_report.residual_vnm:+.4f}){tag}")

        ie_report = fit_ie(species, env, KINGHAM_Z, target)
        print(f"{species.name}: I2 = {ie_report.fitted_value:.4f} eV "
              f"(nominal {ie_report.nominal_value}, "
              f"shift {100 * ie_report.relative_shift:+.2f} %){tag}")


if __name__ == "__main__":
    sys.exit(run(main))
