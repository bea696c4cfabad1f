"""How strongly the Si3 crossover field depends on m_q and the work function.

The principal quantum number enters only through the rate prefactor, so the
F50 barely moves even for extreme values; the work function shifts the
critical distance and moves the crossover with it.

Usage: python scripts/sensitivity_scan.py [--species si3]
"""

from __future__ import annotations

import argparse
import sys

from pfikit import Environment, KINGHAM_Z, resolve_species, sensitivity_scan
from pfikit.cli import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--species", default="si3")
    args = parser.parse_args()

    species = resolve_species(args.species)[0]
    env = Environment(work_function_ev=4.9)

    print("m_q scan (phi = 4.9 eV):")
    for point in sensitivity_scan(species, env, KINGHAM_Z, "m_q", range(3, 10, 2)):
        print(f"  m_q = {point.value:3.0f}   F50 = {point.f50_vnm:8.4f} V/nm")

    phis = [4.9 * s for s in (0.8, 0.9, 1.0, 1.1, 1.2)]
    print("work-function scan (m_q = 3):")
    for point in sensitivity_scan(species, env, KINGHAM_Z, "phi", phis):
        print(f"  phi = {point.value:5.2f} eV   F50 = {point.f50_vnm:8.4f} V/nm")


if __name__ == "__main__":
    sys.exit(run(main))
