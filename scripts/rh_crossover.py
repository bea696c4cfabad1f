"""Rhodium benchmark: crossing geometry, launch energy, and the F50 field.

At 25 V/nm the Rh+ -> Rh2+ step has its critical distance near 0.43 nm and
the ion arrives there with about 5.6 eV of kinetic energy; the 50 % crossover
sits near 25 V/nm.  Where the crossing has vanished (from about 41 V/nm at 4.8 eV)
there is no L_c and no K(L_c), and the script says so in their place.

Usage: python scripts/rh_crossover.py [--field 25] [--phi 4.8]
"""

from __future__ import annotations

import argparse
import sys

from pfikit import (Environment, KINGHAM_Z, charge_fractions, critical_distance, find_f50,
                    resolve_species)
from pfikit.cli import run
from pfikit.geometry import energy_debt_ev, kinetic_energy_unchecked


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--field", type=float, default=25.0, help="field in V/nm")
    parser.add_argument("--phi", type=float, default=4.8, help="work function in eV")
    args = parser.parse_args()

    rh = resolve_species("rh")[0]
    env = Environment(work_function_ev=args.phi)

    geometry = critical_distance(rh, env, 1, args.field)
    f1, _ = charge_fractions(rh, env, KINGHAM_Z, args.field)  # Rh has two charge states
    p_t = 1.0 - f1  # P(1->2): the share that leaves 1+
    crossover = find_f50(rh, env, KINGHAM_Z)

    print(f"field            {args.field:8.3f} V/nm")
    if geometry.l_c_nm > 0.0:
        debt_ev = energy_debt_ev(args.field, ())[0]
        k_ev = kinetic_energy_unchecked(args.field, 1, geometry.l_c_nm, debt_ev)
        print(f"L_c              {geometry.l_c_nm:8.4f} nm")
        print(f"K(L_c)           {k_ev:8.4f} eV")
    else:  # critical_distance reports a vanished crossing as L_c = 0
        print("L_c, K(L_c)      none: the 1->2 crossing has vanished")
    print(f"P(1->2)          {p_t:8.4f}")
    print(f"F50              {crossover.f50_vnm:8.4f} V/nm")


if __name__ == "__main__":
    sys.exit(run(main))
