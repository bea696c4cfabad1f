"""CSR-vs-field curves and 50 % crossover fields for the silicon clusters.

Writes one curve CSV per species and prints the crossover table.  The
crossover ordering (larger clusters ionize at lower fields) is the model's
headline prediction for cluster dissociation analysis.

Usage: python scripts/si_cluster_curves.py [--outdir curves_out] [--step 0.1]
"""

from __future__ import annotations

import argparse
import os
import sys

from pfikit import (Environment, FieldGrid, KINGHAM_Z, find_f50, generate_curve,
                    resolve_species, write_curve_csv)
from pfikit.cli import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="curves_out")
    parser.add_argument("--step", type=float, default=0.1, help="grid step in V/nm")
    args = parser.parse_args()

    env = Environment(work_function_ev=4.9)
    grid = FieldGrid(5.0, 45.0, args.step)
    os.makedirs(args.outdir, exist_ok=True)

    print(f"{'species':8s} {'F50 (V/nm)':>12s}")
    for name in ("si", "si2", "si3", "si4"):
        species = resolve_species(name)[0]
        curve = generate_curve(species, env, KINGHAM_Z, grid)
        path = os.path.join(args.outdir, f"{name}_curve.csv")
        write_curve_csv(curve, path)
        crossover = find_f50(species, env, KINGHAM_Z)
        print(f"{species.name:8s} {crossover.f50_vnm:12.4f}   -> {path}")


if __name__ == "__main__":
    sys.exit(run(main))
