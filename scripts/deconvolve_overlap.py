"""Resolve the Si+/Si2(2+) and Si2+/Si4(2+) peak overlaps by isotope patterns.

On the bundled synthetic spectrum the apparent Si2 charge-state ratio is
0.048 when every peak is taken at its primary assignment; the half-integer
peaks pin the dimer and tetramer totals and the deconvolved ratio is 0.543.

Usage: python scripts/deconvolve_overlap.py [--peaks fixtures/si2_overlap_peaks.csv]
"""

from __future__ import annotations

import argparse
import sys

from pfikit import (build_overlap_matrix, compute_csr, deconvolve, load_isotopes,
                    raw_csr, read_peaks_csv)
from pfikit.cli import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--peaks", default="fixtures/si2_overlap_peaks.csv")
    args = parser.parse_args()

    peak_set = read_peaks_csv(args.peaks)
    before = raw_csr(peak_set, "Si2")
    matrix = build_overlap_matrix(peak_set, load_isotopes())
    result = deconvolve(peak_set, matrix)
    after = compute_csr(result, "Si2")

    print("totals after deconvolution:")
    for (species, charge), counts in sorted(result.totals.items()):
        print(f"  {species}:{charge}+  {counts:10.1f}")
    print(f"residual norm: {result.residual_norm:.3e}")
    print(f"Si2 CSR before {before.value:.4f} +/- {before.two_sigma:.4f}, "
          f"after {after.value:.4f} +/- {after.two_sigma:.4f}")


if __name__ == "__main__":
    sys.exit(run(main))
