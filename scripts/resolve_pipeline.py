"""Run the full overlap-resolution pipeline on the bundled InGaAs-like case.

Estimates the field from the In charge-state ratio, budgets the 75 Da and
150 Da shared peaks, and prints the audited report.  This fixture is built
to be inconsistent in four distinct ways; see the flags section.

Usage: python scripts/resolve_pipeline.py [--config fixtures/as_pipeline.json]
"""

from __future__ import annotations

import argparse
import os
import sys

from pfikit import load_pipeline_config, run_pipeline
from pfikit.cli import run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default="fixtures/as_pipeline.json")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    args = parser.parse_args()

    base_dir = os.path.dirname(os.path.abspath(args.config))
    report = run_pipeline(load_pipeline_config(args.config), base_dir)
    print(report.to_json() if args.json else report.to_text(), end="")


if __name__ == "__main__":
    sys.exit(run(main))
