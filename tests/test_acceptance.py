"""Headline reproduction targets, one test per shipped guarantee.

Each test pins a deliverable number (or behavior) at its advertised
tolerance; anything tighter lives in the per-module suites.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np
import pytest

from pfikit import (
    KINGHAM_Z,
    Assignment,
    FieldGrid,
    Peak,
    RangedPeakSet,
    ZModel,
    build_overlap_matrix,
    charge_fractions,
    critical_distance,
    deconvolve,
    generate_curve,
    isotopologue_distribution,
    load_isotopes,
    load_pipeline_config,
    pfi_step_probability,
    read_curve_csv,
    run_pipeline,
    sensitivity_scan,
)
from pfikit.cli import main as cli_main
from pfikit.geometry import energy_debt_ev, kinetic_energy_unchecked


def test_c01_si_crossover_with_defaults(species_table, si_env, f50):
    assert f50(species_table["si"], si_env) == pytest.approx(19.6, abs=0.4)


@pytest.mark.parametrize("name,target,tol", [("si2", 18.0, 0.4),
                                             ("si3", 14.4, 0.4),
                                             ("si4", 13.0, 0.5)])
def test_c02_cluster_crossovers(species_table, si_env, f50, name, target, tol):
    assert f50(species_table[name], si_env) == pytest.approx(target, abs=tol)


def test_c03_rh_critical_point_at_25(species_table, rh_env):
    rh = species_table["rh"]
    geo = critical_distance(rh, rh_env, 1, 25.0)
    assert geo.l_c_nm == pytest.approx(0.43, abs=0.005)
    k = kinetic_energy_unchecked(25.0, 1, geo.l_c_nm, energy_debt_ev(25.0, ())[0])
    assert k == pytest.approx(5.58, abs=0.10)


def test_c04_rh_crossover(species_table, rh_env, f50):
    assert f50(species_table["rh"], rh_env) == pytest.approx(25.0, abs=2.0)


def test_c05_refit_z_models(species_table, si_env, f50):
    si3 = species_table["si3"]
    assert f50(si3, si_env, ZModel(c0=0.55, c1=1.0)) == pytest.approx(17.7, abs=0.4)
    si4 = species_table["si4"]
    assert f50(si4, si_env, ZModel(c0=0.28, c1=1.0)) <= 17.4


def test_c06_refit_second_ionization_energy(species_table, si_env, f50):
    softened = species_table["si3"].with_ie(2, 15.80)
    assert f50(softened, si_env) == pytest.approx(17.7, abs=0.4)


def test_c07_sensitivity_of_the_crossover(species_table, si_env):
    si3 = species_table["si3"]
    points = sensitivity_scan(si3, si_env, KINGHAM_Z, "m_q", (3, 9))
    assert points[-1].f50_vnm == pytest.approx(15.1, abs=0.2)
    points = sensitivity_scan(si3, si_env, KINGHAM_Z, "phi", (3.92,))
    assert points[0].f50_vnm == pytest.approx(15.6, abs=0.2)


def test_c08_model_invariants(species_table, si_env, rh_env):
    # step probabilities are probabilities and fractions are a partition
    for name, env in (("si", si_env), ("si4", si_env), ("rh", rh_env)):
        sp = species_table[name]
        for field in (8.0, 15.0, 22.0, 30.0, 42.0):
            assert 0.0 <= pfi_step_probability(sp, env, KINGHAM_Z, 1, field) <= 1.0
            fr = charge_fractions(sp, env, KINGHAM_Z, field)
            assert abs(math.fsum(fr) - 1.0) <= 1e-12

    # CSR never falls with field for any shipped species
    for name in ("si", "si2", "si3", "si4", "rh"):
        env = rh_env if name == "rh" else si_env
        curve = generate_curve(species_table[name], env, KINGHAM_Z,
                               FieldGrid(5.0, 45.0, 2.0))
        assert all(b - a >= -1e-12 for a, b in zip(curve.csr, curve.csr[1:]))

    # the critical distance satisfies its defining quadratic
    from pfikit import CONSTANTS
    si = species_table["si"]
    for field in (10.0, 19.6, 28.0):
        geo = critical_distance(si, si_env, 1, field)
        a = si.ie_ladder_ev[1] - si_env.work_function_ev
        residual = field * geo.l_c_nm - a + 3.0 * CONSTANTS.c_image_evnm / geo.l_c_nm
        assert abs(residual) < 1e-9

    # the first-step kinetic energy has its double zero on the hump
    for field in (10.0, 20.0, 35.0):
        l_i = critical_distance(si, si_env, 1, field).l_i_nm
        assert abs(kinetic_energy_unchecked(field, 1, l_i, energy_debt_ev(field, ())[0])) < 1e-9

    # isotopologue distributions agree with brute-force enumeration (k = 4)
    isotopes = load_isotopes()
    table = isotopes.element("Si")
    enumerated: dict[int, float] = {}
    for combo in itertools.product(table, repeat=4):
        mass = sum(iso.mass_number for iso in combo)
        prob = math.prod(iso.abundance for iso in combo)
        enumerated[mass] = enumerated.get(mass, 0.0) + prob
    for mass, prob in isotopologue_distribution(isotopes, "Si", 4):
        assert prob == pytest.approx(enumerated[mass], abs=1e-12)

    # deconvolution: exact noiseless recovery, unbiased under Poisson noise
    truth = {("Si", 1): 2.0e5, ("Si2", 2): 1.5e4}
    lines: dict[float, list[Assignment]] = {}
    for (species, charge), _ in truth.items():
        element_size = 1 if species == "Si" else 2
        for mass, _ in isotopologue_distribution(isotopes, "Si", element_size):
            mz = mass / charge
            lines.setdefault(mz, []).append(Assignment(species, charge, mass))
    skeleton = RangedPeakSet(tuple(Peak(mz, 0.0, tuple(lines[mz]))
                                   for mz in sorted(lines)))
    matrix = build_overlap_matrix(skeleton, isotopes)
    x = np.array([truth[c] for c in matrix.columns])
    model = matrix.values @ x
    clean = RangedPeakSet(tuple(Peak(p.mz_da, float(c), p.assignments)
                                for p, c in zip(skeleton.peaks, model)))
    result = deconvolve(clean, matrix)
    for column, expected in truth.items():
        assert result.totals[column] == pytest.approx(expected, rel=1e-6)
    rng = np.random.default_rng(20240817)
    draws = {c: [] for c in matrix.columns}
    for _ in range(30):
        noisy = RangedPeakSet(tuple(
            Peak(p.mz_da, float(c), p.assignments)
            for p, c in zip(skeleton.peaks, rng.poisson(model))))
        sampled = deconvolve(noisy, matrix)
        for column in matrix.columns:
            draws[column].append(sampled.solver_totals[column])
    for column, values in draws.items():
        arr = np.array(values)
        assert abs(arr.mean() - truth[column]) <= 4.0 * arr.std(ddof=1) / math.sqrt(30)


def test_c09_overlap_pipeline_flags(fixtures_dir):
    config = load_pipeline_config(os.path.join(fixtures_dir, "as_pipeline.json"))
    report = run_pipeline(config, base_dir=fixtures_dir)
    assert [f.kind for f in report.flags] == [
        "composition_exceeds_nominal",
        "predicted_counts_exceed_peak",
        "unexpected_charge_state_present",
        "csr_prediction_mismatch",
    ]
    assert report.flags[0].subject == "As"
    assert report.flags[2].subject == "As:3+"
    assert report.flags[3].subject == "As3"
    assert "As3" in report.narrative()


def test_c10_curve_export_round_trip(tmp_path, capsys):
    out = tmp_path / "curves"
    assert cli_main(["curves", "--species", "si", "--species", "rh",
                     "--grid", "5:45:1", "--out", str(out)]) == 0
    capsys.readouterr()
    for name in ("si_curve.csv", "rh_curve.csv"):
        curve = read_curve_csv(out / name)
        assert len(curve.field_grid_vnm) == 41
        assert all(b - a >= -1e-12 for a, b in zip(curve.csr, curve.csr[1:]))
        crossings = sum(1 for a, b in zip(curve.csr, curve.csr[1:])
                        if (a - 0.5) * (b - 0.5) < 0.0)
        assert crossings == 1
