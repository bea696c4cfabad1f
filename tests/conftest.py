"""Shared fixtures: species, environments, and a session F50 cache.

Crossover searches dominate the suite's runtime, and several test modules
need the same handful of fields, so results are memoized per (species,
environment, Z model, bracket).
"""

from __future__ import annotations

import os

import pytest

from pfikit import Environment, KINGHAM_Z, builtin_species, find_f50, load_zmodel
from pfikit.cli import NAMED_ZMODELS
from pfikit.species import asset_path

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


@pytest.fixture(scope="session")
def species_table():
    return builtin_species()


@pytest.fixture(scope="session")
def named_zmodels():
    return {name: load_zmodel(asset_path(path)) for name, path in NAMED_ZMODELS.items()}


@pytest.fixture(scope="session")
def si_env():
    return Environment(work_function_ev=4.9)


@pytest.fixture(scope="session")
def rh_env():
    return Environment(work_function_ev=4.8)


@pytest.fixture(scope="session")
def f50():
    cache: dict = {}

    def lookup(species, env, zmodel=KINGHAM_Z, search=(5.0, 45.0)):
        key = (species.name, species.ie_ladder_ev, species.m_q,
               env.work_function_ev, env.screening_length_nm,
               zmodel.c0, zmodel.c1, search)
        if key not in cache:
            cache[key] = find_f50(species, env, zmodel, search).f50_vnm
        return cache[key]

    return lookup


@pytest.fixture(scope="session")
def fixtures_dir():
    return os.path.abspath(FIXTURES_DIR)
