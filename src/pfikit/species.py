"""Species parameters (mass, ionization-energy ladder, quantum number) and asset loading."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


def asset_dir() -> Path:
    """Shipped asset directory; overridable via the PFIKIT_ASSETS env var."""
    override = os.environ.get("PFIKIT_ASSETS")
    if override:
        return Path(override)
    return Path(__file__).parent / "assets"


def asset_path(name: str) -> Path:
    path = asset_dir() / name
    if not path.exists():
        raise ConfigError(f"asset {name} not found in {asset_dir()}")
    return path


def read_text(path: str | os.PathLike, what: str) -> str:
    """Text of the input file ``path``, read as UTF-8; a file that cannot be opened or
    decoded raises ConfigError naming ``what`` it was to hold."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_json(path: str | os.PathLike, what: str):
    """The JSON value in the input file ``path`` (see :func:`read_text`); text that does
    not parse, or nests too deep to parse, raises ConfigError."""
    text = read_text(path, what)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot parse {what} {path}: {exc}") from exc


def json_int(value) -> int:
    """``value`` if it is a JSON integer that a float can hold; a fraction, string, bool,
    null or larger integer raises TypeError, so no input is truncated or split into
    characters."""
    if type(value) is not int or abs(value) > sys.float_info.max:
        raise TypeError(f"expected an integer that a float can hold, got {reprlib.repr(value)}")
    return value


def json_float(value) -> float:
    """``value`` as a float if it is a finite JSON number; a bool, string, null, list,
    object, NaN, +-Infinity or an integer too large for a float raises TypeError."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise TypeError(f"expected a finite number, got {reprlib.repr(value)}")
    return float(value)


@dataclass(frozen=True)
class SpeciesParams:
    """An atomic or cluster ion species.

    ie_ladder_ev holds I_1..I_K in eV, finite and strictly increasing; m_q is the
    principal quantum number of the tunneling electron.
    """

    name: str
    mass_amu: float
    ie_ladder_ev: tuple[float, ...]
    m_q: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "ie_ladder_ev", tuple(float(x) for x in self.ie_ladder_ev))
        if not self.name:
            raise ConfigError("species name must be non-empty")
        if not 0.0 < self.mass_amu < math.inf:
            raise ConfigError(f"{self.name}: mass must be positive and finite, "
                              f"got {self.mass_amu} amu")
        if self.m_q < 1:
            raise ConfigError(f"{self.name}: m_q must be >= 1")
        if len(self.ie_ladder_ev) < 2:
            raise ConfigError(f"{self.name}: ie_ladder needs at least I_1 and I_2")
        if not all(map(math.isfinite, self.ie_ladder_ev)):
            raise ConfigError(f"{self.name}: ie_ladder entries must be finite")
        for lo, hi in zip(self.ie_ladder_ev, self.ie_ladder_ev[1:]):
            if not hi > lo:
                raise ConfigError(f"{self.name}: ie_ladder must be strictly increasing")

    @property
    def max_charge(self) -> int:
        """Highest charge state the ladder supports."""
        return len(self.ie_ladder_ev)

    def ie_ev(self, n: int) -> float:
        """I_n in eV (1-based)."""
        if not 1 <= n <= len(self.ie_ladder_ev):
            raise ConfigError(f"{self.name}: no I_{n} in ladder of length {len(self.ie_ladder_ev)}")
        return self.ie_ladder_ev[n - 1]

    def with_ie(self, n: int, value_ev: float) -> "SpeciesParams":
        """Copy with I_n replaced (ladder revalidated)."""
        ladder = list(self.ie_ladder_ev)
        if not 1 <= n <= len(ladder):
            raise ConfigError(f"{self.name}: no I_{n} in ladder of length {len(ladder)}")
        ladder[n - 1] = float(value_ev)
        return dataclasses.replace(self, ie_ladder_ev=tuple(ladder))


def _species_from_dict(entry: dict) -> SpeciesParams:
    try:
        ladder = entry["ie_ladder_ev"]
        if not isinstance(ladder, list):
            raise TypeError(f"ie_ladder_ev must be a list, got {ladder!r}")
        return SpeciesParams(
            name=str(entry["name"]),
            mass_amu=json_float(entry["mass_amu"]),
            ie_ladder_ev=tuple(map(json_float, ladder)),
            m_q=json_int(entry["m_q"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed species entry {entry!r}: {exc}") from exc


def load_species_file(path: str | Path) -> list[SpeciesParams]:
    """Load a species JSON file: either one object or {"species": [...]}."""
    raw = read_json(path, "species file")
    entries = raw.get("species", [raw]) if isinstance(raw, dict) else raw
    if not (isinstance(entries, list) and entries):
        raise ConfigError(f"no species in {path}: expected an object, a list of objects "
                          "or {\"species\": [...]}")
    return [_species_from_dict(e) for e in entries]


def builtin_species() -> dict[str, SpeciesParams]:
    """All shipped species keyed by lowercase name."""
    table: dict[str, SpeciesParams] = {}
    for fname in ("si_clusters.json", "rh.json"):
        for sp in load_species_file(asset_path(fname)):
            table[sp.name.lower()] = sp
    return table


def resolve_species(ref: str) -> list[SpeciesParams]:
    """Resolve a CLI species reference: a JSON path, or a shipped species name."""
    path = Path(ref)
    if path.exists():
        return load_species_file(path)
    sp = builtin_species().get(ref.lower())
    if sp is None:
        raise ConfigError(f"unknown species {ref!r}: not a file and not a shipped name")
    return [sp]
