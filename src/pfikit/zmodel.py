"""Effective nuclear potential Z(n, z0) = n + c0 + c1/z0 and its asset loader."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .errors import ConfigError
from .species import json_float, read_json


@dataclass(frozen=True)
class ZModel:
    """Coefficients of the effective nuclear potential seen by the tunneling electron."""

    c0: float
    c1: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.c1 < math.inf:
            raise ConfigError(f"ZModel c1 must be finite and >= 0, got {self.c1}")
        # Z(1, z0) = 1 + c0 + c1/z0 stays positive at every z0 only for c0 > -1
        if not -1.0 < self.c0 < math.inf:
            raise ConfigError(f"ZModel c0 must be finite and > -1, got {self.c0}")


KINGHAM_Z = ZModel(c0=1.0, c1=4.5)


def load_zmodel(path: str | os.PathLike) -> ZModel:
    raw = read_json(path, "Z-model file")
    try:
        return ZModel(c0=json_float(raw["c0"]), c1=json_float(raw["c1"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed Z-model file {path}: {exc}") from exc
