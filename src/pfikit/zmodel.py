"""Effective nuclear potential Z(n, z0) = n + c0 + c1/z0 and its asset loader."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
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

    def z(self, n: int, z0_au):
        """Z for source charge state n at distance z0 (a.u.), a float or an array."""
        if not np.greater(z0_au, 0.0).all():
            raise DomainError(f"z0 must be > 0 a.u., got {z0_au}")
        return n + self.c0 + self.c1 / z0_au


KINGHAM_Z = ZModel(c0=1.0, c1=4.5)


def load_zmodel(path: str | os.PathLike) -> ZModel:
    raw = read_json(path, "Z-model file")
    try:
        return ZModel(c0=json_float(raw["c0"]), c1=json_float(raw["c1"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed Z-model file {path}: {exc}") from exc
