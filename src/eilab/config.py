"""Experiment configuration: a flat, human-editable key = value file.

All numeric values are decimal strings (plus the named constant ``sqrt_pi``
for the Gaussian amplitude), never binary floats, so a 300-digit value
reaches the run, and the report that records the config, exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import mpmath

from .ei import CandidateGrid
from .errors import ConfigError
from .kernels import GaussianKernel, OrnsteinUhlenbeckKernel, SpectralPowerKernel
from .precision import PrecisionContext

# Every key with its default, in the canonical order: a config holds every
# key, and reports record them in this order.
DEFAULTS = {
    "digits": "300",
    "guard_digits": "20",
    "seed": "0",
    "out": "eilab-out",
    "steps": "9",
    "x1": "0",
    "objective": "neg_kernel",
    "jitter": "0",
    "kernel.variant": "gaussian",
    "kernel.a": "0.25",
    "kernel.b": "",
    "kernel.c0": "1",
    "kernel.gamma": "sqrt_pi",
    "kernel.theta": "1",
    "grid.epsilon": "0.02",
    "grid.l_max": "10000",
    "grid.extra": "",
    "spectral.k_min": "2",
    "spectral.k_max": "50",
    "verify.trials": "20",
    "verify.k_max": "25",
    "verify.h_values": "0,0.5,1,2,5,20",
}


def _decimal(key: str, text: str) -> str:
    """``text`` as written if it parses as a finite decimal; else ``ConfigError``."""
    try:
        if mpmath.isfinite(mpmath.mpf(text)):
            return text
    except ValueError:
        pass
    raise ConfigError(f"config field {key!r}: not a finite decimal: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """An immutable mapping of config keys to their raw string values."""

    entries: tuple = field(default_factory=tuple)

    @classmethod
    def from_mapping(cls, mapping=None) -> "ExperimentConfig":
        values = dict(DEFAULTS)
        if mapping:
            for key, value in mapping.items():
                if key not in values:
                    raise ConfigError(f"unknown config key {key!r}")
                values[key] = str(value)
        return cls(entries=tuple(values.items()))

    @classmethod
    def default(cls) -> "ExperimentConfig":
        return cls.from_mapping()

    def replaced(self, **overrides) -> "ExperimentConfig":
        return ExperimentConfig.from_mapping({**dict(self.entries), **overrides})

    def get(self, key: str) -> str:
        for k, v in self.entries:
            if k == key:
                return v
        raise ConfigError(f"unknown config key {key!r}")

    # Typed accessors -----------------------------------------------------

    def _int(self, key: str) -> int:
        raw = self.get(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"config field {key!r}: not an integer: {raw!r}")

    @property
    def digits(self) -> int:
        return self._int("digits")

    @property
    def seed(self) -> int:
        return self._int("seed")

    @property
    def steps(self) -> int:
        return self._int("steps")

    @property
    def out(self) -> str:
        return self.get("out")

    @property
    def objective(self) -> str:
        return self.get("objective")

    @property
    def jitter(self) -> bool:
        raw = self.get("jitter")
        if raw in ("0", "false", ""):
            return False
        if raw in ("1", "true"):
            return True
        raise ConfigError(f"config field 'jitter': expected 0/1, got {raw!r}")

    def precision(self) -> PrecisionContext:
        return PrecisionContext(digits=self.digits, guard_digits=self._int("guard_digits"))

    def kernel(self):
        variant = self.get("kernel.variant")
        gamma = self.get("kernel.gamma")
        if variant == "gaussian":
            return GaussianKernel(a=self.get("kernel.a"), gamma=gamma)
        if variant == "spectral":
            b = self.get("kernel.b")
            if not b:
                raise ConfigError("config field 'kernel.b': required for spectral variant")
            return SpectralPowerKernel(
                a=self.get("kernel.a"), b=b, c0=self.get("kernel.c0"), gamma=gamma
            )
        if variant == "ou":
            return OrnsteinUhlenbeckKernel(theta=self.get("kernel.theta"), gamma=gamma)
        raise ConfigError(
            f"config field 'kernel.variant': unknown variant {variant!r} "
            "(expected gaussian, spectral, or ou)"
        )

    def _decimals(self, key: str) -> list:
        """The comma-separated values of ``key``, each checked by ``_decimal``."""
        return [_decimal(key, part.strip()) for part in self.get(key).split(",") if part.strip()]

    def grid(self) -> CandidateGrid:
        return CandidateGrid(
            epsilon=_decimal("grid.epsilon", self.get("grid.epsilon")),
            l_max=self._int("grid.l_max"),
            extra_points=tuple(self._decimals("grid.extra")),
        )

    @property
    def x1(self) -> str:
        return _decimal("x1", self.get("x1"))

    def spectral_range(self) -> tuple[int, int]:
        k_min, k_max = self._int("spectral.k_min"), self._int("spectral.k_max")
        if k_max < max(2, k_min):
            raise ConfigError(
                f"config field 'spectral.k_max': must be at least max(2, spectral.k_min) = {max(2, k_min)}, got {k_max}"
            )
        return k_min, k_max

    def verify_params(self) -> dict:
        trials = self._int("verify.trials")
        k_max = self._int("verify.k_max")
        h_values = self._decimals("verify.h_values")
        if trials < 1:
            raise ConfigError(f"config field 'verify.trials': must be at least 1, got {trials}")
        if k_max < 2:
            raise ConfigError(f"config field 'verify.k_max': must be at least 2, the sandwich sweep's first K, got {k_max}")
        if not h_values:
            raise ConfigError("config field 'verify.h_values': must list at least one value")
        return {"trials": trials, "k_max": k_max, "h_values": h_values}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key = value format; unknown keys and malformed lines
    are reported with their line number."""
    mapping = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in mapping:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        mapping[key] = value
    return ExperimentConfig.from_mapping(mapping)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
