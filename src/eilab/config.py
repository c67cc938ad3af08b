"""Experiment configuration: a flat, human-editable key = value file.

All numeric values are decimal strings (plus the named constant ``sqrt_pi``
for the Gaussian amplitude), never binary floats, so a 300-digit value
reaches the run, and the report that records the config, exactly as written.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def grid(self) -> CandidateGrid:
        extra_raw = self.get("grid.extra")
        extra = tuple(part.strip() for part in extra_raw.split(",") if part.strip())
        return CandidateGrid(
            epsilon=self.get("grid.epsilon"),
            l_max=self._int("grid.l_max"),
            extra_points=extra,
        )

    @property
    def x1(self) -> str:
        return self.get("x1")

    def spectral_range(self) -> tuple[int, int]:
        return self._int("spectral.k_min"), self._int("spectral.k_max")

    def verify_params(self) -> dict:
        return {
            "trials": self._int("verify.trials"),
            "k_max": self._int("verify.k_max"),
            "h_values": [
                part.strip()
                for part in self.get("verify.h_values").split(",")
                if part.strip()
            ],
        }


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
