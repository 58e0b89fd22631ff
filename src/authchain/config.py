"""The one configuration type, validated on construction and read by the
CLI, `harness.setup_world` and `model.train`; flat key=value files."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .ledger import DEFAULT_BATCH_SIZE, DEFAULT_FRESHNESS_WINDOW
from .storage import DEFAULT_BAN_THRESHOLD, DEFAULT_BAN_WINDOW, DEFAULT_LINK_TTL


@dataclass(frozen=True)
class Config:
    validators: int = 3
    users: int = 100
    resources: int = 50
    seed: int = 0
    freshness_window: int = DEFAULT_FRESHNESS_WINDOW
    ban_threshold: int = DEFAULT_BAN_THRESHOLD
    ban_window: int = DEFAULT_BAN_WINDOW
    batch_size: int = DEFAULT_BATCH_SIZE
    link_ttl: int = DEFAULT_LINK_TTL
    learning_rate: float = 1.0
    epochs: int = 800
    hidden: tuple[int, ...] = (32, 16)
    threshold: float = 0.5
    chain_path: str = "chain.jsonl"
    state_path: str = "state.json"
    log_path: str = "malicious_log.jsonl"
    weights_path: str = "weights.bin"
    report_path: str = "scenario_reports.json"

    def __post_init__(self) -> None:
        if self.validators <= 2:
            raise ConfigError(f"validators must exceed 2, got {self.validators}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        positive = (
            "users", "resources", "freshness_window", "ban_threshold",
            "ban_window", "batch_size", "link_ttl", "epochs",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.hidden or any(h <= 0 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")


_DEFAULTS = {f.name: f.default for f in fields(Config)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key == "hidden":
            return tuple(int(part) for part in raw.split(",") if part.strip())
        return type(_DEFAULTS[key])(raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None


def read_config_values(path) -> dict[str, object]:
    """Parse a key=value file into the values it sets, unvalidated, so the
    CLI can let a flag repair a value the file got wrong."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, raw = line.split("=", 1)
            key = key.strip()
            if key not in _DEFAULTS:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    return values


def load_config(path) -> Config:
    """Parse a key=value file; absent keys keep their defaults."""
    return Config(**read_config_values(path))
