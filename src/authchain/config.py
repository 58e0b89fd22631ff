"""Flat key=value configuration with CLI-flag overrides."""

from __future__ import annotations

import os
from dataclasses import dataclass, fields

from .errors import ConfigError
from .harness import WorldConfig


@dataclass
class Config:
    validators: int = 3
    users: int = 100
    resources: int = 50
    seed: int = 0
    freshness_window: int = 120
    ban_threshold: int = 3
    ban_window: int = 600
    batch_size: int = 100
    link_ttl: int = 120
    learning_rate: float = 1.0
    epochs: int = 800
    hidden: tuple[int, ...] = (32, 16)
    threshold: float = 0.5
    chain_path: str = "chain.jsonl"
    state_path: str = "state.json"
    log_path: str = "malicious_log.jsonl"
    weights_path: str = "weights.bin"
    report_path: str = "scenario_reports.json"

    def validate(self) -> "Config":
        if self.validators <= 2:
            raise ConfigError(f"validators must exceed 2, got {self.validators}")
        positive = (
            "users", "resources", "freshness_window", "ban_threshold",
            "ban_window", "batch_size", "link_ttl", "epochs",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must lie in (0, 1), got {self.threshold}")
        if not self.hidden or any(h <= 0 for h in self.hidden):
            raise ConfigError(f"hidden widths must be positive, got {self.hidden}")
        return self

    def world_config(self) -> WorldConfig:
        return WorldConfig(
            freshness_window=self.freshness_window,
            ban_threshold=self.ban_threshold,
            ban_window=self.ban_window,
            batch_size=self.batch_size,
            link_ttl=self.link_ttl,
            threshold=self.threshold,
            learning_rate=self.learning_rate,
            epochs=self.epochs,
            hidden=self.hidden,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(Config)}


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    if key == "hidden":
        try:
            widths = tuple(int(part) for part in raw.split(",") if part.strip())
        except ValueError:
            raise ConfigError(f"invalid value for hidden: {raw!r}") from None
        return widths
    default = getattr(Config(), key)
    try:
        if isinstance(default, bool):
            return raw.lower() in ("1", "true", "yes", "on")
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"invalid value for {key}: {raw!r}") from None


def load_config(path, validate: bool = True) -> Config:
    """Parse a key=value file; absent keys keep their defaults.

    The CLI defers validation until its flag overrides are applied, so a
    flag can repair a value the file got wrong.
    """
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
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _parse_value(key, raw)
    cfg = Config(**values)
    return cfg.validate() if validate else cfg
