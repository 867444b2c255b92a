"""Configuration: a small key = value file format plus defaults.

Lines are `key = value`; blank lines and `#` comments are ignored.  The
same format configures the running system (listen addresses, store root,
thresholds) and, separately, synthesis parameters for the device
simulator.  ECGMON_STORE_ROOT in the environment overrides the store
root from any source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .synth import DEFAULT_TEMPLATE, BeatTemplate, ConfigError, SynthConfig, Wave

__all__ = ["GatewayConfig", "load_config", "parse_kv", "load_synth_config",
           "DEFAULT_HTTP", "DEFAULT_MQTT"]

DEFAULT_HTTP = ("127.0.0.1", 8080)
DEFAULT_MQTT = ("127.0.0.1", 1883)


@dataclass(frozen=True)
class GatewayConfig:
    http_host: str = DEFAULT_HTTP[0]
    http_port: int = DEFAULT_HTTP[1]
    mqtt_host: str = DEFAULT_MQTT[0]
    mqtt_port: int = DEFAULT_MQTT[1]
    store_root: str = "./telemetry"
    theta_excellent: float = 96.0
    theta_acceptable: float = 85.0
    model_path: Optional[str] = None
    mqtt_username: Optional[str] = None
    mqtt_password: Optional[str] = None

    def validate(self) -> None:
        if self.http_port == self.mqtt_port and self.http_port != 0:
            raise ConfigError("http_listen and mqtt_listen ports must differ")
        if not self.theta_acceptable < self.theta_excellent:
            raise ConfigError("theta_acceptable must be below theta_excellent")


def parse_kv(text: str) -> dict[str, str]:
    """Parse `key = value` lines into a dict; later keys win."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _split_listen(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"listen address must be host:port, got {value!r}")
    return host, int(port)


def load_config(path=None, overrides: Optional[dict] = None) -> GatewayConfig:
    """Build a GatewayConfig from a file (optional), overrides, and env."""
    kv: dict[str, str] = {}
    if path is not None:
        kv.update(parse_kv(Path(path).read_text(encoding="utf-8")))
    if overrides:
        kv.update({k: v for k, v in overrides.items() if v is not None})

    cfg = GatewayConfig()
    if "http_listen" in kv:
        host, port = _split_listen(kv.pop("http_listen"))
        cfg = replace(cfg, http_host=host, http_port=port)
    if "mqtt_listen" in kv:
        host, port = _split_listen(kv.pop("mqtt_listen"))
        cfg = replace(cfg, mqtt_host=host, mqtt_port=port)
    simple = {
        "store_root": str,
        "theta_excellent": float,
        "theta_acceptable": float,
        "model_path": str,
        "mqtt_username": str,
        "mqtt_password": str,
    }
    for key, conv in simple.items():
        if key in kv:
            try:
                cfg = replace(cfg, **{key: conv(kv.pop(key))})
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    if kv:
        raise ConfigError(f"unknown configuration keys: {', '.join(sorted(kv))}")

    env_root = os.environ.get("ECGMON_STORE_ROOT")
    if env_root:
        cfg = replace(cfg, store_root=env_root)
    cfg.validate()
    return cfg


def load_synth_config(path) -> tuple[SynthConfig, BeatTemplate]:
    """Read simulator settings: SynthConfig fields plus optional per-wave
    template overrides (`p_amplitude`, `t_center`, `r_sigma`, ...)."""
    kv = parse_kv(Path(path).read_text(encoding="utf-8"))

    config_fields = {
        "sample_rate": int, "heart_rate": float, "duration": float,
        "baseline": float, "noise_std": float, "adc_reference": float,
        "adc_bits": int, "gain": float, "seed": int,
    }
    config_kwargs = {}
    for key, conv in config_fields.items():
        if key in kv:
            try:
                config_kwargs[key] = conv(kv.pop(key))
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
    if "lead_off_intervals" in kv:
        intervals = []
        value = kv.pop("lead_off_intervals")
        if value:
            for part in value.split(","):
                start, _, end = part.partition(":")
                try:
                    intervals.append((float(start), float(end)))
                except ValueError as exc:
                    raise ConfigError(f"lead_off_intervals: {exc}") from exc
        config_kwargs["lead_off_intervals"] = tuple(intervals)

    template_kwargs = {}
    for wave in "pqrst":
        base = getattr(DEFAULT_TEMPLATE, wave)
        fields = {}
        for attr in ("amplitude", "center", "sigma"):
            key = f"{wave}_{attr}"
            if key in kv:
                try:
                    fields[attr] = float(kv.pop(key))
                except ValueError as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        if fields:
            template_kwargs[wave] = base._replace(**fields)
    if kv:
        raise ConfigError(f"unknown synthesis keys: {', '.join(sorted(kv))}")

    config = SynthConfig(**config_kwargs)
    template = replace(DEFAULT_TEMPLATE, **template_kwargs) if template_kwargs else DEFAULT_TEMPLATE
    config.validate()
    template.validate()
    return config, template
