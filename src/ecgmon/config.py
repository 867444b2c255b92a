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

from .analytics import THETA_ACCEPTABLE, THETA_EXCELLENT
from .synth import DEFAULT_TEMPLATE, BeatTemplate, ConfigError, SynthConfig, Wave

__all__ = ["GatewayConfig", "load_config", "parse_kv", "load_synth_config", "split_address",
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
    theta_excellent: float = THETA_EXCELLENT
    theta_acceptable: float = THETA_ACCEPTABLE
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


def split_address(value: str) -> tuple[str, int]:
    """(host, port) of a "host:port" address, for a listen address and the
    broker a device connects to alike."""
    host, _, port = value.rpartition(":")
    # isdecimal, not isdigit: int() refuses digits such as "²"
    if not host or not port.isdecimal() or int(port) > 65535:
        raise ConfigError(f"address must be host:port with a port in 0..65535, got {value!r}")
    return host, int(port)


def _pop(kv: dict, key: str, conv):
    """`kv[key]`, removed from `kv` and converted; a bad value is a ConfigError."""
    try:
        return conv(kv.pop(key))
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _intervals(value: str) -> tuple[tuple[float, float], ...]:
    """`start:end` pairs separated by commas; an empty value is none."""
    pairs = (part.partition(":") for part in value.split(",")) if value else ()
    return tuple((float(start), float(end)) for start, _, end in pairs)


def load_config(path=None, overrides: Optional[dict] = None) -> GatewayConfig:
    """Build a GatewayConfig from a file (optional), overrides, and env."""
    kv: dict[str, str] = {}
    if path is not None:
        kv.update(parse_kv(Path(path).read_text(encoding="utf-8")))
    if overrides:
        kv.update({k: v for k, v in overrides.items() if v is not None})

    cfg = GatewayConfig()
    for name in ("http", "mqtt"):
        if f"{name}_listen" in kv:
            host, port = split_address(kv.pop(f"{name}_listen"))
            cfg = replace(cfg, **{f"{name}_host": host, f"{name}_port": port})
    simple = {
        "store_root": str,
        "theta_excellent": float,
        "theta_acceptable": float,
        "model_path": str,
        "mqtt_username": str,
        "mqtt_password": str,
    }
    cfg = replace(cfg, **{key: _pop(kv, key, conv) for key, conv in simple.items() if key in kv})
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
        "adc_bits": int, "gain": float, "seed": int, "lead_off_intervals": _intervals,
    }
    config_kwargs = {key: _pop(kv, key, conv) for key, conv in config_fields.items() if key in kv}

    template_kwargs = {}
    for wave in "pqrst":
        fields = {attr: _pop(kv, f"{wave}_{attr}", float)
                  for attr in ("amplitude", "center", "sigma") if f"{wave}_{attr}" in kv}
        if fields:
            template_kwargs[wave] = getattr(DEFAULT_TEMPLATE, wave)._replace(**fields)
    if kv:
        raise ConfigError(f"unknown synthesis keys: {', '.join(sorted(kv))}")

    config = SynthConfig(**config_kwargs)
    template = replace(DEFAULT_TEMPLATE, **template_kwargs) if template_kwargs else DEFAULT_TEMPLATE
    config.validate()
    template.validate()
    return config, template
