"""Experiment configuration: presets, strict JSON schema, CLI overrides.

The config file is one JSON document.  Every key is optional except that a
network must be resolvable (explicit values or a preset); unknown keys are
rejected before any computation, with the offending key named.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .circuit import AttenuatorConfig, NetworkConfig, design_tee_pad
from .noise import NORMALIZED, NoiseSpec
from .protocol import AlarmPolicy


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


def _preset_networks() -> dict[str, NetworkConfig]:
    return {
        # 1 kOhm / 10 kOhm pair behind the 1 dB pad with the published
        # approximate values: 2.9 Ohm series elements, 500 Ohm shunt.
        "gaa-1db": NetworkConfig(
            1000.0, 10000.0, AttenuatorConfig(r_series=2.9, r_shunt=500.0), label="gaa-1db"
        ),
        # same pair behind a textbook 0.1 dB pad (values derived from the
        # matched-impedance design rule)
        "gaa-0p1db": NetworkConfig(1000.0, 10000.0, design_tee_pad(0.1, 50.0), label="gaa-0p1db"),
        # ideal single loop
        "lossless": NetworkConfig(1000.0, 10000.0, None, label="lossless"),
    }


PRESETS = _preset_networks()


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved settings for one analyze/simulate run."""

    network: NetworkConfig
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    n_bits: int = 1000
    samples_per_bit: int = 100
    alarm: AlarmPolicy = field(default_factory=AlarmPolicy)
    max_measurements: int = 64
    master_seed: int = 0
    report_path: Optional[str] = None
    trace_csv: Optional[str] = None
    preset: Optional[str] = None

    def __post_init__(self) -> None:
        if self.n_bits < 1:
            raise ConfigError("protocol.n_bits must be >= 1")
        if self.samples_per_bit < 1:
            raise ConfigError("protocol.samples_per_bit must be >= 1")
        if self.samples_per_bit < self.alarm.window:
            raise ConfigError("protocol.samples_per_bit must be >= protocol.alarm.window")
        if self.max_measurements < 1:
            raise ConfigError("attack.max_measurements must be >= 1")

    def to_dict(self) -> dict[str, Any]:
        """Echo in the same shape the file schema uses (round-trippable)."""
        net = self.network
        pad = None
        if net.pad is not None:
            pad = {"r_series": net.pad.r_series, "r_shunt": net.pad.r_shunt}
        return {
            "network": {
                "r_alice": net.r_alice,
                "r_bob": net.r_bob,
                "pad": pad,
                "label": net.label,
            },
            "noise": {
                "t_eff": self.noise.t_eff,
                "bandwidth": self.noise.bandwidth,
                "mode": self.noise.mode,
                "oversample": self.noise.oversample,
            },
            "protocol": {
                "n_bits": self.n_bits,
                "samples_per_bit": self.samples_per_bit,
                "alarm": {
                    "rel_tolerance": self.alarm.rel_tolerance,
                    "window": self.alarm.window,
                },
            },
            "attack": {"max_measurements": self.max_measurements},
            "master_seed": self.master_seed,
            "output": {"report": self.report_path, "trace_csv": self.trace_csv},
        }


def _check_keys(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key: {_join(path, key)}")


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _object(data: Any, path: str, allowed: set[str]) -> dict:
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    _check_keys(data, allowed, path)
    return data


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number")
    try:
        v = float(value)
    except OverflowError:  # an integer beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ConfigError(f"{path} must be a finite number")
    return v


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer")
    return value


def _build(cls: type, path: str, **kwargs: Any) -> Any:
    """Construct ``cls``, whose range checks name the offending field first.

    Ranges are checked only by the model classes; this prefixes the section
    path so the message names the config key.
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _parse_pad(data: Any, path: str) -> Optional[AttenuatorConfig]:
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object or null")
    _check_keys(data, {"r_series", "r_shunt"}, path)
    r_shunt = data.get("r_shunt")
    return _build(
        AttenuatorConfig,
        path,
        r_series=_number(data.get("r_series", 0.0), _join(path, "r_series")),
        r_shunt=None if r_shunt is None else _number(r_shunt, _join(path, "r_shunt")),
    )


def _parse_network(data: Any, path: str = "network") -> tuple[NetworkConfig, Optional[str]]:
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    if "preset" in data:
        _check_keys(data, {"preset"}, path)
        name = data["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigError(
                f"{_join(path, 'preset')}: unknown preset {name!r} "
                f"(available: {', '.join(sorted(PRESETS))})"
            )
        return PRESETS[name], name
    _check_keys(data, {"r_alice", "r_bob", "pad", "label"}, path)
    if "r_alice" not in data or "r_bob" not in data:
        raise ConfigError(f"{path} needs r_alice and r_bob (or a preset)")
    network = _build(
        NetworkConfig,
        path,
        r_alice=_number(data["r_alice"], _join(path, "r_alice")),
        r_bob=_number(data["r_bob"], _join(path, "r_bob")),
        pad=_parse_pad(data.get("pad"), _join(path, "pad")),
        label=str(data.get("label", "")),
    )
    return network, None


def _parse_noise(data: Any, path: str = "noise") -> NoiseSpec:
    _object(data, path, {"t_eff", "bandwidth", "mode", "oversample"})
    t_eff = data.get("t_eff", NORMALIZED)
    return _build(
        NoiseSpec,
        path,
        t_eff=t_eff if isinstance(t_eff, str) else _number(t_eff, _join(path, "t_eff")),
        bandwidth=_number(data.get("bandwidth", 1.0), _join(path, "bandwidth")),
        mode=data.get("mode", "independent"),
        oversample=_integer(data.get("oversample", 8), _join(path, "oversample")),
    )


def parse_config(data: dict[str, Any]) -> ExperimentConfig:
    """Validate one JSON document against the strict schema."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    _check_keys(data, {"network", "noise", "protocol", "attack", "master_seed", "output"}, "")
    if "network" not in data:
        raise ConfigError("config needs a network section (explicit values or a preset)")
    network, preset = _parse_network(data["network"])
    noise = _parse_noise(data.get("noise", {}))

    protocol = _object(data.get("protocol", {}), "protocol", {"n_bits", "samples_per_bit", "alarm"})
    alarm_data = _object(protocol.get("alarm", {}), "protocol.alarm", {"rel_tolerance", "window"})
    alarm = _build(
        AlarmPolicy,
        "protocol.alarm",
        rel_tolerance=_number(alarm_data.get("rel_tolerance", 0.1), "protocol.alarm.rel_tolerance"),
        window=_integer(alarm_data.get("window", 50), "protocol.alarm.window"),
    )
    attack = _object(data.get("attack", {}), "attack", {"max_measurements"})
    output = _object(data.get("output", {}), "output", {"report", "trace_csv"})
    master_seed = _integer(data.get("master_seed", 0), "master_seed")
    if master_seed < -(1 << 63):
        raise ConfigError(f"master_seed must be >= {-(1 << 63)}")

    return ExperimentConfig(
        network=network,
        noise=noise,
        n_bits=_integer(protocol.get("n_bits", 1000), "protocol.n_bits"),
        samples_per_bit=_integer(protocol.get("samples_per_bit", 100), "protocol.samples_per_bit"),
        alarm=alarm,
        max_measurements=_integer(attack.get("max_measurements", 64), "attack.max_measurements"),
        master_seed=master_seed,
        report_path=_optional_str(output.get("report"), "output.report"),
        trace_csv=_optional_str(output.get("trace_csv"), "output.trace_csv"),
        preset=preset,
    )


def _optional_str(value: Any, path: str) -> Optional[str]:
    if value is None:
        return None
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string or null")
    return value


def load_config_file(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path}: root must be a JSON object")
    return data


def resolve_config(
    file_data: Optional[dict[str, Any]] = None,
    *,
    preset: Optional[str] = None,
    seed: Optional[int] = None,
    bits: Optional[int] = None,
    samples_per_bit: Optional[int] = None,
    mode: Optional[str] = None,
    out: Optional[str] = None,
    trace_csv: Optional[str] = None,
) -> ExperimentConfig:
    """Merge a config file with command-line overrides (flags win)."""
    data = dict(file_data) if file_data else {}
    if preset is not None:
        data["network"] = {"preset": preset}
    if "network" not in data:
        raise ConfigError("no network given: pass --preset, or a config file with a network section")
    cfg = parse_config(data)
    if seed is not None:
        cfg = replace(cfg, master_seed=seed)
    if bits is not None:
        cfg = replace(cfg, n_bits=bits)
    if samples_per_bit is not None:
        cfg = replace(cfg, samples_per_bit=samples_per_bit)
    if mode is not None:
        cfg = replace(cfg, noise=replace(cfg.noise, mode=mode))
    if out is not None:
        cfg = replace(cfg, report_path=out)
    if trace_csv is not None:
        cfg = replace(cfg, trace_csv=trace_csv)
    return cfg
