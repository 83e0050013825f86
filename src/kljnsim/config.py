"""Experiment configuration: presets, strict JSON schema, CLI overrides.

The config file is one JSON document.  Every key is optional except that a
network must be resolvable (explicit values or a preset); unknown keys are
rejected before any computation, with the offending key named.  A key that
is absent takes the model class's default.  Command-line overrides are
written into the document at their keys (each flag's ``dest`` in
``cli.build_parser``), so one parser validates both.  The records are
named tuples (:class:`kljnsim.circuit.Validated`), checked when built and
when copied with ``_replace``; ``to_dict`` echoes them with ``_asdict``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Mapping, NamedTuple, Optional

from .circuit import AttenuatorConfig, NetworkConfig, NoiseSpec, Validated, design_tee_pad


class ConfigError(ValueError):
    """Invalid or unresolvable experiment configuration."""


class _AlarmFields(NamedTuple):
    rel_tolerance: float = 0.1
    window: int = 50


class AlarmPolicy(Validated, _AlarmFields):
    """Current-comparison defense parameters: tolerance and window length."""

    __slots__ = ()

    def _check(self) -> None:
        if not 0 < self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be finite and > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")


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


class _ExperimentFields(NamedTuple):
    network: NetworkConfig
    noise: NoiseSpec = NoiseSpec()
    n_bits: int = 1000
    samples_per_bit: int = 100
    alarm: AlarmPolicy = AlarmPolicy()
    max_measurements: int = 64
    master_seed: int = 0
    report_path: Optional[str] = None
    trace_csv: Optional[str] = None


class ExperimentConfig(Validated, _ExperimentFields):
    """Fully resolved settings for one analyze/simulate run."""

    __slots__ = ()

    def _check(self) -> None:
        if self.n_bits < 1:
            raise ConfigError("protocol.n_bits must be >= 1")
        if self.samples_per_bit < self.alarm.window:
            raise ConfigError("protocol.samples_per_bit must be >= protocol.alarm.window")
        if self.max_measurements < 1:
            raise ConfigError("attack.max_measurements must be >= 1")
        if not -(1 << 63) <= self.master_seed < 1 << 63:
            # the signed 64-bit range, on which each seed keys its own stream
            raise ConfigError("master_seed must be in the signed 64-bit range [-2**63, 2**63)")

    @property
    def readings(self) -> int:
        """Eve's readings in one period: every ``noise.measurement_stride``-th sample, from the first."""
        return -(-self.samples_per_bit // self.noise.measurement_stride)

    def to_dict(self) -> dict[str, Any]:
        """Echo in the same shape the file schema uses (round-trippable)."""
        network = self.network._asdict()
        if self.network.pad is not None:
            network["pad"] = self.network.pad._asdict()  # an object, as in the file, not a list
        return {
            "network": network,
            "noise": self.noise._asdict(),
            "protocol": {
                "n_bits": self.n_bits,
                "samples_per_bit": self.samples_per_bit,
                "alarm": self.alarm._asdict(),
            },
            "attack": {"max_measurements": self.max_measurements},
            "master_seed": self.master_seed,
            "output": {"report": self.report_path, "trace_csv": self.trace_csv},
        }


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


Reader = Callable[[Any, str], Any]


def _fields(data: Any, path: str, table: dict[str, Reader]) -> dict[str, Any]:
    """The keys of one object section that the document has, each read by its reader in ``table``.

    A key that is absent stays absent, so the model class's default applies;
    a key that is not in ``table`` is unknown.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must be an object")
    for key in data:
        if key not in table:
            raise ConfigError(f"unknown key: {_join(path, key)}")
    return {key: table[key](value, _join(path, key)) for key, value in data.items()}


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


def _string(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path} must be a string")
    return value


def _temperature(value: Any, path: str) -> float | str:
    return value if isinstance(value, str) else _number(value, path)


def _or_null(read: Reader) -> Reader:
    return lambda value, path: None if value is None else read(value, path)


def _build(cls: type, path: str, kwargs: dict[str, Any]) -> Any:
    """Construct ``cls``, whose range checks name the offending field first.

    Ranges are checked only by the model classes; this prefixes the section
    path so the message names the config key.
    """
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}.{exc}") from None


def _preset(name: Any, path: str) -> NetworkConfig:
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(f"{path}: unknown preset {name!r} (available: {', '.join(sorted(PRESETS))})")
    return PRESETS[name]


def _pad(data: Any, path: str) -> AttenuatorConfig:
    table = {"r_series": _number, "r_shunt": _or_null(_number)}
    return _build(AttenuatorConfig, path, _fields(data, path, table))


_NETWORK = {"preset": _preset, "r_alice": _number, "r_bob": _number, "pad": _or_null(_pad), "label": _string}


def _network(data: Any, path: str) -> NetworkConfig:
    kwargs = _fields(data, path, _NETWORK)
    if "preset" in kwargs:
        if len(kwargs) > 1:
            raise ConfigError(f"{path}: a preset takes no other keys")
        return kwargs["preset"]
    if "r_alice" not in kwargs or "r_bob" not in kwargs:
        raise ConfigError(f"{path} needs r_alice and r_bob (or a preset)")
    return _build(NetworkConfig, path, kwargs)


_NOISE = {"t_eff": _temperature, "bandwidth": _number, "mode": _string, "oversample": _integer}
_ALARM = {"rel_tolerance": _number, "window": _integer}
_PROTOCOL: dict[str, Reader] = {
    "n_bits": _integer,
    "samples_per_bit": _integer,
    "alarm": lambda data, path: _build(AlarmPolicy, path, _fields(data, path, _ALARM)),
}
_OUTPUT = {"report": _or_null(_string), "trace_csv": _or_null(_string)}
_ROOT: dict[str, Reader] = {
    "network": _network,
    "noise": lambda data, path: _build(NoiseSpec, path, _fields(data, path, _NOISE)),
    "protocol": lambda data, path: _fields(data, path, _PROTOCOL),
    "attack": lambda data, path: _fields(data, path, {"max_measurements": _integer}),
    "master_seed": _integer,
    "output": lambda data, path: _fields(data, path, _OUTPUT),
}


def parse_config(data: Any) -> ExperimentConfig:
    """Validate one JSON document against the strict schema."""
    if not isinstance(data, dict):
        raise ConfigError("config root must be an object")
    kwargs = _fields(data, "", _ROOT)
    if "network" not in kwargs:
        raise ConfigError("config needs a network section (explicit values or a preset)")
    # the protocol, attack and output sections group fields of ExperimentConfig itself
    protocol, attack, output = [kwargs.pop(name, {}) for name in ("protocol", "attack", "output")]
    if "report" in output:
        output["report_path"] = output.pop("report")
    return ExperimentConfig(**kwargs, **protocol, **attack, **output)


def load_config_file(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")


def _with(data: Any, keys: list[str], value: Any) -> Any:
    """A copy of ``data`` with ``value`` at the key path ``keys``.

    A section that is not an object is returned as it is, so the parser
    rejects it with its own message.
    """
    if not isinstance(data, dict):
        return data
    head, *rest = keys
    return {**data, head: _with(data.get(head, {}), rest, value) if rest else value}


def resolve_config(file_data: Any, overrides: Mapping[str, Any]) -> ExperimentConfig:
    """Write ``overrides``, values by dotted document key, into the config document (they win), then parse it.

    ``file_data`` is the config file's document, or ``None`` when there is no
    file; it is not modified.  An override whose value is ``None`` is not set.
    """
    data = {} if file_data is None else file_data
    for key, value in overrides.items():
        if value is not None:
            data = _with(data, key.split("."), value)
    return parse_config(data)
