"""Experiment configuration: YAML file + dotted command-line overrides.

One structured text file describes an experiment; every field has a default
matching the reference setup, so an empty config is fully runnable.  Values
carry linear units internally; the strings ``"<x> dB"``, ``"<x> dBm"`` and
``"<x> dBm/Hz"`` are accepted anywhere a number is expected and converted at
the boundary (power ratio, watts, watts per hertz).  So is a bare number
string such as ``1e-3``, which YAML 1.1 does not read as a number.

Overrides are ``--set section.field=value`` with YAML-parsed values, e.g.
``--set irs.N=0``, ``--set radio.N0="-174 dBm/Hz"``,
``--set sweep.M_values=[10,20,30]``.
"""

import dataclasses
import re
import typing
from dataclasses import dataclass

import yaml

from .channel import IrsSpec, RadioConfig
from .geometry import CellConfig
from .numerics import Refused
from .planner import SearchGrid
from .simulation import McConfig


class ConfigError(Refused):
    """Config file or override rejected; message carries field diagnostics."""

    def __init__(self, detail):
        super().__init__("config-error", detail)


@dataclass(frozen=True)
class OutageParams:
    """Outage target knobs (the common rate itself is chosen by the planner)."""

    p_no_min: float = 0.95

    def __post_init__(self):
        if not (0.0 < self.p_no_min < 1.0):
            raise ValueError("outage.p_no_min must lie in (0, 1)")


@dataclass(frozen=True)
class CoverageParams:
    """coverage command: transmit power, mean-SNR threshold, l sweep."""

    p_tx: float = 0.01      # [W] (10 dBm)
    snr_min: float = 10.0   # linear (10 dB)
    l_start: float = 10.0   # [m]
    l_stop: float = 600.0   # [m]
    l_step: float = 5.0     # [m]

    def __post_init__(self):
        if self.p_tx <= 0 or self.snr_min <= 0 or self.l_step <= 0:
            raise ValueError("coverage: p_tx, snr_min, l_step must be positive")
        if self.l_start <= 0 or self.l_stop < self.l_start:
            raise ValueError("coverage: need 0 < l_start <= l_stop")


@dataclass(frozen=True)
class PlanParams:
    """plan command: surface budget and ring-count limits per method."""

    M: int = 100
    method: str = "line-search"   # line-search | algorithm1
    I: int = 3                    # ring count for line-search
    I_max: int = 10               # ring-count cap for algorithm1

    def __post_init__(self):
        if self.M < 1 or self.I < 1 or self.I_max < 1:
            raise ValueError("plan: M, I, I_max must be positive")
        if self.method not in ("line-search", "algorithm1"):
            raise ValueError("plan.method must be 'line-search' or 'algorithm1'")


_SWEEP_METHODS = ("line-search", "algorithm1", "irs-equal-power", "irs-mean-cipc")


@dataclass(frozen=True)
class SweepParams:
    """sweep command: surface budgets and method rows to emit."""

    M_values: tuple = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    methods: tuple = _SWEEP_METHODS

    def __post_init__(self):
        for M in self.M_values:
            if isinstance(M, bool) or not isinstance(M, int) or M < 0:
                raise ValueError("sweep.M_values must be nonnegative integers")
        for m in self.methods:
            if m not in _SWEEP_METHODS:
                raise ValueError(f"sweep.methods: unknown method {m!r} "
                                 f"(choose from {', '.join(_SWEEP_METHODS)})")


@dataclass(frozen=True)
class ExperimentConfig:
    radio: RadioConfig = RadioConfig()
    cell: CellConfig = CellConfig()
    irs: IrsSpec = IrsSpec()
    outage: OutageParams = OutageParams()
    mc: McConfig = McConfig()
    grid: SearchGrid = SearchGrid()
    coverage: CoverageParams = CoverageParams()
    plan: PlanParams = PlanParams()
    sweep: SweepParams = SweepParams()

    def to_dict(self):
        """Resolved config as plain nested dicts (tuples become lists)."""
        out = {}
        for f in dataclasses.fields(self):
            section = dataclasses.asdict(getattr(self, f.name))
            out[f.name] = {k: list(v) if isinstance(v, tuple) else v
                           for k, v in section.items()}
        return out


# section name -> section class, in field order
_SECTIONS = typing.get_type_hints(ExperimentConfig)

_UNIT_RE = re.compile(r"^\s*([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(dBm/Hz|dBm|dB)?\s*$")


def parse_unit_scalar(value):
    """Convert '<x> dB' / '<x> dBm' / '<x> dBm/Hz' strings to linear units.

    A bare number string becomes a float: YAML 1.1 reads '1e-3' (no dot) as
    a string.  Anything else passes through unchanged.
    """
    if not isinstance(value, str):
        return value
    m = _UNIT_RE.match(value)
    if m is None:
        return value
    x = float(m.group(1))
    if m.group(2) is None:
        return x
    if m.group(2) == "dB":
        return 10.0 ** (x / 10.0)
    return 10.0 ** ((x - 30.0) / 10.0)  # dBm and dBm/Hz -> W and W/Hz


def _apply_units(node):
    if isinstance(node, dict):
        return {k: _apply_units(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_apply_units(v) for v in node]
    return parse_unit_scalar(node)


def _coerce(value, hint, where):
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if hint is int:
        whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
        if isinstance(value, bool) or not whole:
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if hint is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true/false, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if hint is tuple or typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return tuple(value)
    return value


def _build_section(name, cls, data):
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown key(s) in section '{name}': "
                          + ", ".join(f"{name}.{k}" for k in unknown))
    kwargs = {k: _coerce(v, hints.get(k), f"{name}.{k}") for k, v in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"section '{name}': {exc}") from exc


def _parse_override(text):
    if "=" not in text:
        raise ConfigError(f"--set needs key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if key.count(".") != 1:
        raise ConfigError(f"--set key must be section.field, got {key!r}")
    section, field = key.split(".")
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        value = raw
    return section, field, _apply_units(value)


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Resolve a config file plus --set overrides into an ExperimentConfig;
    a later override of a field wins."""
    data = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            mark = getattr(exc, "problem_mark", None)
            at = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            raise ConfigError(f"config {path} is not valid YAML{at}: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping of sections")
        data = _apply_units(loaded)

    unknown = sorted(set(data) - set(_SECTIONS))
    if unknown:
        raise ConfigError("unknown section(s): " + ", ".join(unknown))
    for name, body in data.items():
        if not isinstance(body, dict):
            raise ConfigError(f"section '{name}' must be a mapping")

    for text in overrides:
        section, field, value = _parse_override(text)
        if section not in _SECTIONS:
            raise ConfigError(f"--set: unknown section '{section}'")
        data.setdefault(section, {})[field] = value

    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(name, cls, data.get(name, {}))
    return ExperimentConfig(**sections)
