"""Run configuration: one YAML file drives every stage."""

from __future__ import annotations

import enum
import functools
import logging
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import yaml

from .errors import ConfigError
from .footprint import GERMANY_INTENSITY_KG_PER_KWH, TREE_MONTH_KG, HardwareProfile
from .gateway import (
    DEFAULT_BACKOFF_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_PARALLELISM,
    ModelEndpoint,
)
from .retrieval import ChunkingConfig

log = logging.getLogger(__name__)

# The five hosted models the pipeline was designed around; base URLs and API
# keys must be supplied in the config for live runs, the mock backend ignores
# them.
DEFAULT_ENDPOINT_NAMES = (
    "Llama 3 70B",
    "Llama 3.1 70B",
    "Mixtral 8x22B Instruct v0.1",
    "Mixtral 8x7B",
    "Gemma 2 9B",
)


@dataclass
class PipelineConfig:
    endpoints: list[ModelEndpoint] = field(default_factory=list)
    chunking: ChunkingConfig = field(default_factory=ChunkingConfig)
    retrieval_budget: int = 1200
    parallelism: int = DEFAULT_PARALLELISM
    tie_rule: str = "no"
    filter_endpoint: str = "Llama 3.1 70B"
    hardware_profile: Optional[HardwareProfile] = None
    location_intensity: float = GERMANY_INTENSITY_KG_PER_KWH
    tree_month_constant: float = TREE_MONTH_KG
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    backoff_seconds: float = DEFAULT_BACKOFF_SECONDS
    reference_labels: Optional[str] = None  # per-endpoint categorical reference CSV
    voting_reference: Optional[str] = None  # voting-vs-human reference CSV
    cq_variable_mapping: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for key, low in (("retrieval_budget", 0), ("parallelism", 1), ("max_attempts", 1),
                         ("backoff_seconds", 0), ("location_intensity", 0)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"config key {key} must be at least {low}, got {value}")
        if self.tree_month_constant <= 0:
            raise ConfigError(
                f"config key tree_month_constant must be positive, got {self.tree_month_constant}"
            )
        if self.tie_rule not in ("yes", "no"):
            raise ConfigError(f"config key tie_rule must be 'yes' or 'no', got {self.tie_rule!r}")

    def endpoint(self, name: str) -> ModelEndpoint:
        for endpoint in self.endpoints:
            if endpoint.name == name:
                return endpoint
        raise ConfigError(f"endpoint {name!r} not present in config")

    def select_endpoints(self, names: Optional[list[str]]) -> list[ModelEndpoint]:
        if not names:
            return list(self.endpoints)
        return [self.endpoint(name) for name in names]


def _default_endpoints() -> list[ModelEndpoint]:
    return [ModelEndpoint(name=name) for name in DEFAULT_ENDPOINT_NAMES]


def _integer(value: Any) -> int:
    """``int(value)``, refusing a boolean and a float with a fractional part,
    which ``int`` would turn into 0/1 or truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _real(value: Any) -> float:
    """``float(value)``, refusing a boolean, which ``float`` would turn into 0.0/1.0."""
    if isinstance(value, bool):
        raise ValueError("not a number")
    return float(value)


def _string(value: Any) -> str:
    """``value`` itself, which must be a string; YAML reads an unquoted yes/no
    as a boolean, which ``str`` would turn into 'True'/'False'."""
    if not isinstance(value, str):
        raise ValueError("a boolean; quote yes/no to give a string"
                         if isinstance(value, bool) else "not a string")
    return value


def _question_variables(mapping: Any) -> dict[int, str]:
    if not isinstance(mapping, dict):
        raise ValueError("not a mapping")
    return {_integer(cq_id): _string(variable) for cq_id, variable in mapping.items()}


# how a value is read for each annotated type that is neither an enum nor a section
_CONVERTERS: dict[Any, Callable[[Any], Any]] = {
    int: _integer, float: _real, str: _string, dict[int, str]: _question_variables,
}
# the one config key named unlike its field, and the one default the loader
# gives a field that has none of its own
_KEYS = {(ChunkingConfig, "overlap"): "chunk_overlap"}
_DEFAULTS = {(HardwareProfile, "name"): "default"}


@functools.cache
def _fields(cls: type) -> dict[str, tuple[str, Any, Any]]:
    """Each field of ``cls`` under its config key: its name, its annotated
    type (``X`` for ``Optional[X]``) and the value of an absent or null key,
    ``MISSING`` if the field is required and None for the field's default."""
    kinds = typing.get_type_hints(cls)
    keys = {}
    for f in fields(cls):
        kind = kinds[f.name]
        if type(None) in typing.get_args(kind):
            kind = typing.get_args(kind)[0]
        required = f.default is MISSING and f.default_factory is MISSING
        absent = _DEFAULTS.get((cls, f.name), MISSING if required else None)
        keys[_KEYS.get((cls, f.name), f.name)] = (f.name, kind, absent)
    return keys


def _read(kind: Any, value: Any, key: str) -> Any:
    """``value``, given under the config key ``key``, read as ``kind``."""
    if typing.get_origin(kind) is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key {key} must be a list")
        (kind,) = typing.get_args(kind)
        return [_section(kind, spec, f"{key}[{i}]") for i, spec in enumerate(value)]
    if is_dataclass(kind):
        return _section(kind, value, key)
    convert = kind if isinstance(kind, enum.EnumMeta) else _CONVERTERS[kind]
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key}: cannot read {value!r}: {exc}") from exc


def _section(cls: type, spec: Any, section: str) -> Any:
    """``cls`` built from the mapping ``spec``, which the config names
    ``section``, with each field read under its config key; each other key of
    ``spec`` is ignored with a warning."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key {section} must be a mapping")
    prefix = f"{section}." if section else ""
    keys = _fields(cls)
    for key in spec:
        if key not in keys:
            log.warning("unknown config key %s%s ignored", prefix, key)
    values = {}
    for key, (name, kind, absent) in keys.items():
        value = absent if spec.get(key) is None else _read(kind, spec[key], prefix + key)
        if value is MISSING:
            raise ConfigError(f"config key {prefix}{key} is required")
        if value is not None:
            values[name] = value
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"config key {section}: {exc}") from exc


def load_config(path: Optional[str | Path]) -> PipelineConfig:
    """Build a PipelineConfig from YAML; a missing or null key keeps its
    dataclass default, a malformed one or one of the wrong kind, or a
    ``filter_endpoint`` that names no configured endpoint, raises
    `ConfigError` and an unknown one is ignored with a warning."""
    if path is None:
        return PipelineConfig(endpoints=_default_endpoints())
    try:
        text = Path(path).read_text(encoding="utf-8")
        # libyaml's loader when PyYAML was built with it; the same config, faster
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")
    config = _section(PipelineConfig, data, "")
    for i, endpoint in enumerate(config.endpoints):
        # absent or null means no limit; 0 is not a way to say so
        rate_limit = endpoint.rate_limit_per_min
        if rate_limit is not None and rate_limit < 1:
            raise ConfigError(
                f"config key endpoints[{i}].rate_limit_per_min must be at least 1, got {rate_limit}"
            )
    # the first listed endpoint filters by default; with none listed, the
    # default endpoints and filter endpoint apply, as without a config
    if not config.endpoints:
        config.endpoints = _default_endpoints()
    elif data.get("filter_endpoint") is None:
        config.filter_endpoint = config.endpoints[0].name
    if config.filter_endpoint not in {e.name for e in config.endpoints}:
        raise ConfigError(
            f"config key filter_endpoint: {config.filter_endpoint!r} names no configured endpoint"
        )
    return config
