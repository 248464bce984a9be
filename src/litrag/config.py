"""Run configuration: one YAML file drives every stage."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

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
                         ("backoff_seconds", 0)):
            value = getattr(self, key)
            if value < low:
                raise ConfigError(f"config key {key} must be at least {low}, got {value}")
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


_REQUIRED: Any = object()


def _reader(spec: Any, section: str, known: Iterable[str]) -> Callable[..., Any]:
    """`_read` over the mapping ``spec``, which the config names ``section``;
    each key of ``spec`` outside ``known`` is ignored with a warning."""
    if not isinstance(spec, dict):
        raise ConfigError(f"config key {section} must be a mapping")
    prefix = f"{section}." if section else ""
    for key in spec:
        if key not in known:
            log.warning("unknown config key %s%s ignored", prefix, key)

    def _read(key: str, default: Any = _REQUIRED, kind: Optional[Callable] = None) -> Any:
        """``spec[key]`` converted by ``kind``, by default the type of
        ``default``, which stands in for an absent or null key."""
        value = spec.get(key)
        if value is None:
            if default is _REQUIRED:
                raise ConfigError(f"config key {prefix}{key} is required")
            return default
        convert = kind or type(default)
        try:
            return (_integer if convert is int else convert)(value)
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"config key {prefix}{key}: cannot read {value!r}: {exc}") from exc

    return _read


def _integer(value: Any) -> int:
    """``int(value)``, refusing a boolean and a float with a fractional part,
    which ``int`` would turn into 0/1 or truncate."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("not an integer")
    return int(value)


def _question_variables(mapping: dict) -> dict[int, str]:
    return {int(cq_id): str(variable) for cq_id, variable in mapping.items()}


def load_config(path: Optional[str | Path]) -> PipelineConfig:
    """Build a PipelineConfig from YAML; a missing key keeps its dataclass
    default, a malformed one, or a ``filter_endpoint`` that names no
    configured endpoint, raises `ConfigError` and an unknown one is ignored
    with a warning."""
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
    read = _reader(data, "", {f.name for f in fields(PipelineConfig)})

    endpoints = []
    for i, spec in enumerate(data.get("endpoints") or []):
        read_endpoint = _reader(spec, f"endpoints[{i}]", {f.name for f in fields(ModelEndpoint)})
        # absent or null means no limit; 0 is not a way to say so
        rate_limit = read_endpoint("rate_limit_per_min", ModelEndpoint.rate_limit_per_min, int)
        if rate_limit is not None and rate_limit < 1:
            raise ConfigError(
                f"config key endpoints[{i}].rate_limit_per_min must be at least 1, got {rate_limit}"
            )
        try:
            endpoints.append(
                ModelEndpoint(
                    name=read_endpoint("name", kind=str),
                    base_url=read_endpoint("base_url", ModelEndpoint.base_url),
                    model_id=read_endpoint("model_id", ModelEndpoint.model_id),
                    temperature=read_endpoint("temperature", ModelEndpoint.temperature),
                    api_key_env=read_endpoint("api_key_env", ModelEndpoint.api_key_env),
                    rate_limit_per_min=rate_limit,
                )
            )
        except ValueError as exc:
            raise ConfigError(f"bad endpoint entry {spec!r}: {exc}") from exc
    # the first listed endpoint filters by default; with none listed, the
    # default endpoints and filter endpoint apply, as without a config
    filter_default = endpoints[0].name if endpoints else PipelineConfig.filter_endpoint
    endpoints = endpoints or _default_endpoints()

    known = ("chunk_size", "chunk_overlap", "token_unit")
    read_chunking = _reader(data.get("chunking") or {}, "chunking", known)
    try:
        chunking = ChunkingConfig(
            chunk_size=read_chunking("chunk_size", ChunkingConfig.chunk_size),
            overlap=read_chunking("chunk_overlap", ChunkingConfig.overlap),
            token_unit=read_chunking("token_unit", ChunkingConfig.token_unit),
        )
    except ValueError as exc:
        raise ConfigError(f"bad chunking config: {exc}") from exc

    profile = None
    if data.get("hardware_profile"):
        read_profile = _reader(
            data["hardware_profile"], "hardware_profile", {f.name for f in fields(HardwareProfile)}
        )
        try:
            profile = HardwareProfile(
                name=read_profile("name", "default"),
                cores=read_profile("cores", kind=int),
                power_per_core=read_profile("power_per_core", kind=float),
                usage=read_profile("usage", HardwareProfile.usage),
                memory_gb=read_profile("memory_gb", HardwareProfile.memory_gb),
                memory_power=read_profile("memory_power", HardwareProfile.memory_power),
                pue=read_profile("pue", HardwareProfile.pue),
            )
        except ValueError as exc:
            raise ConfigError(f"bad hardware profile: {exc}") from exc

    filter_endpoint = read("filter_endpoint", filter_default)
    if filter_endpoint not in {e.name for e in endpoints}:
        raise ConfigError(
            f"config key filter_endpoint: {filter_endpoint!r} names no configured endpoint"
        )
    return PipelineConfig(
        endpoints=endpoints,
        chunking=chunking,
        retrieval_budget=read("retrieval_budget", PipelineConfig.retrieval_budget),
        parallelism=read("parallelism", PipelineConfig.parallelism),
        tie_rule=read("tie_rule", PipelineConfig.tie_rule),
        filter_endpoint=filter_endpoint,
        hardware_profile=profile,
        location_intensity=read("location_intensity", PipelineConfig.location_intensity),
        tree_month_constant=read("tree_month_constant", PipelineConfig.tree_month_constant),
        max_attempts=read("max_attempts", PipelineConfig.max_attempts),
        backoff_seconds=read("backoff_seconds", PipelineConfig.backoff_seconds),
        reference_labels=read("reference_labels", PipelineConfig.reference_labels, str),
        voting_reference=read("voting_reference", PipelineConfig.voting_reference, str),
        cq_variable_mapping=read("cq_variable_mapping", {}, _question_variables),
    )
