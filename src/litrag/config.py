"""Run configuration: one YAML file drives every stage."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .errors import ConfigError
from .footprint import GERMANY_INTENSITY_KG_PER_KWH, MEMORY_W_PER_GB, TREE_MONTH_KG, HardwareProfile
from .gateway import ModelEndpoint
from .retrieval import ChunkingConfig, TokenUnit

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
    parallelism: int = 4
    tie_rule: str = "no"
    filter_endpoint: str = "Llama 3.1 70B"
    hardware_profile: Optional[HardwareProfile] = None
    location_intensity: float = GERMANY_INTENSITY_KG_PER_KWH
    tree_month_constant: float = TREE_MONTH_KG
    max_attempts: int = 3
    backoff_seconds: float = 2.0
    reference_labels: Optional[str] = None  # per-endpoint categorical reference CSV
    voting_reference: Optional[str] = None  # voting-vs-human reference CSV
    cq_variable_mapping: dict[int, str] = field(default_factory=dict)

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


def load_config(path: Optional[str | Path]) -> PipelineConfig:
    """Build a PipelineConfig from YAML; missing keys fall back to defaults."""
    if path is None:
        return PipelineConfig(endpoints=_default_endpoints())
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping")

    endpoints = []
    for spec in data.get("endpoints", []):
        try:
            endpoints.append(
                ModelEndpoint(
                    name=spec["name"],
                    base_url=spec.get("base_url", ""),
                    model_id=spec.get("model_id", ""),
                    temperature=float(spec.get("temperature", 0.0)),
                    max_response_words=int(spec.get("max_response_words", 400)),
                    api_key_env=spec.get("api_key_env", ""),
                    rate_limit_per_min=spec.get("rate_limit_per_min"),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad endpoint entry {spec!r}: {exc}") from exc
    if not endpoints:
        endpoints = _default_endpoints()

    chunking_spec = data.get("chunking", {})
    try:
        chunking = ChunkingConfig(
            chunk_size=int(chunking_spec.get("chunk_size", 1000)),
            overlap=int(chunking_spec.get("chunk_overlap", 50)),
            token_unit=TokenUnit(chunking_spec.get("token_unit", "whitespace-word")),
        )
    except ValueError as exc:
        raise ConfigError(f"bad chunking config: {exc}") from exc

    profile = None
    profile_spec = data.get("hardware_profile")
    if profile_spec:
        try:
            profile = HardwareProfile(
                name=profile_spec.get("name", "default"),
                cores=int(profile_spec["cores"]),
                power_per_core=float(profile_spec["power_per_core"]),
                usage=float(profile_spec.get("usage", 1.0)),
                memory_gb=float(profile_spec.get("memory_gb", 0.0)),
                memory_power=float(profile_spec.get("memory_power", MEMORY_W_PER_GB)),
                pue=float(profile_spec.get("pue", 1.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad hardware profile: {exc}") from exc

    mapping = {}
    for key, value in (data.get("cq_variable_mapping") or {}).items():
        mapping[int(key)] = str(value)

    config = PipelineConfig(
        endpoints=endpoints,
        chunking=chunking,
        retrieval_budget=int(data.get("retrieval_budget", 1200)),
        parallelism=int(data.get("parallelism", 4)),
        tie_rule=data.get("tie_rule", "no"),
        filter_endpoint=data.get("filter_endpoint", endpoints[0].name),
        hardware_profile=profile,
        location_intensity=float(data.get("location_intensity", GERMANY_INTENSITY_KG_PER_KWH)),
        tree_month_constant=float(data.get("tree_month_constant", TREE_MONTH_KG)),
        max_attempts=int(data.get("max_attempts", 3)),
        backoff_seconds=float(data.get("backoff_seconds", 2.0)),
        reference_labels=data.get("reference_labels"),
        voting_reference=data.get("voting_reference"),
        cq_variable_mapping=mapping,
    )
    if config.tie_rule not in ("yes", "no"):
        raise ConfigError(f"tie_rule must be 'yes' or 'no', got {config.tie_rule!r}")
    return config
