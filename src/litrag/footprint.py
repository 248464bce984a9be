"""Energy, carbon, and tree-month estimates from deduplicated runtime.

Follows the published green-computing calculator methodology: IT power is
cores x per-core power x usage plus memory x per-GB power, scaled by the
data-centre PUE. Location carbon intensity and the tree-month constant are
configurable; the defaults are calibrated for Germany.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .gateway import STAGES, stage_runtimes

# kg CO2e per kWh (Germany) and kg CO2e sequestered per tree-month.
GERMANY_INTENSITY_KG_PER_KWH = 0.3387
TREE_MONTH_KG = 0.9302
# Average volatile-memory draw per GB, from the calculator's methodology.
MEMORY_W_PER_GB = 0.3725


@dataclass(frozen=True)
class HardwareProfile:
    name: str
    cores: int
    power_per_core: float  # watts
    usage: float = 1.0
    memory_gb: float = 0.0
    memory_power: float = MEMORY_W_PER_GB  # watts per GB
    pue: float = 1.0

    def __post_init__(self) -> None:
        if min(self.cores, self.power_per_core, self.memory_gb, self.memory_power) < 0:
            raise ValueError("hardware quantities must be non-negative")
        if not 0.0 <= self.usage <= 1.0:
            raise ValueError("usage must be a fraction in [0, 1]")
        if self.pue < 1.0:
            raise ValueError("pue must be >= 1")


def estimate_energy(runtime_h: float, profile: HardwareProfile) -> float:
    """kWh drawn over the runtime: pue * (core draw + memory draw) / 1000."""
    if runtime_h < 0:
        raise ValueError("runtime must be non-negative")
    watts = (
        profile.cores * profile.power_per_core * profile.usage
        + profile.memory_gb * profile.memory_power
    )
    return runtime_h * profile.pue * watts / 1000.0


def estimate_carbon(energy_kwh: float, intensity: float = GERMANY_INTENSITY_KG_PER_KWH) -> float:
    if energy_kwh < 0:
        raise ValueError("energy must be non-negative")
    return energy_kwh * intensity


def to_tree_months(carbon_kg: float, tree_month_constant: float = TREE_MONTH_KG) -> float:
    if tree_month_constant <= 0:
        raise ValueError("tree_month_constant must be positive")
    return carbon_kg / tree_month_constant


@dataclass(frozen=True)
class FootprintRow:
    stage: str
    runtime_h: float
    energy_kwh: float
    carbon_kg: float
    tree_months: float


def footprint_from_log(
    path: str | Path,
    profile: HardwareProfile,
    intensity: float = GERMANY_INTENSITY_KG_PER_KWH,
    tree_month_constant: float = TREE_MONTH_KG,
) -> list[FootprintRow]:
    """Per-stage footprint rows from the timing CSV at ``path``, where a
    re-run request counts once (`stage_runtimes`)."""
    runtimes = stage_runtimes(path)
    rows = []
    for stage in STAGES:
        runtime_h = runtimes[stage] / 3_600_000
        energy = estimate_energy(runtime_h, profile)
        carbon = estimate_carbon(energy, intensity)
        rows.append(FootprintRow(stage, runtime_h, energy, carbon,
                                 to_tree_months(carbon, tree_month_constant)))
    return rows
