"""Dual-path universal inverter controller in a quasi-static phasor
microgrid simulator."""

__version__ = "0.1.0"

from .frames import PerUnitBase  # noqa: F401
from .runner import SimResult, run  # noqa: F401
from .scenario import ScenarioConfig, load_config, parse_config  # noqa: F401
from .supervisor import Mode  # noqa: F401
