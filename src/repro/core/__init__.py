"""Core entities and geometry for the HASTE reproduction.

The problem's physical layer: chargers, tasks, the directional power model,
utility functions, dominant-task-set extraction, and the precomputed
:class:`~repro.core.network.ChargerNetwork` every scheduler consumes.
"""

from .charger import Charger
from .coverage import DominantSet, dominant_sets_from_arcs
from .geometry import Arc, wrap_angle
from .network import IDLE_POLICY, ChargerNetwork
from .policy import Schedule
from .power import AnisotropicPowerModel, PowerModel
from .task import ChargingTask
from .timeline import SlotGrid
from .utility import (
    LinearBoundedUtility,
    LogUtility,
    PowerLawUtility,
    UtilityFunction,
)

__all__ = [
    "AnisotropicPowerModel",
    "Arc",
    "Charger",
    "ChargerNetwork",
    "ChargingTask",
    "DominantSet",
    "IDLE_POLICY",
    "LinearBoundedUtility",
    "LogUtility",
    "PowerLawUtility",
    "PowerModel",
    "Schedule",
    "SlotGrid",
    "UtilityFunction",
    "dominant_sets_from_arcs",
    "wrap_angle",
]
