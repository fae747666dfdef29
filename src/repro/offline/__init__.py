"""Centralized offline scheduling: Algorithm 2, baselines, exact optima."""

from .baselines import random_schedule, static_orientation_schedule
from .centralized import CentralizedScheduler, OfflineResult, schedule_offline
from .optimal import OptimalResult, brute_force_optimal, optimal_schedule
from .smoothing import smooth_switches

__all__ = [
    "CentralizedScheduler",
    "OfflineResult",
    "OptimalResult",
    "brute_force_optimal",
    "optimal_schedule",
    "random_schedule",
    "schedule_offline",
    "smooth_switches",
    "static_orientation_schedule",
]
