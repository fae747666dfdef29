"""repro — Charging Task Scheduling for Directional Wireless Charger Networks.

A full reproduction of the HASTE system (Dai et al., ICPP 2018 / IEEE TMC
2021): the directional charging model, dominant-task-set extraction, the
submodular/partition-matroid formulation, the centralized offline
TabularGreedy scheduler, the distributed online negotiation protocol, the
comparison baselines, exact optimal solvers for small instances, the
simulation and testbed-emulation layers, and one experiment module per
paper figure.

Quick start::

    import numpy as np
    from repro import SimulationConfig, sample_network, schedule_offline
    from repro import execute_schedule

    cfg = SimulationConfig.quick()
    net = sample_network(cfg, np.random.default_rng(0))
    result = schedule_offline(net, num_colors=4, rng=np.random.default_rng(1))
    print(execute_schedule(net, result.schedule, rho=cfg.rho).summary())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from . import obs
from .core import (
    AnisotropicPowerModel,
    Charger,
    ChargerNetwork,
    ChargingTask,
    DominantSet,
    LinearBoundedUtility,
    LogUtility,
    PowerLawUtility,
    PowerModel,
    Schedule,
    SlotGrid,
    UtilityFunction,
)
from .objective import HasteObjective, HasteSetFunction
from .offline import (
    CentralizedScheduler,
    OfflineResult,
    OptimalResult,
    brute_force_optimal,
    optimal_schedule,
    random_schedule,
    schedule_offline,
    smooth_switches,
    static_orientation_schedule,
)
from .online import (
    MessageStats,
    OnlineRunResult,
    negotiate_window,
    run_online_baseline,
    run_online_haste,
)
from .sim import (
    ExecutionResult,
    SimulationConfig,
    SweepResult,
    execute_schedule,
    run_sweep,
    run_trials,
    sample_network,
)

__version__ = "1.0.0"

__all__ = [
    "AnisotropicPowerModel",
    "CentralizedScheduler",
    "Charger",
    "ChargerNetwork",
    "ChargingTask",
    "DominantSet",
    "ExecutionResult",
    "HasteObjective",
    "HasteSetFunction",
    "LinearBoundedUtility",
    "LogUtility",
    "MessageStats",
    "OfflineResult",
    "OnlineRunResult",
    "OptimalResult",
    "PowerLawUtility",
    "PowerModel",
    "Schedule",
    "SimulationConfig",
    "SlotGrid",
    "SweepResult",
    "UtilityFunction",
    "brute_force_optimal",
    "execute_schedule",
    "negotiate_window",
    "obs",
    "optimal_schedule",
    "random_schedule",
    "run_online_baseline",
    "run_online_haste",
    "run_sweep",
    "run_trials",
    "sample_network",
    "schedule_offline",
    "smooth_switches",
    "static_orientation_schedule",
]
