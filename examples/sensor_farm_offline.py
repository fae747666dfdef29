#!/usr/bin/env python
"""Scenario: overnight recharge plan for a precision-agriculture sensor farm.

The paper's intro motivates static directional chargers for clustered
sensor deployments.  This example models a greenhouse farm: soil-moisture
sensor clusters along crop rows (tasks, with batteries to refill overnight)
and a fixed fleet of wall/post-mounted directional chargers.  All tasks are
known when the night shift starts — the *centralized offline* setting — so
we build one plan with Algorithm 2, inspect it, and compare it with the
baselines and with the best static aiming.

The example also demonstrates plan introspection: per-task outcomes, which
chargers rotate when, and the effect of the switching delay.

Run:  python examples/sensor_farm_offline.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    Charger,
    ChargerNetwork,
    ChargingTask,
    PowerModel,
    execute_schedule,
    schedule_offline,
    smooth_switches,
    static_orientation_schedule,
)
from repro.offline.batched import greedy_utility_schedule_batch
from repro.sim.engine import orientation_trace

RHO = 1.0 / 12.0  # ~5 s switching on 1-minute slots


def build_farm() -> ChargerNetwork:
    """Three crop rows of sensor clusters + six post-mounted chargers."""
    rng = np.random.default_rng(2024)
    chargers = [
        Charger(i, x, y, charging_angle=np.pi / 3, radius=20.0)
        for i, (x, y) in enumerate(
            [(5, 5), (25, 5), (45, 5), (5, 45), (25, 45), (45, 45)]
        )
    ]
    tasks = []
    task_id = 0
    for row, y in enumerate((10.0, 25.0, 40.0)):
        for col in range(6):
            x = 4.0 + col * 8.0 + rng.uniform(-1.5, 1.5)
            # Sensors face their nearest charger post (installation rule).
            nearest = min(chargers, key=lambda c: (c.x - x) ** 2 + (c.y - y) ** 2)
            orientation = np.arctan2(nearest.y - y, nearest.x - x)
            release = int(rng.integers(0, 10))  # staggered sleep cycles
            duration = int(rng.integers(15, 40))  # minutes of charge window
            tasks.append(
                ChargingTask(
                    id=task_id,
                    x=float(x),
                    y=float(y),
                    orientation=float(orientation),
                    release_slot=release,
                    end_slot=release + duration,
                    required_energy=float(rng.uniform(4_000, 12_000)),  # joules
                    receiving_angle=2 * np.pi / 3,
                    weight=1.0 / 18.0,
                )
            )
            task_id += 1
    return ChargerNetwork(chargers, tasks, power_model=PowerModel(), slot_seconds=60.0)


def bar(value: float, scale: float = 40.0) -> str:
    return "#" * int(round(value * scale))


def main() -> None:
    farm = build_farm()
    print(farm.describe())
    print()

    plans = {}
    result = schedule_offline(farm, num_colors=4, rng=np.random.default_rng(3))
    plans["HASTE (C=4)"] = smooth_switches(farm, result.schedule, rho=RHO)
    (plans["GreedyUtility"],) = greedy_utility_schedule_batch([farm])
    plans["Best static aim"] = static_orientation_schedule(farm)

    print("overnight plan quality (overall charging utility, ρ = 1/12):")
    executions = {}
    for name, plan in plans.items():
        ex = execute_schedule(farm, plan, rho=RHO)
        executions[name] = ex
        print(f"  {name:16s} {ex.total_utility:.4f}  |{bar(ex.total_utility)}")
    print()

    best = executions["HASTE (C=4)"]
    print("per-cluster outcome under HASTE (energy in kJ, utility bar):")
    for t in farm.tasks:
        e = best.energies[t.id] / 1000.0
        u = best.task_utilities[t.id]
        print(
            f"  cluster {t.id:2d}  row@y={t.y:4.0f}  need "
            f"{t.required_energy / 1000.0:5.1f}  got {e:5.1f}  "
            f"U={u:4.2f} |{bar(u, 24)}"
        )
    print()

    trace = orientation_trace(farm, plans["HASTE (C=4)"])
    rotations = best.switches.sum(axis=1)
    print("charger activity:")
    for c in farm.chargers:
        used = np.count_nonzero(~np.isnan(trace[c.id]))
        print(
            f"  charger {c.id} at ({c.x:4.0f},{c.y:4.0f}): "
            f"{int(rotations[c.id])} rotations, oriented for {used} slots"
        )
    print()
    gain = best.total_utility - executions["Best static aim"].total_utility
    print(
        f"re-aiming over time is worth +{gain:.4f} utility "
        f"({100 * gain / max(executions['Best static aim'].total_utility, 1e-9):.1f} %) "
        "over the best fixed orientations on this farm."
    )


if __name__ == "__main__":
    main()
