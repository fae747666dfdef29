#!/usr/bin/env python
"""Quickstart: schedule a small directional charger network end to end.

Builds a random scenario, runs the centralized offline scheduler (paper
Algorithm 2), the distributed online algorithm (Algorithm 3), and the two
comparison baselines, then prints the achieved overall charging utility of
each under the physical model with switching delay.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    SimulationConfig,
    execute_schedule,
    run_online_baseline,
    run_online_haste,
    sample_network,
    schedule_offline,
    smooth_switches,
)
from repro.offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)


def main() -> None:
    # A scaled-down version of the paper's §7.1 setup (25 chargers, 100
    # tasks on a 50 m field); SimulationConfig.paper() is the full thing.
    config = SimulationConfig()
    network = sample_network(config, np.random.default_rng(seed=7))
    print(network.describe())
    print()

    # --- Centralized offline (all tasks known in advance) ---------------
    result = schedule_offline(
        network, num_colors=4, rng=np.random.default_rng(1)
    )
    schedule = smooth_switches(network, result.schedule, rho=config.rho)
    haste = execute_schedule(network, schedule, rho=config.rho)

    # The baseline drivers plan a list of networks at once; one is fine.
    (gu_plan,) = greedy_utility_schedule_batch([network])
    (gc_plan,) = greedy_cover_schedule_batch([network])
    gu = execute_schedule(network, gu_plan, rho=config.rho)
    gc = execute_schedule(network, gc_plan, rho=config.rho)

    print("centralized offline setting (switching delay ρ = 1/12):")
    print(f"  HASTE (C=4)    : {haste.total_utility:.4f}  "
          f"({haste.switch_count} rotations)")
    print(f"  GreedyUtility  : {gu.total_utility:.4f}")
    print(f"  GreedyCover    : {gc.total_utility:.4f}")
    print()

    # --- Distributed online (tasks arrive at their release slots) -------
    online = run_online_haste(
        network,
        num_colors=4,
        tau=config.tau,
        rho=config.rho,
        rng=np.random.default_rng(2),
    )
    on_gu = run_online_baseline(network, "utility", tau=config.tau, rho=config.rho)
    on_gc = run_online_baseline(network, "cover", tau=config.tau, rho=config.rho)

    print("distributed online setting (rescheduling delay τ = 1 slot):")
    print(f"  HASTE-DO (C=4) : {online.total_utility:.4f}  "
          f"({online.stats.messages} control messages over "
          f"{online.events} arrival events)")
    print(f"  GreedyUtility  : {on_gu.total_utility:.4f}")
    print(f"  GreedyCover    : {on_gc.total_utility:.4f}")


if __name__ == "__main__":
    main()
