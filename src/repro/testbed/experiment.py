"""Field-experiment emulation: per-task utilities on the testbeds.

Figures 21/22 (topology 1) and 24/25 (topology 2) of the paper plot, for
each charging task, the utility achieved by HASTE (C = 4), GreedyUtility,
and GreedyCover — once for the centralized offline setting and once for
the distributed online setting.  :func:`run_testbed` reproduces exactly
that data as a :class:`TestbedReport`, with the paper's "on average / at
most" improvement figures computed the same way (averaging per-task
utilities, reporting the worst-case per-task gap).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.network import ChargerNetwork
from ..offline.batched import (
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from ..offline.centralized import schedule_offline
from ..offline.smoothing import smooth_switches
from ..online.runtime import run_online_baseline, run_online_haste
from ..sim.engine import execute_schedule
from .powercast import TX91501

__all__ = ["TestbedReport", "run_testbed"]


@dataclass
class TestbedReport:
    """Per-task utilities for the three algorithms in one setting."""

    # Not a pytest test class despite the Test* name.
    __test__ = False

    setting: str  # "offline" or "online"
    task_utilities: dict[str, np.ndarray] = field(repr=False)
    total_utility: dict[str, float] = field(default_factory=dict)

    ALGORITHMS = ("HASTE", "GreedyUtility", "GreedyCover")

    def improvement_over(self, baseline: str, *, floor: float = 0.05) -> tuple[float, float]:
        """(average %, max %) improvement of HASTE over a baseline.

        Computed on per-task utilities, mirroring the paper's per-task
        reading of Figs. 21–25; the baseline is floored at ``floor`` so a
        starved baseline task cannot blow the percentage up to infinity.
        """
        ours = self.task_utilities["HASTE"]
        theirs = self.task_utilities[baseline]
        imp = 100.0 * (ours - theirs) / np.maximum(theirs, floor)
        return float(imp.mean()), float(imp.max())

    def total_improvement_over(self, baseline: str) -> float:
        """Percent improvement in *overall* charging utility."""
        ours = self.total_utility["HASTE"]
        theirs = self.total_utility[baseline]
        if theirs <= 0:
            return 0.0
        return 100.0 * (ours - theirs) / theirs

    def render(self) -> str:
        """Text table: rows = tasks, columns = algorithms (a Fig. 21-alike)."""
        m = len(next(iter(self.task_utilities.values())))
        header = ["task"] + list(self.ALGORITHMS)
        rows = [header]
        for j in range(m):
            rows.append(
                [str(j + 1)]
                + [f"{self.task_utilities[a][j]:.3f}" for a in self.ALGORITHMS]
            )
        rows.append(
            ["TOTAL"] + [f"{self.total_utility[a]:.4f}" for a in self.ALGORITHMS]
        )
        widths = [max(len(r[c]) for r in rows) for c in range(len(header))]
        lines = ["  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows]
        lines.insert(1, "  ".join("-" * w for w in widths))
        return "\n".join(lines)


def run_testbed(
    network: ChargerNetwork,
    setting: str = "offline",
    *,
    num_colors: int = 4,
    seed: int = 0,
) -> TestbedReport:
    """Run the three algorithms on a testbed network in one setting.

    ``setting="offline"`` uses the centralized Algorithm 2 and the offline
    baselines; ``setting="online"`` uses HASTE-DO and the τ-delayed
    baselines.  Switching delay ρ and rescheduling delay τ come from the
    TX91501 hardware record.
    """
    if setting not in ("offline", "online"):
        raise ValueError(f"setting must be 'offline' or 'online', got {setting!r}")
    rho, tau = TX91501.rho, TX91501.tau
    rng = np.random.default_rng(seed)

    task_utilities: dict[str, np.ndarray] = {}
    totals: dict[str, float] = {}

    if setting == "offline":
        haste = schedule_offline(network, num_colors, rng=rng)
        runs = {
            "HASTE": smooth_switches(network, haste.schedule, rho=rho),
            "GreedyUtility": greedy_utility_schedule_batch([network])[0],
            "GreedyCover": greedy_cover_schedule_batch([network])[0],
        }
        for name, sched in runs.items():
            ex = execute_schedule(network, sched, rho=rho)
            task_utilities[name] = ex.task_utilities
            totals[name] = ex.total_utility
    else:
        haste = run_online_haste(
            network, num_colors=num_colors, tau=tau, rho=rho, rng=rng
        )
        task_utilities["HASTE"] = haste.execution.task_utilities
        totals["HASTE"] = haste.total_utility
        for name, kind in (("GreedyUtility", "utility"), ("GreedyCover", "cover")):
            run = run_online_baseline(network, kind, tau=tau, rho=rho)
            task_utilities[name] = run.execution.task_utilities
            totals[name] = run.total_utility

    return TestbedReport(
        setting=setting, task_utilities=task_utilities, total_utility=totals
    )
