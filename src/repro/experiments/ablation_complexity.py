"""Ablation — the centralized scheduler's complexity claim (Thm 5.1).

Theorem 5.1 puts Algorithm 2 at ``O(C(nmK)²)``.  Timing-based validation
is CI-hostile, so this ablation counts *deterministic work units* instead
(:mod:`repro.analysis.complexity`): the number of greedy partition scans
must grow linearly in each of ``C``, ``n``, and ``K`` (scans =
``C × #partitions``, partitions = chargers × relevant slots), and the
candidate count additionally grows with task density through the dominant
set counts ``|Γ_i|``.
"""

from __future__ import annotations

import numpy as np

from ..analysis.complexity import count_offline_work
from ..sim.workload import sample_network
from .common import Experiment, ExperimentOutput, ShapeCheck, config_for_scale


def run(*, trials: int, seed: int, scale: str, processes: int) -> ExperimentOutput:
    base = config_for_scale(scale)

    def work(cfg, colors=1, trial=0):
        net = sample_network(
            cfg, np.random.default_rng(np.random.SeedSequence(entropy=(seed, trial)))
        )
        return count_offline_work(net, colors, seed=seed)

    rows = ["  knob                     value→value   scans ratio   candidates ratio"]
    checks = []

    # Colors: scans must scale exactly linearly in C (same network).
    w1 = work(base, colors=1)
    w4 = work(base, colors=4)
    scan_ratio_c = w4.scans / max(w1.scans, 1)
    rows.append(
        f"  colors C                    1→4          {scan_ratio_c:11.2f}"
        f"   {w4.candidates / max(w1.candidates, 1):16.2f}"
    )
    checks.append(
        ShapeCheck(
            "scans scale ≈ linearly in C (C=1 → C=4 within sampling holes)",
            bool(3.0 <= scan_ratio_c <= 4.0 + 1e-9),
            f"×{scan_ratio_c:.2f} (exact 4 minus empty-color-match skips)",
        )
    )

    # Chargers: double n → partitions (and scans) roughly double.
    small = work(base.replace(num_chargers=max(base.num_chargers // 2, 2)))
    big = work(base)
    n_ratio = base.num_chargers / max(base.num_chargers // 2, 2)
    scan_ratio_n = big.scans / max(small.scans, 1)
    rows.append(
        f"  chargers n          {max(base.num_chargers // 2, 2):5d}→{base.num_chargers:<5d}"
        f"     {scan_ratio_n:11.2f}   {big.candidates / max(small.candidates, 1):16.2f}"
    )
    checks.append(
        ShapeCheck(
            "scans grow ≈ proportionally with the charger count",
            bool(0.5 * n_ratio <= scan_ratio_n <= 2.0 * n_ratio),
            f"n ×{n_ratio:.1f} → scans ×{scan_ratio_n:.2f}",
        )
    )

    # Horizon: double K (longer tasks) → relevant slots/partitions grow.
    short_cfg = base.replace(
        duration_slots_min=max(base.duration_slots_min // 2, 1),
        duration_slots_max=max(base.duration_slots_max // 2, 2),
        horizon_slots=max(base.horizon_slots // 2, 2),
    )
    short = work(short_cfg)
    long = work(base)
    scan_ratio_k = long.scans / max(short.scans, 1)
    rows.append(
        f"  horizon K           {short_cfg.horizon_slots:5d}→{base.horizon_slots:<5d}"
        f"     {scan_ratio_k:11.2f}   {long.candidates / max(short.candidates, 1):16.2f}"
    )
    checks.append(
        ShapeCheck(
            "scans grow with the horizon (longer windows, more partitions)",
            bool(scan_ratio_k > 1.2),
            f"K ×2 → scans ×{scan_ratio_k:.2f}",
        )
    )

    return ExperimentOutput(
        experiment_id="ablation-complexity",
        title="Ablation: scheduler work scaling vs Thm 5.1's O(C(nmK)²)",
        table="\n".join(rows),
        checks=checks,
        data={"c": (w1, w4), "n": (small, big), "k": (short, long)},
    )


EXPERIMENT = Experiment(
    id="ablation-complexity",
    figure="(none — Thm 5.1 complexity claim)",
    title="Ablation: scheduler work scaling vs Thm 5.1's O(C(nmK)²)",
    paper_claim=(
        "Algorithm 2's work grows linearly in each of C, n, K (the "
        "O(C(nmK)²) accounting), measured in deterministic scan counts."
    ),
    runner=run,
)
