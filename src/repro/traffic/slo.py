"""The SLO regression gate: compare a traffic run against a pinned baseline.

CI replays a pinned tiny-scale stream (``benchmarks/slo_baseline.json``)
in both kernel modes and fails when the run regresses against the
committed baseline:

* **utility** — deterministic given the seed, so the comparison is
  tight: a drop of more than ``utility_slack`` (2 %) fails.  A *digest*
  mismatch fails first — it means the run did not replay the stream the
  baseline was recorded on, and any utility comparison would be
  meaningless.
* **p99 latency** — wall-clock, so the raw threshold (+15 %) is scaled
  by a **host-speed calibration**: both the baseline recording and the
  gate run time the same fixed, seeded, single-threaded workload
  (:func:`run_calibration`), and the latency budget stretches or
  shrinks by the ratio of the two, clamped to a sanity band so a broken
  calibration can't silently disable the gate.

Baseline schema (one file, one entry per kernel mode)::

    {"format": "repro-haste-slo-baseline-v1",
     "model": {...TrafficModel...}, "spec": "online-haste",
     "loads": [...],
     "modes": {"numpy":    {"calib_s": ..., "points": [
                   {"load":..., "digest":..., "utility":..., "p99_s":...}]},
               "compiled": {...}}}
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from .report import TrafficReport

__all__ = [
    "BASELINE_FORMAT",
    "SLOResult",
    "run_calibration",
    "update_baseline",
    "evaluate_slo",
    "load_baseline",
    "save_baseline",
]

BASELINE_FORMAT = "repro-haste-slo-baseline-v1"

#: Gate defaults: p99 +15 %, utility −2 %.
LATENCY_SLACK = 0.15
UTILITY_SLACK = 0.02

#: Absolute grace added to every p99 budget.  The CI stream is tiny, so
#: its p99 sits in single-digit milliseconds where scheduler jitter alone
#: exceeds 15 %; a regression must clear the relative slack *plus* this
#: floor (an injected slowdown of tens of ms still trips the gate).
LATENCY_FLOOR_S = 0.005

#: Host-speed ratio sanity band: outside it the calibration itself is
#: suspect (wrong units, a stuck clock) and the gate fails loudly.
CALIB_RATIO_MIN = 0.25
CALIB_RATIO_MAX = 8.0


def run_calibration(repeats: int = 5) -> float:
    """Median seconds of a fixed, seeded, single-threaded workload.

    The workload mixes Python arithmetic and dict building with small
    NumPy gathers and element-wise ops — the shape of a negotiation round
    — all far below the sizes at which BLAS spreads work over threads.
    It therefore times this one process, as the p99 latencies do.  A
    multi-threaded workload also times how many idle cores the host has:
    beside one busy process on a 2-vCPU host, the earlier 192×192 matmul
    workload's ratio to its baseline reached 10.5, outside the sanity
    band.  It is kernel-agnostic, so the compiled and NumPy negotiation
    paths share one calibration per host.
    """
    rng = np.random.default_rng(2018)
    energy = rng.uniform(0.0, 2.0, (24, 64))
    need = rng.uniform(0.5, 3.0, 64)
    cols = rng.integers(0, 64, 16)
    times = []
    for _ in range(max(1, repeats)):
        acc = 0.0
        start = time.perf_counter()
        for r in range(1200):
            row = energy[r % 24, cols]
            acc += float(np.minimum((row + 0.25) / need[cols], 1.0).sum())
            acc += sum({j: j * r for j in range(16)}.values())
        times.append(time.perf_counter() - start)
        # Fold the result into a scalar so the work can't be elided.
        _ = acc
    return float(sorted(times)[len(times) // 2])


@dataclass
class SLOResult:
    """Outcome of one gate evaluation."""

    passed: bool
    mode: str
    failures: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"SLO gate [{self.mode}]: {'PASS' if self.passed else 'FAIL'}"
        ]
        for d in self.details:
            lines.append(
                f"  load {d['load']:g}: utility {d['utility']:.5g} "
                f"(floor {d['utility_floor']:.5g}), "
                f"p99 {d['p99_s'] * 1e3:.2f}ms "
                f"(budget {d['p99_budget_s'] * 1e3:.2f}ms, "
                f"host ratio {d['calib_ratio']:.2f})"
            )
        for f in self.failures:
            lines.append(f"  FAIL: {f}")
        return "\n".join(lines)


def load_baseline(path) -> dict:
    with open(str(path), "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("format") != BASELINE_FORMAT:
        raise ValueError(
            f"unknown baseline format {baseline.get('format')!r}"
        )
    return baseline


def save_baseline(baseline: dict, path) -> None:
    with open(str(path), "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def update_baseline(
    baseline: dict | None, report: TrafficReport, calib_s: float
) -> dict:
    """Record ``report``'s kernel mode into ``baseline`` (new dict if None).

    The model/spec/loads header is written on first update and must match
    on later ones — one baseline file describes one pinned stream.
    """
    loads = [p["load"] for p in report.points]
    if baseline is None:
        baseline = {
            "format": BASELINE_FORMAT,
            "model": dict(report.model),
            "spec": report.spec,
            "loads": loads,
            "modes": {},
        }
    else:
        if baseline.get("model") != report.model or baseline.get("spec") != report.spec:
            raise ValueError(
                "baseline model/spec does not match the report; "
                "regenerate the whole baseline file"
            )
    baseline["modes"][report.kernel] = {
        "calib_s": float(calib_s),
        "points": [
            {
                "load": p["load"],
                "digest": p["digest"],
                "utility": p["utility"],
                "p99_s": p["latency"]["p99"],
            }
            for p in report.points
        ],
    }
    return baseline


def evaluate_slo(
    report: TrafficReport,
    baseline: dict,
    *,
    calib_s: float | None = None,
    latency_slack: float = LATENCY_SLACK,
    utility_slack: float = UTILITY_SLACK,
    latency_floor_s: float = LATENCY_FLOOR_S,
) -> SLOResult:
    """Gate ``report`` against ``baseline`` for the report's kernel mode."""
    mode = report.kernel
    failures: list[str] = []
    details: list[dict] = []

    entry = baseline.get("modes", {}).get(mode)
    if entry is None:
        recorded = ", ".join(sorted(baseline.get("modes", {}))) or "(none)"
        return SLOResult(
            passed=False,
            mode=mode,
            failures=[
                f"baseline has no entry for kernel mode {mode!r} "
                f"(recorded: {recorded})"
            ],
        )

    host_calib = calib_s if calib_s is not None else run_calibration()
    base_calib = float(entry["calib_s"])
    ratio = host_calib / base_calib if base_calib > 0 else float("inf")
    if not (CALIB_RATIO_MIN <= ratio <= CALIB_RATIO_MAX):
        failures.append(
            f"host calibration ratio {ratio:.3g} outside sanity band "
            f"[{CALIB_RATIO_MIN}, {CALIB_RATIO_MAX}] "
            f"(host {host_calib:.4g}s vs baseline {base_calib:.4g}s)"
        )
        ratio = min(max(ratio, CALIB_RATIO_MIN), CALIB_RATIO_MAX)

    base_points = {p["load"]: p for p in entry["points"]}
    for p in report.points:
        load = p["load"]
        base = base_points.get(load)
        if base is None:
            failures.append(f"baseline has no load point {load:g} for {mode}")
            continue
        utility_floor = base["utility"] * (1.0 - utility_slack)
        p99_budget = (
            base["p99_s"] * (1.0 + latency_slack) * ratio + latency_floor_s
        )
        detail = {
            "load": load,
            "digest_ok": p["digest"] == base["digest"],
            "utility": p["utility"],
            "utility_floor": utility_floor,
            "p99_s": p["latency"]["p99"],
            "p99_budget_s": p99_budget,
            "calib_ratio": ratio,
        }
        details.append(detail)
        if not detail["digest_ok"]:
            failures.append(
                f"load {load:g}: stream digest mismatch "
                f"({p['digest'][:12]} != {base['digest'][:12]}) — "
                "the run did not replay the pinned stream"
            )
            continue
        if p["utility"] < utility_floor:
            failures.append(
                f"load {load:g}: utility regression "
                f"{p['utility']:.6g} < {utility_floor:.6g} "
                f"(baseline {base['utility']:.6g} − {utility_slack:.0%})"
            )
        if p["latency"]["p99"] > p99_budget:
            failures.append(
                f"load {load:g}: p99 latency regression "
                f"{p['latency']['p99'] * 1e3:.2f}ms > "
                f"{p99_budget * 1e3:.2f}ms (baseline "
                f"{base['p99_s'] * 1e3:.2f}ms + {latency_slack:.0%} "
                f"+ {latency_floor_s * 1e3:g}ms floor, "
                f"host ratio {ratio:.2f})"
            )
    missing = sorted(set(base_points) - {p["load"] for p in report.points})
    if missing:
        failures.append(
            f"report is missing baseline load point(s): "
            f"{', '.join(f'{m:g}' for m in missing)}"
        )
    return SLOResult(passed=not failures, mode=mode, failures=failures, details=details)
