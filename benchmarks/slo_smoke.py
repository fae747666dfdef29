"""CI SLO smoke: replay the pinned traffic stream and gate on regressions.

Runs the one pinned tiny-scale stream (model + loads below) through
``online-haste`` with telemetry on, then evaluates the SLO gate against
``benchmarks/slo_baseline.json`` for whichever kernel mode this process
runs (set ``REPRO_DISABLE_CKERNEL=1`` for the NumPy side).  Exit status
is the CI contract: 0 = gate passed, 1 = regression, 2 = setup problem.

Gate semantics (:mod:`repro.traffic.slo`): the stream digest must match
the baseline exactly (same seed → same stream, so a mismatch means the
generator or instance layer changed and the baseline must be
re-recorded deliberately); utility may not drop more than 2 % (it is
deterministic, so this catches real scheduling regressions, not noise);
p99 per-arrival latency may not exceed baseline + 15 % after host-speed
calibration plus a small absolute jitter floor.

Re-record after an intentional change with::

    PYTHONPATH=src python benchmarks/slo_smoke.py --update-baseline
    REPRO_DISABLE_CKERNEL=1 PYTHONPATH=src python benchmarks/slo_smoke.py --update-baseline

A re-record replays the stream ``RECORD_RUNS`` times and records each
load's median p99 and the median calibration: one run's p99 over ~23
arrivals is in effect its slowest arrival, so a single slow arrival
would otherwise set the baseline.  It exits 2 if the runs disagree on a
digest or utility.

``--inject-slowdown-ms N`` wraps the negotiation step in an N ms sleep
before running — a deliberate latency regression used by CI (and the
tests) to prove the gate actually trips.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

BASELINE_PATH = Path(__file__).resolve().parent / "slo_baseline.json"

#: The pinned stream: tiny but non-trivial (bursty, two load points).
PINNED_MODEL = dict(process="mmpp", rate=1.5, horizon_slots=10, seed=2043)
PINNED_LOADS = (1.0, 2.0)

#: Stream replays a baseline re-record takes the median over.
RECORD_RUNS = 3


def pinned_report():
    from repro.sim.config import SimulationConfig
    from repro.traffic import TrafficModel, run_traffic

    model = TrafficModel(**PINNED_MODEL)
    return run_traffic(
        model,
        SimulationConfig.quick(),
        spec="online-haste",
        loads=PINNED_LOADS,
        telemetry=True,
    )


def median_report(reports):
    """``reports[0]`` with each load's p99 the median over ``reports``.

    Raises ValueError when the runs disagree on a digest or utility —
    the replay is not deterministic, so no baseline can describe it.
    """
    first = reports[0]
    for other in reports[1:]:
        for p, q in zip(first.points, other.points):
            if (p["digest"], p["utility"]) != (q["digest"], q["utility"]):
                raise ValueError(
                    f"runs disagree at load {p['load']:g}: digest "
                    f"{p['digest'][:12]} vs {q['digest'][:12]}, utility "
                    f"{p['utility']!r} vs {q['utility']!r}"
                )
    for j, p in enumerate(first.points):
        p["latency"]["p99"] = statistics.median(
            r.points[j]["latency"]["p99"] for r in reports
        )
    return first


def inject_slowdown(ms: float) -> None:
    """Wrap the negotiation step in a sleep — a deliberate p99 regression."""
    from repro.online import runtime

    real = runtime.negotiate_window

    def slowed(*args, **kwargs):
        time.sleep(ms / 1000.0)
        return real(*args, **kwargs)

    runtime.negotiate_window = slowed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=str(BASELINE_PATH))
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="record this run as the baseline entry for the current kernel",
    )
    parser.add_argument(
        "--inject-slowdown-ms",
        type=float,
        default=0.0,
        help="add an artificial per-negotiation sleep (gate-trip check)",
    )
    args = parser.parse_args()

    from repro.traffic import (
        evaluate_slo,
        load_baseline,
        run_calibration,
        save_baseline,
        update_baseline,
    )

    if args.update_baseline and args.inject_slowdown_ms > 0:
        print("error: refusing to record a baseline with an injected "
              "slowdown", file=sys.stderr)
        return 2
    if args.inject_slowdown_ms > 0:
        inject_slowdown(args.inject_slowdown_ms)
        print(f"(injected {args.inject_slowdown_ms:g}ms negotiation slowdown)")

    calibs, reports = [], []
    for _ in range(RECORD_RUNS if args.update_baseline else 1):
        calibs.append(run_calibration())
        reports.append(pinned_report())
    calib, report = calibs[0], reports[0]
    print(report.summary())

    if args.update_baseline:
        try:
            report = median_report(reports)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            baseline = None
        baseline = update_baseline(
            baseline, report, statistics.median(calibs)
        )
        save_baseline(baseline, args.baseline)
        print(f"baseline entry [{report.kernel}] (median p99 of "
              f"{RECORD_RUNS} runs) written to {args.baseline}")
        return 0

    try:
        baseline = load_baseline(args.baseline)
    except FileNotFoundError:
        print(f"error: no baseline at {args.baseline}; run with "
              "--update-baseline first", file=sys.stderr)
        return 2
    result = evaluate_slo(report, baseline, calib_s=calib)
    print(result.summary())
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
