"""Serving-engine benchmark → ``BENCH_serve.json``.

Measures what the warm-state engine actually buys on the serving hot
path:

* **prepare phase** (the acceptance row) — the cold prepare (network
  construction, objective binding, scheduler/partition enumeration) vs
  a :data:`~repro.solvers.prepared.PREPARED_CACHE` hit for the same
  ``content_hash``.  This is exactly the work the warm path never
  repeats, measured in isolation so the number is deterministic.
* **cold vs warm end-to-end** — the same seeded request through
  :class:`repro.serve.engine.ScheduleEngine` with the prepared cache
  cleared before every "cold" repeat vs left warm, result cache off on
  both sides so each repeat really solves.  Measured on
  prepare-sensitive specs (cheap solve, full prepare) — for
  solve-dominated specs the prepare saving drowns in run-to-run noise,
  which the prepare-phase row exists to isolate.  Cold and warm repeats
  are interleaved in time so host drift hits both sides equally;
  medians are reported.
* **result-cache hit** — the same request again with the result cache
  on: an exact repeat of a seeded request is answered without solving.
* **daemon round trip** — one warm request through the full asyncio
  HTTP/JSON stack (serialize → parse → queue → solve → respond), so the
  report also pins the wire overhead on top of the engine path.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py --serve           # paper scale
    PYTHONPATH=src python benchmarks/run_benchmarks.py --serve --quick   # CI-sized

(or run this file directly with the same flags).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Specs the end-to-end cold/warm row is measured on — cheap solves over
#: a full prepare, the request mix the prepared cache is for.
SPECS = ("greedy-utility", "haste-offline")


def _config(scale: str):
    from repro.sim.config import SimulationConfig

    return (
        SimulationConfig.paper() if scale == "paper" else SimulationConfig.quick()
    )


def prepare_phase(instance, config, repeats: int) -> dict:
    """Cold prepare (network + objective + scheduler) vs a cache hit."""
    from repro.solvers import clear_prepared_cache, prepare

    def warm_up(prepared):
        _ = prepared.network
        prepared.objective()
        prepared.scheduler()
        return prepared

    cold, warm = [], []
    warm_up(prepare(instance))  # prime
    for r in range(repeats):
        clear_prepared_cache()
        t0 = time.perf_counter()
        first = warm_up(prepare(instance))
        cold.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        again = warm_up(prepare(instance))
        warm.append(time.perf_counter() - t0)
        assert again is first, "warm prepare missed the cache"
        print(f"  prepare [cold {r + 1}/{repeats}] {cold[-1]:.4f}s "
              f"[warm] {warm[-1] * 1e6:.1f}us", flush=True)
    b, a = statistics.median(cold), statistics.median(warm)
    return {
        "op": "prepare_phase",
        "metric": "seconds",
        "mode": "prepared-cache",
        "instance": {"n": instance.n, "m": instance.m,
                     "K": int(config.horizon_slots)},
        "repeats": repeats,
        "before_median_s": b,
        "after_median_s": a,
        "speedup": b / a if a > 0 else float("inf"),
    }


def cold_vs_warm(engine, instance, config, spec: str, seed: int,
                 repeats: int) -> dict:
    """Interleaved cold/warm engine solves; result cache off on both sides."""
    from repro.solvers import clear_prepared_cache

    cold, warm, hashes = [], [], set()

    def solve():
        t0 = time.perf_counter()
        result = engine.solve(
            spec, instance, seed=seed, config=config, use_result_cache=False
        )
        dt = time.perf_counter() - t0
        hashes.add(result.artifact.content_hash())
        return dt, result

    # Prime once so "warm" repeats always find prepared state.
    solve()
    for r in range(repeats):
        clear_prepared_cache()
        dt, result = solve()
        assert not result.warm, "cold repeat found warm prepared state"
        cold.append(dt)
        dt, result = solve()
        assert result.warm, "warm repeat missed the prepared cache"
        warm.append(dt)
        print(f"  {spec} [cold {r + 1}/{repeats}] {cold[-1]:.4f}s "
              f"[warm] {warm[-1]:.4f}s", flush=True)
    assert len(hashes) == 1, f"cold/warm artifacts diverged: {hashes}"
    b, a = statistics.median(cold), statistics.median(warm)
    return {
        "op": f"serve_cold_vs_warm[{spec}]",
        "metric": "seconds",
        "mode": "prepared-cache",
        "spec": spec,
        "instance": {"n": instance.n, "m": instance.m,
                     "K": int(config.horizon_slots)},
        "repeats": repeats,
        "before_median_s": b,
        "after_median_s": a,
        "speedup": b / a if a > 0 else float("inf"),
        "artifact_hash": next(iter(hashes)),
    }


def result_cache_hit(engine, instance, config, spec: str, seed: int,
                     repeats: int) -> dict:
    """Warm solve vs result-cache hit on the identical request."""
    engine.clear_result_cache()
    solved, hits = [], []
    for _ in range(repeats):
        engine.clear_result_cache()
        t0 = time.perf_counter()
        first = engine.solve(spec, instance, seed=seed, config=config)
        solved.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        again = engine.solve(spec, instance, seed=seed, config=config)
        hits.append(time.perf_counter() - t0)
        assert again.cached and not first.cached
        assert again.artifact.content_hash() == first.artifact.content_hash()
    b, a = statistics.median(solved), statistics.median(hits)
    return {
        "op": f"result_cache_hit[{spec}]",
        "metric": "seconds",
        "mode": "result-cache",
        "spec": spec,
        "repeats": repeats,
        "before_median_s": b,
        "after_median_s": a,
        "speedup": b / a if a > 0 else float("inf"),
    }


def daemon_round_trip(engine, scale: str, spec: str, seed: int,
                      repeats: int) -> dict:
    """Warm end-to-end HTTP round trips vs the in-process engine path."""
    from repro.serve import ServeClient, start_in_thread

    sample = {"scale": scale if scale == "quick" else "paper", "seed": seed}
    with start_in_thread(engine, default_spec=spec) as handle:
        client = ServeClient(port=handle.port)
        client.wait_ready()
        status, reply = client.solve(spec=spec, sample=sample, seed=seed)
        assert status == 200, reply
        rtts, solve_s = [], []
        for _ in range(repeats):
            t0 = time.perf_counter()
            status, reply = client.solve(spec=spec, sample=sample, seed=seed)
            rtts.append(time.perf_counter() - t0)
            assert status == 200 and reply["cached"], reply
            solve_s.append(float(reply["solve_s"]))
    rtt = statistics.median(rtts)
    return {
        "op": f"daemon_round_trip[{spec}]",
        "metric": "seconds",
        "mode": "http-cached",
        "spec": spec,
        "repeats": repeats,
        "round_trip_median_s": rtt,
        "artifact_hash": reply["artifact_hash"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized instances instead of paper scale")
    parser.add_argument("--output", default=None)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--skip-daemon", action="store_true")
    args = parser.parse_args()

    scale = "quick" if args.quick else "paper"
    repeats = args.repeats or (5 if args.quick else 3)

    from repro.serve import ScheduleEngine
    from repro.solvers import Instance
    from repro.traffic import kernel_mode

    config = _config(scale)
    instance = Instance.sample(config, args.seed)
    results: list[dict] = []
    engine = ScheduleEngine(workers=2)
    try:
        print(f"prepare phase ({scale}, {repeats} repeats/side)")
        results.append(prepare_phase(instance, config, repeats))
        for spec in SPECS:
            print(f"cold vs warm ({spec}, {scale}, {repeats} repeats/side)")
            results.append(
                cold_vs_warm(engine, instance, config, spec, args.seed, repeats)
            )
        print(f"result-cache hit ({SPECS[0]}, {repeats} repeats)")
        results.append(
            result_cache_hit(engine, instance, config, SPECS[0], args.seed,
                             repeats)
        )
        if not args.skip_daemon:
            print(f"daemon round trip ({SPECS[0]}, {repeats} repeats)")
            results.append(
                daemon_round_trip(engine, scale, SPECS[0], args.seed, repeats)
            )
        stats = engine.stats()
    finally:
        engine.close()

    report = {
        "description": "Serving engine: the prepare-phase cost a warm "
                       "PREPARED_CACHE hit skips, cold-vs-warm end-to-end "
                       "solves (result cache off, interleaved medians), "
                       "result-cache hit latency, and the warm HTTP "
                       "round trip through the asyncio daemon",
        "scale": scale,
        "seed": args.seed,
        "kernel": kernel_mode(),
        "python": sys.version.split()[0],
        "results": results,
        "engine_stats": {k: stats[k] for k in
                         ("requests", "completed", "errors", "rejected",
                          "result_cache", "prepared_cache")},
    }
    out = args.output or str(REPO_ROOT / "BENCH_serve.json")
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {out}")
    for r in results:
        if "speedup" in r:
            print(f"  {r['op']:32s} {r['before_median_s']:.4f}s → "
                  f"{r['after_median_s']:.4f}s  ({r['speedup']:.2f}x)")
        else:
            print(f"  {r['op']:32s} {r['round_trip_median_s'] * 1e3:.2f}ms "
                  f"round trip")


if __name__ == "__main__":
    main()
