"""CI smoke test for the batched solve path (exit 0 = pass).

Runs under whichever kernel mode the environment selects
(``REPRO_DISABLE_CKERNEL``) and checks:

1. **loop equivalence** — a pinned ragged batch (quick- and small-scale
   instances, three seeds each) solved through
   :func:`repro.solvers.solve_batch` must return artifacts bit-identical
   (``content_hash``) to a :func:`solve_instance` loop, for every solver
   with a batched kernel (whose solo solve is a batch of one) *and* for a
   fallback solver without one (the sequential-loop fallback must also
   be exact);
2. **online replay** — ``online-haste`` (whose synchronous negotiation
   runs one ``negotiate_slot`` call of the C kernel per slot in compiled
   mode) must replay to the same artifact on the same instance;
3. **batched beats solo** — the best-of-N batched pass over warm
   prepared state must beat the best-of-N loop of solo solves (batches
   of one) on sustained instances/sec.

Usage::

    PYTHONPATH=src python benchmarks/batch_smoke.py
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Solvers with a batched kernel, plus one loop-fallback spec.
BATCHED_SPECS = ("greedy-utility", "greedy-cover", "greedy-utility:utility=log")
FALLBACK_SPEC = "static"
SEEDS = (0, 1, 2)


def _ragged_batch():
    from repro.sim.config import SimulationConfig
    from repro.solvers import Instance

    quick = SimulationConfig.quick()
    small = SimulationConfig.small_scale()
    return [Instance.sample(quick, 600 + s) for s in SEEDS] + [
        Instance.sample(small, 700 + s) for s in SEEDS
    ]


def check_loop_equivalence() -> None:
    from repro.solvers import solve_batch, solve_instance

    instances = _ragged_batch()
    for spec in BATCHED_SPECS + (FALLBACK_SPEC,):
        want = [solve_instance(spec, inst).content_hash() for inst in instances]
        got = [a.content_hash() for a in solve_batch(spec, instances)]
        if want != got:
            raise AssertionError(f"solve_batch({spec!r}) diverged: "
                                 f"{got} != {want}")
        print(f"  {spec}: batch of {len(instances)} bit-identical")


def check_online_replay() -> None:
    from repro.solvers import solve_instance

    instances = _ragged_batch()[:3]
    for inst in instances:
        a = solve_instance("online-haste", inst)
        b = solve_instance("online-haste", inst)
        if a.content_hash() != b.content_hash():
            raise AssertionError("online-haste replay not deterministic")
    print(f"  online-haste: replay deterministic "
          f"({len(instances)} instances)")


def check_batched_beats_solo() -> None:
    import numpy as np

    from repro.sim.config import SimulationConfig
    from repro.solvers import Instance, get_solver
    from repro.solvers.prepared import prepare

    spec = "greedy-utility"
    solver = get_solver(spec)
    cfg = SimulationConfig.quick()
    instances = [Instance.sample(cfg, 800 + j) for j in range(16)]
    prepareds = [prepare(inst, cached=False) for inst in instances]
    for p in prepareds:
        p.network
    configs = [inst.config for inst in instances]
    seeds = [inst.seed for inst in instances]

    def solo():
        return [
            solver.solve_prepared(p, np.random.default_rng(s), c)
            for p, c, s in zip(prepareds, configs, seeds)
        ]

    def bat():
        rngs = [np.random.default_rng(s) for s in seeds]
        return solver.solve_prepared_batch(prepareds, rngs, configs)

    solo()  # warm both paths before timing
    bat()
    solo_best = batch_best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        solo()
        solo_best = min(solo_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        bat()
        batch_best = min(batch_best, time.perf_counter() - t0)
    speedup = solo_best / batch_best
    print(f"  throughput: {len(instances) / solo_best:.1f} → "
          f"{len(instances) / batch_best:.1f} inst/s ({speedup:.2f}x)")
    if batch_best >= solo_best:
        raise AssertionError(
            f"batched pass ({batch_best:.4f}s) did not beat the "
            f"loop of solo solves ({solo_best:.4f}s)"
        )


def main() -> int:
    mode = (
        "numpy" if os.environ.get("REPRO_DISABLE_CKERNEL") == "1"
        else "compiled"
    )
    print(f"batch smoke (kernel mode: {mode})")
    print("[1/3] loop equivalence on a pinned ragged batch")
    check_loop_equivalence()
    print("[2/3] online negotiation replay (online-haste)")
    check_online_replay()
    print("[3/3] batched beats solo-solve throughput")
    check_batched_beats_solo()
    print("batch smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
