"""Seeded scenario generator of the benchmark's own (paper §7.1).

Every instance the benchmark hands the program is drawn here, from the
``--seed`` argument alone, and never through ``Instance.sample`` or
``repro.sim.workload``: a change to the program's sampler cannot change
the workload.  The distributions follow §7.1 of the paper:

* chargers and tasks uniform on a square field (50 m × 50 m);
* ``α = 10000``, ``β = 40``, ``D = 20 m``, ``A_s = A_o = π/3``,
  ``T_s = 60 s``, ``ρ = 1/12``, ``τ = 1``, ``w_j = 1/m``;
* task orientation uniform on the circle, required energy uniform in
  ``[5, 20] kJ``, duration uniform over ``[10, D_max]`` slots;
* release slot uniform over the slots that keep the window inside the
  horizon — the release-time substitution the repo documents in
  DESIGN.md, since the paper leaves release times unspecified.

Two scales are used: ``paper`` (n=50, m=200, 120 slots, D_max = 120) and
``default`` (n=25, m=100, 60 slots, D_max = 60), the program's default
configuration.  A ``warmup`` scale (n=10, m=30, 20 slots) serves the
one warm-up solve of each run's set-up.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TWO_PI = 2.0 * math.pi

#: name -> (chargers, tasks, horizon slots = longest duration)
SCALES = {
    "paper": (50, 200, 120),
    "default": (25, 100, 60),
    "warmup": (10, 30, 20),
}

FIELD = 50.0
ALPHA = 10000.0
BETA = 40.0
RADIUS = 20.0
SECTOR = math.pi / 3
SLOT_SECONDS = 60.0
RHO = 1.0 / 12.0
TAU = 1
ENERGY = (5_000.0, 20_000.0)
MIN_DURATION = 10
COLORS = 4
SAMPLES = 24


def draw(scale: str, seed: int, *key: int) -> dict:
    """One scenario as plain arrays, pinned by ``(seed, *key)``."""
    n, m, horizon = SCALES[scale]
    rng = np.random.default_rng([seed, *key])
    charger_xy = rng.uniform(0.0, FIELD, size=(n, 2))
    task_xy = rng.uniform(0.0, FIELD, size=(m, 2))
    duration = rng.integers(MIN_DURATION, horizon + 1, size=m)
    release = rng.integers(0, horizon - duration + 1).astype(np.int64)
    orientation = np.mod(rng.uniform(0.0, TWO_PI, size=m), TWO_PI)
    orientation[orientation >= TWO_PI] = 0.0
    energy = rng.uniform(ENERGY[0], ENERGY[1], size=m)
    return {
        "scale": scale,
        "seed": int(rng.integers(0, 2**31 - 1)),
        "charger_xy": charger_xy,
        "charger_angle": np.full(n, SECTOR),
        "charger_radius": np.full(n, RADIUS),
        "task_xy": task_xy,
        "task_orientation": orientation,
        "release_slots": release,
        "end_slots": release + duration.astype(np.int64),
        "required_energy": energy,
        "receiving_angle": np.full(m, SECTOR),
        "weights": np.full(m, 1.0 / m),
    }


_ARRAYS = (
    "charger_xy",
    "charger_angle",
    "charger_radius",
    "task_xy",
    "task_orientation",
    "release_slots",
    "end_slots",
    "required_energy",
    "receiving_angle",
    "weights",
)


def to_instance(scenario: dict):
    """The program's ``Instance`` for a drawn scenario (arrays handed over)."""
    from repro.sim.config import SimulationConfig
    from repro.solvers import Instance

    n, m, horizon = SCALES[scenario["scale"]]
    config = SimulationConfig(
        field_size=FIELD,
        num_chargers=n,
        num_tasks=m,
        alpha=ALPHA,
        beta=BETA,
        radius=RADIUS,
        charging_angle=SECTOR,
        receiving_angle=SECTOR,
        slot_seconds=SLOT_SECONDS,
        rho=RHO,
        tau=TAU,
        energy_min=ENERGY[0],
        energy_max=ENERGY[1],
        duration_slots_min=MIN_DURATION,
        duration_slots_max=horizon,
        horizon_slots=horizon,
        num_colors=COLORS,
        num_samples=SAMPLES,
    )
    return Instance(
        config=config,
        seed=scenario["seed"],
        alpha=ALPHA,
        beta=BETA,
        gain_exponent=None,
        slot_seconds=SLOT_SECONDS,
        **{name: scenario[name].copy() for name in _ARRAYS},
    )


def digest(scenarios) -> str:
    """sha256 over every array of every scenario, in order (first 16 hex)."""
    h = hashlib.sha256()
    for sc in scenarios:
        h.update(sc["scale"].encode())
        h.update(str(sc["seed"]).encode())
        for name in _ARRAYS:
            arr = np.ascontiguousarray(sc[name])
            h.update(arr.dtype.str.encode())
            h.update(arr.tobytes())
    return h.hexdigest()[:16]
