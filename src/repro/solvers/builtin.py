"""The built-in solvers: every algorithm in the repo, registered by name.

Each body is the *solve phase* of the two-phase contract: it receives a
:class:`~repro.solvers.prepared.PreparedNetwork` (warm network, shared
objectives/schedulers, cached scoring utilities) plus one rng stream, and
reproduces its pre-registry entry point *bit for bit* on the same rng —
pinned by ``tests/test_solvers_registry.py``.  Warm state is safe to
share because every prepared product is static across runs (idempotent
value caches; rng is threaded per solve).  The mapping:

=============================  =====================================================
spec                           pre-refactor call
=============================  =====================================================
``haste-offline``              ``schedule_offline(net, cfg.num_colors,
                               num_samples=cfg.num_samples, rng=rng)`` + smoothing
``haste-offline:c=1``          ``schedule_offline(net, 1, rng=rng)`` + smoothing
``haste-offline:smooth=0``     the raw Algorithm 2 schedule (Figs. 8/18 style)
``greedy-utility``             ``greedy_utility_schedule`` + execution
``greedy-cover``               ``greedy_cover_schedule`` + execution
``static``                     ``static_orientation_schedule`` + execution
``random``                     ``random_schedule(net, rng)`` + execution
``offline-optimal``            ``optimal_schedule`` (HiGHS MILP)
``online-haste``               ``run_online_haste(..., num_colors=cfg.num_colors)``
``online-haste:c=1``           ``run_online_haste(..., num_colors=1)``
``online-greedy-utility``      ``run_online_baseline(net, "utility")``
``online-greedy-cover``        ``run_online_baseline(net, "cover")``
=============================  =====================================================

Parameter defaults of ``None`` resolve from the
:class:`~repro.sim.config.SimulationConfig` at solve time (``c`` →
``num_colors``, ``samples`` → ``num_samples``, ``tau`` → ``tau``); the
switching delay ``ρ`` always comes from the config, as it did in the old
adapters.  ``utility`` selects a scoring family for the §1.3 concave-
utility extension: ``linear`` / ``log`` / ``powerlaw`` (with ``gamma``),
planning *and* execution both scored under the chosen family.

Note on ``c=1`` sampling: :class:`~repro.submodular.estimation.ColorSampler`
forces a single sample when ``num_colors == 1`` (both the centralized
scheduler and the online negotiation construct one), so the ``samples``
parameter is inert at ``c=1`` and the rng stream matches the old adapters
that left ``num_samples`` at its default.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.utility import LinearBoundedUtility, LogUtility, PowerLawUtility
from ..offline.baselines import (
    greedy_cover_schedule,
    greedy_utility_schedule,
    random_schedule,
    static_orientation_schedule,
)
from ..faults.model import FaultModel
from ..offline.batched import (
    execute_schedule_batch,
    greedy_cover_schedule_batch,
    greedy_utility_schedule_batch,
)
from ..offline.optimal import optimal_schedule
from ..offline.smoothing import smooth_switches
from ..online.runtime import run_online_baseline, run_online_haste
from ..sim.engine import execute_schedule
from .artifact import RunArtifact, artifact_from_execution, artifact_from_online_run
from .registry import SolverCapabilities, SolverError, register

__all__: list[str] = ["resolve_utility"]

_UTILITY_FAMILIES = ("linear", "log", "powerlaw")


def resolve_utility(network, params):
    """The scoring utility selected by the ``utility``/``gamma`` params.

    ``None`` (the default) keeps the network's own utility — the exact
    pre-refactor behaviour; a named family builds a fresh instance from
    the tasks' required energies, as the §1.3 ablation closures did.
    :meth:`PreparedNetwork.scoring_utility` routes here too, caching the
    result per family on the prepared state.
    """
    family = params.get("utility")
    if family is None:
        return None
    if family == "linear":
        return LinearBoundedUtility.for_tasks(network.tasks)
    if family == "log":
        return LogUtility.for_tasks(network.tasks)
    if family == "powerlaw":
        return PowerLawUtility.for_tasks(network.tasks, gamma=float(params["gamma"]))
    raise SolverError(
        f"unknown utility family {family!r}; known: {', '.join(_UTILITY_FAMILIES)}"
    )


def _prepared_utility(prepared, params):
    """The ``utility=``/``gamma=`` scoring utility, warm on ``prepared``."""
    return prepared.scoring_utility(
        params.get("utility"), float(params.get("gamma", 0.5))
    )


def _shard_count(params) -> int:
    """Validated ``shards`` parameter (spec values may be any literal)."""
    shards = params["shards"]
    if isinstance(shards, bool) or not isinstance(shards, (int, np.integer)):
        raise SolverError(f"shards must be a positive integer, got {shards!r}")
    if shards < 1:
        raise SolverError(f"shards must be >= 1, got {shards}")
    return int(shards)


def _sharded_from_network(setting, prepared, rng, config, params) -> RunArtifact:
    """Route a ``shards > 1`` solve taken through the network path.

    The network path exists for callers that already hold a built network
    (sweep runner, tests); at true sharded scale use
    :meth:`~repro.solvers.registry.BoundSolver.solve_from_instance`, which
    never builds the global network.  A custom utility *object* on the
    network cannot cross the instance conversion — reject it loudly rather
    than silently scoring with the default (the ``utility=`` spec param is
    the supported way to pick a family).
    """
    from ..shard.solver import solve_sharded

    network = prepared.network
    util = network.utility
    if util is not None and not (
        type(util) is LinearBoundedUtility
        and np.array_equal(util.required_energy, network.required_energy)
    ):
        raise SolverError(
            "shards>1 cannot preserve a custom network utility object; "
            "select a scoring family with the utility=/gamma= parameters"
        )
    instance = prepared.snapshot_instance(config)
    return solve_sharded(setting, instance, params, rng, config, prepared=prepared)


def _solve_haste_offline(prepared, rng, config, params) -> RunArtifact:
    if _shard_count(params) > 1:
        return _sharded_from_network("offline", prepared, rng, config, params)
    network = prepared.network
    util = _prepared_utility(prepared, params)
    colors = params["c"] if params["c"] is not None else config.num_colors
    samples = (
        params["samples"] if params["samples"] is not None else config.num_samples
    )
    start = time.perf_counter()
    result = prepared.scheduler(
        utility_family=params.get("utility"),
        gamma=float(params.get("gamma", 0.5)),
    ).run(
        int(colors),
        num_samples=int(samples),
        rng=rng,
        final_draws=int(params["final_draws"]),
    )
    schedule = result.schedule
    if params["smooth"]:
        schedule = smooth_switches(network, schedule, rho=config.rho, utility=util)
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, schedule, rho=config.rho, utility=util)
    return artifact_from_execution(
        network,
        schedule,
        execution,
        objective_value=float(result.objective_value),
        meta={"plan_s": plan_s},
    )


def _solve_greedy_utility(prepared, rng, config, params) -> RunArtifact:
    network = prepared.network
    util = _prepared_utility(prepared, params)
    start = time.perf_counter()
    schedule = greedy_utility_schedule(network, utility=util)
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, schedule, rho=config.rho, utility=util)
    return artifact_from_execution(
        network, schedule, execution, meta={"plan_s": plan_s}
    )


def _solve_greedy_cover(prepared, rng, config, params) -> RunArtifact:
    network = prepared.network
    start = time.perf_counter()
    schedule = greedy_cover_schedule(network)
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, schedule, rho=config.rho)
    return artifact_from_execution(
        network, schedule, execution, meta={"plan_s": plan_s}
    )


def _batch_meta(dtype, plan_s) -> dict:
    meta = {"plan_s": plan_s, "batched": True}
    if np.dtype(dtype) == np.dtype(np.float32):
        meta["dtype"] = "float32"
    return meta


def _batch_greedy_utility(prepareds, rngs, configs, params, dtype) -> list[RunArtifact]:
    """Batched GreedyUtility — bit-identical (float64) to the loop above."""
    networks = [p.network for p in prepareds]
    utils = [_prepared_utility(p, params) for p in prepareds]
    start = time.perf_counter()
    schedules = greedy_utility_schedule_batch(
        networks, utilities=utils, dtype=dtype
    )
    plan_s = (time.perf_counter() - start) / len(prepareds)
    executions = execute_schedule_batch(
        networks,
        schedules,
        rhos=[config.rho for config in configs],
        utilities=utils,
    )
    return [
        artifact_from_execution(
            net, sched, execution, meta=_batch_meta(dtype, plan_s)
        )
        for net, sched, execution in zip(networks, schedules, executions)
    ]


def _batch_greedy_cover(prepareds, rngs, configs, params, dtype) -> list[RunArtifact]:
    """Batched GreedyCover — planning is boolean, so dtype never matters."""
    networks = [p.network for p in prepareds]
    start = time.perf_counter()
    schedules = greedy_cover_schedule_batch(networks)
    plan_s = (time.perf_counter() - start) / len(prepareds)
    executions = execute_schedule_batch(
        networks, schedules, rhos=[config.rho for config in configs]
    )
    return [
        artifact_from_execution(
            net, sched, execution, meta=_batch_meta(dtype, plan_s)
        )
        for net, sched, execution in zip(networks, schedules, executions)
    ]


def _solve_static(prepared, rng, config, params) -> RunArtifact:
    network = prepared.network
    start = time.perf_counter()
    schedule = static_orientation_schedule(network)
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, schedule, rho=config.rho)
    return artifact_from_execution(
        network, schedule, execution, meta={"plan_s": plan_s}
    )


def _solve_random(prepared, rng, config, params) -> RunArtifact:
    network = prepared.network
    start = time.perf_counter()
    schedule = random_schedule(network, rng)
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, schedule, rho=config.rho)
    return artifact_from_execution(
        network, schedule, execution, meta={"plan_s": plan_s}
    )


def _solve_offline_optimal(prepared, rng, config, params) -> RunArtifact:
    network = prepared.network
    include_switching = bool(params["include_switching"])
    start = time.perf_counter()
    result = optimal_schedule(
        network,
        include_switching=include_switching,
        rho=config.rho if include_switching else 0.0,
        time_limit=params["time_limit"],
    )
    plan_s = time.perf_counter() - start
    execution = execute_schedule(network, result.schedule, rho=config.rho)
    return artifact_from_execution(
        network,
        result.schedule,
        execution,
        objective_value=float(result.objective_value),
        meta={"plan_s": plan_s, "status": result.status},
    )


def _fault_model_from_params(params) -> FaultModel | None:
    """The :class:`FaultModel` a spec's ``loss=``/``crash=``/… params select.

    Returns ``None`` when every fault knob sits at its default — the solver
    then takes the untouched lossless path, so ``online-haste`` and
    ``online-haste:loss=0.0`` stay bit-identical by construction.
    """
    model = FaultModel(
        loss=float(params["loss"]),
        duplicate=float(params["dup"]),
        delay=float(params["delay"]),
        crash=int(params["crash"]),
        crash_len=int(params["crash_len"]),
        timeout=int(params["fault_timeout"]),
        retry=int(params["fault_retry"]),
        max_rounds=int(params["fault_rounds"]),
        seed=int(params["fault_seed"]),
    )
    return None if model.is_null() else model


def _solve_online_haste(prepared, rng, config, params) -> RunArtifact:
    if _shard_count(params) > 1:
        return _sharded_from_network("online", prepared, rng, config, params)
    network = prepared.network
    colors = params["c"] if params["c"] is not None else config.num_colors
    samples = (
        params["samples"] if params["samples"] is not None else config.num_samples
    )
    tau = params["tau"] if params["tau"] is not None else config.tau
    fault_model = _fault_model_from_params(params)
    start = time.perf_counter()
    run = run_online_haste(
        network,
        num_colors=int(colors),
        num_samples=int(samples),
        tau=int(tau),
        rho=config.rho,
        rng=rng,
        final_draws=int(params["final_draws"]),
        fault_model=fault_model,
        base_objective=prepared.objective(),
    )
    plan_s = time.perf_counter() - start
    return artifact_from_online_run(network, run, meta={"plan_s": plan_s})


def _make_online_baseline(kind: str):
    def body(prepared, rng, config, params) -> RunArtifact:
        network = prepared.network
        tau = params["tau"] if params["tau"] is not None else config.tau
        start = time.perf_counter()
        run = run_online_baseline(network, kind, tau=int(tau), rho=config.rho)
        plan_s = time.perf_counter() - start
        return artifact_from_online_run(network, run, meta={"plan_s": plan_s})

    return body


register(
    "haste-offline",
    _solve_haste_offline,
    SolverCapabilities(
        setting="offline",
        supports_colors=True,
        supports_utility=True,
        supports_shards=True,
        description=(
            "Centralized TabularGreedy (Alg. 2) + delay-aware switch smoothing"
        ),
    ),
    defaults={
        "c": None,
        "samples": None,
        "smooth": True,
        "final_draws": 8,
        "utility": None,
        "gamma": 0.5,
        # Spatial decomposition (repro.shard): shards=1 == the unsharded
        # path above, bit for bit; halo defaults to the charging range D.
        "shards": 1,
        "halo": "auto",
        "shard_procs": 0,
    },
)

register(
    "greedy-utility",
    _solve_greedy_utility,
    SolverCapabilities(
        setting="offline",
        deterministic=True,
        supports_utility=True,
        description="GreedyUtility baseline (paper §7.2): per-charger myopic gain",
    ),
    defaults={"utility": None, "gamma": 0.5},
    batch_fn=_batch_greedy_utility,
)

register(
    "greedy-cover",
    _solve_greedy_cover,
    SolverCapabilities(
        setting="offline",
        deterministic=True,
        description="GreedyCover baseline (paper §7.2): maximize covered tasks",
    ),
    batch_fn=_batch_greedy_cover,
)

register(
    "static",
    _solve_static,
    SolverCapabilities(
        setting="offline",
        deterministic=True,
        description="Best single fixed orientation per charger (ablation)",
    ),
)

register(
    "random",
    _solve_random,
    SolverCapabilities(
        setting="offline",
        description="Uniformly random non-idle policies (ablation sanity floor)",
    ),
)

register(
    "offline-optimal",
    _solve_offline_optimal,
    SolverCapabilities(
        setting="offline",
        deterministic=True,
        max_tasks=16,
        description="Exact HASTE-R optimum via the HiGHS MILP (small instances)",
    ),
    defaults={"include_switching": False, "time_limit": None},
)

register(
    "online-haste",
    _solve_online_haste,
    SolverCapabilities(
        setting="online",
        supports_colors=True,
        supports_shards=True,
        description="Distributed online negotiation (Alg. 3) with τ-delayed replans",
    ),
    defaults={
        "c": None,
        "samples": None,
        "tau": None,
        "final_draws": 4,
        # Fault-injection knobs (repro.faults): all-defaults == lossless.
        "loss": 0.0,
        "dup": 0.0,
        "delay": 0.0,
        "crash": 0,
        "crash_len": 12,
        "fault_timeout": 6,
        "fault_retry": 3,
        "fault_rounds": 64,
        "fault_seed": 0,
        # Spatial decomposition (repro.shard): shards=1 == unsharded.
        "shards": 1,
        "halo": "auto",
        "shard_procs": 0,
    },
)

register(
    "online-greedy-utility",
    _make_online_baseline("utility"),
    SolverCapabilities(
        setting="online",
        deterministic=True,
        description="GreedyUtility with τ-delayed knowledge of arrivals",
    ),
    defaults={"tau": None},
)

register(
    "online-greedy-cover",
    _make_online_baseline("cover"),
    SolverCapabilities(
        setting="online",
        deterministic=True,
        description="GreedyCover with τ-delayed knowledge of arrivals",
    ),
    defaults={"tau": None},
)
