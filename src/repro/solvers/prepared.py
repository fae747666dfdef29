"""The prepare phase: warm per-network state shared across solves.

Every solver run decomposes into two phases with very different cost
profiles:

* **prepare** — deterministic in the :class:`~repro.solvers.instance.
  Instance` arrays: build the :class:`~repro.core.network.ChargerNetwork`
  (coverage geometry, power matrix, dominant policy lists), materialize
  the per-policy energy blocks, bind the
  :class:`~repro.objective.haste.HasteObjective` kernels, list the
  TabularGreedy partitions, and (for ``shards=S`` specs) partition the
  field into tiles and slice the per-tile sub-instances;
* **solve** — consume that state with one rng stream and produce a
  :class:`~repro.solvers.artifact.RunArtifact`.

:class:`PreparedNetwork` is the container for the first phase, keyed by
:meth:`Instance.content_hash` — equal hashes mean interchangeable
prepared state (the instance round-trip guarantee).  Everything inside is
built lazily and exactly once per object (double-checked under a lock),
and every product is *read-only with respect to solving*: solvers thread
their own rng and energy state through, so one ``PreparedNetwork`` can
serve concurrent solves from a thread pool bit-identically to cold calls.

:class:`PreparedCache` is the process-wide LRU over prepared networks —
the single cache that replaced the PR 5 ad-hoc network LRU.  Lookups are
single-flight: when many threads miss on the same ``content_hash``
simultaneously, exactly one builds the entry and the rest wait, so the
expensive prepare never runs twice for one hash.  Hit/miss/eviction
counters are mirrored into :mod:`repro.obs` (``prepared.cache_*``) when
telemetry is enabled.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict

from .. import obs

__all__ = [
    "PreparedNetwork",
    "PreparedCache",
    "PREPARED_CACHE",
    "prepare",
    "prepare_network",
    "clear_prepared_cache",
    "prepared_cache_info",
]


def _utility_key(family, gamma) -> tuple:
    """Hashable identity of a scoring-utility selection.

    ``None`` means "the network's own utility" (the pre-refactor default);
    ``gamma`` only participates for the power-law family, so
    ``utility=log,gamma=0.3`` and ``utility=log,gamma=0.7`` share state.
    """
    if family is None:
        return (None,)
    if family == "powerlaw":
        return (family, float(gamma))
    return (family,)


class PreparedNetwork:
    """Warm, shareable per-instance solver state (the prepare phase).

    Construction is cheap; every heavy product — the network, the bound
    objectives, the per-tile shard partitions — is built on first use and
    cached on the object under ``_lock``.  ``key`` is the owning
    instance's ``content_hash`` (``None`` for ephemeral wrappers around an
    already-built network, e.g. the sweep runner's per-trial topologies).
    """

    __slots__ = (
        "instance",
        "key",
        "_network",
        "_lock",
        "_objectives",
        "_schedulers",
        "_utilities",
        "_shard_states",
        "network_builds",
    )

    def __init__(self, *, instance=None, network=None, key: str | None = None):
        if instance is None and network is None:
            raise ValueError("PreparedNetwork needs an instance or a network")
        self.instance = instance
        self.key = key
        self._network = network
        self._lock = threading.RLock()
        self._objectives: dict = {}
        self._schedulers: dict = {}
        self._utilities: dict = {}
        self._shard_states: dict = {}
        #: Times the network was actually constructed here (0 when wrapped,
        #: at most 1 when built from the instance — the single-flight pin).
        self.network_builds = 0

    # ------------------------------------------------------------------
    # Phase products
    # ------------------------------------------------------------------
    @property
    def network(self):
        """The built :class:`ChargerNetwork` (constructed at most once).

        Sharded solves never touch this property — the global ``(n, m)``
        network is exactly what ``shards=S`` exists to avoid building.
        """
        net = self._network
        if net is None:
            with self._lock:
                if self._network is None:
                    self._network = self.instance.network()
                    self.network_builds += 1
                    if obs.enabled():
                        obs.inc("prepared.network_builds")
                net = self._network
        return net

    def scoring_utility(self, family=None, gamma=0.5):
        """The scoring utility a spec's ``utility=``/``gamma=`` select.

        ``None`` keeps the network's own utility (returned as ``None`` so
        downstream signatures match the pre-refactor calls exactly).
        Cached per family — the §1.3 ablation closures rebuilt these per
        run; a warm engine builds them once per network.
        """
        if family is None:
            return None
        key = _utility_key(family, gamma)
        with self._lock:
            util = self._utilities.get(key)
            if util is None:
                from .builtin import resolve_utility

                util = resolve_utility(
                    self.network, {"utility": family, "gamma": gamma}
                )
                self._utilities[key] = util
            return util

    def objective(self, *, utility_family=None, gamma=0.5):
        """A shared :class:`HasteObjective` bound to this network.

        The objective holds only static kernels (per-policy energy blocks,
        restricted utilities, idempotent per-partition caches); solvers
        thread rng and energy state separately, so one objective instance
        serves any number of concurrent solves.
        """
        from ..objective.haste import HasteObjective

        key = _utility_key(utility_family, gamma)
        with self._lock:
            objective = self._objectives.get(key)
            if objective is None:
                objective = HasteObjective(
                    self.network, self.scoring_utility(utility_family, gamma)
                )
                self._objectives[key] = objective
            return objective

    def scheduler(self, *, utility_family=None, gamma=0.5):
        """A shared :class:`CentralizedScheduler` (Algorithm 2 runner).

        The scheduler's construction cost — objective binding plus the
        partition enumeration — is the offline prepare phase; ``run()``
        is reusable and rng-driven, so the same scheduler serves repeated
        warm solves bit-identically to a cold construction.
        """
        from ..offline.centralized import CentralizedScheduler

        key = _utility_key(utility_family, gamma)
        with self._lock:
            sched = self._schedulers.get(key)
            if sched is None:
                sched = CentralizedScheduler(
                    self.network,
                    objective=self.objective(
                        utility_family=utility_family, gamma=gamma
                    ),
                )
                self._schedulers[key] = sched
            return sched

    def shard_state(self, shards: int, halo) -> dict:
        """Per-tile prepared state for a ``shards=S[,halo=H]`` solve.

        The partition of the field and the sliced per-tile sub-instances
        are deterministic in the instance arrays and the two knobs, so
        they are computed once per ``(shards, halo)`` and shared by every
        subsequent sharded request for this ``content_hash`` — the tile
        slicing is the sharded path's prepare phase (the global network is
        still never built).
        """
        if self.instance is None:
            raise ValueError("shard state requires an instance-backed prepare")
        key = (int(shards), str(halo))
        with self._lock:
            state = self._shard_states.get(key)
            if state is None:
                from ..shard.subproblem import slice_instance
                from ..shard.tiles import make_partition

                instance = self.instance
                partition = make_partition(
                    instance.charger_xy,
                    instance.task_xy,
                    instance.charger_radius,
                    shards=int(shards),
                    halo=halo,
                )
                subs = {}
                for t in range(partition.num_tiles):
                    chargers = partition.tile_chargers[t]
                    if chargers.size == 0:
                        continue
                    subs[t] = slice_instance(
                        instance, chargers, partition.tile_tasks[t]
                    )
                state = {"partition": partition, "subs": subs}
                self._shard_states[key] = state
                if obs.enabled():
                    obs.inc("prepared.shard_partitions")
            return state

    def snapshot_instance(self, config=None):
        """The instance backing this prepare (snapshotted from the network
        when the prepare wrapped an already-built network)."""
        if self.instance is None:
            from .instance import Instance

            with self._lock:
                if self.instance is None:
                    self.instance = Instance.from_network(
                        self._network, config=config
                    )
        return self.instance

    def describe(self) -> str:
        built = self._network is not None
        return (
            f"PreparedNetwork(key={(self.key or 'ephemeral')[:12]}, "
            f"network={'built' if built else 'lazy'}, "
            f"objectives={len(self._objectives)}, "
            f"shard_states={len(self._shard_states)})"
        )


class PreparedCache:
    """Thread-safe single-flight LRU of :class:`PreparedNetwork` by hash."""

    def __init__(self, capacity: int = 8) -> None:
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, PreparedNetwork] = OrderedDict()
        #: key → threading.Event for builds in flight (single-flight gate).
        self._building: dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.builds = 0

    def get_or_prepare(self, instance) -> tuple[PreparedNetwork, bool]:
        """The cached prepare for ``instance`` — ``(prepared, was_hit)``.

        Concurrent misses on one ``content_hash`` collapse to a single
        build: the first thread claims the key and constructs the entry,
        the rest wait on its event and return the same object.
        """
        key = instance.content_hash()
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    if obs.enabled():
                        obs.inc("prepared.cache_hits")
                    return entry, True
                gate = self._building.get(key)
                if gate is None:
                    # This thread claims the build.
                    gate = threading.Event()
                    self._building[key] = gate
                    self.misses += 1
                    if obs.enabled():
                        obs.inc("prepared.cache_misses")
                    break
            # Another thread is preparing this hash — wait and re-check
            # (the loop, not the event payload, carries the result: the
            # builder may have been evicted already under heavy churn).
            gate.wait()
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    if obs.enabled():
                        obs.inc("prepared.cache_hits")
                    return entry, True
            # Entry vanished between build and lookup; race again.

        try:
            prepared = PreparedNetwork(instance=instance, key=key)
            with self._lock:
                self._entries[key] = prepared
                self.builds += 1
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    if obs.enabled():
                        obs.inc("prepared.cache_evictions")
        finally:
            with self._lock:
                self._building.pop(key, None)
            gate.set()
        return prepared, False

    def set_capacity(self, capacity: int) -> None:
        """Resize the cache, evicting LRU entries down to the new bound.

        (``REPRO_PREPARED_CACHE`` sets the *process-global* cache's
        default at import time; ``ScheduleEngine``'s
        ``prepared_cache_capacity`` knob builds the engine a private
        cache rather than resizing the global one.)
        """
        if int(capacity) < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self.capacity = int(capacity)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                if obs.enabled():
                    obs.inc("prepared.cache_evictions")

    def clear(self) -> None:
        """Drop every cached prepare (tests; memory pressure at large n)."""
        with self._lock:
            self._entries.clear()

    def info(self) -> dict:
        """Occupancy + lifetime counters (exported by ``/stats`` too)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "builds": self.builds,
            }


def _env_capacity(default: int = 8, environ=os.environ) -> int:
    """The ``REPRO_PREPARED_CACHE`` capacity override (>= 1), else default.

    Malformed or non-positive values fall back to the default rather than
    refusing to import — cache sizing is a tuning knob, not a contract.
    """
    raw = str(environ.get("REPRO_PREPARED_CACHE", "")).strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 1 else default


#: The process-global cache — one cache, one eviction policy.  Capacity is
#: small on purpose: built networks dominate memory at large n, and the
#: serving layer's working set is "the hot instances", not "every instance
#: ever seen".  ``REPRO_PREPARED_CACHE`` overrides the default of 8;
#: ``ScheduleEngine(prepared_cache_capacity=…)`` gives that engine its
#: own private cache instead of resizing this one.
PREPARED_CACHE = PreparedCache(capacity=_env_capacity())


def prepare(instance, *, cached: bool = True) -> PreparedNetwork:
    """``prepare(instance) -> PreparedNetwork`` — the two-phase entry point.

    ``cached=True`` (the default) consults the process-global
    :data:`PREPARED_CACHE` keyed by ``content_hash``; ``cached=False``
    returns a private prepared object (cold path, used by the equivalence
    benchmarks).
    """
    if cached:
        prepared, _hit = PREPARED_CACHE.get_or_prepare(instance)
        return prepared
    return PreparedNetwork(instance=instance, key=instance.content_hash())


def prepare_network(network) -> PreparedNetwork:
    """Wrap an already-built network as an ephemeral (uncached) prepare.

    The seam that keeps ``BoundSolver.solve(network, …)`` — the sweep
    runner's and the tests' contract — on the exact pre-refactor path:
    nothing is rebuilt, nothing is cached across calls.
    """
    return PreparedNetwork(network=network)


def clear_prepared_cache() -> None:
    """Drop every cached prepare from the global cache."""
    PREPARED_CACHE.clear()


def prepared_cache_info() -> dict:
    """Occupancy and counters of the global cache."""
    return PREPARED_CACHE.info()
