"""The solver registry: every scheduling algorithm, addressable by spec.

A *solver* is a named, parameterizable scheduling algorithm with an
explicit two-phase contract::

    prepare(instance)                  -> PreparedNetwork   # warm state
    solve_prepared(prepared, rng, cfg) -> RunArtifact       # one rng stream

The prepare phase (:mod:`repro.solvers.prepared`) builds everything
deterministic in the instance — the network's coverage/power matrices and
dominant policy lists, the objective's sparse structures, per-tile shard
partitions — keyed by ``Instance.content_hash`` and shared across solves;
the solve phase consumes it with one rng stream.  The legacy single-phase
entry points remain as thin wrappers: ``solve(network, rng, config)``
wraps the network in an ephemeral prepare, and ``solve_from_instance``
routes through the global prepared cache — both bit-identical to the
pre-split monoliths (pinned by the registry equivalence tests).

Solvers register once (module import time, see :mod:`repro.solvers.builtin`)
with capability metadata; consumers address them by spec string —
``haste-offline:c=4,smooth=0``, ``greedy-utility``, ``online-haste:tau=2`` —
and get back a :class:`BoundSolver` that validates the parameters against
the solver's declared set and stamps each result with the canonical spec,
wall time, and (when enabled) the :mod:`repro.obs` counter delta.

Because specs are strings and the registry is rebuilt by ``import`` in
every process, sweep workers resolve solvers locally instead of unpickling
closures — the seam that freed :mod:`repro.sim.parallel` from its
module-level-picklable-callable constraint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .. import obs
from ..sim.config import SimulationConfig
from .artifact import RunArtifact
from .instance import Instance
from .prepared import PreparedNetwork, prepare, prepare_network
from .spec import SolverSpec, SpecError, parse_spec

__all__ = [
    "SpecError",
    "SolverError",
    "SolverLookupError",
    "SolverCapabilities",
    "SolverEntry",
    "BoundSolver",
    "SolverRegistry",
    "REGISTRY",
    "register",
    "get_solver",
    "solver_names",
    "solve_instance",
    "solve_batch",
]

#: A registered solver body: ``fn(prepared, rng, config, params) ->
#: RunArtifact`` where ``prepared`` is a :class:`PreparedNetwork` (the
#: solve phase of the two-phase contract).
SolverBody = Callable[..., RunArtifact]


class SolverError(Exception):
    """A solver spec that names an unknown solver or invalid parameters."""


class SolverLookupError(SolverError, KeyError):
    """An unknown solver name (KeyError for legacy ``except`` clauses)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message flat
        return Exception.__str__(self)


@dataclass(frozen=True)
class SolverCapabilities:
    """What a solver can do — the metadata behind ``repro-haste solvers``.

    ``max_tasks`` is an advisory scale limit (the exact MILP explodes
    combinatorially); ``deterministic`` means the result is independent of
    the ``rng`` argument.
    """

    setting: str  # "offline" | "online"
    deterministic: bool = False
    supports_colors: bool = False
    supports_utility: bool = False
    supports_shards: bool = False
    max_tasks: int | None = None
    description: str = ""

    def summary(self) -> str:
        flags = [self.setting]
        if self.deterministic:
            flags.append("deterministic")
        for attr, tag in (
            ("supports_colors", "colors"),
            ("supports_utility", "utility"),
            ("supports_shards", "shards"),
        ):
            if getattr(self, attr):
                flags.append(tag)
        if self.max_tasks is not None:
            flags.append(f"max_tasks={self.max_tasks}")
        return ",".join(flags)


@dataclass(frozen=True)
class SolverEntry:
    """One registered solver: body + capabilities + parameter schema."""

    name: str
    fn: SolverBody
    capabilities: SolverCapabilities
    #: parameter name → default value; ``None`` defaults mean "taken from
    #: the SimulationConfig at solve time" (resolved inside the body).
    defaults: Mapping = field(default_factory=dict)
    #: Optional batched solve body: ``batch_fn(prepareds, rngs, configs,
    #: params, dtype) -> list[RunArtifact]``.  Must be bit-identical (at
    #: float64) to mapping ``fn`` over the batch — pinned by
    #: ``tests/test_batch_equivalence.py``.  ``None`` means
    #: :meth:`BoundSolver.solve_prepared_batch` falls back to that loop.
    batch_fn: Callable | None = None


class BoundSolver:
    """A solver entry bound to one validated parameter set."""

    __slots__ = ("entry", "spec", "params")

    def __init__(self, entry: SolverEntry, spec: SolverSpec) -> None:
        unknown = sorted(set(spec.params) - set(entry.defaults))
        if unknown:
            allowed = ", ".join(sorted(entry.defaults)) or "(none)"
            raise SolverError(
                f"solver {entry.name!r} does not accept parameter(s) "
                f"{', '.join(unknown)}; allowed: {allowed}"
            )
        self.entry = entry
        self.spec = spec
        self.params = dict(entry.defaults)
        self.params.update(spec.params)

    @property
    def name(self) -> str:
        return self.entry.name

    @property
    def capabilities(self) -> SolverCapabilities:
        return self.entry.capabilities

    def canonical(self) -> str:
        """The canonical spec string (only non-default params rendered)."""
        return self.spec.canonical()

    def _stamped(self, run, rng, config) -> RunArtifact:
        """Run ``run(rng, config)`` and stamp provenance + timing."""
        rng = rng if rng is not None else np.random.default_rng()
        config = config if config is not None else SimulationConfig()
        before = (
            dict(obs.get_registry().snapshot().get("counters", {}))
            if obs.enabled()
            else None
        )
        start = time.perf_counter()
        artifact = run(rng, config)
        artifact.wall_time_s = time.perf_counter() - start
        artifact.solver = self.canonical()
        if before is not None:
            after = obs.get_registry().snapshot().get("counters", {})
            artifact.obs_counters = {
                key: after[key] - before.get(key, 0)
                for key in after
                if after[key] != before.get(key, 0)
            }
        return artifact

    def solve(
        self,
        network,
        rng: np.random.Generator | None = None,
        config: SimulationConfig | None = None,
    ) -> RunArtifact:
        """Run the solver on a built network (legacy single-phase entry).

        The network is wrapped in an *ephemeral* prepare — nothing cached,
        nothing shared across calls — so callers that already hold a
        network (the sweep runner, the equivalence tests) stay on the
        exact pre-split path.
        """
        return self.solve_prepared(prepare_network(network), rng, config)

    def prepare(self, instance: Instance, *, cached: bool = True) -> PreparedNetwork:
        """Phase one: the (cached) prepared state for ``instance``."""
        return prepare(instance, cached=cached)

    def solve_prepared(
        self,
        prepared: PreparedNetwork,
        rng: np.random.Generator | None = None,
        config: SimulationConfig | None = None,
    ) -> RunArtifact:
        """Phase two: consume prepared state with one rng stream.

        When the spec requests ``shards > 1`` on a shard-capable solver
        and the prepare is instance-backed, the sharded path runs straight
        off the instance arrays with per-tile prepared state — the global
        network is **never built**, which is the point of sharding at
        ``n = 10⁴–10⁶`` scale.
        """
        if config is None and prepared.instance is not None:
            config = prepared.instance.config
        shards = self.params.get("shards", 1)
        # Invalid (non-integer) shard values fall through to the body,
        # whose validation raises a proper SolverError.
        sharded = (
            self.capabilities.supports_shards
            and isinstance(shards, int)
            and not isinstance(shards, bool)
            and shards > 1
            and prepared.instance is not None
        )
        if sharded:
            from ..shard.solver import solve_sharded

            setting = self.capabilities.setting
            instance = prepared.instance
            return self._stamped(
                lambda r, c: solve_sharded(
                    setting, instance, self.params, r, c, prepared=prepared
                ),
                rng,
                config,
            )
        return self._stamped(
            lambda r, c: self.entry.fn(prepared, r, c, self.params), rng, config
        )

    def solve_from_instance(
        self,
        instance: Instance,
        rng: np.random.Generator | None = None,
        config: SimulationConfig | None = None,
    ) -> RunArtifact:
        """Solve directly from an :class:`Instance` (prepare + solve)."""
        config = config if config is not None else instance.config
        return self.solve_prepared(prepare(instance), rng, config)

    def _batchable(self) -> bool:
        """Whether this binding routes through the batched kernel."""
        shards = self.params.get("shards", 1)
        return self.entry.batch_fn is not None and not (
            isinstance(shards, int)
            and not isinstance(shards, bool)
            and shards > 1
        )

    def solve_prepared_batch(
        self,
        prepareds: list[PreparedNetwork],
        rngs: list[np.random.Generator] | None = None,
        configs: list[SimulationConfig | None] | None = None,
        *,
        dtype=None,
    ) -> list[RunArtifact]:
        """Phase two over a whole batch, one rng stream per member.

        Solvers registered with a ``batch_fn`` evaluate the batch in one
        stacked pass; at float64 (the default) the results are
        **bit-identical** to calling :meth:`solve_prepared` per member.
        ``dtype=np.float32`` opts into the single-precision planning
        kernel (batched solvers only — others raise
        :class:`SolverError`); DESIGN.md §14 documents its tolerance.
        Solvers without a batched kernel fall back to the sequential
        loop, so the method is total over the registry.

        Per-member ``wall_time_s`` on the batched path is the batch
        elapsed time divided by the batch size (amortized cost); obs
        counter deltas are not attributed per member.
        """
        B = len(prepareds)
        dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
        if dt not in (np.dtype(np.float64), np.dtype(np.float32)):
            raise SolverError(f"dtype must be float64 or float32, got {dt}")
        if rngs is None:
            rngs = [np.random.default_rng() for _ in range(B)]
        if configs is None:
            configs = [None] * B
        if len(rngs) != B or len(configs) != B:
            raise SolverError(
                "prepareds, rngs and configs must have equal lengths"
            )
        resolved = []
        for prepared, config in zip(prepareds, configs):
            if config is None and prepared.instance is not None:
                config = prepared.instance.config
            resolved.append(config if config is not None else SimulationConfig())
        if B == 0:
            return []
        if not self._batchable():
            if dt == np.dtype(np.float32):
                raise SolverError(
                    f"solver {self.entry.name!r} has no batched kernel; "
                    "float32 batching is unavailable for it"
                )
            return [
                self.solve_prepared(prepared, rng, config)
                for prepared, rng, config in zip(prepareds, rngs, resolved)
            ]
        start = time.perf_counter()
        artifacts = self.entry.batch_fn(
            prepareds, list(rngs), resolved, self.params, dt
        )
        per_member = (time.perf_counter() - start) / B
        canonical = self.canonical()
        for artifact in artifacts:
            artifact.wall_time_s = per_member
            artifact.solver = canonical
        return artifacts

    def solve_batch(
        self,
        instances: list[Instance],
        seeds: list[int | None] | None = None,
        *,
        dtype=None,
    ) -> list[RunArtifact]:
        """Solve a batch of instances (prepare + batched solve).

        Seeds default per member to the instance's own provenance seed —
        the same resolution :func:`solve_instance` applies — so
        ``solve_batch(instances)[j]`` reproduces
        ``solve_instance(spec, instances[j])`` bit for bit at float64.
        Each artifact's ``meta["batch"]`` records the batch size, the
        member's position, and the order-independent
        :meth:`~repro.solvers.batch.InstanceBatch.digest`.
        """
        from .batch import multiset_digest

        instances = list(instances)
        B = len(instances)
        if seeds is None:
            seeds = [None] * B
        if len(seeds) != B:
            raise SolverError("seeds must match instances in length")
        effective = [
            seed if seed is not None else inst.seed
            for seed, inst in zip(seeds, instances)
        ]
        # Each member is hashed once; the prepare and the batch digest
        # reuse that hash.  Prepares are memoized locally by it: a batch
        # may repeat an instance (coalesced duplicates) or exceed the
        # global prepared cache's capacity, and either way each distinct
        # payload should be built exactly once for this call.
        hashes = [inst.content_hash() for inst in instances]
        memo: dict[str, PreparedNetwork] = {}
        prepareds = []
        for inst, h in zip(instances, hashes):
            prepared = memo.get(h)
            if prepared is None:
                prepared = prepare(inst, key=h)
                memo[h] = prepared
            prepareds.append(prepared)
        rngs = [np.random.default_rng(e) for e in effective]
        configs = [inst.config for inst in instances]
        artifacts = self.solve_prepared_batch(
            prepareds, rngs, configs, dtype=dtype
        )
        digest = multiset_digest(hashes)
        for j, artifact in enumerate(artifacts):
            meta = dict(artifact.meta or {})
            meta["batch"] = {"size": B, "index": j, "digest": digest}
            artifact.meta = meta
        return artifacts


class SolverRegistry:
    """Name → :class:`SolverEntry` mapping with spec-string lookup."""

    def __init__(self) -> None:
        self._entries: dict[str, SolverEntry] = {}

    def register(
        self,
        name: str,
        fn: SolverBody,
        capabilities: SolverCapabilities,
        defaults: Mapping | None = None,
        batch_fn: Callable | None = None,
    ) -> SolverEntry:
        if name in self._entries:
            raise ValueError(f"solver {name!r} is already registered")
        entry = SolverEntry(
            name=name,
            fn=fn,
            capabilities=capabilities,
            defaults=dict(defaults or {}),
            batch_fn=batch_fn,
        )
        self._entries[name] = entry
        return entry

    def names(self) -> list[str]:
        return sorted(self._entries)

    def entry(self, name: str) -> SolverEntry:
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "(none registered)"
            raise SolverLookupError(
                f"unknown solver {name!r}; known: {known}"
            ) from None

    def get(self, spec) -> BoundSolver:
        """Resolve a spec string / :class:`SolverSpec` to a bound solver."""
        parsed = parse_spec(spec)
        return BoundSolver(self.entry(parsed.name), parsed)


#: The process-global registry the builtin solvers populate on import.
REGISTRY = SolverRegistry()


def register(
    name: str,
    fn: SolverBody,
    capabilities: SolverCapabilities,
    defaults: Mapping | None = None,
    batch_fn: Callable | None = None,
) -> SolverEntry:
    """Register a solver in the global registry."""
    return REGISTRY.register(name, fn, capabilities, defaults, batch_fn)


def get_solver(spec) -> BoundSolver:
    """Resolve a spec against the global registry (raises SolverError)."""
    return REGISTRY.get(spec)


def solver_names() -> list[str]:
    """All registered solver names, sorted."""
    return REGISTRY.names()


def solve_instance(
    spec,
    instance: Instance,
    *,
    seed: int | None = None,
) -> RunArtifact:
    """Run a solver on a saved/sampled instance — the CLI ``solve`` path.

    The rng seed defaults to the instance's own provenance seed, so
    ``repro-haste solve <spec> --instance saved.npz`` reproduces the
    artifact an in-process ``solve_instance(spec, instance)`` produced,
    bit for bit.
    """
    solver = get_solver(spec)
    effective = seed if seed is not None else instance.seed
    rng = np.random.default_rng(effective)
    return solver.solve_from_instance(instance, rng, instance.config)


def solve_batch(
    spec,
    instances: list[Instance],
    *,
    seeds: list[int | None] | None = None,
    dtype=None,
) -> list[RunArtifact]:
    """Run a solver on a batch of instances in one stacked pass.

    Equivalent to ``[solve_instance(spec, inst, seed=s) for inst, s in
    zip(instances, seeds)]`` — bit for bit at float64 — but solvers with a
    batched kernel amortize the per-call dispatch across the batch.  See
    :meth:`BoundSolver.solve_batch`.
    """
    return get_solver(spec).solve_batch(instances, seeds, dtype=dtype)
