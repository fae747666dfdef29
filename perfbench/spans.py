"""In-memory span tracing around the program's public functions.

The traced run wraps each layer's public function from the benchmark's
own code: :meth:`Tracer.install` finds the function object, replaces every
reference to it in the loaded ``repro.*`` modules (module globals that
imported it by name, and the class attribute for methods), and records one
span per call — name, start, end, parent span, thread, and the solve id the
benchmark set for the calling thread.  Spans stay in memory and are written
out once, at the end of the run (:meth:`Tracer.write`).

A target that no longer exists is recorded in :attr:`Tracer.missing` and
skipped, so a refactor that renames or removes a function makes its metric
go missing instead of breaking the run.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import threading
import time

#: layer span name -> (module, attribute path) of the wrapped function.
TARGETS = (
    ("core.network", "repro.solvers.instance", "Instance.network"),
    ("objective.bind", "repro.solvers.prepared", "PreparedNetwork.objective"),
    ("objective.bind", "repro.solvers.prepared", "PreparedNetwork.scheduler"),
    ("offline.sweep", "repro.offline.centralized", "CentralizedScheduler.run"),
    ("offline.smooth", "repro.offline.smoothing", "smooth_switches"),
    ("offline.batch_plan", "repro.offline.batched", "greedy_utility_schedule_batch"),
    ("offline.batch_plan", "repro.offline.batched", "greedy_cover_schedule_batch"),
    ("sim.execute", "repro.sim.engine", "execute_schedule"),
    ("sim.execute_batch", "repro.offline.batched", "execute_schedule_batch"),
    ("online.negotiate", "repro.online.distributed", "negotiate_window"),
    ("solvers.instance_decode", "repro.solvers.instance", "Instance.from_dict"),
    ("solvers.instance_hash", "repro.solvers.instance", "Instance.content_hash"),
    ("solvers.artifact_encode", "repro.solvers.artifact", "RunArtifact.to_dict"),
    ("solvers.artifact_encode", "repro.solvers.artifact", "RunArtifact.content_hash"),
    ("serve.decode", "repro.serve.protocol", "parse_solve_request"),
    ("serve.encode", "repro.serve.protocol", "solve_response"),
)


def missing_layers(labels) -> set[str]:
    """Span names none of whose target functions could be wrapped."""
    missing = set(labels)
    names: dict[str, list[str]] = {}
    for name, module_name, path in TARGETS:
        names.setdefault(name, []).append(f"{module_name}.{path}")
    return {name for name, found in names.items() if all(t in missing for t in found)}


def _attrs(name, args, kwargs, result):
    """Per-span attributes read from a call's arguments and return value."""
    if name == "core.network":
        if kwargs.get("cached"):
            return {"cached": True}
        return {"policies": int(sum(len(s) for s in result.dominant_sets))}
    if name == "objective.bind":
        return {"prepared": id(args[0])}
    if name == "offline.sweep":
        return {
            "candidate_scans": int(result.candidate_scans),
            "cached_reuses": int(result.cached_reuses),
            "pruned_skips": int(result.pruned_skips),
        }
    if name in ("offline.batch_plan", "sim.execute_batch"):
        return {"batch": len(args[0])}
    if name == "online.negotiate":
        return {
            "proposal_evals": int(result.proposal_evals),
            "proposal_cache_hits": int(result.proposal_cache_hits),
        }
    return None


class Tracer:
    """Collects spans from wrapped functions and benchmark-issued calls."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- span plumbing ---------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_solve(self, solve_id) -> None:
        """Tag the calling thread's next spans with ``solve_id``."""
        self._local.solve = solve_id

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (the wrappers' core)."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        record = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "thread": threading.get_ident(),
            "solve": getattr(self._local, "solve", None),
        }
        try:
            extra = _attrs(name, args, kwargs, result)
        except (AttributeError, TypeError):  # a changed return type: no attributes
            extra = None
        if extra:
            record.update(extra)
        self.spans.append(record)
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    # -- installation ----------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for name, module_name, path in targets:
            label = f"{module_name}.{path}"
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(label)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                elif isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                elif callable(raw):
                    new = self._wrap(name, raw)
                else:
                    self.missing.append(label)
                    continue
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
            else:
                new = self._wrap(name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "repro" or mod_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, new)
                            self._restore.append((mod, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- output ----------------------------------------------------------
    def write(self, path) -> None:
        """One JSON line per span, with its self time (duration minus the
        time its children cover)."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + (
                    s["end"] - s["start"]
                )
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                dur = s["end"] - s["start"]
                row = dict(s, dur_s=dur, self_s=dur - child_time.get(s["id"], 0.0))
                fh.write(json.dumps(row) + "\n")
        if self.missing:
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"missing": self.missing}) + "\n")


def outermost(spans, name):
    """Spans named ``name`` whose ancestors carry a different name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        parent = by_id.get(s["parent"])
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_id.get(parent["parent"])
        if not nested:
            out.append(s)
    return out


def load(path) -> tuple[list[dict], list[str]]:
    """Read a file written by :meth:`Tracer.write`."""
    spans, missing = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            if "missing" in row:
                missing.extend(row["missing"])
            else:
                spans.append(row)
    return spans, missing
