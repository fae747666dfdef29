"""The measuring process: one workload, one seed, one result line.

Started by ``run.py`` after the negotiation kernel is built, with
``--t0`` set to the launcher's clock just before this process started, so
``setup_s`` covers interpreter start, imports, input generation, daemon
boot and one warm-up solve.  The timed phase runs whole rounds of the same
operations until ``--seconds`` would be exceeded (at least one round),
with the host clock of ``hostclock.py`` sampling beside it; end-to-end
times are scaled by the run's host factor.  Every answer is then checked
against computations made apart from the program (``checks.py``); the
last stdout line is the JSON result.

``--trace 1`` runs the same rounds twice: first untraced, then with the
layer wrappers of ``spans.py`` installed (and, in-process, the program's
own obs registry on), and reports the per-layer metrics of the traced pass
plus ``trace.overhead``, the traced over the untraced host-scaled time.
"""

from __future__ import annotations

import argparse
import gc
import http.client
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(HERE, "out")

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from hostclock import NOMINAL_S, HostClock  # noqa: E402
from spans import Tracer, missing_layers, outermost  # noqa: E402
from spans import load as load_spans  # noqa: E402


def _repro_from_checkout() -> None:
    """Import the program and refuse any copy outside ``./src``."""
    import repro
    import repro.solvers  # noqa: F401  (registers the solvers)

    src = os.path.realpath(os.path.join(ROOT, "src"))
    where = os.path.realpath(repro.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {where}, not {src}")


def pct(values, q):
    """Linear-interpolated percentile ``q`` in [0, 100] (0.0 when empty)."""
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def messages_events(art) -> tuple[int, int]:
    """``(messages, arrival events)`` an answer accounts for.

    A negotiated answer carries the program's ``message_stats`` and
    ``events``.  An answer planned without negotiation is one arrival event
    (all its tasks are planned at once), and its plan reaches the chargers
    as one rotation command per switch it executes.
    """
    events = int(art.events)
    if events > 0 and art.message_stats:
        return int(art.message_stats["messages"]), events
    return int(art.switch_count), 1


class Answer:
    """One in-process answer: spec, the scenario it solved, its artifact."""

    __slots__ = ("spec", "sc", "art", "round")

    def __init__(self, spec, sc, art, rnd):
        self.spec, self.sc, self.art, self.round = spec, sc, art, rnd


# ----------------------------------------------------------------------
# In-process workloads: the solver registry's public calls
# ----------------------------------------------------------------------
class InProcess:
    """Rounds of cold ``solve_instance``/``solve_batch`` calls over a pool."""

    scale = "paper"
    pool = 1
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.scenarios = [inputs.draw(self.scale, seed, self.key, i) for i in range(self.pool)]
        self.instances = [inputs.to_instance(sc) for sc in self.scenarios]
        self.op_latencies: list[float] = []
        self.obs_sink = None
        self.host = HostClock()

    def warm_up(self) -> None:
        """One small solve per spec through the same public call."""
        from repro.solvers import clear_prepared_cache, solve_batch, solve_instance

        inst = inputs.to_instance(inputs.draw("warmup", self.seed, self.key, 10_000))
        for spec in self.specs:
            if isinstance(self, BaselinesBatch):
                solve_batch(spec, [inst])
            else:
                solve_instance(spec, inst)
        clear_prepared_cache()

    def _timed_call(self, fn, solve_id, tracer):
        """``fn()`` and its latency, less the host samples taken meanwhile."""
        spent = self.host.spent
        start = time.perf_counter()
        if tracer is None:
            out = fn()
        else:
            tracer.set_solve(solve_id)
            out = tracer.call("bench.solve", fn)
            tracer.set_solve(None)
        return out, time.perf_counter() - start - (self.host.spent - spent)

    def begin_pass(self, traced: bool) -> None:
        from repro.solvers import prepared_cache_info

        self.op_latencies = []
        self.host = HostClock()
        self.host.start()
        self.cache0 = prepared_cache_info()
        if traced:
            from repro import obs

            self.obs_sink = obs.MemorySink()
            obs.configure(sink=self.obs_sink)
            self.arrival_s: list[float] = []

    def end_pass(self, traced: bool) -> None:
        from repro.solvers import prepared_cache_info

        self.host.stop()
        self.cache1 = prepared_cache_info()
        if traced:
            from repro import obs

            self._drain_obs()
            obs.shutdown()

    def _drain_obs(self) -> None:
        if self.obs_sink is None:
            return
        records, self.obs_sink.records = self.obs_sink.records, []
        self.arrival_s.extend(
            r["dur_s"] for r in records if r.get("kind") == "span" and r.get("name") == "online.arrival"
        )


class OfflinePaper(InProcess):
    name, key, scale, pool = "offline-paper", 1, "paper", 10
    specs = ("haste-offline:c=4",)

    def round(self, rnd, tracer=None) -> list[Answer]:
        from repro.solvers import clear_prepared_cache, solve_instance

        answers = []
        for i, (sc, inst) in enumerate(zip(self.scenarios, self.instances)):
            clear_prepared_cache()
            art, lat = self._timed_call(
                lambda: solve_instance(self.specs[0], inst), (rnd, i), tracer
            )
            self.op_latencies.append(lat)
            answers.append(Answer(self.specs[0], sc, art, rnd))
            if tracer is not None:
                self._drain_obs()
        return answers


class OnlineNegotiation(OfflinePaper):
    name, key, scale, pool = "online-negotiation", 2, "default", 6
    specs = ("online-haste",)


class BaselinesBatch(InProcess):
    name, key, scale, pool = "baselines-batch", 3, "paper", 24
    specs = ("greedy-utility", "greedy-cover")

    def round(self, rnd, tracer=None) -> list[Answer]:
        from repro.solvers import clear_prepared_cache, solve_batch

        answers, total = [], 0.0
        for s, spec in enumerate(self.specs):
            clear_prepared_cache()
            arts, lat = self._timed_call(
                lambda: solve_batch(spec, self.instances), (rnd, s), tracer
            )
            total += lat
            answers.extend(Answer(spec, sc, a, rnd) for sc, a in zip(self.scenarios, arts))
            if tracer is not None:
                self._drain_obs()
        self.op_latencies.append(total)
        return answers


# ----------------------------------------------------------------------
# serve-mixed: the daemon over HTTP
# ----------------------------------------------------------------------
SERVE_SPECS = ("greedy-utility", "greedy-cover", "haste-offline:c=1", "online-greedy-utility")
#: One block of 20 requests: 14 exact repeats of keys answered in earlier
#: blocks (result-cache hits), 2 new solve seeds on instances of the
#: previous block (prepared-cache hits) and 4 new instances (cold
#: prepares).  Hits are 70% of a block, so p50 falls inside them; the
#: slowest spec, haste-offline:c=1, is the top 15%, so p90 falls inside it.
#: A block sends its solves first, one at a time, then its repeats from
#: both callers at once.  The daemon's worker threads share one
#: interpreter lock: a request that overlaps a solve waits on the solver
#: thread, so its latency would depend on which solve it happened to
#: overlap (online-greedy-utility took 0.4 s alone and 1.2-4.6 s beside
#: another solve) rather than on any one layer.
BLOCK_REPEATS = 14
BLOCK_KNOWN = ("greedy-utility", "haste-offline:c=1")
BLOCK_NEW = ("greedy-cover", "online-greedy-utility", "haste-offline:c=1", "haste-offline:c=1")
MIN_BLOCKS = 5
#: Host-clock samples taken before, between and after the phases of a block.
SERVE_SAMPLES = 5
CALLERS = {"solve": 1, "repeat": 2}


class Daemon:
    """``repro-haste serve --no-telemetry`` in its own process."""

    def __init__(self, traced: bool, spans_path: str | None):
        cmd = [sys.executable]
        if traced:
            cmd += [os.path.join(HERE, "daemon.py"), spans_path]
        else:
            cmd += ["-m", "repro.cli"]
        cmd += ["serve", "--no-telemetry", "--port", "0"]
        self.proc = subprocess.Popen(
            cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            preexec_fn=_die_with_parent,
        )
        self.port = None
        lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, args=(lines,), daemon=True).start()
        deadline = time.monotonic() + 60.0
        while self.port is None:
            try:
                line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("daemon did not report its port within 60 s") from None
            if line is None:
                raise RuntimeError(f"daemon exited with code {self.proc.wait()}")
            if "listening on http://" in line:
                self.port = int(line.rsplit(":", 1)[1].split()[0])
        status, body = self.request("GET", "/healthz")
        if status != 200 or body.get("status") != "ok":
            raise RuntimeError(f"daemon not healthy: {status} {body}")

    def _pump(self, lines) -> None:
        for line in self.proc.stdout:
            lines.put(line)
        lines.put(None)

    def request(self, method, path, body: bytes | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then SIGKILL after a grace period."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def _die_with_parent() -> None:
    """Ask the kernel to SIGTERM the daemon if the benchmark dies first."""
    import ctypes

    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
    except OSError:
        pass


class ServeMixed:
    name, key = "serve-mixed", 4
    specs = SERVE_SPECS

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, self.key])
        self.scenarios: list[dict] = []
        self.bodies: dict[int, dict] = {}  # scenario index -> instance payload
        self.keys: list[tuple] = []  # (spec, scenario index, solve seed) answered
        self.daemon = None
        self.op_latencies: list[float] = []
        self.replies: list[dict] = []
        self.failed = 0
        self.next_seed = 1000
        self.host = HostClock()

    def _new_scenario(self) -> int:
        idx = len(self.scenarios)
        sc = inputs.draw("paper", self.seed, self.key, idx)
        self.scenarios.append(sc)
        self.bodies[idx] = inputs.to_instance(sc).to_dict()
        return idx

    def _body(self, key) -> bytes:
        spec, idx, seed = key
        return json.dumps({"spec": spec, "instance": self.bodies[idx], "seed": seed}).encode()

    def plan_block(self, blk: int) -> list[tuple]:
        """The seeded request list of block ``blk`` (whole-block rounds)."""
        recent = [i for i in range(len(self.scenarios)) if i >= len(self.scenarios) - len(BLOCK_NEW)]
        reqs = []
        for j in self.rng.choice(len(self.keys), size=BLOCK_REPEATS, replace=len(self.keys) < BLOCK_REPEATS):
            reqs.append(("repeat", self.keys[int(j)]))
        for spec in BLOCK_KNOWN:
            self.next_seed += 1
            reqs.append(("known", (spec, int(self.rng.choice(recent)), self.next_seed)))
        for spec in BLOCK_NEW:
            self.next_seed += 1
            reqs.append(("new", (spec, self._new_scenario(), self.next_seed)))
        order = self.rng.permutation(len(reqs))
        return [reqs[int(k)] for k in order]

    def start(self, traced: bool, spans_path=None) -> None:
        self.daemon = Daemon(traced, spans_path)

    def warm_up(self) -> None:
        """Block 0: one cold solve per spec, giving the first blocks their
        known instances and repeatable keys."""
        for spec in self.specs:
            self.next_seed += 1
            key = (spec, self._new_scenario(), self.next_seed)
            status, reply = self.daemon.request("POST", "/solve", self._body(key))
            if status != 200 or reply.get("degraded"):
                raise RuntimeError(f"warm-up {spec} failed: {status}")
            self.keys.append(key)
            self.replies.append({"key": key, "reply": reply, "rtt": 0.0, "kind": "warmup"})

    def stats(self) -> dict:
        status, body = self.daemon.request("GET", "/stats")
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return body

    def begin_pass(self, traced: bool) -> None:
        self.op_latencies = []
        self.latency_factors: list[float | None] = []
        self.host = HostClock()
        self.stats0 = self.stats()
        # The client's own collector would pause its callers mid-request as
        # the kept replies grow; replies are acyclic, so none leak.
        gc.collect()
        gc.disable()

    def end_pass(self, traced: bool) -> None:
        gc.enable()
        self.stats1 = self.stats()

    def _host_point(self) -> float:
        """Mean of ``SERVE_SAMPLES`` fresh host samples.  They are taken
        between phases, never beside a request: in the client they would
        delay its callers, and on the other vCPU they would slow the
        daemon."""
        for _ in range(SERVE_SAMPLES):
            self.host.sample()
        return float(np.mean(self.host.samples[-SERVE_SAMPLES:]))

    def round(self, rnd, tracer=None) -> list:
        plan = self.plan_block(rnd)
        results: list = []
        points = [self._host_point()]
        for phase in ("solve", "repeat"):
            work: queue.Queue = queue.Queue()
            for kind, key in plan:
                if (kind == "repeat") == (phase == "repeat"):
                    work.put((kind, key, self._body(key)))
            threads = [
                threading.Thread(target=self._caller, args=(work, results))
                for _ in range(CALLERS[phase])
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            points.append(self._host_point())
        # The hits of a block take ~0.1 s in all, too short for the run's
        # mean host factor to describe: their latencies are scaled by the
        # samples just before and just after their phase.  Solves keep the
        # run's factor (None here), which describes a 3 s phase better.
        hit_factor = (points[1] + points[2]) / 2 / NOMINAL_S
        answers = []
        for kind, key, status, reply, rtt in results:
            if status != 200 or reply is None or reply.get("degraded"):
                self.failed += 1
                continue
            self.op_latencies.append(rtt)
            self.latency_factors.append(hit_factor if kind == "repeat" else None)
            self.replies.append({"key": key, "reply": reply, "rtt": rtt, "kind": kind, "round": rnd})
            answers.append(reply)
        self.keys.extend(key for kind, key in plan if kind != "repeat")
        return answers

    def _caller(self, work, results) -> None:
        """One closed-loop caller: next request only after the last reply."""
        while True:
            try:
                kind, key, body = work.get_nowait()
            except queue.Empty:
                return
            start = time.perf_counter()
            try:
                status, reply = self.daemon.request("POST", "/solve", body)
            except (OSError, http.client.HTTPException, ValueError):
                status, reply = None, None
            results.append((kind, key, status, reply, time.perf_counter() - start))

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()


WORKLOADS = {w.name: w for w in (OfflinePaper, OnlineNegotiation, BaselinesBatch, ServeMixed)}


# ----------------------------------------------------------------------
# Timed passes
# ----------------------------------------------------------------------
def run_rounds(wl, seconds: float, min_rounds: int, max_rounds=None, tracer=None):
    """Whole rounds until the next one would end past ``seconds``."""
    answers, walls = [], []
    while True:
        spent = wl.host.spent
        start = time.perf_counter()
        answers.extend(wl.round(len(walls), tracer))
        walls.append(time.perf_counter() - start - (wl.host.spent - spent))
        if max_rounds is not None:
            if len(walls) >= max_rounds:
                break
            continue
        mean = sum(walls) / len(walls)
        if len(walls) >= min_rounds and sum(walls) + mean > seconds:
            break
    return answers, walls


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def check_inprocess(wl, answers) -> tuple[list[str], list]:
    """(a)–(c) on every distinct answer; later rounds must repeat round 0."""
    errors, first, tables = [], {}, {}
    for a in answers:
        ident = (a.spec, id(a.sc))
        h = a.art.content_hash()
        if ident in first:
            if first[ident] != h:
                errors.append(f"{a.spec}: round {a.round} answer differs from round 0")
            continue
        first[ident] = h
        if id(a.sc) not in tables:
            net = inputs.to_instance(a.sc).network()
            tables[id(a.sc)] = (net.policy_orientations, checks.geometry(a.sc))
        orient, geo = tables[id(a.sc)]
        errors += [f"{a.spec}: {e}" for e in checks.check_answer(a.sc, a.art, orient, inputs.RHO, geo)]
    return errors, [a for a in answers if a.round == 0]


def check_serve(wl: ServeMixed) -> tuple[list[str], list]:
    """(a)–(c) on every distinct served answer, repeats equal to the first
    answer of their key, and (d) a seeded sample of keys — one per spec —
    re-solved in-process must hash like the daemon's answer."""
    from repro.solvers import RunArtifact, solve_instance

    errors, first, tables = [], {}, {}
    for row in wl.replies:
        key, reply = row["key"], row["reply"]
        h = reply["artifact_hash"]
        if key in first:
            if first[key]["reply"]["artifact_hash"] != h:
                errors.append(f"{key}: repeated answer hash differs")
            continue
        first[key] = row
        spec, idx, _ = key
        sc = wl.scenarios[idx]
        if idx not in tables:
            net = inputs.to_instance(sc).network()
            tables[idx] = (net.policy_orientations, checks.geometry(sc))
        orient, geo = tables[idx]
        art = RunArtifact.from_dict(reply["artifact"])
        errors += [f"{key}: {e}" for e in checks.check_answer(sc, art, orient, inputs.RHO, geo)]
    rng = np.random.default_rng([wl.seed, wl.key, 99])
    for spec in wl.specs:
        keys = [k for k in first if k[0] == spec]
        key = keys[int(rng.integers(len(keys)))]
        _, idx, seed = key
        direct = solve_instance(spec, inputs.to_instance(wl.scenarios[idx]), seed=seed)
        errors += checks.check_served_hash(first[key]["reply"]["artifact_hash"], direct, key)
    fixed = [
        RunArtifact.from_dict(row["reply"]["artifact"])
        for row in first.values()
        if row["kind"] == "warmup" or row.get("round", MIN_BLOCKS) < MIN_BLOCKS
    ]
    return errors, fixed


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(wl, walls, answers, fixed_arts, setup_s, rss) -> dict:
    """Every end-to-end metric; times scaled by the run's host factor."""
    timed = sum(walls)
    if isinstance(wl, ServeMixed):  # answers are reply bodies
        events = sum(max(int(r["artifact"]["events"]), 1) for r in answers)
    else:
        events = sum(max(int(a.art.events), 1) for a in answers)
    msgs = [messages_events(a) for a in fixed_arts]
    f = wl.host.factor()
    if isinstance(wl, ServeMixed):
        lat = [x / (g or f) for x, g in zip(wl.op_latencies, wl.latency_factors)]
    else:
        lat = [x / f for x in wl.op_latencies]
    return {
        "setup_s": (setup_s / f, "s"),
        "solves_per_s": (len(answers) / timed * f, "1/s"),
        "arrivals_per_s": (events / timed * f, "1/s"),
        "request_p50_s": (pct(lat, 50), "s"),
        "request_p90_s": (pct(lat, 90), "s"),
        "utility": (float(np.mean([a.total_utility for a in fixed_arts])), "1"),
        "messages_per_arrival": (sum(m for m, _ in msgs) / sum(e for _, e in msgs), "1"),
        "peak_rss_mb": (rss, "MB"),
    }


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def per_layer(wl, spans, missing, answers, overhead) -> dict:
    """Every per-layer metric from one traced pass (0 where a layer idles).

    ``missing`` holds the span names whose wrapped functions were not found;
    ``overhead`` is the traced over the untraced host-scaled wall time.
    """

    def durs(name):
        return [s["end"] - s["start"] for s in outermost(spans, name)]

    def named(name):
        return [s for s in spans if s["name"] == name]

    builds = [s for s in named("core.network") if not s.get("cached")]
    binds: dict = {}
    for s in outermost(spans, "objective.bind"):
        binds[s.get("prepared")] = binds.get(s.get("prepared"), 0.0) + s["end"] - s["start"]
    sweeps = named("offline.sweep")
    scans = sum(s.get("candidate_scans", 0) for s in sweeps)
    skipped = sum(s.get("cached_reuses", 0) + s.get("pruned_skips", 0) for s in sweeps)
    batch_plan = [(s["end"] - s["start"]) / s.get("batch", 1) for s in named("offline.batch_plan")]
    batch_exec = [(s["end"] - s["start"]) / s.get("batch", 1) for s in named("sim.execute_batch")]
    negotiations = named("online.negotiate")
    evals = sum(s.get("proposal_evals", 0) for s in negotiations)
    hits = sum(s.get("proposal_cache_hits", 0) for s in negotiations)

    serve = isinstance(wl, ServeMixed)
    if serve:
        traced = [r for r in wl.replies if r["kind"] != "warmup"]
        arts = [r["reply"]["artifact"] for r in traced]
        switches = [a["switch_count"] for a in arts]
        online = [a for a in arts if a["events"] > 0]
        events = sum(a["events"] for a in online)
        rounds = sum(a["message_stats"]["rounds"] for a in online)
    else:
        switches = [a.art.switch_count for a in answers]
        online = [a.art for a in answers if a.art.events > 0]
        events = sum(a.events for a in online)
        rounds = sum(a.message_stats["rounds"] for a in online)

    by_id = {s["id"]: s for s in spans}
    encode_by_reply: dict = {}
    for s in outermost(spans, "solvers.artifact_encode"):
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "serve.encode":
            encode_by_reply[parent["id"]] = encode_by_reply.get(parent["id"], 0.0) + s["end"] - s["start"]

    m = {
        "core.network_build_s": (pct([s["end"] - s["start"] for s in builds], 50), "s"),
        "core.policies": (pct([s.get("policies", 0) for s in builds], 50), "count"),
        "objective.bind_s": (pct(list(binds.values()), 50), "s"),
        "offline.sweep_s": (pct(durs("offline.sweep"), 50), "s"),
        "offline.candidate_scans": (pct([s.get("candidate_scans", 0) for s in sweeps], 50), "count"),
        "offline.lazy_skip_ratio": (_ratio(skipped, scans), "ratio"),
        "offline.smooth_s": (pct(durs("offline.smooth"), 50), "s"),
        "offline.batch_plan_s": (pct(batch_plan, 50), "s"),
        "sim.execute_s": (pct(durs("sim.execute"), 50), "s"),
        "sim.execute_batch_s": (pct(batch_exec, 50), "s"),
        "sim.switches": (pct(switches, 50), "count"),
        "online.arrival_s": (pct(getattr(wl, "arrival_s", []), 50), "s"),
        "online.arrival_p90_s": (pct(getattr(wl, "arrival_s", []), 90), "s"),
        "online.negotiate_s": (pct(durs("online.negotiate"), 50), "s"),
        "online.rounds_per_arrival": (_ratio(rounds, events), "count"),
        "online.proposal_evals": (_ratio(evals, events), "count"),
        "online.proposal_cache_hit_ratio": (_ratio(hits, hits + evals), "ratio"),
        "solvers.instance_decode_s": (pct(durs("solvers.instance_decode"), 50), "s"),
        "solvers.instance_hash_s": (pct(durs("solvers.instance_hash"), 50), "s"),
        "solvers.artifact_encode_s": (pct(list(encode_by_reply.values()), 50), "s"),
        "serve.decode_s": (pct(durs("serve.decode"), 50), "s"),
        "serve.encode_s": (pct(durs("serve.encode"), 50), "s"),
    }
    if serve:
        s0, s1 = wl.stats0, wl.stats1
        p0, p1 = s0["prepared_cache"], s1["prepared_cache"]
        r0, r1 = s0["result_cache"], s1["result_cache"]
        queued = [r["reply"]["queued_s"] for r in traced]
        solved = [r["reply"]["solve_s"] for r in traced if not r["reply"]["cached"]]
        outside = [r["rtt"] - r["reply"]["queued_s"] - r["reply"]["solve_s"] for r in traced]
        dh, dm = p1["hits"] - p0["hits"], p1["misses"] - p0["misses"]
        rh, rm = r1["hits"] - r0["hits"], r1["misses"] - r0["misses"]
        covered = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
        m.update({
            "solvers.prepared_hit_ratio": (_ratio(dh, dh + dm), "ratio"),
            "serve.outside_engine_s": (pct(outside, 50), "s"),
            "serve.queue_wait_s": (pct(queued, 50), "s"),
            "serve.queue_wait_p90_s": (pct(queued, 90), "s"),
            "serve.engine_solve_s": (pct(solved, 50), "s"),
            "serve.engine_solve_p90_s": (pct(solved, 90), "s"),
            "serve.result_hit_ratio": (_ratio(rh, rh + rm), "ratio"),
            "serve.inflight_dedup": (s1["inflight_dedup"] - s0["inflight_dedup"], "count"),
            "serve.coalesced_requests": (s1["coalesced_requests"] - s0["coalesced_requests"], "count"),
            "trace.uncovered_share": (1.0 - _ratio(covered, sum(r["rtt"] for r in traced)), "ratio"),
        })
    else:
        c0, c1 = wl.cache0, wl.cache1
        dh, dm = c1["hits"] - c0["hits"], c1["misses"] - c0["misses"]
        shares = []
        children: dict = {}
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]] = children.get(s["parent"], 0.0) + s["end"] - s["start"]
        for s in named("bench.solve"):
            dur = s["end"] - s["start"]
            shares.append(1.0 - children.get(s["id"], 0.0) / dur)
        m.update({
            "solvers.prepared_hit_ratio": (_ratio(dh, dh + dm), "ratio"),
            "serve.outside_engine_s": (0.0, "s"),
            "serve.queue_wait_s": (0.0, "s"),
            "serve.queue_wait_p90_s": (0.0, "s"),
            "serve.engine_solve_s": (0.0, "s"),
            "serve.engine_solve_p90_s": (0.0, "s"),
            "serve.result_hit_ratio": (0.0, "ratio"),
            "serve.inflight_dedup": (0, "count"),
            "serve.coalesced_requests": (0, "count"),
            "trace.uncovered_share": (pct(shares, 50), "ratio"),
        })
    m["trace.overhead"] = (overhead, "ratio")
    return {k: v for k, v in m.items() if not NEEDS.get(k, set()) & missing}


#: Per-layer metric -> the span names it is computed from.  A metric whose
#: wrapped function no longer exists is left out of the result.
NEEDS = {
    "core.network_build_s": {"core.network"},
    "core.policies": {"core.network"},
    "objective.bind_s": {"objective.bind"},
    "offline.sweep_s": {"offline.sweep"},
    "offline.candidate_scans": {"offline.sweep"},
    "offline.lazy_skip_ratio": {"offline.sweep"},
    "offline.smooth_s": {"offline.smooth"},
    "offline.batch_plan_s": {"offline.batch_plan"},
    "sim.execute_s": {"sim.execute"},
    "sim.execute_batch_s": {"sim.execute_batch"},
    "online.negotiate_s": {"online.negotiate"},
    "online.proposal_evals": {"online.negotiate"},
    "online.proposal_cache_hit_ratio": {"online.negotiate"},
    "solvers.instance_decode_s": {"solvers.instance_decode"},
    "solvers.instance_hash_s": {"solvers.instance_hash"},
    "solvers.artifact_encode_s": {"solvers.artifact_encode", "serve.encode"},
    "serve.decode_s": {"serve.decode"},
    "serve.encode_s": {"serve.encode"},
}


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def _on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--kernel", default="unknown")
    p.add_argument("--kernel-rebuilt", default="unknown")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    _repro_from_checkout()
    os.makedirs(OUT_DIR, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed)
    serve = isinstance(wl, ServeMixed)
    tag = f"{args.workload}-seed{args.seed}"
    try:
        if serve:
            wl.start(traced=False)
        wl.warm_up()
        setup_s = time.monotonic() - args.t0
        wl.begin_pass(False)
        answers, walls = run_rounds(
            wl, args.seconds / 2 if args.trace else args.seconds, MIN_BLOCKS if serve else 1
        )
        wl.end_pass(False)
        rss = vm_hwm_mb(wl.daemon.proc.pid) if serve else vm_hwm_mb()
        if args.trace:
            plain_walls, plain_factor = walls, wl.host.factor()
            tracer = None
            if serve:  # the same seeded blocks again, against a traced daemon
                daemon_spans = os.path.join(OUT_DIR, f"daemon-spans-{tag}.jsonl")
                wl.close()
                wl = ServeMixed(args.seed)
                wl.start(traced=True, spans_path=daemon_spans)
                wl.warm_up()
            else:
                tracer = Tracer()
                tracer.install()
            wl.begin_pass(True)
            begin = time.perf_counter()
            answers, walls = run_rounds(wl, 0, 0, max_rounds=len(plain_walls), tracer=tracer)
            wl.end_pass(True)
            if serve:
                wl.close()
                spans, missing = load_spans(daemon_spans)
                spans = [s for s in spans if s["start"] >= begin]
            else:
                tracer.uninstall()
                tracer.write(os.path.join(OUT_DIR, f"spans-{tag}.jsonl"))
                spans, missing = tracer.spans, tracer.missing
        if serve:
            wl.close()
            errors, fixed = check_serve(wl)
            attempted, failed = len(answers) + wl.failed, wl.failed
        else:
            errors, distinct = check_inprocess(wl, answers)
            fixed = [a.art for a in distinct]
            attempted, failed = len(answers), 0
        if args.trace:
            for label in missing:
                print(f"perfbench: wrapped function missing: {label}")
            overhead = (sum(walls) / wl.host.factor()) / (sum(plain_walls) / plain_factor)
            metrics = per_layer(wl, spans, missing_layers(missing), answers, overhead)
        else:
            metrics = end_to_end(wl, walls, answers, fixed, setup_s, rss)
    finally:
        if serve:
            wl.close()
    digest = inputs.digest(wl.scenarios)
    print(
        f"perfbench: workload={args.workload} seed={args.seed} inputs={digest} "
        f"kernel={args.kernel} rebuilt={args.kernel_rebuilt} rounds={len(walls)} "
        f"threads={os.environ.get('OMP_NUM_THREADS')} host_factor={wl.host.factor():.4f} "
        f"host_samples={len(wl.host.samples)} raw_timed_s={sum(walls):.3f} raw_setup_s={setup_s:.4f}"
    )
    for e in errors[:20]:
        print(f"perfbench: CHECK FAILED {e}")
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
