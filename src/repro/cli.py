"""Command-line interface: run and inspect the paper's experiments.

Usage::

    repro-haste list
    repro-haste describe fig04
    repro-haste run fig04 --trials 5 --seed 0 --scale default
    repro-haste run fig16 --trace out.jsonl
    repro-haste run all --scale quick
    repro-haste profile fig04
    repro-haste demo
    repro-haste solvers
    repro-haste solve haste-offline:c=4 --scale quick --seed 7
    repro-haste solve online-haste:tau=2 --instance saved.npz --save-artifact out.npz
    repro-haste instance sample --scale quick --seed 7 --out saved.npz
    repro-haste instance inspect saved.npz
    repro-haste traffic --process mmpp --loads 0.5,1,2 --seed 7
    repro-haste traffic --baseline benchmarks/slo_baseline.json

Unknown experiment ids and malformed or unknown solver specs exit with
status 2 and a one-line message on stderr (no traceback).

(Equivalently ``python -m repro.cli …``.)  Experiment output is the text
table the paper's figure plots plus the machine-checked shape claims; exit
status is non-zero if any shape check fails, so the CLI doubles as a
reproduction gate in CI.

Observability: ``run … --trace out.jsonl`` records the run's telemetry
(spans, events, and the final metric summary — see :mod:`repro.obs`) as
one JSON object per line; ``profile <exp>`` runs an experiment under an
in-memory registry and prints the nested span-tree summary.  The
``REPRO_TRACE`` environment variable enables the same machinery for any
entry point.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import obs
from .experiments import all_experiments, get_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-haste",
        description=(
            "HASTE reproduction: charging task scheduling for directional "
            "wireless charger networks (ICPP'18 / TMC'21)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all reproducible experiments")

    p_desc = sub.add_parser("describe", help="show one experiment's paper claim")
    p_desc.add_argument("experiment", help="experiment id, e.g. fig04")

    p_run = sub.add_parser("run", help="run one experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id, e.g. fig04, or 'all'")
    p_run.add_argument("--trials", type=int, default=3, help="topologies per point")
    p_run.add_argument("--seed", type=int, default=0, help="root random seed")
    p_run.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="default",
        help="instance size tier",
    )
    p_run.add_argument(
        "--processes", type=int, default=1, help="worker processes for sweeps"
    )
    p_run.add_argument("--out", default=None, help="also append output to this file")
    p_run.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write JSONL run telemetry (spans, events, metric summary) here",
    )

    p_prof = sub.add_parser(
        "profile",
        help="run one experiment under the tracer and print the span tree",
    )
    p_prof.add_argument("experiment", help="experiment id, e.g. fig04")
    p_prof.add_argument("--trials", type=int, default=1, help="topologies per point")
    p_prof.add_argument("--seed", type=int, default=0, help="root random seed")
    p_prof.add_argument(
        "--scale",
        choices=("quick", "default", "paper"),
        default="quick",
        help="instance size tier (default: quick — profiling wants cycles, "
        "not statistics)",
    )
    p_prof.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="also write the JSONL telemetry to this file",
    )

    sub.add_parser("demo", help="run a 30-second end-to-end demonstration")

    sub.add_parser("solvers", help="list registered solver specs and capabilities")

    p_solve = sub.add_parser(
        "solve",
        help="run one solver spec on a sampled or saved instance",
    )
    p_solve.add_argument(
        "spec", help="solver spec, e.g. haste-offline:c=4 or greedy-utility"
    )
    p_solve.add_argument(
        "--instance",
        default=None,
        metavar="PATH",
        help="solve a saved instance (.json/.npz) instead of sampling one",
    )
    p_solve.add_argument(
        "--scale",
        choices=("quick", "small", "default", "paper"),
        default="quick",
        help="instance size tier when sampling (ignored with --instance)",
    )
    p_solve.add_argument(
        "--seed",
        type=int,
        default=None,
        help="sampling/solver seed (default: 0 when sampling; the saved "
        "instance's own seed with --instance, reproducing the original run)",
    )
    p_solve.add_argument(
        "--save-artifact",
        default=None,
        metavar="PATH",
        help="save the structured RunArtifact (.json/.npz) here",
    )
    p_solve.add_argument(
        "--save-instance",
        default=None,
        metavar="PATH",
        help="save the (sampled or loaded) instance (.json/.npz) here",
    )

    p_inst = sub.add_parser("instance", help="sample or inspect problem instances")
    inst_sub = p_inst.add_subparsers(dest="instance_command", required=True)
    p_sample = inst_sub.add_parser(
        "sample", help="sample an instance and save it for later replay"
    )
    p_sample.add_argument(
        "--scale",
        choices=("quick", "small", "default", "paper"),
        default="quick",
        help="instance size tier",
    )
    p_sample.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_sample.add_argument(
        "--out", required=True, metavar="PATH", help="output path (.json or .npz)"
    )
    p_inspect = inst_sub.add_parser("inspect", help="describe a saved instance")
    p_inspect.add_argument("path", help="instance file (.json or .npz)")

    p_traffic = sub.add_parser(
        "traffic",
        help="drive an online solver with a seeded traffic stream and "
        "report SLO telemetry",
    )
    p_traffic.add_argument(
        "--spec",
        default="online-haste",
        help="online solver spec to drive (default: online-haste; "
        "shards=/loss=… specs work unchanged)",
    )
    p_traffic.add_argument(
        "--process",
        choices=("poisson", "mmpp", "diurnal"),
        default="poisson",
        help="arrival process shape",
    )
    p_traffic.add_argument(
        "--rate", type=float, default=2.0, help="mean arrivals per slot at load 1"
    )
    p_traffic.add_argument(
        "--loads",
        default="0.5,1.0,2.0",
        help="comma-separated load multipliers to sweep",
    )
    p_traffic.add_argument(
        "--horizon", type=int, default=None, help="stream length in slots"
    )
    p_traffic.add_argument(
        "--fleet-scale",
        type=float,
        default=1.0,
        help="charger-fleet scale factor (field grows to keep density)",
    )
    p_traffic.add_argument(
        "--hotspot",
        type=float,
        default=0.0,
        help="fraction of arrivals clustered in a seeded hot-spot disc",
    )
    p_traffic.add_argument("--seed", type=int, default=0, help="stream seed")
    p_traffic.add_argument(
        "--scale",
        choices=("quick", "small", "default", "paper"),
        default="quick",
        help="base scenario size tier",
    )
    p_traffic.add_argument(
        "--no-telemetry",
        action="store_true",
        help="disable obs capture (latency falls back to plan-time/events)",
    )
    p_traffic.add_argument(
        "--save-report",
        default=None,
        metavar="PATH",
        help="write the TrafficReport JSON here",
    )
    p_traffic.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="evaluate the SLO gate against this baseline (exit 1 on fail)",
    )
    p_traffic.add_argument(
        "--update-baseline",
        default=None,
        metavar="PATH",
        help="record this run as the baseline entry for the current "
        "kernel mode",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the scheduling daemon: HTTP/JSON over the solver registry",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="listen address"
    )
    p_serve.add_argument(
        "--port", type=int, default=8642, help="listen port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers", type=int, default=2, help="solver worker threads"
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded request queue size (overflow answers 503)",
    )
    p_serve.add_argument(
        "--result-cache",
        type=int,
        default=256,
        help="result-cache capacity (content_hash × spec × seed entries)",
    )
    p_serve.add_argument(
        "--spec",
        default="haste-offline",
        help="default solver spec for requests that omit one",
    )
    p_serve.add_argument(
        "--no-telemetry",
        action="store_true",
        help="do not enable the obs registry for the daemon",
    )
    p_serve.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request deadline (requests may override; "
        "unset = no deadline)",
    )
    p_serve.add_argument(
        "--drain-deadline",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="on SIGTERM/SIGINT, wait this long for in-flight requests "
        "before exiting",
    )
    p_serve.add_argument(
        "--no-degrade",
        action="store_true",
        help="disable the graceful-degradation ladder (trips become errors)",
    )
    p_serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="inject process faults, e.g. 'crash=0.1,slow=0.2,seed=7' "
        "(keys: crash, slow, slow_s, stall, stall_s, seed)",
    )

    p_bounds = sub.add_parser(
        "bounds", help="print the applicable theoretical guarantees"
    )
    p_bounds.add_argument("--rho", type=float, default=1 / 12,
                          help="switching delay fraction (paper: 1/12)")
    p_bounds.add_argument("--colors", type=int, default=4,
                          help="TabularGreedy color count C")

    return parser


def _cmd_list() -> int:
    for exp in all_experiments():
        print(f"{exp.id:22s} {exp.figure:12s} {exp.title}")
    return 0


def _cmd_describe(experiment_id: str) -> int:
    exp = get_experiment(experiment_id)
    print(f"{exp.id} ({exp.figure}): {exp.title}")
    print(f"paper claim: {exp.paper_claim}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    targets = (
        all_experiments()
        if args.experiment == "all"
        else [get_experiment(args.experiment)]
    )
    if args.trace:
        obs.configure(trace=args.trace)
    any_failed = False
    try:
        for exp in targets:
            start = time.time()
            output = exp.run(
                trials=args.trials,
                seed=args.seed,
                scale=args.scale,
                processes=args.processes,
            )
            rendered = output.render()
            rendered += f"\n(elapsed {time.time() - start:.1f}s)\n"
            print(rendered)
            if args.out:
                # Append per experiment so long runs leave a usable record
                # even if interrupted.
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(rendered + "\n")
            if not output.all_passed:
                any_failed = True
    finally:
        if args.trace:
            obs.shutdown()
            print(f"(trace written to {args.trace})")
    return 1 if any_failed else 0


def _cmd_profile(args: argparse.Namespace) -> int:
    exp = get_experiment(args.experiment)
    reg = obs.configure(trace=args.trace)
    try:
        start = time.time()
        output = exp.run(
            trials=args.trials, seed=args.seed, scale=args.scale, processes=1
        )
        elapsed = time.time() - start
        print(output.render())
        print(f"(elapsed {elapsed:.1f}s)\n")
        print(obs.format_summary(reg))
    finally:
        obs.shutdown()
        if args.trace:
            print(f"\n(trace written to {args.trace})")
    return 0 if output.all_passed else 1


def _cmd_demo() -> int:
    from .offline import schedule_offline
    from .online import run_online_haste
    from .sim import SimulationConfig, execute_schedule, sample_network

    cfg = SimulationConfig.quick()
    net = sample_network(cfg, np.random.default_rng(7))
    print(net.describe())

    offline = schedule_offline(net, 4, rng=np.random.default_rng(1))
    ex = execute_schedule(net, offline.schedule, rho=cfg.rho)
    print(f"centralized offline  : {ex.summary()}")

    online = run_online_haste(
        net, num_colors=4, tau=cfg.tau, rho=cfg.rho, rng=np.random.default_rng(2)
    )
    print(f"distributed online   : {online.summary()}")
    return 0


def _cli_config(scale: str):
    """Resolve a CLI --scale tier to a :class:`SimulationConfig`."""
    if scale == "small":
        from .sim.config import SimulationConfig

        return SimulationConfig.small_scale()
    from .experiments.common import config_for_scale

    return config_for_scale(scale)


def _cmd_solvers() -> int:
    from .solvers import REGISTRY

    for name in REGISTRY.names():
        entry = REGISTRY.entry(name)
        print(f"{name:22s} {entry.capabilities.summary()}")
        if entry.defaults:
            params = ", ".join(
                f"{k}={'<auto>' if v is None else v}"
                for k, v in sorted(entry.defaults.items())
            )
            print(f"{'':22s}   params: {params}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    from .solvers import Instance, get_solver, solve_instance

    solver = get_solver(args.spec)  # validate spec before touching files
    if args.instance:
        instance = Instance.load(args.instance)
        seed = args.seed  # None → replay with the instance's own seed
    else:
        instance = Instance.sample(
            _cli_config(args.scale), args.seed if args.seed is not None else 0
        )
        seed = None
    if args.save_instance:
        instance.save(args.save_instance)
    print(instance.describe())
    artifact = solve_instance(solver.canonical(), instance, seed=seed)
    print(artifact.summary())
    if args.save_instance:
        print(f"(instance written to {args.save_instance})")
    if args.save_artifact:
        artifact.save(args.save_artifact)
        print(f"(artifact written to {args.save_artifact})")
    return 0


def _cmd_traffic(args: argparse.Namespace) -> int:
    from .solvers import get_solver
    from .traffic import (
        TrafficModel,
        evaluate_slo,
        load_baseline,
        run_calibration,
        run_traffic,
        save_baseline,
        update_baseline,
    )

    get_solver(args.spec)  # validate the spec before any work (exit 2)
    try:
        loads = tuple(float(x) for x in args.loads.split(",") if x.strip())
    except ValueError:
        print(f"error: bad --loads value {args.loads!r}", file=sys.stderr)
        return 2
    if not loads:
        print("error: --loads is empty", file=sys.stderr)
        return 2
    model = TrafficModel(
        process=args.process,
        rate=args.rate,
        horizon_slots=args.horizon,
        fleet_scale=args.fleet_scale,
        hotspot_frac=args.hotspot,
        seed=args.seed,
    )
    report = run_traffic(
        model,
        _cli_config(args.scale),
        spec=args.spec,
        loads=loads,
        telemetry=not args.no_telemetry,
    )
    print(report.summary())
    if args.save_report:
        report.save(args.save_report)
        print(f"(report written to {args.save_report})")
    if args.update_baseline:
        try:
            baseline = load_baseline(args.update_baseline)
        except FileNotFoundError:
            baseline = None
        baseline = update_baseline(baseline, report, run_calibration())
        save_baseline(baseline, args.update_baseline)
        print(
            f"(baseline entry [{report.kernel}] written to "
            f"{args.update_baseline})"
        )
    if args.baseline:
        result = evaluate_slo(report, load_baseline(args.baseline))
        print(result.summary())
        if not result.passed:
            return 1
    return 0


def _cmd_instance(args: argparse.Namespace) -> int:
    from .solvers import Instance

    if args.instance_command == "sample":
        instance = Instance.sample(_cli_config(args.scale), args.seed)
        instance.save(args.out)
        print(instance.describe())
        print(f"content hash: {instance.content_hash()}")
        print(f"(instance written to {args.out})")
        return 0
    instance = Instance.load(args.path)
    print(instance.describe())
    print(f"content hash: {instance.content_hash()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from . import obs
    from .faults import parse_process_faults
    from .serve import ScheduleEngine, ServeDaemon
    from .serve.daemon import configure_telemetry
    from .solvers import get_solver

    if not (0 <= args.port <= 65535):
        print(
            f"error: --port must be in [0, 65535], got {args.port}",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1 or args.queue_limit < 1:
        print(
            "error: --workers and --queue-limit must be >= 1", file=sys.stderr
        )
        return 2
    if args.deadline is not None and not (args.deadline > 0):
        print("error: --deadline must be > 0", file=sys.stderr)
        return 2
    fault_model = None
    if args.chaos:
        try:
            fault_model = parse_process_faults(args.chaos)
        except ValueError as err:
            print(f"error: --chaos: {err}", file=sys.stderr)
            return 2
    get_solver(args.spec)  # bad default spec → SolverError → exit 2 in main()

    owns_obs = not args.no_telemetry and not obs.enabled()
    if owns_obs:
        configure_telemetry()
    engine = ScheduleEngine(
        workers=args.workers,
        queue_limit=args.queue_limit,
        result_cache_capacity=args.result_cache,
        default_deadline_s=args.deadline,
        degradation=not args.no_degrade,
        fault_model=fault_model,
    )
    daemon = ServeDaemon(
        engine, host=args.host, port=args.port, default_spec=args.spec
    )

    async def _run() -> None:
        await daemon.start()
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass  # non-Unix loop: Ctrl-C falls back to KeyboardInterrupt
        print(
            f"repro-haste serve: listening on http://{daemon.host}:"
            f"{daemon.port} (default spec {args.spec!r})",
            flush=True,
        )
        serve_task = asyncio.ensure_future(daemon.serve_forever())
        stop_task = asyncio.ensure_future(stop.wait())
        done, _ = await asyncio.wait(
            {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
        )
        if stop_task in done:
            # Graceful drain: refuse new work, let in-flight finish, then
            # tear down — the SIGTERM contract the chaos suite pins.
            print(
                "repro-haste serve: draining "
                f"(up to {args.drain_deadline:g}s) ...",
                flush=True,
            )
            daemon.begin_drain()
            drained = await asyncio.to_thread(
                engine.drain, args.drain_deadline
            )
            await daemon.stop()
            serve_task.cancel()
            try:
                await serve_task
            except asyncio.CancelledError:
                pass
            print(
                "repro-haste serve: drained, shutting down"
                if drained
                else "repro-haste serve: drain deadline hit, shutting down",
                flush=True,
            )
        else:
            stop_task.cancel()
            await serve_task  # propagate listener failures

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    except OSError as err:
        print(
            f"error: cannot bind {args.host}:{args.port}: {err}",
            file=sys.stderr,
        )
        return 2
    finally:
        engine.close()
        if owns_obs:
            obs.shutdown()
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "describe":
        return _cmd_describe(args.experiment)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "solvers":
        return _cmd_solvers()
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "instance":
        return _cmd_instance(args)
    if args.command == "traffic":
        return _cmd_traffic(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "bounds":
        from .analysis import certificate

        print(certificate(args.rho, args.colors).render())
        return 0
    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    """Entry point (console script ``repro-haste``).

    Bad ids — an unknown experiment, a malformed or unknown solver spec, a
    missing instance file — exit with status 2 and a one-line message on
    stderr instead of a traceback.
    """
    from .solvers import SolverError, SpecError

    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (SpecError, SolverError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyError as err:
        # get_experiment signals unknown ids with a descriptive KeyError.
        print(f"error: {err.args[0] if err.args else err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
