"""The benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  This launcher imports nothing of the
program itself.  It

1. refuses, within seconds, a directory without the program's ``src/``;
2. pins BLAS/OpenMP to one thread in every process it starts;
3. builds and loads the optional ``_fastpath`` C kernel (and byte-compiles
   the modules the benchmark imports) in a throw-away process, so that
   one-time build cost stays out of ``setup_s``;
4. starts the measuring process (``bench.py``), whose ``setup_s`` clock
   starts here, just before that process starts;
5. forwards SIGINT/SIGTERM to it and waits for it, so no process outlives
   the run.

The last line of standard output is the measuring process's JSON result.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("offline-paper", "online-negotiation", "baselines-batch", "serve-mixed")

#: One thread for every BLAS/OpenMP pool in every process the benchmark
#: starts: the host has two cores and the serve workload runs two processes.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

KERNEL_PROBE = """
import json
from repro.online import _ckernel
import repro.cli, repro.serve, repro.solvers
print(json.dumps("compiled" if _ckernel.load() is not None else "numpy"))
"""


def _kernel_files(root):
    return sorted(
        (path, os.stat(path).st_mtime_ns)
        for path in glob.glob(os.path.join(root, "src", "repro", "online", "_fastpath.*.so"))
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {root}/src/repro; run from a checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = os.path.join(root, "src")

    before = _kernel_files(root)
    probe = subprocess.run(
        [sys.executable, "-c", KERNEL_PROBE], env=env, cwd=root,
        capture_output=True, text=True, timeout=600,
    )
    if probe.returncode != 0:
        sys.stderr.write(probe.stderr)
        print("perfbench: the program failed to import", file=sys.stderr)
        return 2
    kernel = json.loads(probe.stdout.strip().splitlines()[-1])
    rebuilt = _kernel_files(root) != before

    t0 = time.monotonic()
    child = subprocess.Popen(
        [
            sys.executable, os.path.join(HERE, "bench.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--t0", repr(t0),
            "--kernel", kernel,
            "--kernel-rebuilt", str(rebuilt).lower(),
        ],
        env=env,
        cwd=root,
    )

    def forward(signum, frame):
        if child.poll() is None:
            child.send_signal(signum)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        return child.wait(timeout=900)
    except subprocess.TimeoutExpired:
        child.terminate()
        try:
            child.wait(timeout=20)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        print("perfbench: the measuring process overran 900 s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
