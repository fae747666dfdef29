"""Loader for the optional C gain kernels (``_fastpath.c``).

The distributed negotiation's inner loop and the offline TabularGreedy
sweep are dispatch-bound: millions of tiny tensor evaluations whose
arithmetic is a few hundred flops each.  ``_fastpath.c`` collapses each
sweep evaluation into one C call, and each slot of the synchronous
negotiation, all its rounds and colors, into one.  The task-weighted sums
stay NumPy's own: the sweep calls ``np.matmul`` between its C calls, and
the slot kernel calls ``np.matmul``'s float64 inner loop directly, bound
once when the module loads (a NumPy without that loop fails the load).
The extension is compiled on first import with the system C compiler and
cached next to the source; anything going wrong — no compiler, no
headers, sandboxed filesystem, no float64 matmul loop — degrades to the
pure-NumPy path, which remains the reference implementation (the
equivalence tests compare the two).  The negotiation module holds the one
loaded handle (``repro.online.distributed._C``); the offline sweep reads
it from there at run time.

Set ``REPRO_DISABLE_CKERNEL=1`` to force the NumPy path (used by the
tests to pin C-vs-NumPy protocol equivalence, and available as an escape
hatch).  No third-party packages are involved: just ``cc`` and the
Python/NumPy headers that ship with the interpreter environment.

Which backend actually ran is observable: :func:`load` emits a
``ckernel.loaded`` / ``ckernel.disabled`` / ``ckernel.fallback`` event
through :mod:`repro.obs`, and an *unrequested* fallback — compilation or
loading failed rather than ``REPRO_DISABLE_CKERNEL`` being set — also
raises a one-time ``RuntimeWarning`` so the degradation is never silent.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sysconfig
from pathlib import Path

from .. import obs

__all__ = ["FP_MAX_DIM", "load"]

_SRC = Path(__file__).with_name("_fastpath.c")

#: Largest policy or task-column count the kernels accept (``FP_MAX_DIM``
#: in ``_fastpath.c``); callers run NumPy for anything larger.
FP_MAX_DIM = 512


def _build(so_path: Path) -> tuple[bool, str]:
    """Compile ``_fastpath.c`` → ``so_path``; ``(ok, failure detail)``."""
    import numpy as np

    cc = os.environ.get("CC", "cc")
    tmp = so_path.with_name(so_path.name + f".tmp{os.getpid()}")
    cmd = [
        cc,
        "-O2",
        "-fPIC",
        "-shared",
        # Keep IEEE rounding bit-for-bit: no FMA contraction.
        "-ffp-contract=off",
        f"-I{sysconfig.get_paths()['include']}",
        f"-I{np.get_include()}",
        str(_SRC),
        "-o",
        str(tmp),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=120)
        if proc.returncode != 0 or not tmp.exists():
            tmp.unlink(missing_ok=True)
            detail = proc.stderr.decode(errors="replace").strip()
            return False, (
                f"{cc} exited with status {proc.returncode}"
                + (f": {detail[-500:]}" if detail else "")
            )
        tmp.replace(so_path)  # atomic: concurrent builders race safely
        return True, ""
    except (OSError, subprocess.TimeoutExpired) as exc:
        tmp.unlink(missing_ok=True)
        return False, f"{type(exc).__name__}: {exc}"


def _fallback(reason: str) -> None:
    """Record an unrequested degradation to the NumPy reference path."""
    obs.warn_once(
        "ckernel.fallback",
        "repro.online._fastpath could not be compiled/loaded; the "
        "negotiation and the offline sweep run on the (bit-identical, "
        f"slower) pure-NumPy reference path.  Cause: {reason}",
        reason=reason,
    )


def load():
    """Return the compiled ``_fastpath`` module, or ``None``."""
    if os.environ.get("REPRO_DISABLE_CKERNEL"):
        obs.event("ckernel.disabled", reason="REPRO_DISABLE_CKERNEL set")
        return None
    tag = sysconfig.get_config_var("SOABI") or "generic"
    so_path = _SRC.with_name(f"_fastpath.{tag}.so")
    try:
        stale = (
            not so_path.exists()
            or so_path.stat().st_mtime < _SRC.stat().st_mtime
        )
        if stale:
            ok, detail = _build(so_path)
            if not ok:
                _fallback(detail)
                return None
        spec = importlib.util.spec_from_file_location(
            "repro.online._fastpath", so_path
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        obs.event("ckernel.loaded", rebuilt=stale, path=str(so_path))
        return module
    except Exception as exc:
        _fallback(f"{type(exc).__name__}: {exc}")
        return None
