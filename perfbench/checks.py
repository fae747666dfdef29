"""Correctness checks computed apart from the program.

Each check takes the benchmark's own scenario arrays (``inputs.draw``) and
one answer, and returns a list of failure messages (empty = pass):

(a) the schedule is partition-matroid feasible: shape ``(n, K)`` and each
    entry idle (0) or one existing policy of that charger;
(b) each task's relaxed (ρ = 0) energy ``R_j`` is recomputed from the
    schedule's orientations with the benchmark's own sector power model
    (``α/(d+β)²``, range ``D``, charging sector ``A_s``, receiving sector
    ``A_o``, task window), and the resulting relaxed utility matches the
    artifact's to 1e-9;
(c) with ``Ē_j`` the energy task j would get if every charger that can
    reach it aimed at it for its whole window, and ``E_j`` the artifact's
    executed energy: per task ``(1−ρ)·R_j ≤ E_j ≤ R_j ≤ Ē_j``, and in
    total ``(1−ρ)·relaxed ≤ total ≤ relaxed ≤ Σ_j w_j·min(1, Ē_j/E^req_j)``;
    each ``E_j`` must also equal the energy recomputed from the same
    orientations with the paper's switching delay (a charger loses ``ρ`` of
    a slot whenever its orientation changes; idle slots keep the last one),
    and the artifact's total utility ``Σ_j w_j·min(1, E_j/E^req_j)``.

Only the policy index → orientation table comes from the program (the
network's ``policy_orientations``): the indices in a schedule mean nothing
without it.  Which tasks an orientation covers, and the energy it delivers,
is recomputed here.
"""

from __future__ import annotations

import numpy as np

from inputs import ALPHA, BETA, RADIUS, SLOT_SECONDS

TOL = 1e-9
ANGLE_EPS = 1e-9
TWO_PI = 2.0 * np.pi


def _angle_gap(a, b):
    """Absolute smallest angle between ``a`` and ``b`` (broadcasting)."""
    d = np.mod(np.asarray(a) - np.asarray(b), TWO_PI)
    return np.minimum(d, TWO_PI - d)


def geometry(sc: dict) -> dict:
    """Orientation-independent pair terms: reach mask, power, azimuth."""
    cx, tx = sc["charger_xy"], sc["task_xy"]
    dx = tx[None, :, 0] - cx[:, None, 0]
    dy = tx[None, :, 1] - cx[:, None, 1]
    dist = np.hypot(dx, dy)
    azimuth = np.mod(np.arctan2(dy, dx), TWO_PI)  # charger -> task
    back = np.mod(azimuth + np.pi, TWO_PI)  # task -> charger
    in_range = dist <= sc["charger_radius"][:, None] + 1e-12
    device_side = (
        _angle_gap(back, sc["task_orientation"][None, :])
        <= sc["receiving_angle"][None, :] / 2.0 + ANGLE_EPS
    )
    reach = in_range & device_side
    power = np.where(reach, ALPHA / np.square(dist + BETA), 0.0)
    return {"reach": reach, "power": power, "azimuth": azimuth}


def upper_energy(sc: dict, geo: dict) -> np.ndarray:
    """``Ē_j``: every reaching charger aimed at task j for its whole window."""
    window = (sc["end_slots"] - sc["release_slots"]).astype(float)
    return geo["power"].sum(axis=0) * SLOT_SECONDS * window


def energies(sc: dict, geo: dict, sel: np.ndarray, orientations, rho: float):
    """``(R, E)``: each task's energy from the schedule's orientations,
    relaxed (ρ = 0) and executed (a changed orientation loses ``ρ`` of its
    slot; idle slots keep the last orientation; the first one always
    switches)."""
    n, K = sel.shape
    slots = np.arange(K)
    active = (sc["release_slots"][:, None] <= slots[None, :]) & (
        slots[None, :] < sc["end_slots"][:, None]
    )  # (m, K)
    relaxed = np.zeros(sc["task_xy"].shape[0])
    executed = np.zeros_like(relaxed)
    for i in range(n):
        on = np.flatnonzero(sel[i] != 0)
        if on.size == 0:
            continue
        theta = np.asarray(orientations[i], dtype=float)[sel[i, on]]  # (k,)
        switched = np.ones(on.size, dtype=bool)
        switched[1:] = np.abs(np.diff(theta)) > 1e-12
        sector = (
            _angle_gap(geo["azimuth"][i][None, :], theta[:, None])
            <= sc["charger_angle"][i] / 2.0 + ANGLE_EPS
        )  # (k, m)
        cover = sector & geo["reach"][i][None, :] & active[:, on].T
        per_slot = geo["power"][i] * SLOT_SECONDS
        relaxed += cover.sum(axis=0) * per_slot
        executed += np.where(switched, 1.0 - rho, 1.0) @ cover * per_slot
    return relaxed, executed


def utility_of(sc: dict, energy: np.ndarray) -> float:
    return float(
        np.sum(sc["weights"] * np.minimum(energy / sc["required_energy"], 1.0))
    )


def check_answer(sc, art, orientations, rho, geo=None) -> list[str]:
    """Run checks (a)–(c) on one ``RunArtifact``; return failure messages."""
    errors: list[str] = []
    n = sc["charger_xy"].shape[0]
    m = sc["task_xy"].shape[0]
    K = int(sc["end_slots"].max())
    sel = np.asarray(art.schedule_sel)
    # (a) partition-matroid feasibility
    if sel.shape != (n, K):
        return [f"(a) schedule shape {sel.shape} != {(n, K)}"]
    counts = np.array([len(o) for o in orientations])
    if counts.shape != (n,):
        return [f"(a) policy table has {counts.shape[0]} chargers, expected {n}"]
    if sel.min() < 0 or np.any(sel >= counts[:, None]):
        bad = np.argwhere((sel < 0) | (sel >= counts[:, None]))[0]
        return [f"(a) charger {bad[0]} slot {bad[1]}: policy {sel[tuple(bad)]} "
                f"not in [0, {counts[bad[0]]})"]
    geo = geo if geo is not None else geometry(sc)
    # (b) relaxed energy and utility from the orientations
    R, executed = energies(sc, geo, sel, orientations, rho)
    relaxed = utility_of(sc, R)
    if abs(relaxed - art.relaxed_utility) > TOL:
        errors.append(
            f"(b) relaxed utility {art.relaxed_utility!r} != recomputed {relaxed!r}"
        )
    # (c) bounds
    E = np.asarray(art.energies, dtype=float)
    if E.shape != (m,):
        return errors + [f"(c) energies shape {E.shape} != {(m,)}"]
    upper = upper_energy(sc, geo)
    tol = TOL * np.maximum(1.0, np.abs(R))
    for label, ok in (
        ("(1-rho)*R_j <= E_j", (1.0 - rho) * R - tol <= E),
        ("E_j <= R_j", E <= R + tol),
        ("R_j <= upper_j", R <= upper + tol),
    ):
        if not ok.all():
            j = int(np.flatnonzero(~ok)[0])
            errors.append(
                f"(c) {label} fails for {int((~ok).sum())} task(s), first j={j}: "
                f"E={E[j]!r} R={R[j]!r} upper={upper[j]!r}"
            )
    off = np.abs(executed - E) > TOL * np.maximum(1.0, np.abs(E))
    if off.any():
        j = int(np.flatnonzero(off)[0])
        errors.append(
            f"(c) executed energy differs from the recomputed one for "
            f"{int(off.sum())} task(s), first j={j}: E={E[j]!r} recomputed={executed[j]!r}"
        )
    total = utility_of(sc, E)
    if abs(total - art.total_utility) > TOL:
        errors.append(
            f"(c) total utility {art.total_utility!r} != sum w*U(E) {total!r}"
        )
    bound = utility_of(sc, upper)
    t, r = art.total_utility, art.relaxed_utility
    if not ((1.0 - rho) * r - TOL <= t <= r + TOL and r <= bound + TOL):
        errors.append(
            f"(c) totals out of order: (1-rho)*{r!r} <= {t!r} <= {r!r} <= {bound!r}"
        )
    return errors


def check_served_hash(served_hash: str, direct, key) -> list[str]:
    """(d) a served answer must hash like a direct in-process solve."""
    h = direct.content_hash()
    if h != served_hash:
        return [f"(d) {key}: served artifact hash {served_hash[:12]} != direct {h[:12]}"]
    return []
