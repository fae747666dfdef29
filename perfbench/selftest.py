"""Show that each correctness check of the benchmark rejects a corrupted answer.

    python3 perfbench/selftest.py        (from the root of a checkout)

Solves one paper-scale scenario of the benchmark's own with two specs,
confirms the clean answers pass checks (a)–(d), then corrupts copies and
confirms each corruption is rejected (the first failing check is printed):

* a schedule entry moved to another policy of the same charger;
* a schedule entry naming a policy the charger does not have;
* the executed energies scaled by 1.01;
* a utility above the independent upper bound;
* a served artifact whose hash differs from the direct solve.

Exits 0 when every clean answer passes and every corruption is rejected.
"""

from __future__ import annotations

import copy
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402


def _moved_entry(art, orientations, sc, geo):
    """Move one non-idle entry to another policy that changes coverage."""
    sel = art.schedule_sel
    for i, k in np.argwhere(sel != 0):
        p = int(sel[i, k])
        for q in range(1, len(orientations[i])):
            if q == p:
                continue
            bad = copy.deepcopy(art)
            bad.schedule_sel[i, k] = q
            before, _ = checks.energies(sc, geo, sel, orientations, 0.0)
            after, _ = checks.energies(sc, geo, bad.schedule_sel, orientations, 0.0)
            if not np.array_equal(before, after):
                return bad, f"charger {i} slot {k}: policy {p} -> {q}"
    raise RuntimeError("no entry whose move changes coverage")


def main() -> int:
    from repro.solvers import solve_instance

    sc = inputs.draw("paper", 2018, 0, 0)
    inst = inputs.to_instance(sc)
    net = inst.network()
    orientations = net.policy_orientations
    geo = checks.geometry(sc)
    ok = True

    def expect(label, errors, rejected):
        nonlocal ok
        good = bool(errors) == rejected
        ok &= good
        verdict = ("rejected" if errors else "passed") + ("" if good else "  <-- WRONG")
        print(f"{label:58s} {verdict}")
        for e in errors[:1]:
            print(f"    {e}")

    for spec in ("greedy-utility", "haste-offline:c=1"):
        art = solve_instance(spec, inst, seed=7)
        expect(f"{spec}: clean answer", checks.check_answer(sc, art, orientations, inputs.RHO, geo), False)

        bad, where = _moved_entry(art, orientations, sc, geo)
        expect(f"{spec}: entry moved ({where})",
               checks.check_answer(sc, bad, orientations, inputs.RHO, geo), True)

        bad = copy.deepcopy(art)
        i = int(np.argmax(bad.schedule_sel.max(axis=1)))
        bad.schedule_sel[i, 0] = len(orientations[i])
        expect(f"{spec}: entry names a missing policy",
               checks.check_answer(sc, bad, orientations, inputs.RHO, geo), True)

        bad = copy.deepcopy(art)
        bad.energies = bad.energies * 1.01
        expect(f"{spec}: energies scaled by 1.01",
               checks.check_answer(sc, bad, orientations, inputs.RHO, geo), True)

        bad = copy.deepcopy(art)
        bound = checks.utility_of(sc, checks.upper_energy(sc, geo))
        bad.total_utility = bad.relaxed_utility = bound + 0.01
        expect(f"{spec}: utility above the upper bound {bound:.4f}",
               checks.check_answer(sc, bad, orientations, inputs.RHO, geo), True)

        direct = solve_instance(spec, inst, seed=7)
        expect(f"{spec}: served hash equal to the direct solve",
               checks.check_served_hash(art.content_hash(), direct, spec), False)
        bad = copy.deepcopy(art)
        bad.energies[0] = np.nextafter(bad.energies[0], np.inf)
        expect(f"{spec}: served hash differs from the direct solve",
               checks.check_served_hash(bad.content_hash(), direct, spec), True)

    print("selftest:", "every corruption rejected" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
