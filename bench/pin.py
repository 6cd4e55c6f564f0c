"""Regenerate bench/pinned.json from the current code.

    python3 bench/pin.py

For each workload, at both sizes, this runs one op at seed 0 and pins
its facts (counts, girth, chromatic facts, structure checks, exit codes)
for every seed, and the sha256 of its files for seed 0.  For shift-color
it first lists the sample seeds whose first sample is accepted and pins
the file hashes of each.  Run it only when a change is meant to alter the program's output,
and say so in the change.
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import run

SHIFT_SAMPLE_SEEDS = 12


def one_op(name: str, size: str, seed: int, pins: dict) -> dict:
    args = SimpleNamespace(workload=name, size=size, fault=None)
    wl = run.make_workload(args, pins)
    return run.run_op(wl, wl.inputs(seed), None, 0, {})["facts"]


def accepted_sample_seeds(n: int, count: int) -> list[int]:
    from girthgeom import lines

    seeds, s = [], 0
    while len(seeds) < count:
        if not lines.build_shift_system(n, seed=s).provenance["rejected_samples"]:
            seeds.append(s)
        s += 1
    return seeds


def split(facts: dict) -> tuple[dict, dict]:
    hashes = {k: v for k, v in facts.items() if k.startswith("sha256.")}
    return {k: v for k, v in facts.items() if k not in hashes}, hashes


def main() -> int:
    run.import_library()
    import workloads

    path = run.BENCH / "pinned.json"
    pinned: dict = {}
    for name in workloads.WORKLOADS:
        for size in ("full", "toy"):
            pins: dict = {"facts": {}, "sha256": {}}
            if name == "shift-color":
                n = workloads.ShiftColor.sizes[size]["n"]
                pins["sample_seeds"] = accepted_sample_seeds(n, SHIFT_SAMPLE_SEEDS)
                for i in range(SHIFT_SAMPLE_SEEDS):
                    facts, hashes = split(one_op(name, size, i, pins))
                    pins["sha256"][f"sample-{pins['sample_seeds'][i]}"] = hashes
            else:
                facts, hashes = split(one_op(name, size, 0, pins))
                pins["sha256"]["0"] = hashes
            pins["facts"] = facts
            pinned.setdefault(name, {})[size] = pins
            print(f"pinned {name} {size}: {facts}", file=sys.stderr)
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
