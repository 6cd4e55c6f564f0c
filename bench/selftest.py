"""Self-test of the benchmark harness at toy sizes (9-line and 9-box
pigeonhole steps, shift n = 7, progression set of 9); takes seconds.

    python3 bench/selftest.py

Run from the root of a checkout.  It checks that every metric named in
BENCHMARK.json is printed with its unit in both modes, that the toy
workloads pass the correctness gate, and that a tampered scene and a
budget-starved op (``--chroma-budget 10``) are both counted as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "0.3", "--trace", str(trace), "--size", "toy", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    failures = []
    for wl in spec["workloads"]:
        for trace, metrics in wanted.items():
            result = run(wl["name"], trace)
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{wl['name']} trace {trace}: not correct: {result}")
            printed = result["metrics"]
            for m in metrics:
                got = printed.get(m["name"])
                if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{wl['name']} trace {trace}: metric {m['name']} missing or wrong: {got}")
            extra = set(printed) - {m["name"] for m in metrics}
            if extra:
                failures.append(f"{wl['name']} trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
    for workload, fault in (("line-step", "tamper"), ("box-step", "tamper"), ("gallai-vdw", "tamper"),
                            ("shift-color", "starve"), ("gallai-vdw", "starve")):
        result = run(workload, 0, "--fault", fault)
        if result["correct"] or result["failed"] != result["attempted"]:
            failures.append(f"{workload} with {fault}: ops not all counted as failed: {result}")
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
