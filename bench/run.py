"""Benchmark of girthgeom's exact constructions: build a certified family
and re-verify the stored result, timed from outside the library.

Run from the root of a source checkout:

    python3 bench/run.py --workload line-step --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): line-step,
shift-color, box-step, gallai-vdw.  One op is one build followed by one
verify of its output; ops repeat, one after another in this single
process, until the next would end after ``--seconds``.  Every op's facts
(object and edge counts, girth, chromatic facts, structure checks, exit
codes and, for pinned seeds, the sha256 of every written file) are
compared with ``bench/pinned.json``; an op that differs, raises, or exits
non-zero (budget exhausted, refusal) counts as failed.

``--trace 0`` prints the end-to-end metrics: median build and verify
seconds, set-up seconds (median of fresh processes that import girthgeom
and make the inputs) and peak resident memory; every sample goes to
standard error.  These three times are CPU seconds scaled to a reference
host speed measured while they ran (see hostspeed.py), because the speed
of a shared machine drifts by up to a factor of two.  ``--trace 1``
alternates traced and untraced ops and prints per-layer self times (wall
seconds) and counts taken by wrapping public library functions (see
tracer.py); the spans are written to ``.bench_out/``.  The last line of
standard output is one JSON object; a readable table goes to standard
error.

``--size toy`` runs the same code at toy sizes and ``--fault`` injects a
tampered scene or a starved budget; both exist for ``bench/selftest.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_SAMPLES = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "toy"], default="full")
    p.add_argument("--fault", choices=["tamper", "starve"], default=None)
    p.add_argument("--setup-only", action="store_true", help="import and make the inputs, then exit")
    return p.parse_args(argv)


def import_library():
    """girthgeom from this checkout's src/, never from anywhere else."""
    if not (SRC / "girthgeom" / "__init__.py").is_file():
        sys.exit(f"bench: no girthgeom sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import girthgeom

    if Path(girthgeom.__file__).resolve().parent != (SRC / "girthgeom").resolve():
        sys.exit(f"bench: imported girthgeom from {girthgeom.__file__}, not from {SRC}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def make_workload(args, pins):
    import workloads

    out = OUT / "-".join(filter(None, (args.workload, args.size, args.fault)))
    out.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[args.workload](args.size, out, pins, args.fault)


def measure_setup(args, speed) -> list[float]:
    """Reference-host seconds that a fresh process takes to start, import
    girthgeom and make this workload's inputs.  The process reports its
    CPU seconds once the inputs are ready, so its exit is not counted."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.read()
        proc = subprocess.run(cmd, check=True, timeout=60, capture_output=True, text=True)
        samples.append(speed.scale(float(proc.stdout.split()[-1]), before, speed.read()))
    return samples


def timed(step, arg, speed):
    """Runs one step; returns its result and its seconds: reference-host
    seconds with a ``speed``, else wall seconds."""
    if speed is None:
        start = time.perf_counter()
        result = step(arg)
        return result, time.perf_counter() - start
    before, start = speed.read(), time.process_time()
    result = step(arg)
    return result, speed.scale(time.process_time() - start, before, speed.read())


def run_op(wl, inp, tracer, op_id, expected, speed=None) -> dict:
    """One build and one verify; returns their seconds (see ``timed``), the
    facts and the facts that differ from ``expected``."""
    for path in wl.out.iterdir():
        path.unlink()
    if tracer is not None:
        tracer.op_id = op_id
        tracer.install()
    built, build_s = timed(wl.build, inp, speed)
    facts = wl.build_facts(built)
    if wl.fault == "tamper":
        wl.tamper()
    verified, verify_s = timed(wl.verify, inp, speed)
    if tracer is not None:
        tracer.uninstall()
    facts.update(wl.verify_facts(verified))
    mismatches = {k: (facts.get(k), v) for k, v in expected.items() if facts.get(k) != v}
    return {"build_s": build_s, "verify_s": verify_s, "facts": facts, "mismatches": mismatches}


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def check_repeats(key: str, value, state_dir: Path) -> list[str]:
    """Deterministic facts and counters must repeat across runs of the same
    code and seed; the first run stores them, later runs compare."""
    path = state_dir / f"{key}.json"
    if path.exists():
        stored = json.loads(path.read_text())
        return [f"{k}: {stored[k]!r} before, {value[k]!r} now" for k in stored if k in value and stored[k] != value[k]]
    state_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(value, sort_keys=True))
    return []


def layer_metrics(tracer, traced_ids, traced_s, untraced_s) -> dict:
    """Per-layer metrics per traced op: self seconds (mean over traced ops),
    counts and ratios; the tracing overhead is the difference of the median
    traced and untraced op times."""
    n = len(traced_ids)
    selfs = {k: v / n for k, v in tracer.self_times(set(traced_ids)).items()}
    counts = tracer.counts[traced_ids[0]]

    def s(name):
        return selfs.get(name, 0.0)

    def c(name):
        return counts.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "lines.forbidden_offsets_s": (s("lines.forbidden_offsets"), "s"),
        "lines.offset_pairs": (c("lines.offset_pairs"), "count"),
        "lines.choose_frame_s": (s("lines.choose_frame"), "s"),
        "lines.embed_copy_lines_s": (s("lines.embed_copy_lines"), "s"),
        "lines.check_line_structure_s": (s("lines.check_line_structure"), "s"),
        "lines.intersection_edges_s": (s("lines.intersection_edges"), "s"),
        "lines.sweep_pairs": (c("lines.sweep_pairs"), "count"),
        "lines.sweep_hit_ratio": (ratio(c("lines.sweep_edges"), c("lines.sweep_pairs")), "ratio"),
        "lines.verify_shift_system_s": (s("lines.verify_shift_system"), "s"),
        "lines.verify_shift_calls": (c("lines.verify_shift_calls"), "count"),
        "graphs.coloring_s": (s("graphs.coloring"), "s"),
        "graphs.coloring_nodes": (c("graphs.coloring_nodes"), "count"),
        "graphs.coloring_us_per_node": (1e6 * ratio(s("graphs.coloring"), c("graphs.coloring_nodes")), "us"),
        "graphs.coloring_nodes_per_vertex": (
            ratio(c("graphs.coloring_nodes"), c("graphs.coloring_vertices")), "ratio"),
        "graphs.girth_s": (s("graphs.girth"), "s"),
        "boxes.intersection_edges_s": (s("boxes.intersection_edges"), "s"),
        "boxes.sweep_pairs": (c("boxes.sweep_pairs"), "count"),
        "boxes.sweep_calls": (c("boxes.sweep_calls"), "count"),
        "boxes.sweep_hit_ratio": (ratio(c("boxes.sweep_edges"), c("boxes.sweep_pairs")), "ratio"),
        "boxes.embed_copy_boxes_s": (s("boxes.embed_copy_boxes"), "s"),
        "boxes.check_box_structure_s": (s("boxes.check_box_structure"), "s"),
        "gallai.refutation_s": (s("gallai.refutation"), "s"),
        "gallai.refutation_nodes": (c("gallai.refutation_nodes"), "count"),
        "gallai.refutation_us_per_node": (
            1e6 * ratio(s("gallai.refutation"), c("gallai.refutation_nodes")), "us"),
        "gallai.enumerate_copies_s": (s("gallai.enumerate_copies"), "s"),
        "gallai.copies": (c("gallai.copies"), "count"),
        "scenes.save_s": (s("scenes.save"), "s"),
        "scenes.load_s": (s("scenes.load"), "s"),
        "scenes.bytes": (c("scenes.bytes"), "B"),
        "cli.self_s": (s("cli.main"), "s"),
    }
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m


def run_ops(args, wl, inp, expected, tracer, speed) -> tuple[list, list]:
    """Ops one after another until the next would end after
    ``args.seconds``; with a tracer, every other op is traced."""
    ops, errors = [], []
    start = time.perf_counter()
    while True:
        op_id = len(ops)
        traced = args.trace and op_id % 2 == 0
        op_start = time.perf_counter()
        try:
            op = run_op(wl, inp, tracer if traced else None, op_id, expected, speed)
        except Exception:
            errors.append(traceback.format_exc())
            op = {"build_s": None, "verify_s": None, "facts": {}, "mismatches": {"raised": True}}
        op["traced"] = traced
        op["op_wall_s"] = time.perf_counter() - op_start
        if traced:
            tracer.uninstall()  # after a raise inside a traced op
        ops.append(op)
        per_op = statistics.median(o["op_wall_s"] for o in ops)
        need_pair = args.trace and len(ops) < 2
        if not need_pair and time.perf_counter() - start + per_op > args.seconds:
            return ops, errors


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    pinned = json.loads((BENCH / "pinned.json").read_text())
    if args.workload not in pinned:
        sys.exit(f"bench: unknown workload {args.workload!r}; choose from {sorted(pinned)}")
    pins = pinned[args.workload][args.size]
    wl = make_workload(args, pins)
    inp = wl.inputs(args.seed)
    if args.setup_only:
        print(time.process_time())
        return 0

    expected = dict(pins["facts"])
    expected.update(pins["sha256"].get(wl.pin_key(args.seed), {}))
    tracer = speed = None
    if args.trace:
        import tracer as tr

        tracer = tr.Tracer()
    else:
        import hostspeed

        speed = hostspeed.HostSpeed(OUT / f"hostspeed-{os.getpid()}")
    try:
        setup = measure_setup(args, speed) if speed else []
        ops, errors = run_ops(args, wl, inp, expected, tracer, speed)
    finally:
        if speed is not None:
            speed.stop()
    key = f"{args.workload}-{args.size}-{args.seed}-{source_digest()}"
    failed = [o for o in ops if o["mismatches"]]
    problems = [f"op {i}: {o['mismatches']}" for i, o in enumerate(ops) if o["mismatches"]] + errors
    good = [o for o in ops if not o["mismatches"]]
    if any(o["facts"] != good[0]["facts"] for o in good):
        problems.append("facts differ between ops of one run")
    if args.fault is None and good:
        problems += check_repeats(f"{key}-facts", good[0]["facts"], OUT / "repeats")

    if args.trace:
        traced_ids = [i for i, o in enumerate(ops) if o["traced"] and not o["mismatches"]]
        if not traced_ids:
            problems.append("no traced op passed the correctness gate")
            traced_ids = [i for i, o in enumerate(ops) if o["traced"]]
        counts = [dict(tracer.counts[i]) for i in traced_ids]
        if any(cn != counts[0] for cn in counts):
            problems.append("counters differ between traced ops of one run")
        if not problems:
            problems += check_repeats(f"{key}-counters", counts[0], OUT / "repeats")
        traced_times = [ops[i]["build_s"] + ops[i]["verify_s"] for i in traced_ids if ops[i]["build_s"] is not None]
        untraced_times = [o["build_s"] + o["verify_s"] for o in good if not o["traced"]]
        metrics = layer_metrics(tracer, traced_ids, median_or_zero(traced_times), median_or_zero(untraced_times))
        tracer.write(OUT / f"trace-{args.workload}-{args.size}-{args.seed}.json")
        total = sum(traced_times) or 1.0
        shares = sorted(tracer.self_times(set(traced_ids)).items(), key=lambda kv: -kv[1])
        print("self-time shares of traced op time:", file=sys.stderr)
        for name, seconds in shares:
            print(f"  {name:36s} {100 * seconds / total:6.2f} %", file=sys.stderr)
    else:
        metrics = {
            "build_s": (median_or_zero([o["build_s"] for o in good]), "s"),
            "verify_s": (median_or_zero([o["verify_s"] for o in good]), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    for p in problems:
        print(f"bench: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(ops)} ops ({len(good)} passed, {len(failed)} failed); "
          f"times are medians over passed ops", file=sys.stderr)
    for step in ("build_s", "verify_s"):
        print(f"  {step} per op: {[round(o[step], 4) for o in good]}", file=sys.stderr)
    if setup:
        print(f"  setup_s samples: {[round(v, 4) for v in setup]}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
