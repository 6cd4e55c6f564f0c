"""The benchmark's workloads: seeded inputs, one timed build and one timed
verify per op, and the facts each step re-derives from its outputs.

Every step goes through girthgeom's public surface: the recursion
constructors and ``scenes.save_scene`` for the two recursion steps, and
``girthgeom.cli.main`` for everything else.  The CLI's own printing is
captured, so the benchmark's standard output stays its own.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from pathlib import Path

import girthgeom as gg
from girthgeom import cli, scenes
from girthgeom.gallai import ProviderPolicy


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """cli.main in-process with its output captured; returns (exit code,
    standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _random_rat(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 9))


def _report_facts(prefix: str, doc: dict) -> dict:
    results = doc["results"]
    facts = {
        f"{prefix}.status": doc["status"],
        f"{prefix}.vertices": results["graph"]["vertices"],
        f"{prefix}.edges": results["graph"]["edges"],
        f"{prefix}.girth": results["girth"]["computed"],
        f"{prefix}.girth_ok": results["girth"]["ok"],
        f"{prefix}.structure_ok": all(c["ok"] for c in results.get("structure", [])),
        f"{prefix}.structure_checks": len(results.get("structure", [])),
    }
    chroma = results["chromatic"]
    for key in ("refuted_below", "exact", "status", "nodes"):
        if key in chroma:
            facts[f"{prefix}.chromatic_{key}"] = chroma[key]
    return facts


def _tamper_scene(path: Path) -> None:
    """Move the last object of a stored scene by one unit, the way a
    corrupted file would differ from the one that was built."""
    doc = json.loads(path.read_text())
    key = "boxes" if "boxes" in doc else "lines"
    obj = doc[key][-1]
    if key == "boxes":
        obj["x"] = [str(Fraction(v) + 1) for v in obj["x"]]
        obj["y"] = [str(Fraction(v) + 1) for v in obj["y"]]
    else:
        obj["base"][0] = str(Fraction(obj["base"][0]) + 1)
    path.write_text(json.dumps(doc))


class Workload:
    """One workload at one size.  ``inputs`` is the set-up; ``build`` and
    ``verify`` are the timed steps; ``*_facts`` read the results back after
    the clock has stopped."""

    name = ""
    sizes: dict[str, dict] = {}

    def __init__(self, size: str, out_dir: Path, pins: dict, fault: str | None = None):
        self.params = self.sizes[size]
        self.pins = pins
        self.out = out_dir
        self.fault = fault
        self.chroma_budget = "10" if fault == "starve" else "default"

    def pin_key(self, seed: int) -> str:
        """The key of this input's pinned file hashes in pinned.json."""
        return str(seed)

    def tamper(self) -> None:
        _tamper_scene(self.out / "op.scene.json")

    def verify(self, inp) -> int:
        code, _ = run_cli(
            ["verify", str(self.out / "op.scene.json"), "--checks", "all",
             "--chroma-budget", self.chroma_budget, "--out", str(self.out / "verify")]
        )
        return code

    def verify_facts(self, code: int) -> dict:
        path = self.out / "verify.report.json"
        facts = {"verify.exit": code, **_report_facts("verify", json.loads(path.read_text()))}
        facts["sha256.verify_report"] = sha256(path)
        return facts


class _RecursionStep(Workload):
    """One recursion step on a seeded similarity image of a base family,
    built with the public constructor and saved as a scene."""

    def build(self, inp):
        p = self.params
        policy = ProviderPolicy(p["provider"], vdw_length_hint=p.get("vdw_hint"))
        fam = self.step(inp, p["colors"], p["girth"], policy.provider())
        scenes.save_scene(self.out / "op.scene.json", fam)
        return fam

    def build_facts(self, fam) -> dict:
        return {
            "build.objects": len(fam.labels()),
            "build.claimed_girth": fam.claimed_girth,
            "build.claimed_chromatic": fam.claimed_chromatic,
            "sha256.scene": sha256(self.out / "op.scene.json"),
        }


class LineStep(_RecursionStep):
    name = "line-step"
    sizes = {
        "full": {"provider": "vdw", "vdw_hint": 25, "colors": 2, "girth": 4},
        "toy": {"provider": "pigeonhole", "colors": 2, "girth": 6},
    }

    def inputs(self, seed: int):
        """The meeting pair of lines, scaled about the origin by a random
        positive rational and translated by a random rational vector."""
        rng = _rng(self.name, seed)
        scale = _random_rat(rng, 1, 9)
        shift = tuple(_random_rat(rng, -9, 9) for _ in range(3))
        base = gg.meeting_pair_lines()
        lines = tuple(
            gg.Line3(gg.Point3(*(scale * c + t for c, t in zip(l.base.as_tuple(), shift))), l.dir)
            for l in base.lines
        )
        return gg.LineFamily(lines, base.claimed_girth, base.claimed_chromatic, dict(base.provenance))

    def step(self, parent, colors, girth, provider):
        return gg.recursion_step_lines(parent, colors, girth, provider)


class BoxStep(_RecursionStep):
    name = "box-step"
    sizes = {
        "full": {"base": "odd-cycle", "provider": "vdw", "vdw_hint": 100, "colors": 1, "girth": 4},
        "toy": {"base": "pair", "provider": "pigeonhole", "colors": 2, "girth": 6},
    }

    def inputs(self, seed: int):
        """The base family scaled about the origin by a random positive
        rational and slid along x = y, which keeps every box grounded."""
        rng = _rng(self.name, seed)
        scale = _random_rat(rng, 1, 9)
        shift = _random_rat(rng, -9, 9)
        base = gg.odd_cycle_boxes(5) if self.params["base"] == "odd-cycle" else gg.meeting_pair_family()
        boxes = []
        for b in base.boxes:
            r = b.box
            boxes.append(
                gg.GroundedSquareBox(
                    gg.Box3.from_bounds(
                        scale * r.xr.lo + shift, scale * r.xr.hi + shift,
                        scale * r.yr.lo + shift, scale * r.yr.hi + shift,
                        scale * r.zr.lo, scale * r.zr.hi,
                    )
                )
            )
        return gg.BoxFamily(tuple(boxes), base.claimed_girth, base.claimed_chromatic, dict(base.provenance))

    def step(self, parent, colors, girth, provider):
        return gg.recursion_step_boxes(parent, colors, girth, provider)


class ShiftColor(Workload):
    """``girthgeom build shift`` and ``verify`` of its scene.  The seed picks
    a sample seed from a pinned list of seeds whose first sample is
    accepted, so every run does the same work (a rejected sample adds a
    whole extra sweep)."""

    name = "shift-color"
    sizes = {"full": {"n": 18}, "toy": {"n": 7}}

    def inputs(self, seed: int):
        seeds = self.pins["sample_seeds"]
        return seeds[seed % len(seeds)]

    def pin_key(self, seed: int) -> str:
        return f"sample-{self.inputs(seed)}"

    def build(self, sample_seed):
        code, _ = run_cli(
            ["build", "shift", "--n", str(self.params["n"]), "--seed", str(sample_seed),
             "--chroma-budget", self.chroma_budget, "--out", str(self.out / "op")]
        )
        return code

    def build_facts(self, code) -> dict:
        report = json.loads((self.out / "op.report.json").read_text())
        scene = json.loads((self.out / "op.scene.json").read_text())
        facts = {
            "build.exit": code,
            "build.rejected_samples": len(scene["provenance"]["rejected_samples"]),
            **_report_facts("build", report),
        }
        for ext in ("scene.json", "dimacs", "labels.json", "report.json"):
            facts[f"sha256.{ext}"] = sha256(self.out / f"op.{ext}")
        return facts


class GallaiVdw(Workload):
    """Two progression certificates for a seeded rational affine image of
    T, then ``gallai check`` of the first.  An affine image of T has the
    same normalized ground set, so the refutation work is identical."""

    name = "gallai-vdw"
    sizes = {
        "full": {"makes": [(3, 3, None), (4, 2, 35)], "budget": "default"},
        "toy": {"makes": [(3, 2, None), (2, 2, None)], "budget": "default"},
    }

    def inputs(self, seed: int):
        rng = _rng(self.name, seed)
        start = _random_rat(rng, -9, 9)
        step = _random_rat(rng, 1, 9)
        return [",".join(str(start + i * step) for i in range(points)) for points, _, _ in self.params["makes"]]

    def _budget(self):
        return "10" if self.fault == "starve" else self.params["budget"]

    def build(self, grounds):
        codes = []
        for i, (ground, (_, colors, hint)) in enumerate(zip(grounds, self.params["makes"])):
            # "--T=" keeps argparse from reading a leading minus as an option
            argv = ["gallai", "make", f"--T={ground}", "--k", str(colors), "--g", "4", "--provider", "vdw",
                    "--budget", self._budget(), "--out", str(self.out / f"cert{i}.json")]
            if hint is not None:
                argv += ["--vdw-hint", str(hint)]
            codes.append(run_cli(argv)[0])
        return codes

    def build_facts(self, codes) -> dict:
        facts = {}
        for i, code in enumerate(codes):
            path = self.out / f"cert{i}.json"
            doc = json.loads(path.read_text())
            facts[f"build.exit{i}"] = code
            facts[f"build.elements{i}"] = len(doc["elements"])
            facts[f"build.copies{i}"] = len(doc["copies"])
            facts[f"build.flags{i}"] = [doc["flags"][k] for k in ("coloring_ok", "sparsity_ok", "copies_complete")]
            facts[f"sha256.cert{i}"] = sha256(path)
        return facts

    def tamper(self) -> None:
        path = self.out / "cert0.json"
        doc = json.loads(path.read_text())
        doc["copies"].pop()
        path.write_text(json.dumps(doc))

    def verify(self, grounds):
        return run_cli(["gallai", "check", str(self.out / "cert0.json"), "--budget", self._budget()])

    def verify_facts(self, result) -> dict:
        code, stdout = result
        doc = json.loads(stdout[: stdout.rindex("status:")])
        facts = {"verify.exit": code, "verify.status": doc["status"]}
        for key, value in doc["results"].items():
            facts[f"verify.{key}"] = value
        facts["sha256.check_output"] = hashlib.sha256(stdout.encode()).hexdigest()
        return facts


WORKLOADS = {w.name: w for w in (LineStep, ShiftColor, BoxStep, GallaiVdw)}
