"""Command-line front door: build families, re-verify stored scenes, and
manage coloring certificates.

Every claim in a report is backed by a recomputed certificate or flagged
inconclusive; reports and scenes contain no wall-clock data, so identical
inputs, seeds, and budgets produce byte-identical files.

Exit codes: 0 ok, 2 check or assertion failure, 3 budget exhausted,
4 provider refusal or failure; a decided failure outranks a spent budget.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from . import boxes as boxmod
from . import graphs
from . import lines as linemod
from . import scenes
from .budget import DEFAULT_NODES, Budget
from .errors import (
    BudgetExhausted,
    ConstructionError,
    GirthGeomError,
    ProviderFailure,
    ProviderRefusal,
    SceneFormatError,
)
from .gallai import (
    GroundSet,
    ProviderPolicy,
    certificate_to_doc,
    make_certificate,
    verify_certificate,
)
from .geometry import rat

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_BUDGET = 3
EXIT_REFUSED = 4

_BUDGET_NAMES = {"small": 20_000, "default": DEFAULT_NODES, "large": 100_000_000}


def parse_budget(text: str) -> int:
    """A node count (at least 1), or one of the named sizes."""
    base = _BUDGET_NAMES.get(text)
    if base is None:
        try:
            base = int(text)
        except ValueError:
            base = 0
    if base < 1:
        raise SceneFormatError(f"not a budget: {text!r} (use a node count of at least 1 or {sorted(_BUDGET_NAMES)})")
    return base


_MINIMUM = {"g": 3, "k": 1, "n": 3, "vdw_hint": 1}


def _require(args, command: str, *names: str) -> None:
    """Each named option but --vdw-hint is given, and each one given is at
    least its minimum (--g 3, --k 1, --n 3, --vdw-hint 1), or a
    SceneFormatError names it."""
    for name in names:
        value, option = getattr(args, name), "--" + name.replace("_", "-")
        if value is None and name != "vdw_hint":
            raise SceneFormatError(f"{command} needs {option}")
        if value is not None and value < _MINIMUM[name]:
            raise SceneFormatError(f"{command}: {option} must be at least {_MINIMUM[name]}, not {value}")


# ---------------------------------------------------------------------------
# the scene checker shared by build and verify

CHECKS = ("geometry", "girth", "chroma")


def _check(obj, graph, requested, chroma_budget: int) -> tuple[dict, list, graphs.ColoringCertificate | None]:
    """The requested checks of a scene against its graph: structure,
    girth against the claim, and refutation of one color fewer than the
    claimed chromatic number.  Returns the results, the verdict of each
    check run, and the claim refutation (None when the claim is 1 or
    unchecked)."""
    results: dict = {"objects": graph.n, "graph": {"vertices": graph.n, "edges": graph.m}}
    verdicts = []
    refutation = None
    if "geometry" in requested:
        results["structure"] = obj.structure().to_doc()
        verdicts.append(all(c["ok"] for c in results["structure"]))
    if "girth" in requested:
        computed = graphs.girth(graph)
        results["girth"] = {
            "computed": "infinity" if computed == math.inf else int(computed),
            "claimed_at_least": obj.claimed_girth,
            "ok": obj.claimed_girth is None or computed >= obj.claimed_girth,
        }
        verdicts.append(results["girth"]["ok"])
    if "chroma" in requested:
        claimed = obj.claimed_chromatic
        if claimed > 1:
            refutation = graphs.is_k_colorable(graph, claimed - 1, Budget(chroma_budget, "claim refutation"))
        refuted = True if refutation is None else refutation.refuted
        results["chromatic"] = {"claimed_at_least": claimed, "refuted_below": refuted}
        verdicts.append(refuted)
    return results, verdicts, refutation


def _recursion_levels(provenance: dict) -> list[dict]:
    levels = []
    node = provenance
    while node.get("kind") == "recursion":
        cert = node["certificate"]
        levels.append({"colors_before": cert.colors, "girth_param": cert.girth, "elements": len(cert.elements),
                       "copies": len(cert.copies), "chromatic_lift_certified": cert.flags.all_true()})
        node = node.get("parent", {})
    return [{"base": node.get("kind", "unknown")}, *reversed(levels)]


def _status(*verdicts: bool | None) -> tuple[str, int]:
    """The status and exit code of a run from the verdicts of its checks:
    any False fails the run, otherwise any None (a budget ran out before
    its check was decided) leaves it inconclusive."""
    if any(v is False for v in verdicts):
        return "check-failed", EXIT_CHECK_FAILED
    if any(v is None for v in verdicts):
        return "budget-exhausted", EXIT_BUDGET
    return "ok", EXIT_OK


def _emit(report: dict, out_prefix: str, footer: list[str]) -> None:
    scenes.write_doc(f"{out_prefix}.report.json", report)
    for line in footer:
        print(line)
    print(f"status: {report['status']}")


# ---------------------------------------------------------------------------
# build


def cmd_build(args) -> int:
    chroma_budget = parse_budget(args.chroma_budget)
    policy = ProviderPolicy(
        name=args.provider,
        vdw_length_hint=args.vdw_hint,
        certificate_budget=parse_budget(args.budget),
        chroma_budget=chroma_budget,
    )
    if args.kind == "shift":
        _require(args, "build shift", "n")
        obj = linemod.build_shift_system(args.n, seed=args.seed)
        params = {"kind": "shift", "n": args.n, "seed": args.seed}
        target, lineage = None, {}  # a shift scene records no k and no recursion levels
    else:
        _require(args, f"build {args.kind}", "g", "k", "vdw_hint")
        build = boxmod.build_box_family if args.kind == "boxes" else linemod.build_line_family
        obj = build(args.g, args.k, policy)
        params = {"kind": args.kind, "g": args.g, "k": args.k, "provider": args.provider, "seed": args.seed}
        target, lineage = args.k, obj.provenance

    graph = graphs.intersection_graph(obj)
    results, verdicts, refutation = _check(obj, graph, CHECKS, chroma_budget)
    chroma = results["chromatic"]
    exact = graphs.chromatic_number(graph, Budget(chroma_budget, "exact chromatic"), refutation)
    nodes = [c.nodes for c in (refutation, exact.coloring) if c is not None]
    chroma.update(exact=exact.value, status=exact.status, nodes=sum(nodes))
    # an undecided chromatic number, or a claim an uncertified certificate kept
    # below the k target, is inconclusive, never failed
    verdicts.append(exact.status == "exact" or None)
    verdicts.append(target is None or chroma["claimed_at_least"] >= target or None)
    results["levels"] = _recursion_levels(lineage)

    status, code = _status(*verdicts)
    out = args.out
    claimed_girth = results["girth"]["claimed_at_least"]
    summary = [
        f"girthgeom build {args.kind}: {graph.n} objects, {graph.m} edges",
        f"girth {results['girth']['computed']}" + (f" (claimed at least {claimed_girth})" if claimed_girth else ""),
        f"chromatic exact={chroma['exact']} status={chroma['status']}",
        f"structure {'OK' if all(c['ok'] for c in results['structure']) else 'FAILED'}",
    ]
    report = {
        "kind": "run-report",
        "command": "build",
        "parameters": {**params, "budget": args.budget, "chroma_budget": args.chroma_budget},
        "results": results,
        "summary": summary,
        "status": status,
    }

    written: list[str] = []
    try:  # a run leaves all of its files or none of them
        for path, write in (
            (f"{out}.scene.json", lambda path: scenes.save_scene(path, obj)),
            (f"{out}.dimacs", lambda path: scenes.write_text(path, graphs.to_dimacs(graph))),
            (f"{out}.labels.json", lambda path: scenes.write_doc(path, {"labels": obj.labels()})),
        ):
            write(path)
            written.append(path)
        _emit(report, out, summary + [f"files: {' '.join(written)} {out}.report.json"])
    except SceneFormatError:
        for path in written:
            Path(path).unlink()
        raise
    return code


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    obj = scenes.load_scene(args.scene)
    requested = set(args.checks.split(","))
    if "all" in requested:
        requested = set(CHECKS)
    unknown = requested - set(CHECKS)
    if unknown:
        raise SceneFormatError(f"unknown checks: {sorted(unknown)}")

    graph = graphs.intersection_graph(obj)
    results, verdicts, _ = _check(obj, graph, requested, parse_budget(args.chroma_budget))
    status, code = _status(*verdicts)
    report = {
        "kind": "run-report",
        "command": "verify",
        "parameters": {"scene": str(args.scene), "checks": sorted(requested)},
        "results": results,
        "status": status,
    }
    out = args.out
    if out is None:
        print(scenes.dumps_doc(report), end="")
        print(f"status: {status}")
    else:
        _emit(report, out, [f"girthgeom verify {args.scene}: checks {sorted(requested)}"])
    return code


# ---------------------------------------------------------------------------
# gallai


def _parse_ground(text: str | None) -> GroundSet:
    if text is None:
        raise SceneFormatError("this gallai action needs --T")
    try:
        return GroundSet.of([rat(v) for v in text.split(",")])
    except ZeroDivisionError:
        raise SceneFormatError(f"not a ground set: {text!r} (zero denominator)") from None
    except ValueError as exc:
        raise SceneFormatError(f"not a ground set: {text!r} ({exc})") from None


def cmd_gallai(args) -> int:
    budget_nodes = parse_budget(args.budget)
    if args.action == "check":
        if args.path is None:
            raise SceneFormatError("gallai check needs a certificate path")
        report = verify_certificate(scenes.load_certificate(args.path), Budget(budget_nodes))
        status, code = _status(*report.verdicts)
        doc = {
            "kind": "run-report",
            "command": "gallai-check",
            "parameters": {"path": str(args.path), "budget": args.budget},
            "results": {
                "coloring_ok": report.coloring_ok,
                "sparsity_ok": report.sparsity_ok,
                "copies_complete": report.copies_complete,
                "counterexample": list(report.counterexample) if report.counterexample else None,
                "nodes": report.nodes,
            },
            "status": status,
        }
        if args.out:
            scenes.write_doc(args.out, doc)
        print(scenes.dumps_doc(doc), end="")
    elif args.action == "make":
        ground = _parse_ground(args.T)
        _require(args, "gallai make", "g", "k", "vdw_hint")
        cert = make_certificate(ProviderPolicy(args.provider, args.vdw_hint, budget_nodes), ground, args.k, args.g)
        status, code = _status(*cert.flags.verdicts)
        doc = certificate_to_doc(cert)
        if args.out:
            scenes.write_doc(args.out, doc)
            print(f"wrote {args.out}")
        else:
            print(scenes.dumps_doc(doc), end="")
        print(f"elements: {len(cert.elements)} copies: {len(cert.copies)} flags: {cert.flags}")
    else:
        ground = _parse_ground(args.T)
        _require(args, "gallai search", "g", "k")
        try:
            cert = make_certificate(ProviderPolicy("search", None, budget_nodes), ground, args.k, args.g)
        except BudgetExhausted as exc:
            status, code = _status(None)
            doc = {
                "kind": "run-report",
                "command": "gallai-search",
                "parameters": {"T": args.T, "k": args.k, "g": args.g, "budget": args.budget},
                "results": {"found": False, "nodes": exc.used, "limit": exc.limit},
                "status": status,
            }
            if args.out:
                scenes.write_doc(args.out, doc)
            print(scenes.dumps_doc(doc), end="")
        else:
            status, code = _status(*cert.flags.verdicts)
            if args.out:
                scenes.write_doc(args.out, certificate_to_doc(cert))
                print(f"wrote {args.out}")
            print(f"found certificate with {len(cert.elements)} elements, {len(cert.copies)} copies")
    print(f"status: {status}")
    return code


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="girthgeom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a family, write scene + graph + report")
    b.add_argument("kind", choices=["boxes", "lines", "shift"])
    b.add_argument("--g", type=int, default=None, help="girth target (boxes/lines)")
    b.add_argument("--k", type=int, default=None, help="chromatic target (boxes/lines)")
    b.add_argument("--n", type=int, default=None, help="ground set size (shift)")
    b.add_argument("--provider", default="auto", choices=["auto", "pigeonhole", "vdw", "search"])
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--vdw-hint", type=int, default=None, dest="vdw_hint")
    b.add_argument("--budget", default="default", help="certificate search budget (nodes or small/default/large)")
    b.add_argument("--chroma-budget", default="default", dest="chroma_budget")
    b.add_argument("--out", required=True, help="output path prefix")
    b.set_defaults(func=cmd_build)

    v = sub.add_parser("verify", help="recompute properties of a stored scene from raw coordinates")
    v.add_argument("scene")
    v.add_argument("--checks", default="all", help="comma list of geometry,girth,chroma or all")
    v.add_argument("--chroma-budget", default="default", dest="chroma_budget")
    v.add_argument("--out", default=None, help="optional report path prefix")
    v.set_defaults(func=cmd_verify)

    g = sub.add_parser("gallai", help="make, check, or search coloring certificates")
    g.add_argument("action", choices=["make", "check", "search"])
    g.add_argument("path", nargs="?", help="certificate file (check)")
    g.add_argument("--T", help="comma-separated ground set, e.g. 0,1,2")
    g.add_argument("--k", type=int, help="number of colors")
    g.add_argument("--g", type=int, help="girth parameter")
    g.add_argument("--provider", default="auto", choices=["auto", "pigeonhole", "vdw"])
    g.add_argument("--vdw-hint", type=int, default=None, dest="vdw_hint")
    g.add_argument("--budget", default="default")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gallai)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value with a leading minus, such as "-5/9,1/9", as an option
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--T" and re.match(r"-[\d./]", argv[i]):
            argv[i - 1 : i + 1] = [f"--T={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProviderRefusal, ProviderFailure) as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ConstructionError, SceneFormatError) as exc:
        detail = getattr(exc, "detail", None)
        print(f"check failed: {exc}" + (f" [{detail}]" if detail else ""), file=sys.stderr)
        return EXIT_CHECK_FAILED
    except GirthGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
