"""The lift step shared by boxes and lines: CLI outputs pinned byte for
byte, and each family swept pairwise once."""

import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

from girthgeom import BoxFamily, Dir3, Line3, LineFamily, Point3, boxes, graphs, lines, recursion
from girthgeom import meeting_pair_family, meeting_pair_lines
from girthgeom import odd_cycle_boxes, recursion_step_boxes, recursion_step_lines
from girthgeom.cli import EXIT_BUDGET, EXIT_OK, main
from girthgeom.errors import ConstructionError
from girthgeom.gallai import GroundSet, ProviderPolicy, pigeonhole_certificate
from girthgeom.scenes import save_scene, scene_from_doc, scene_to_doc

from _oracles import side, square_box, trace

# sha256 of the four build files and of the verify report, taken before the
# box and line recursion steps shared one lift step
GOLDEN = {
    "boxes": (
        ["boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole"],
        EXIT_OK,
        {
            "out.scene.json": "1f1003cf39efef86d90f5495cf5857de0b302e1e3a912f3f7757db71411c8472",
            "out.dimacs": "02ea5d63661319326ff1dd9d7c5913fd889b08dcd051431a854d179a8341befe",
            "out.labels.json": "d88233ca73be128435197c5ee49fb5bd21b0002fdf6cd51fac75d7b139a90fa6",
            "out.report.json": "6f03c13690a45e6c8679c6f3cdadcab2e56e2b899dc5ffe21d446cc17d6aeabc",
            "verify.report.json": "6cb4f3d56938b1e1557c8d7f688e8a4faffb4a988dc188502aaa5a948a1ad66b",
        },
    ),
    "lines": (
        ["lines", "--g", "6", "--k", "3", "--provider", "pigeonhole"],
        EXIT_OK,
        {
            "out.scene.json": "b1034059eac256a32d6da103b3bd06b0a569074cb116eb9c61a924381ee0eddf",
            "out.dimacs": "24f8229310cecc48f340c47d734dc456058c0583f368f48fea62a058a8a79a8f",
            "out.labels.json": "dee86d42bd4b2198fda29999d42c7ab19e684025f03458d3f031e2179eca899c",
            "out.report.json": "5bb8026c4aecb6903cd9e36e0212ab9e5414fb374b0c8a282a490337ddb56d75",
            "verify.report.json": "389cca21ccfad43fd6247a00aa6268ec6f96de8cb8259aabc5131c432994eccb",
        },
    ),
    "boxes-uncertified": (
        ["boxes", "--g", "4", "--k", "4", "--provider", "vdw", "--vdw-hint", "30", "--budget", "25"],
        EXIT_BUDGET,
        {
            "out.scene.json": "6d9ff2a79d4f3ded0a6cca00e225711d8f862ae9ea6b282cedb3903df49ef2aa",
            "out.dimacs": "9922174ab7f196b7d9384d6a6a011ba0507b5734205c01d8cca8d3eac2b3f952",
            "out.labels.json": "0965dbcfa8d0fa3f9c3b0c5cba557eca41ae270f58c4f4a42f75e57a61be6dbd",
            "out.report.json": "1f5bd85c43b422a7ca871aff1e3b4ea9ba1f7dd52bda8b528687e3251f2ad39b",
            "verify.report.json": "76abe1809825e1f7f550be2ca83253dbf4ce083f4ecc4b0c4047e06b1b2b85bd",
        },
    ),
    "shift-rejected-sample": (
        ["shift", "--n", "7", "--seed", "25"],
        EXIT_OK,
        {
            "out.scene.json": "61133723b1d71db82785222b5473ca52ddb4daa54477e9ce38dcca5779825d07",
            "out.dimacs": "851acb876e3f2c721380835537b2a6738a59d9ffc64b8f648237f6f226ee8919",
            "out.labels.json": "f96de4ae20ee2752108dd3ebe5b44492d78b1102ecd8658fd60bb9df86198e26",
            "out.report.json": "36172c330c2361368e09a53994e270393f164122b376f4bbc5bfe9050e8df02a",
            "verify.report.json": "f346c8e291e0c8ba7d428f77add9d446945e40b206ca155ac4c46b985a6dedf2",
        },
    ),
}

_FILES = (".scene.json", ".dimacs", ".labels.json", ".report.json")


def build_and_verify(argv: list[str]) -> tuple[int, int, dict[str, str]]:
    """``build`` to prefix "out" and ``verify`` of its scene to prefix
    "verify" in the working directory; the exit codes and the sha256 of
    every written file."""
    build_code = main(["build", *argv, "--out", "out"])
    verify_code = main(["verify", "out.scene.json", "--out", "verify"])
    hashes = {f"out{s}": hashlib.sha256(Path(f"out{s}").read_bytes()).hexdigest() for s in _FILES}
    hashes["verify.report.json"] = hashlib.sha256(Path("verify.report.json").read_bytes()).hexdigest()
    return build_code, verify_code, hashes


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_files_are_byte_identical(tmp_path, monkeypatch, capsys, name):
    argv, build_code, hashes = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert build_and_verify(argv) == (build_code, EXIT_OK, hashes)


# sha256 of the scene and of its verify report for one 4,020-box step on a
# rational image of the C5 base, taken before the box family kept one integer
# grid: the step moves every bound onto a new denominator at scale
BOX_STEP = {
    "step.scene.json": "962949b8c3f57bf76fde1ac6cf09bdbfcda023afd4523042b931a1faf9fd916e",
    "verify.report.json": "7987a51ea31615f2619cf2ee9316974d991aaab51311d808814a7a21b2b9b2f7",
}


def test_box_step_on_a_rational_base_is_byte_identical(tmp_path, monkeypatch, capsys):
    scale, shift = F(7, 3), F(-5, 2)  # the shift slides along x = y, which keeps every box grounded
    base = odd_cycle_boxes(5)
    moved = tuple(
        square_box(scale * trace(b) + shift, scale * side(b), scale * b.box.zr.lo, scale * b.box.zr.hi)
        for b in base.boxes
    )
    parent = BoxFamily(moved, base.claimed_girth, base.claimed_chromatic, dict(base.provenance))
    fam = recursion_step_boxes(parent, 1, 4, _vdw(100))
    assert len(fam) == 4020
    monkeypatch.chdir(tmp_path)
    save_scene("step.scene.json", fam)
    assert main(["verify", "step.scene.json", "--out", "verify"]) == EXIT_OK
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in BOX_STEP} == BOX_STEP


# sha256 of the scene and of its verify report for one 625-line step on a
# rational image of the meeting pair, taken before the line family kept one
# integer grid: the frame, the copy maps and the slide offsets all see
# mixed denominators
LINE_STEP = {
    "step.scene.json": "fc236f643542490ce072845ce1052e9d2ac481bb8ea80881fa9eaede203a159b",
    "verify.report.json": "812674670ba448e5233de2d75600c9b09ed2ed0a94d027b82b9f4530f82355f2",
}


def test_line_step_on_a_rational_base_is_byte_identical(tmp_path, monkeypatch, capsys):
    scale, shift = F(7, 3), (F(-5, 2), F(1, 3), F(4, 7))
    base = meeting_pair_lines()
    moved = tuple(Line3(Point3(*(scale * c + t for c, t in zip(l.base.as_tuple(), shift))), l.dir) for l in base.lines)
    parent = LineFamily(moved, base.claimed_girth, base.claimed_chromatic, dict(base.provenance))
    fam = recursion_step_lines(parent, 2, 4, _vdw(25))
    assert len(fam.labels()) == 625
    monkeypatch.chdir(tmp_path)
    save_scene("step.scene.json", fam)
    assert main(["verify", "step.scene.json", "--out", "verify"]) == EXIT_OK
    assert {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in LINE_STEP} == LINE_STEP


def test_build_refutes_its_claim_once(tmp_path, monkeypatch, capsys):
    # the lift refutes 1 color on the parent pair, the claim refutation 2
    # colors on the output, and the chromatic number starts above it
    calls = []
    original = graphs.is_k_colorable

    def counted(graph, k, budget=None):
        calls.append((graph.n, k))
        return original(graph, k, budget)

    monkeypatch.setattr(graphs, "is_k_colorable", counted)
    monkeypatch.chdir(tmp_path)
    argv, build_code, hashes = GOLDEN["boxes"]
    assert main(["build", *argv, "--out", "out"]) == build_code
    assert calls == [(2, 1), (9, 2), (9, 3)]
    for name in ("out.scene.json", "out.report.json"):
        assert hashlib.sha256(Path(name).read_bytes()).hexdigest() == hashes[name]


@pytest.fixture
def sweeps(monkeypatch):
    """The sizes of the families swept pairwise, in call order."""
    sizes = []
    for module, name in ((boxes, "box_intersection_edges"), (lines, "line_intersection_edges")):
        original = getattr(module, name)

        def counted(objects, original=original):
            sizes.append(len(objects))
            return original(objects)

        monkeypatch.setattr(module, name, counted)
    return sizes


def pigeonhole_provider(ground, colors, girth_param):
    return pigeonhole_certificate(ground, colors, girth_param)


def _vdw(length):
    return ProviderPolicy("vdw", vdw_length_hint=length).provider()


@pytest.mark.parametrize("step, parent", [(recursion_step_boxes, meeting_pair_family),
                                          (recursion_step_lines, meeting_pair_lines)], ids=["boxes", "lines"])
@pytest.mark.parametrize(
    "provider",
    [
        lambda ground, colors, girth: pigeonhole_certificate(GroundSet.of([t + 1 for t in ground.points]), colors, girth),
        lambda ground, colors, girth: pigeonhole_certificate(ground, colors - 1, girth),
        lambda ground, colors, girth: pigeonhole_certificate(ground, colors, girth - 1),
    ],
    ids=["other-ground-set", "one-color-fewer", "other-girth"],
)
def test_a_certificate_for_another_question_is_refused(step, parent, provider):
    # the provenance records the certificate as the step's parameters, so it
    # must be for the ground values, colors and girth the step asked about
    with pytest.raises(ConstructionError, match="not for the 2 ground values, 2 colors and girth 6"):
        step(parent(), 2, 6, provider)


# two objects of distinct traces or parameters that do not meet
_APART = {
    "boxes": lambda: BoxFamily((square_box(0, 1, 0, 1), square_box(5, 1, 0, 1)), None, 1, {"kind": "base-pair"}),
    "lines": lambda: LineFamily((Line3(Point3(0, 0, 0), Dir3(1, 0, 0)), Line3(Point3(0, 0, 1), Dir3(0, 1, 0))),
                                None, 1, {"kind": "base-pair"}),
}


@pytest.mark.parametrize("geometry, parent", [("boxes", meeting_pair_family), ("lines", meeting_pair_lines)],
                         ids=["boxes", "lines"])
def test_a_lift_whose_copies_do_not_induce_the_parent_graph_is_refused(geometry, parent):
    # every copy is placed from two objects that do not meet, so the copies
    # agree with each other, but the graph the first one induces, which the
    # provenance records as the parent's, lacks the parent's edge
    place = boxes._place_boxes if geometry == "boxes" else lines._place_lines
    with pytest.raises(ConstructionError, match="copy-graph-matches-parent") as raised:
        recursion.lift(parent(), 2, 6, pigeonhole_provider, None, lambda _, certify: place(_APART[geometry](), certify))
    assert raised.value.detail == "copy 0 differs at [(0, 1)]"


def test_no_level_of_a_lift_stores_what_its_certificate_and_graph_determine():
    # blocks and parent edges are derived: from the certificate, and from the edges the first copy induces
    fam = recursion_step_boxes(odd_cycle_boxes(5), 1, 4, _vdw(100))
    assert len(fam) == 4020
    for prov in (fam.provenance, scene_from_doc(scene_to_doc(fam)).provenance):
        assert (prov.keys(), prov["parent"]) == ({"kind", "certificate", "parent"}, {"kind": "base-odd-cycle", "n": 5})


class TestOneSweepPerFamily:
    @pytest.mark.parametrize(
        "step, parent, colors, girth, provider, size",
        [
            (recursion_step_boxes, meeting_pair_family, 2, 6, pigeonhole_provider, 9),
            (recursion_step_boxes, lambda: odd_cycle_boxes(5), 1, 4, _vdw(31), 356),
            (recursion_step_lines, meeting_pair_lines, 2, 6, pigeonhole_provider, 9),
            (recursion_step_lines, meeting_pair_lines, 2, 4, _vdw(12), 144),
        ],
    )
    def test_recursion_step(self, sweeps, step, parent, colors, girth, provider, size):
        out = step(parent(), colors, girth, provider)
        assert len(out.labels()) == size
        assert sweeps.count(size) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole"],
            ["lines", "--g", "6", "--k", "3", "--provider", "pigeonhole"],
            ["shift", "--n", "7", "--seed", "1"],
        ],
    )
    def test_cli_build_and_verify(self, tmp_path, monkeypatch, capsys, sweeps, argv):
        monkeypatch.chdir(tmp_path)
        assert main(["build", *argv, "--out", "out"]) == EXIT_OK
        size = len(json.loads(Path("out.labels.json").read_text())["labels"])
        assert sweeps.count(size) == 1
        sweeps.clear()
        assert main(["verify", "out.scene.json"]) == EXIT_OK
        assert sweeps == [size]

    @pytest.mark.parametrize("seed", [1, 25])
    def test_build_shift_sweeps_each_sample_once(self, tmp_path, monkeypatch, capsys, sweeps, seed):
        monkeypatch.chdir(tmp_path)
        assert main(["build", "shift", "--n", "7", "--seed", str(seed), "--out", "out"]) == EXIT_OK
        rejected = json.loads(Path("out.scene.json").read_text())["provenance"]["rejected_samples"]
        assert sweeps == [35] * (1 + len(rejected))


@pytest.fixture
def shift_checks(monkeypatch):
    """The sizes of the shift systems checked by ``verify_shift_system``,
    in call order."""
    sizes = []
    original = lines.verify_shift_system

    def counted(system):
        sizes.append(len(system.lines))
        return original(system)

    monkeypatch.setattr(lines, "verify_shift_system", counted)
    return sizes


@pytest.mark.parametrize("seed", [1, 25])
def test_shift_system_checked_once_per_sample(tmp_path, monkeypatch, capsys, shift_checks, seed):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "shift", "--n", "7", "--seed", str(seed), "--out", "out"]) == EXIT_OK
    rejected = json.loads(Path("out.scene.json").read_text())["provenance"]["rejected_samples"]
    assert shift_checks == [35] * (1 + len(rejected))
    shift_checks.clear()
    assert main(["verify", "out.scene.json"]) == EXIT_OK
    assert shift_checks == [35]
    shift_checks.clear()
    assert main(["verify", "out.scene.json", "--checks", "girth"]) == EXIT_OK
    assert shift_checks == []
