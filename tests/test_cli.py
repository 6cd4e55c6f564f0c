import contextlib
import copy
import functools
import io
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girthgeom import Box3, BoxFamily, Dir3, GroundedSquareBox, Interval, Line3, LineFamily, Point3, ProviderPolicy
from girthgeom import ShiftSystem
from girthgeom import build_box_family, build_shift_system, cycle_graph, odd_cycle_lines, rat
from girthgeom import lines as linemod
from girthgeom import scenes
from girthgeom import build_line_family, recursion_step_boxes, recursion_step_lines, vdw_certificate
from girthgeom.cli import EXIT_BUDGET, EXIT_CHECK_FAILED, EXIT_OK, EXIT_REFUSED, main
from girthgeom.errors import ProviderFailure, SceneFormatError
from girthgeom.gallai import GroundSet, certificate_to_doc, normalize_ground_set
from girthgeom.recursion import level_faults, parent_edges
from girthgeom.scenes import load_certificate, load_scene, save_scene, scene_to_doc

from _oracles import reference_level_faults, reference_parent_graph


def read(path):
    return json.loads(path.read_text())


class TestBuild:
    def test_boxes_pigeonhole(self, tmp_path, capsys):
        out = tmp_path / "c9"
        code = main(["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(out)])
        assert code == EXIT_OK
        report = read(tmp_path / "c9.report.json")
        assert report["status"] == "ok"
        assert report["results"]["girth"]["computed"] == 9
        assert report["results"]["chromatic"]["exact"] == 3
        scene = read(tmp_path / "c9.scene.json")
        assert scene["kind"] == "grounded-box-family"
        assert len(scene["boxes"]) == 9
        dimacs = (tmp_path / "c9.dimacs").read_text()
        assert dimacs.startswith("p edge 9 9")
        labels = read(tmp_path / "c9.labels.json")
        assert len(labels["labels"]) == 9

    def test_lines_pigeonhole(self, tmp_path):
        out = tmp_path / "l9"
        code = main(["build", "lines", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(out)])
        assert code == EXIT_OK
        report = read(tmp_path / "l9.report.json")
        assert report["results"]["girth"]["computed"] == 9
        assert report["results"]["chromatic"]["exact"] == 3

    def test_shift(self, tmp_path):
        out = tmp_path / "g5"
        code = main(["build", "shift", "--n", "5", "--seed", "1", "--out", str(out)])
        assert code == EXIT_OK
        report = read(tmp_path / "g5.report.json")
        assert report["results"]["girth"]["computed"] == "infinity"
        assert report["results"]["chromatic"]["exact"] == 2
        checks = {c["name"]: c["ok"] for c in report["results"]["structure"]}
        assert checks["graph-equals-double-shift"]

    def test_shift_ignores_the_k_target(self, tmp_path):
        # a shift system's parameters record no k, so --k sets no target
        # that its claim could miss
        out = tmp_path / "k2"
        assert main(["build", "shift", "--n", "5", "--seed", "1", "--k", "2", "--out", str(out)]) == EXIT_OK
        assert read(tmp_path / "k2.report.json")["status"] == "ok"

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(a)])
        main(["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(b)])
        for suffix in (".scene.json", ".dimacs", ".labels.json", ".report.json"):
            assert (tmp_path / ("a" + suffix)).read_bytes() == (tmp_path / ("b" + suffix)).read_bytes()

    def test_provider_refusal_exit_code(self, tmp_path):
        code = main(
            ["build", "boxes", "--g", "9", "--k", "3", "--provider", "pigeonhole", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_REFUSED

    def test_uncertified_target_is_inconclusive(self, tmp_path):
        # a budget-gated certificate cannot certify the requested lift:
        # the family is still written, but the run is not "ok"
        code = main(
            ["build", "boxes", "--g", "4", "--k", "4", "--provider", "vdw",
             "--vdw-hint", "30", "--budget", "25", "--out", str(tmp_path / "f")]
        )
        assert code == EXIT_BUDGET
        report = read(tmp_path / "f.report.json")
        assert report["status"] == "budget-exhausted"
        assert report["results"]["chromatic"]["claimed_at_least"] == 3  # not the requested 4
        assert (tmp_path / "f.scene.json").exists()

    def test_starved_parent_refutation_is_inconclusive_and_writes_nothing(self, tmp_path, capsys):
        # two nodes cannot refute a 2-coloring of the 5-cycle parent, so
        # the lift stops before placing anything: inconclusive, not failed
        argv = ["build", "boxes", "--g", "4", "--k", "4", "--provider", "vdw", "--vdw-hint", "30",
                "--budget", "25", "--chroma-budget", "2", "--out", str(tmp_path / "out" / "s44")]
        assert main(argv) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "parent needs 3 colors" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestVerify:
    @pytest.fixture
    def scene(self, tmp_path):
        out = tmp_path / "c9"
        main(["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(out)])
        return tmp_path / "c9.scene.json"

    def test_built_scene_verifies(self, scene, capsys):
        assert main(["verify", str(scene)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "status: ok" in out

    def test_corrupted_scene_fails_with_pair(self, scene, tmp_path, capsys):
        doc = json.loads(scene.read_text())
        doc["boxes"][2] = {"x": ["2", "3"], "y": ["1", "2"], "z": ["0", "1"]}
        bad = tmp_path / "bad.scene.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", str(bad)]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        report = json.loads(out.rsplit("status:", 1)[0])
        failing = [c for c in report["results"]["structure"] if not c["ok"]]
        assert failing
        assert "pair" in failing[0]["detail"]

    def test_tiny_chroma_budget_inconclusive(self, scene, capsys):
        code = main(["verify", str(scene), "--chroma-budget", "1"])
        assert code == EXIT_BUDGET
        report = json.loads(capsys.readouterr().out.rsplit("status:", 1)[0])
        assert report["results"]["girth"]["ok"] is True  # girth still exact
        assert report["results"]["chromatic"]["refuted_below"] is None

    def test_selected_checks_only(self, scene, capsys):
        assert main(["verify", str(scene), "--checks", "girth"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out.rsplit("status:", 1)[0])
        assert "structure" not in report["results"]
        assert "chromatic" not in report["results"]

    def test_shift_scene_verifies(self, tmp_path):
        out = tmp_path / "g6"
        main(["build", "shift", "--n", "6", "--seed", "2", "--out", str(out)])
        assert main(["verify", str(tmp_path / "g6.scene.json")]) == EXIT_OK

    def test_line_scene_verifies(self, tmp_path):
        out = tmp_path / "l9"
        main(["build", "lines", "--g", "6", "--k", "3", "--provider", "pigeonhole", "--out", str(out)])
        assert main(["verify", str(tmp_path / "l9.scene.json")]) == EXIT_OK

    def test_shift_line_off_its_triple_exits_2_with_one_line(self, tmp_path, capsys):
        # the loader, not verify_shift_system, refuses a stored line that
        # is not its triple's shift line: its writer writes another
        main(["build", "shift", "--n", "6", "--seed", "1", "--out", str(tmp_path / "s6")])
        scene = tmp_path / "s6.scene.json"
        doc = read(scene)
        base = doc["lines"][7]["base"]
        base[0] = str(Fraction(base[0]) + 1)
        scene.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", str(scene)]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("check failed: bad shift-system document: lines[7].base[0] is ")

    def test_build_and_verify_each_make_one_shift_line_per_line(self, tmp_path, monkeypatch):
        # a shift system puts the lines of its values on its grid once, one
        # row per line, and the loader compares the stored lines with those
        made = []
        original = linemod._shift_grid

        def counted(values):
            den, rows = original(values)
            made.extend(rows)
            return den, rows

        monkeypatch.setattr(linemod, "_shift_grid", counted)
        system = linemod.build_shift_system(6, seed=1)
        assert system.provenance["attempt"] == 0 and len(made) == len(system.lines) == 20
        made.clear()
        save_scene(tmp_path / "s6.scene.json", system)
        assert main(["verify", str(tmp_path / "s6.scene.json")]) == EXIT_OK
        assert len(made) == 20


    def test_failing_shift_scene_report(self, tmp_path):
        # these values put a spurious incidence at pair (7, 10) and make no
        # two lines identical; both structure entries name that pair
        system = linemod.ShiftSystem(tuple(Fraction(v) for v in (2, 9, 13, 14, 17, 25, 28)))
        save_scene(tmp_path / "f.scene.json", system)
        assert main(["verify", str(tmp_path / "f.scene.json"), "--out", str(tmp_path / "v")]) == EXIT_CHECK_FAILED
        detail = {c["name"]: c["detail"] for c in read(tmp_path / "v.report.json")["results"]["structure"]}
        assert detail == {
            "shift-system-exact": "{'pair': (7, 10), 'reason': 'spurious incidence'}",
            "graph-equals-double-shift": "('spurious', (7, 10))",
        }

    def test_shift_verify_builds_the_double_shift_graph_once(self, tmp_path, monkeypatch):
        # both structure entries come from the system's one verification
        main(["build", "shift", "--n", "6", "--seed", "1", "--out", str(tmp_path / "s6")])
        built = []
        original = linemod.double_shift_edges
        monkeypatch.setattr(linemod, "double_shift_edges", lambda n: built.append(n) or original(n))
        assert main(["verify", str(tmp_path / "s6.scene.json")]) == EXIT_OK
        assert built == [6]


class TestGallai:
    def test_make_writes_certificate(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        code = main(["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", str(cert_path)])
        assert code == EXIT_OK
        doc = read(cert_path)
        assert len(doc["elements"]) == 9
        assert doc["flags"]["coloring_ok"] is True

    def test_check_roundtrip(self, tmp_path):
        cert_path = tmp_path / "cert.json"
        main(["gallai", "make", "--T", "0,1", "--k", "2", "--g", "6", "--out", str(cert_path)])
        assert main(["gallai", "check", str(cert_path)]) == EXIT_OK

    @pytest.mark.parametrize("budget", ["default", "10"])
    def test_check_detects_deleted_copy(self, tmp_path, capsys, budget):
        # at 10 nodes the refutation runs out, but the copy list is already
        # decided incomplete: the check fails, it is not inconclusive
        cert_path = tmp_path / "cert.json"
        main(["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", str(cert_path)])
        capsys.readouterr()
        doc = read(cert_path)
        doc["copies"] = doc["copies"][:-1]
        cert_path.write_text(json.dumps(doc))
        assert main(["gallai", "check", str(cert_path), "--budget", budget]) == EXIT_CHECK_FAILED
        report = json.loads(capsys.readouterr().out.rsplit("status:", 1)[0])
        assert report["results"]["copies_complete"] is False
        assert report["results"]["coloring_ok"] is (True if budget == "default" else None)

    def test_check_out_writes_the_printed_report(self, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        main(["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", str(cert_path)])
        capsys.readouterr()
        assert main(["gallai", "check", str(cert_path)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert main(["gallai", "check", str(cert_path), "--out", str(tmp_path / "check.json")]) == EXIT_OK
        assert capsys.readouterr().out == printed
        assert (tmp_path / "check.json").read_text() + "status: ok\n" == printed

    def test_search_budget_failure_shape(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["gallai", "search", "--T", "0,1,2", "--k", "2", "--g", "9", "--budget", "small", "--out", str(out)]
        )
        assert code == EXIT_BUDGET
        report = read(out)
        assert report["status"] == "budget-exhausted"
        assert report["results"]["found"] is False
        assert report["results"]["nodes"] > report["results"]["limit"]

    def test_search_success_verifies(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(["gallai", "search", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", str(out)])
        assert code == EXIT_OK
        from girthgeom.gallai import verify_certificate
        from girthgeom.scenes import load_certificate

        cert = load_certificate(out)
        assert verify_certificate(cert).all_true()

    def test_make_negative_ground(self, tmp_path):
        spaced, joined = tmp_path / "spaced.json", tmp_path / "joined.json"
        assert main(["gallai", "make", "--T", "-5/9,1/9,7/9", "--k", "2", "--g", "4", "--out", str(spaced)]) == EXIT_OK
        assert main(["gallai", "make", "--T=-5/9,1/9,7/9", "--k", "2", "--g", "4", "--out", str(joined)]) == EXIT_OK
        assert spaced.read_bytes() == joined.read_bytes()

    @pytest.mark.parametrize("ground", [None, "0,x", "0,1/0"])
    def test_make_bad_ground_exits_2(self, tmp_path, capsys, ground):
        argv = ["gallai", "make", "--k", "2", "--g", "4", "--out", str(tmp_path / "c.json")]
        if ground is not None:
            argv += ["--T", ground]
        assert main(argv) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert ("--T" if ground is None else repr(ground)) in err
        assert not (tmp_path / "c.json").exists()

    def test_make_refusal_exit(self, tmp_path):
        code = main(["gallai", "make", "--T", "0,1", "--k", "2", "--g", "9", "--out", str(tmp_path / "c.json")])
        assert code == EXIT_REFUSED

    @pytest.mark.parametrize("hint", ["0", "-3"])
    def test_make_hint_without_points_fails_with_one_line(self, tmp_path, capsys, hint):
        # a hint of no points is a malformed argument, refused before the
        # provider, whose empty coloring would avoid every copy, as there are none
        out = tmp_path / "c.json"
        argv = ["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--provider", "vdw", "--vdw-hint", hint]
        assert main([*argv, "--out", str(out)]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert err == f"check failed: gallai make: --vdw-hint must be at least 1, not {hint}\n"
        assert not out.exists()
        with pytest.raises(ProviderFailure, match=re.escape("set of 0 elements admits an avoiding coloring: ()")):
            vdw_certificate(GroundSet.of([0, 1, 2]), 2, 4, length_hint=int(hint))

    @pytest.mark.parametrize("provider", ["pigeonhole", "vdw"])
    def test_make_budget_binds_every_provider(self, tmp_path, provider):
        out = tmp_path / "c.json"
        argv = ["gallai", "make", "--T", "0,1", "--k", "8", "--g", "6", "--provider", provider, "--budget", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_BUDGET
        assert read(out)["flags"]["coloring_ok"] is None


@pytest.mark.parametrize("kind", ["boxes", "lines"])
def test_auto_build_beyond_the_table_is_refused_without_search(tmp_path, monkeypatch, kind):
    # the step past the 5-cycle base needs a certificate for a five-point
    # ground set with 3 colors: "auto" names the progression provider,
    # whose table has no entry there, and never the unbounded search
    from girthgeom import gallai

    def no_search(*args, **kwargs):
        raise AssertionError("auto reached the explicit search")

    monkeypatch.setattr(gallai, "search_certificate", no_search)
    assert main(["build", kind, "--g", "4", "--k", "4", "--out", str(tmp_path / "f")]) == EXIT_REFUSED


@pytest.mark.parametrize(
    "argv",
    [
        ["gallai", "make", "--T", "0,1,2"],
        ["gallai", "search", "--T", "0,1,2"],
        ["gallai", "make", "--T", "0,1", "--k", "0", "--g", "4"],
        ["build", "boxes", "--g", "6", "--k", "0", "--out", "x"],
        ["build", "lines", "--g", "2", "--k", "3", "--out", "x"],
        ["build", "shift", "--n", "2", "--out", "x"],
        ["verify", "missing.scene.json"],
        ["gallai", "check", "missing.json"],
        ["gallai", "search", "--T", "0,1", "--k", "1", "--g", "3", "--budget", "0"],
        ["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--budget", "-1", "--out", "x"],
        ["build", "shift", "--n", "5", "--chroma-budget", "-3", "--out", "x"],
        ["gallai", "check"],
        ["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--vdw-hint", "-3"],
        ["build", "boxes", "--g", "4", "--k", "4", "--provider", "vdw", "--vdw-hint", "-1", "--out", "x"],
    ],
)
def test_argument_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, path",
    [
        (["build", "shift", "--n", "4", "--out", "f/z"], "f/z.scene.json"),
        (["verify", "g5.scene.json", "--out", "f/v"], "f/v.report.json"),
        (["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", "f/c.json"], "f/c.json"),
        (["build", "shift", "--n", "4", "--out", "d"], "d.dimacs"),
    ],
    ids=["build", "verify", "gallai-make", "build-dimacs"],
)
def test_an_unwritable_out_path_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, path):
    # f is a regular file, so nothing can be written under it, and d.dimacs is a directory
    monkeypatch.chdir(tmp_path)
    assert main(["build", "shift", "--n", "5", "--seed", "1", "--out", "g5"]) == EXIT_OK
    (tmp_path / "f").touch()
    (tmp_path / "d.dimacs").mkdir()
    capsys.readouterr()
    assert main(argv) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith(f"check failed: cannot write {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # a build that cannot write one of its files leaves none of them
    assert not any(tmp_path.glob("d.*.json"))


@pytest.mark.parametrize(
    "argv, code, written",
    [
        (["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4"], EXIT_OK, "x"),
        (["gallai", "search", "--T", "0,1,2", "--k", "2", "--g", "4"], EXIT_OK, "x"),
        (["verify", "g5.scene.json"], EXIT_OK, "x.report.json"),
        (["gallai", "check", "c.json"], EXIT_OK, "x"),
    ],
    ids=["gallai-make", "gallai-search", "verify", "gallai-check"],
)
def test_out_creates_missing_directories(tmp_path, monkeypatch, argv, code, written):
    monkeypatch.chdir(tmp_path)
    assert main(["build", "shift", "--n", "5", "--seed", "1", "--out", "g5"]) == EXIT_OK
    assert main(["gallai", "make", "--T", "0,1", "--k", "2", "--g", "6", "--out", "c.json"]) == EXIT_OK
    assert main([*argv, "--out", "no/such/dir/x"]) == code
    assert (tmp_path / "no/such/dir" / written).is_file()


@pytest.mark.parametrize(
    "build, path, where",
    [
        (["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole"], "s.scene.json", ("boxes", 0, "x", 0)),
        (["build", "lines", "--g", "6", "--k", "3", "--provider", "pigeonhole"], "s.scene.json", ("lines", 0, "base", 0)),
        (["build", "shift", "--n", "5"], "s.scene.json", ("values", 0)),
        (["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4"], "s.json", ("elements", 0)),
    ],
    ids=["boxes", "lines", "shift", "certificate"],
)
def test_zero_denominator_exits_2_with_one_line(tmp_path, monkeypatch, capsys, build, path, where):
    monkeypatch.chdir(tmp_path)
    main([*build, "--out", path.removesuffix(".scene.json")])
    doc = json.loads(Path(path).read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = "1/0"
    Path(path).write_text(json.dumps(doc))
    capsys.readouterr()
    check = ["gallai", "check", path] if build[0] == "gallai" else ["verify", path]
    assert main(check) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert "document" in captured.err


def _trim_value(doc):
    doc["values"].pop()


def _remove_line(doc):
    doc["lines"].pop()


def _change_value(doc):
    doc["values"][0] = str(Fraction(doc["values"][0]) - 1)


def _short_coordinates(doc):
    doc["boxes"][0]["x"] = doc["boxes"][0]["x"][:1]


def _edit_image(doc):
    image = doc["copies"][0]["image"]
    image[0] = str(Fraction(image[0]) + 1)


def _axis_as_string(doc):
    # ["0", "2"] -> "02": indexing the string would read the same two ends
    doc["boxes"][0]["x"] = "".join(doc["boxes"][0]["x"])


def _drop_axis(doc):
    del doc["boxes"][0]["y"]


def _third_axis_entry(doc):
    doc["boxes"][0]["x"].append("5")


def _bad_string_twice(doc, text):
    doc["boxes"][0]["x"][0] = doc["boxes"][1]["z"][1] = text


def _set(*path):
    """A spoiler that sets the field at ``path[:-1]`` to ``path[-1]``."""
    *keys, last, value = path

    def spoil(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value

    return spoil


def _cut_to_two_values(doc):
    doc["values"], doc["lines"] = doc["values"][:2], []


def _swap_first_lines(doc):
    doc["lines"][:2] = doc["lines"][1::-1]


def _float_value(doc):
    doc["values"][0] = float(doc["values"][0])


def _unreduced_direction(doc):
    # the leading direction entry of a shift line is 1; "2/2" parses to it
    doc["lines"][0]["dir"][0] = "2/2"


_SHIFT = ["build", "shift", "--n", "5"]
_SHIFT6 = ["build", "shift", "--n", "6", "--seed", "1"]
_CERT = ["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4"]
_BOXES = ["build", "boxes", "--g", "6", "--k", "3", "--provider", "pigeonhole"]
_LINES = ["build", "lines", "--g", "6", "--k", "3", "--provider", "pigeonhole"]
_C2 = ["build", "boxes", "--g", "6", "--k", "2", "--provider", "pigeonhole"]
_SHIFT_DOC = "bad shift-system document: "
_CERT_DOC = "bad certificate document: "
_BOXES_DOC = "bad grounded-box-family document: "
_LINES_DOC = "bad line-family document: "
_RANGES = _LINES_DOC + "k must be an integer >= 1 and g one >= 3 or null"
# box 0 is {"x": ["1", "4/3"], "y": ["2/3", "1"], "z": ["0", "1"]}; line 0 has
# "dir": ["1", "1/2", "1/2"]; the certificate's ground set is ["0", "1", "2"]
# and its elements start "1"
_RESPELLED = [
    (build, path, _set(*where, text), f"{kind}{shown} is {text!r}, its writer writes '1'")
    for text in ("1e0", " 1", "2/2")
    for build, path, kind, where, shown in (
        (_BOXES, "s.scene.json", _BOXES_DOC, ("boxes", 0, "x", 0), "boxes[0].x[0]"),
        (_LINES, "s.scene.json", _LINES_DOC, ("lines", 0, "dir", 0), "lines[0].dir[0]"),
        (_CERT, "s.json", _CERT_DOC, ("elements", 0), "elements[0]"),
    )
]


@pytest.mark.parametrize(
    "build, path, spoil, message",
    [
        (_SHIFT, "s.scene.json", _trim_value, _SHIFT_DOC + "lines[2].base[0] is "),
        (_SHIFT, "s.scene.json", _remove_line, _SHIFT_DOC + "lines[9] is missing, its writer writes {'triple': "),
        (_SHIFT, "s.scene.json", _change_value, _SHIFT_DOC + "lines[0].base[0] is "),
        (_SHIFT, "s.scene.json", _swap_first_lines, _SHIFT_DOC + "lines[0].base[0] is "),
        (_SHIFT, "s.scene.json", _cut_to_two_values, _SHIFT_DOC + "a shift system needs at least 3"),
        (_SHIFT, "s.scene.json", lambda doc: [doc], "bad scene document: unknown kind None"),
        (_CERT, "s.json", lambda doc: [doc], _CERT_DOC),
        (_BOXES, "s.scene.json", _short_coordinates, _BOXES_DOC + "boxes[0].x[1] is missing"),
        (_CERT, "s.json", _edit_image, _CERT_DOC),
        (_C2, "s.scene.json", _axis_as_string, _BOXES_DOC),
        (_BOXES, "s.scene.json", _third_axis_entry, _BOXES_DOC),
        (_BOXES, "s.scene.json", lambda doc: _bad_string_twice(doc, "one/two"), _BOXES_DOC),
        (_BOXES, "s.scene.json", lambda doc: _bad_string_twice(doc, "1/0"), _BOXES_DOC),
        (_BOXES, "s.scene.json", _set("g", 2.7), _BOXES_DOC),
        (_BOXES, "s.scene.json", _set("g", True), _BOXES_DOC),
        (_BOXES, "s.scene.json", _set("k", True), _BOXES_DOC),
        (_LINES, "s.scene.json", _set("k", "3"), _LINES_DOC),
        (_LINES, "s.scene.json", _set("g", 6.0), _LINES_DOC),
        (_LINES, "s.scene.json", _set("k", -5), _RANGES),
        (_LINES, "s.scene.json", _set("g", 0), _RANGES),
        (_CERT, "s.json", _set("colors", 2.7), _CERT_DOC + "colors is 2.7, its writer writes 2"),
        (_CERT, "s.json", _set("colors", True), _CERT_DOC + "colors is True, its writer writes 1"),
        (_CERT, "s.json", _set("colors", "2"), _CERT_DOC + "colors is '2', its writer writes 2"),
        (_CERT, "s.json", _set("girth", 4.0), _CERT_DOC + "girth is 4.0, its writer writes 4"),
        (_SHIFT, "s.scene.json", _set("n", 99), _SHIFT_DOC + "n is 99, its writer writes 5"),
        (_SHIFT, "s.scene.json", _unreduced_direction,
         _SHIFT_DOC + "lines[0].dir[0] is '2/2', its writer writes '1'"),
        (_SHIFT, "s.scene.json", _float_value, _SHIFT_DOC + "values[0] is "),
        (_SHIFT, "s.scene.json", _set("extra", 1), _SHIFT_DOC + "extra is 1, its writer writes nothing"),
        (_CERT, "s.json", _set("flags", "coloring_ok", "yes"),
         _CERT_DOC + "flags.coloring_ok is 'yes', its writer writes True"),
        (_CERT, "s.json", _set("flags", "note", 5), _CERT_DOC + "flags.note is 5, its writer writes '5'"),
        (_BOXES, "s.scene.json", _set("boxes", 0, "z", 0, 0.0),
         _BOXES_DOC + "boxes[0].z[0] is 0.0, its writer writes '0'"),
        (_BOXES, "s.scene.json", _set("boxes", 0, "z", 0, False),
         _BOXES_DOC + "boxes[0].z[0] is False, its writer writes '0'"),
        (_LINES, "s.scene.json", _set("lines", 0, "dir", 0, 1.0),
         _LINES_DOC + "lines[0].dir[0] is 1.0, its writer writes '1'"),
        (_CERT, "s.json", _set("ground_set", 2, 2.0), _CERT_DOC + "ground_set[2] is 2.0, its writer writes '2'"),
        (_CERT, "s.json", _set("elements", 0, True), _CERT_DOC + "elements[0] is True, its writer writes '1'"),
        *_RESPELLED,
        (_BOXES, "s.scene.json", _set("boxes", 0, "w", ["0", "1"]),
         _BOXES_DOC + "boxes[0].w is ['0', '1'], its writer writes nothing"),
        (_CERT, "s.json", lambda doc: {key: doc[key] for key in doc if key != "flags"}, _CERT_DOC + "flags is missing"),
        (_BOXES, "s.scene.json", _set("boxes", 0, "z", 0, float("inf")), _BOXES_DOC),
        (_BOXES, "s.scene.json", _set("kind", []), "bad scene document: unknown kind []"),
        (_LINES, "s.scene.json", _set("provenance", "certificate", "elements", 0, "2/2"),
         _LINES_DOC + "provenance.certificate.elements[0] is '2/2', its writer writes '1'"),
        (_LINES, "s.scene.json", _set("provenance", "parent_params", 0, 0.0),
         _LINES_DOC + "provenance.parent_params[0] is 0.0, its writer writes '0'"),
        (_SHIFT6, "s.scene.json", _set("provenance", "n", 99), _SHIFT_DOC + "provenance.n is 99, its writer writes 6"),
        (_SHIFT6, "s.scene.json", _set("provenance", "seed", "x"),
         _SHIFT_DOC + "provenance.seed is 'x', not of type int"),
        (_BOXES, "s.scene.json", _set("provenance", "chromatic_lift_certified", False),
         _BOXES_DOC + "provenance.chromatic_lift_certified is False, its writer writes True"),
        (_BOXES, "s.scene.json", _set("provenance", "colors_before", 2.5),
         _BOXES_DOC + "provenance.colors_before is 2.5, its writer writes 2"),
        (_BOXES, "s.scene.json", _set("provenance", "geometry", "lines"),
         _BOXES_DOC + "provenance.geometry is 'lines', its writer writes 'boxes'"),
        (_BOXES, "s.scene.json", _set("provenance", "certificate", "copies", 0, "image", 0, "999"),
         _BOXES_DOC + "provenance.certificate: copies[0].image is ['999', "),
        (_BOXES, "s.scene.json", _set("provenance", "certificate", "flags", "coloring_ok", "yes"),
         _BOXES_DOC + "provenance.certificate.flags.coloring_ok is 'yes', its writer writes True"),
        # blocks and parent edges are derived, from the certificate and the first copy's edges
        (_BOXES, "s.scene.json", _set("provenance", "parent_edges", 0, [0, 7]),
         _BOXES_DOC + "provenance.parent_edges[0][1] is 7, its writer writes 1"),
        (_BOXES, "s.scene.json", _set("provenance", "parent_edges", [[0, 1], [0, 1]]),
         _BOXES_DOC + "provenance.parent_edges[1] is [0, 1], its writer writes nothing"),
        (_C2, "s.scene.json", _set("k", "x"), _BOXES_DOC + "k is 'x', not of type int"),
        (_C2, "s.scene.json", _set("g", "x"), _BOXES_DOC + "g is 'x', not of type int"),
        (_C2, "s.scene.json", _set("boxes", 1, "z", 1, "x"),
         _BOXES_DOC + "boxes[1].z[1]: Invalid literal for Fraction: 'x'"),
        (_C2, "s.scene.json", _drop_axis, _BOXES_DOC + "boxes[0].y is missing"),
        (_LINES, "s.scene.json", _set("lines", 2, "base", 1, "x"),
         _LINES_DOC + "lines[2].base[1]: Invalid literal for Fraction: 'x'"),
        (_LINES, "s.scene.json", _set("lines", 3, "dir", ["0", "0", "0"]),
         _LINES_DOC + "lines[3].dir must not be the zero vector"),
        (_LINES, "s.scene.json", _set("provenance", "offsets", 0, "1/2"),
         _LINES_DOC + "provenance.offsets[0] is 1/2, not an integer slide offset"),
        # a copy is read as the positions of its image among the elements, and
        # its scale and shift are its derived map's, as the writer writes them
        (_CERT, "s.json", _set("copies", 0, "image", ["1", "2", "4"]),
         _CERT_DOC + "copies[0].image is ['1', '2', '4'], not the written elements of a copy of the ground set"),
        (_CERT, "s.json", _set("copies", 0, "image", ["3", "2", "1"]),
         _CERT_DOC + "copies[0].image is ['3', '2', '1'], not the written elements of a copy of the ground set"),
        (_CERT, "s.json", _set("copies", 0, "image", ["1", "3", "5"]),
         _CERT_DOC + "copies[0].scale is '1', its writer writes '2'"),
        (_CERT, "s.json", _set("copies", 0, "scale", "7"), _CERT_DOC + "copies[0].scale is '7', its writer writes '1'"),
        (_CERT, "s.json", _set("copies", 0, "shift", "0"), _CERT_DOC + "copies[0].shift is '0', its writer writes '1'"),
        (_CERT, "s.json", _set("elements", 0, "2"), _CERT_DOC + "certificate elements must be strictly increasing"),
    ],
    ids=["shift-value-trimmed", "shift-line-removed", "shift-value-changed", "shift-lines-swapped",
         "shift-two-values", "array-scene", "array-certificate", "short-box-coordinates", "edited-copy-image",
         "box-axis-string", "box-axis-three-entries", "bad-string-twice", "zero-denominator-twice", "girth-float",
         "girth-bool", "colors-bool", "line-colors-string", "line-girth-float",
         "line-colors-negative", "line-girth-zero", "certificate-colors-float",
         "certificate-colors-bool", "certificate-colors-string", "certificate-girth-float",
         "shift-n-wrong", "shift-direction-unreduced", "shift-value-float", "shift-unknown-key",
         "certificate-flag-string", "certificate-note-number",
         "box-coordinate-float", "box-coordinate-false", "line-direction-float", "certificate-ground-float",
         "certificate-element-true",
         *(f"{kind}-{name}" for name in ("exponent", "space", "unreduced") for kind in ("box", "line", "certificate")),
         "box-unknown-key", "certificate-flags-missing", "box-coordinate-infinity", "scene-kind-list",
         "line-provenance-element-unreduced", "line-parent-param-float", "shift-provenance-n-wrong",
         "shift-provenance-seed-string", "box-lift-uncertified", "box-colors-before-float", "box-geometry-lines",
         "box-provenance-image-wrong", "box-provenance-flag-string", "box-parent-edge-out-of-range",
         "box-parent-edge-repeated", "box-colors-malformed", "box-girth-malformed", "box-coordinate-malformed",
         "box-axis-missing", "line-base-malformed", "line-direction-zero", "line-offset-half",
         "certificate-image-not-a-copy", "certificate-image-reversed", "certificate-image-of-another-copy",
         "certificate-scale-changed", "certificate-shift-changed", "certificate-element-repeated"],
)
def test_malformed_file_exits_2_with_one_line(tmp_path, monkeypatch, capsys, build, path, spoil, message):
    # every refusal at load names its document kind; ``message`` is the
    # start of the one stderr line after "check failed: "
    monkeypatch.chdir(tmp_path)
    main([*build, "--out", path.removesuffix(".scene.json")])
    doc = json.loads(Path(path).read_text())
    doc = spoil(doc) or doc
    Path(path).write_text(json.dumps(doc))
    capsys.readouterr()
    check = ["gallai", "check", path] if build[0] == "gallai" else ["verify", path]
    assert main(check) == EXIT_CHECK_FAILED
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("check failed: " + message)


def _field_paths(node, prefix=()):
    """The path of every field below ``node``, as keys and list indices."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _field_paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def provenance_scenes(tmp_path_factory):
    """The scene documents of two recursion builds and a shift build, and a
    scratch directory."""
    root = tmp_path_factory.mktemp("provenance")
    docs = {}
    for kind, build in (("boxes", _BOXES), ("lines", _LINES), ("shift", [*_SHIFT, "--seed", "1"])):
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*build, "--out", str(root / kind)]) == EXIT_OK
        docs[kind] = read(root / f"{kind}.scene.json")
    return root, docs


@pytest.mark.parametrize("kind", ["boxes", "lines"])
@pytest.mark.parametrize(
    "name, value",
    [("copies", None), ("ground", None), ("ground", True), ("ground", 1.0)],
    ids=["copy-dropped", "ground-index-dropped", "ground-index-true", "ground-index-float"],
)
def test_blocks_that_do_not_partition_the_objects_exit_2(provenance_scenes, capsys, kind, name, value):
    # the objects of a dropped block would be checked by nothing; an index
    # is a JSON integer, as the writer writes it, not true or 1.0
    root, docs = provenance_scenes
    doc = json.loads(json.dumps(docs[kind]))
    blocks = doc["provenance"]["blocks"]
    if value is None:
        blocks[name].pop()
    else:
        blocks[name][1] = value
    scene = root / "unpartitioned.scene.json"
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(scene)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "blocks" in err


def _move_copy_member(prov):
    copies = prov["blocks"]["copies"]
    copies[1].append(copies[0].pop())


@pytest.mark.parametrize(
    "kind, spoil, message",
    [
        ("lines", lambda prov: prov["parent_params"].__setitem__(0, "7"),
         "provenance.parent_params are not the points of the certificate's ground set"),
        ("lines", lambda prov: prov["parent_params"].pop(),
         "provenance.parent_params are not the points of the certificate's ground set"),
        ("lines", _move_copy_member, "provenance.blocks.copies[0][1] is missing, its writer writes 4"),
        ("boxes", _move_copy_member, "provenance.blocks.copies[0][1] is missing, its writer writes 4"),
        ("boxes", lambda prov: prov.__setitem__("parent_size", 0),
         "provenance.parent_size is 0, its writer writes 2"),
    ],
    ids=["line-parent-param-off-the-elements", "line-parent-params-short", "line-copy-block-sizes",
         "box-copy-block-sizes", "box-parent-size-zero"],
)
def test_provenance_that_does_not_fit_the_parent_exits_2(provenance_scenes, capsys, kind, spoil, message):
    # each copy is one image of the parent: its block has the parent's size
    # and the parent parameters are the certificate's ground set
    root, docs = provenance_scenes
    doc = json.loads(json.dumps(docs[kind]))
    spoil(doc["provenance"])
    scene = root / "misfit.scene.json"
    scene.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(scene)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


def _one_copy(ground, colors, girth):
    """A progression certificate with a single copy."""
    return vdw_certificate(ground, colors, girth, length_hint=normalize_ground_set(ground)[-1] + 1)


@pytest.fixture(scope="module")
def two_step_scene():
    """The scene document of c9 lifted once more at one color, by a
    progression certificate with a single copy (73 boxes)."""
    fam = recursion_step_boxes(build_box_family(6, 3, ProviderPolicy("pigeonhole")), 1, 6, _one_copy)
    assert len(fam) == 73
    return scene_to_doc(fam)


@pytest.fixture(scope="module")
def two_step_line_scene():
    """The scene document of l9 lifted once more at one color, as
    ``two_step_scene`` lifts c9 (38 lines)."""
    fam = recursion_step_lines(build_line_family(6, 3, ProviderPolicy("pigeonhole")), 1, 6, _one_copy)
    assert len(fam) == 38
    return scene_to_doc(fam)


# a value of the writer's type that differs from what the writer derives
_DERIVED = {"geometry": "shift", "girth_param": 99, "colors_before": 7, "parent_size": 3,
            "chromatic_lift_certified": False}


@pytest.mark.parametrize("field", sorted(_DERIVED))
@pytest.mark.parametrize("scene, where", [("boxes", ()), ("lines", ()), ("two-step", ("parent",))],
                         ids=["c9", "l9", "two-step-parent"])
def test_a_derived_provenance_field_that_differs_exits_2(provenance_scenes, two_step_scene, capsys, scene, where,
                                                         field):
    # the writer derives these from the scene kind and the certificate, so a
    # stored value is compared with the derived one, level by level
    root, docs = provenance_scenes
    doc = json.loads(json.dumps(two_step_scene if scene == "two-step" else docs[scene]))
    prov = doc["provenance"]
    for key in where:
        prov = prov[key]
    assert prov[field] != _DERIVED[field]
    prov[field] = _DERIVED[field]
    path = root / "derived.scene.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"provenance.{''.join(k + '.' for k in where)}{field} is {_DERIVED[field]!r}, its writer writes " in err


def test_the_two_step_scene_verifies(tmp_path, capsys, two_step_scene):
    path = tmp_path / "two.scene.json"
    path.write_text(json.dumps(two_step_scene))
    assert main(["verify", str(path)]) == EXIT_OK


def test_no_level_of_the_loaded_two_step_scene_stores_blocks_or_parent_edges(two_step_scene):
    prov = scenes.scene_from_doc(json.loads(json.dumps(two_step_scene))).provenance
    # c9, the parent, was copied with its traces made distinct
    assert prov.keys() == prov["parent"].keys() - {"traces_normalized"} == {"kind", "certificate", "parent"}
    assert prov["parent"]["parent"] == {"kind": "base-pair"}


@pytest.mark.parametrize(
    "spoil, message",
    [
        (lambda prov: prov["blocks"]["copies"].pop(),
         "provenance.parent.blocks.copies[2] is missing, its writer writes [7, 8]"),
        (lambda prov: prov.__setitem__("parent_edges", [[0, 99]]),
         "provenance.parent.parent_edges[0][1] is 99, its writer writes 1"),
        (lambda prov: prov.__setitem__("parent_edges", []),
         "provenance.parent.parent_edges[0] is missing, its writer writes [0, 1]"),
        (lambda prov: prov["blocks"]["ground"].__setitem__(0, 0.0),
         "provenance.parent.blocks.ground[0] is 0.0, its writer writes 0"),
        (lambda prov: prov["blocks"]["copies"][0].__setitem__(1, 4.0),
         "provenance.parent.blocks.copies[0][1] is 4.0, its writer writes 4"),
        (lambda prov: prov["parent_edges"][0].__setitem__(1, True),
         "provenance.parent.parent_edges[0][1] is True, its writer writes 1"),
    ],
    ids=["parent-copy-dropped", "parent-edge-out-of-range", "parent-edges-empty", "parent-ground-index-float",
         "parent-copy-index-float", "parent-edge-true"],
)
def test_a_parent_provenance_that_does_not_fit_exits_2(tmp_path, capsys, two_step_scene, spoil, message):
    # every level of a recursion provenance fits the objects of its own
    # step: the parent level fits the 9 objects of c9, one copy's worth
    doc = json.loads(json.dumps(two_step_scene))
    spoil(doc["provenance"]["parent"])
    path = tmp_path / "misfit.scene.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "change, fault",
    [
        ((), None),
        ((("drop", (0, 3)),), "copy object 3 meets 0 ground objects"),
        ((("add", (1, 3)),), "copy object 3 meets 2 ground objects"),
        ((("add", (0, 1)),), "intersecting ground pair (0, 1)"),
        ((("drop", (3, 4)),), "copy 1 differs at [(0, 1)]"),
        ((("drop", (7, 8)), ("add", (0, 7))), "copy object 7 meets 2 ground objects"),
        ((("add", (3, 5)),), "intersecting cross-copy pair (3, 5)"),
        ((("drop", (0, 3)), ("add", (1, 3))), "copy 0 meets ground objects [[1], [1]], not each of [0, 1] once"),
        ((("drop", (0, 5)), ("drop", (2, 6)), ("add", (2, 5)), ("add", (0, 6))),
         "object 5 meets ground [2], expected [0]"),
    ],
    ids=["as-recorded", "copy-meets-none", "copy-meets-two", "ground-pair-meets", "copy-misses-its-edge",
         "first-fault-in-order", "cross-copy-pair", "first-copy-on-one-ground", "later-copy-by-other-ranks"],
)
def test_a_parent_level_is_checked_against_the_graph_above(two_step_scene, change, fault):
    # the parent level of the two-step scene is c9's lift: ground 0..2, copies
    # (3, 4), (5, 6), (7, 8) of the meeting pair, in the graph the top's first copy induces
    fam = scenes.scene_from_doc(json.loads(json.dumps(two_step_scene)))
    graph = set(parent_edges(fam.provenance["certificate"], fam.meets))
    for action, edge in change:
        graph = graph - {edge} if action == "drop" else graph | {edge}
    check = functools.partial(scenes._check_fit, fam.provenance["parent"], 9, sorted(graph), "provenance.parent",
                              below=True)
    if fault is None:
        check()
    else:
        with pytest.raises(ValueError, match=re.escape(f"provenance.parent does not fit the graph the level "
                                                       f"above records: {fault}")):
            check()


@pytest.mark.parametrize("scene, where", [("lines", ()), ("two-step-lines", ("parent",))],
                         ids=["l9-top", "two-step-parent"])
def test_reversed_parent_params_exit_2(provenance_scenes, two_step_line_scene, tmp_path, capsys, scene, where):
    # a line level's copies meet their ground lines at the ranks its
    # parent parameters give, at the top and at every level below it
    doc = json.loads(json.dumps(two_step_line_scene if scene == "two-step-lines" else provenance_scenes[1][scene]))
    prov = doc["provenance"]
    for key in where:
        prov = prov[key]
    prov["parent_params"].reverse()
    path = tmp_path / "reversed.scene.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if where:
        assert "provenance.parent does not fit the graph the level above records: object " in err
    else:
        structure = read(tmp_path / "v.report.json")["results"]["structure"]
        assert [c["name"] for c in structure if not c["ok"]] == ["copy-meets-exactly-own-ground"]


@pytest.fixture(scope="module")
def recorded_levels(provenance_scenes, two_step_scene, two_step_line_scene):
    """The loaded c9, l9 and two-step box and line scenes, by name."""
    docs = {"c9": provenance_scenes[1]["boxes"], "l9": provenance_scenes[1]["lines"], "two-step": two_step_scene,
            "two-step-lines": two_step_line_scene}
    return {name: scenes.scene_from_doc(json.loads(json.dumps(doc))) for name, doc in docs.items()}


# each top-level check of a geometry in report order, with the rules of reference_level_faults it names
_TOP_CHECKS = {
    BoxFamily: [("ground-pairwise-disjoint", {"ground"}), ("copy-meets-exactly-one-ground", {"count"}),
                ("copy-meets-own-ground", {"placed"}), ("no-cross-copy-intersections", {"cross"}),
                ("copy-graph-matches-parent", {"copy"})],
    LineFamily: [("no-identical-lines", set()), ("ground-pairwise-parallel-disjoint", {"ground"}),
                 ("copy-meets-exactly-own-ground", {"count", "placed"}), ("no-cross-copy-incidences", {"cross"}),
                 ("copy-graph-matches-parent", {"copy"})],
}


def _reference_fit(prov, size, edges, path):
    """The message of the first level at or below ``path`` whose graph
    breaks a rule of ``reference_level_faults``, or None."""
    faults = reference_level_faults(prov, size, edges)
    if faults:
        rule, text = faults[0]
        return (f"{path}.kind is {prov['kind']!r}, but the level above records {text}" if rule == "base"
                else f"{path} does not fit the graph the level above records: {text}")
    if prov["kind"] == "recursion":
        return _reference_fit(prov["parent"], *reference_parent_graph(prov, edges), f"{path}.parent")
    return None


@settings(max_examples=300, deadline=None)
@given(scene=st.sampled_from(["c9", "l9", "two-step", "two-step-lines"]), below=st.booleans(), data=st.data())
def test_each_level_is_refused_as_the_rules_refuse_it(recorded_levels, scene, below, data):
    # one to three pairs of a recorded graph, at the top or one level down,
    # added or dropped: the one model compare accepts or refuses as the
    # rules checked one by one do, and names their first fault
    fam = recorded_levels[scene]
    prov, size, edges = fam.provenance, len(fam), fam.meets
    if below:
        size, edges = reference_parent_graph(prov, edges)
        prov = prov["parent"]
    pairs = list(itertools.combinations(range(size), 2))
    m = len(prov["certificate"].elements) if prov["kind"] == "recursion" else 0
    placed = [(g, v) for g, v in edges if g < m <= v]
    if placed and data.draw(st.booleans()):  # a copy object moved to another ground object, and at most one more pair
        g, v = data.draw(st.sampled_from(placed))
        toggled = {(g, v), (data.draw(st.sampled_from([h for h in range(m) if h != g])), v)}
        toggled ^= data.draw(st.sets(st.sampled_from(pairs), max_size=1))
    else:
        toggled = data.draw(st.sets(st.sampled_from(edges) | st.sampled_from(pairs), min_size=1,
                                       max_size=min(3, len(pairs))))
    edited = sorted(set(edges) ^ toggled)
    faults = reference_level_faults(prov, size, edited)
    if below:
        try:
            scenes._check_fit(prov, size, edited, "provenance.parent", below=True)
            message = None
        except ValueError as exc:
            message = str(exc)
        assert message == _reference_fit(prov, size, edited, "provenance.parent")
        return
    first = next(iter(level_faults(prov, edited).items()), None)
    assert first == (faults[0] if faults else None)
    spoiled = copy.copy(fam)
    vars(spoiled)["meets"] = edited
    traces = fam.traces() if type(fam) is BoxFamily else None
    off_trace = traces is not None and any(traces[g] != traces[v] for g, v in edited if g < m <= v)
    failed = {rule for rule, _ in faults}
    want = [name for name, rules in _TOP_CHECKS[type(fam)]
            if rules & failed or name == "copy-meets-own-ground" and "count" not in failed and off_trace]
    report = spoiled.structure()
    assert [c.name for c in report.checks if not c.ok] == want
    assert len(report.checks) == 5 - (type(fam) is BoxFamily and "count" in failed)
    for check in report.checks:
        rules = dict(_TOP_CHECKS[type(fam)])[check.name]
        named = next((text for rule, text in faults if rule in rules), "")
        if not (check.name == "copy-meets-own-ground" and off_trace):
            assert check.detail == named


def _missing_pair(edges, size):
    """The first sorted pair of the ``size`` parent objects that ``edges``
    lacks, or the out-of-range pair (0, size) when it lacks none."""
    have = {tuple(e) for e in edges}
    return next(([u, v] for u in range(size) for v in range(u + 1, size) if (u, v) not in have), [0, size])


def _drop_pair(prov):
    del prov["parent_edges"][0]


def _add_pair(prov):
    prov["parent_edges"] = sorted([*prov["parent_edges"], _missing_pair(prov["parent_edges"], prov["parent_size"])])


def _move_pair(prov):
    moved = _missing_pair(prov["parent_edges"], prov["parent_size"])
    prov["parent_edges"] = sorted([*prov["parent_edges"][:-1], moved])


def _change_block_entry(prov):
    prov["blocks"]["copies"][0][0] += 1


@pytest.mark.parametrize("spoil", [_drop_pair, _add_pair, _move_pair, _change_block_entry],
                         ids=["drop-pair", "add-pair", "move-pair", "change-block-entry"])
@pytest.mark.parametrize("where", [(), ("parent",)], ids=["top", "parent"])
def test_a_spoiled_level_of_the_two_step_provenance_exits_2(tmp_path, capsys, two_step_scene, where, spoil):
    # each level's parent edges and blocks are checked: the top's against the
    # swept graph, and each level below against the graph the level above records
    doc = json.loads(json.dumps(two_step_scene))
    prov = doc["provenance"]
    for key in where:
        prov = prov[key]
    spoil(prov)
    path = tmp_path / "spoiled.scene.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path), "--out", str(tmp_path / "v")]) == EXIT_CHECK_FAILED
    assert "Traceback" not in capsys.readouterr().err


def _spoiled_scene_exits_2(tmp_path, capsys, doc, message):
    path = tmp_path / "spoiled.scene.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize(
    "scene, where, base",
    [
        ("boxes", ("parent",), {"kind": "base-single"}),
        ("lines", ("parent",), {"kind": "base-single"}),
        ("two-step", ("parent", "parent"), {"kind": "base-single"}),
        ("two-step", ("parent",), {"kind": "base-single"}),
        ("two-step", ("parent",), {"kind": "base-pair"}),
    ],
    ids=["c9-base", "l9-base", "two-step-base", "two-step-parent-as-single", "two-step-parent-as-pair"],
)
def test_a_relabelled_base_exits_2(provenance_scenes, two_step_scene, tmp_path, capsys, scene, where, base):
    # below the top only the graph a level records is left to check a base
    # against: one object and no edge, two objects and the edge (0, 1), or C_n
    doc = json.loads(json.dumps(two_step_scene if scene == "two-step" else provenance_scenes[1][scene]))
    prov = doc["provenance"]
    for key in where[:-1]:
        prov = prov[key]
    assert prov[where[-1]]["kind"] != base["kind"]
    prov[where[-1]] = base
    path = "provenance." + ".".join(where)
    _spoiled_scene_exits_2(tmp_path, capsys, doc, f"{path}.kind is {base['kind']!r}, but the level above records ")


@pytest.mark.parametrize("scene", ["boxes", "lines"], ids=["c9", "l9"])
def test_a_pair_base_whose_recorded_graph_has_no_edge_exits_2(provenance_scenes, tmp_path, capsys, scene):
    # the graph a level records is derived from its first copy, so stored edges that differ fail the compare
    doc = json.loads(json.dumps(provenance_scenes[1][scene]))
    doc["provenance"]["parent_edges"] = []
    _spoiled_scene_exits_2(tmp_path, capsys, doc, "provenance.parent_edges[0] is missing, its writer writes [0, 1]")


# object 4 of c9 and l9, the second of the first copy, moved off object 3 but still on its own ground object
_APART = {"boxes": _set("boxes", 4, "z", ["7/24", "1/3"]), "lines": _set("lines", 4, "base", ["0", "1/2", "-3/2"])}


@pytest.mark.parametrize("scene", ["boxes", "lines"], ids=["c9", "l9"])
def test_a_first_copy_moved_apart_fails_the_pair_base_below_it(provenance_scenes, tmp_path, capsys, scene):
    # the first copy now induces no edge, which the parent level, a meeting pair, is checked against
    doc = json.loads(json.dumps(provenance_scenes[1][scene]))
    _APART[scene](doc)
    _spoiled_scene_exits_2(tmp_path, capsys, doc, "provenance.parent.kind is 'base-pair', but the level above "
                                                  "records 2 objects and edges []")


# the top's one copy is a copy of c9, whose first copy is its boxes 3 and 4 on its ground boxes 0 and 1; with
# box 3 laid on box 4, both meet ground 1, so the level below does not fit the graph the top's copy induces
_LAID_ON_ITS_NEIGHBOUR = ("provenance.parent does not fit the graph the level above records: "
                          "copy 0 meets ground objects [[1], [1]], not each of [0, 1] once")


def test_a_first_copy_with_other_edges_is_refused_at_load(two_step_scene, tmp_path, capsys):
    # the stored parent edges differ from those the writer derives from the
    # copy too, but the level below is read, and refused, before that compare
    doc = json.loads(json.dumps(two_step_scene))
    m = len(doc["provenance"]["certificate"]["elements"])
    doc["boxes"][m + 3] = doc["boxes"][m + 4]
    _spoiled_scene_exits_2(tmp_path, capsys, doc, _LAID_ON_ITS_NEIGHBOUR)


def test_a_copy_laid_on_its_neighbour_with_matching_parent_edges_exits_2(two_step_scene, tmp_path, capsys):
    # the same scene with every stored derived field as the writer derives it
    # from the spoiled boxes: each copy object meets one ground object, no
    # copies meet, and every copy induces what the first does, so only the
    # ranks the first copy meets its ground by are left to refuse it
    fam = scenes.scene_from_doc(json.loads(json.dumps(two_step_scene)))
    m = len(fam.provenance["certificate"].elements)
    rows = list(fam.rows)
    rows[m + 3] = rows[m + 4]
    spoiled = BoxFamily(rows, fam.claimed_girth, fam.claimed_chromatic, fam.provenance, den=fam.den)
    doc = scene_to_doc(spoiled)
    assert doc["provenance"]["parent_edges"] != two_step_scene["provenance"]["parent_edges"]
    _spoiled_scene_exits_2(tmp_path, capsys, doc, _LAID_ON_ITS_NEIGHBOUR)


def test_a_top_level_copy_laid_on_its_neighbour_fails_copy_meets_own_ground(provenance_scenes, tmp_path):
    # c9's box 3 laid on box 4: the first copy still induces the meeting
    # pair, and each of its boxes meets the ground box at its own trace, but
    # both meet ground 1, so the copy does not meet its ground by ranks
    doc = json.loads(json.dumps(provenance_scenes[1]["boxes"]))
    doc["boxes"][3] = doc["boxes"][4]
    path = tmp_path / "laid.scene.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(tmp_path / "laid")]) == EXIT_CHECK_FAILED
    structure = read(tmp_path / "laid.report.json")["results"]["structure"]
    assert [c for c in structure if not c["ok"]] == [
        {"name": "copy-meets-own-ground", "ok": False, "detail": "copy 0 meets ground objects [[1], [1]], not each "
                                                                  "of [0, 1] once"}]


@pytest.mark.parametrize(
    "box, z, name, detail",
    [(6, ["1/3", "3/8"], "copy-graph-matches-parent", "copy 1 differs at [(0, 1)]"),
     (4, ["1/12", "5/12"], "no-cross-copy-intersections", "intersecting cross-copy pair (4, 5)")],
    ids=["later-copy-apart", "first-copy-meets-the-next"],
)
def test_a_fault_of_the_top_level_is_named_by_the_structure_report(provenance_scenes, tmp_path, capsys, box, z, name,
                                                                   detail):
    # the derived parent edges are what the first copy induces by itself, so
    # the scene loads, and its report names the fault as before
    doc = json.loads(json.dumps(provenance_scenes[1]["boxes"]))
    doc["boxes"][box]["z"] = z
    path = tmp_path / "top.scene.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--out", str(tmp_path / "top")]) == EXIT_CHECK_FAILED
    structure = read(tmp_path / "top.report.json")["results"]["structure"]
    assert [c for c in structure if not c["ok"]] == [{"name": name, "ok": False, "detail": detail}]


@pytest.mark.parametrize(
    "kind, size, graph",
    [("base-single", 2, []), ("base-single", 2, [(0, 1)]), ("base-pair", 2, []), ("base-pair", 3, [(0, 1)]),
     ("base-odd-cycle", 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
     ("base-odd-cycle", 5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])],
    ids=["single-of-two", "single-as-pair", "pair-without-edge", "pair-of-three", "cycle-without-closing-edge",
         "cycle-in-another-order"],
)
def test_a_base_is_checked_against_the_graph_above(kind, size, graph):
    # the graph the level above records is sorted pairs in range (derived
    # from its first copy), so a base level compares it with its kind's graph as it stands
    prov = {"kind": kind, "n": 5} if kind == "base-odd-cycle" else {"kind": kind}
    with pytest.raises(ValueError, match=re.escape(f"provenance.parent.kind is {kind!r}, but the level above records "
                                                   f"{size} objects and edges {graph}")):
        scenes._check_fit(prov, size, graph, "provenance.parent", below=True)
    fits, fit_graph = {"base-single": (1, []), "base-pair": (2, [(0, 1)])}.get(kind, (5, sorted(cycle_graph(5).edges)))
    scenes._check_fit(prov, fits, fit_graph, "provenance.parent", below=True)


@pytest.mark.parametrize("spoil", [lambda offsets: [], lambda offsets: offsets[:-1], lambda offsets: offsets + ["0"]],
                         ids=["emptied", "one-dropped", "lengthened"])
def test_line_offsets_hold_one_entry_per_copy(provenance_scenes, tmp_path, capsys, spoil):
    # the frame the offsets slide along is not stored, so only their count is checked
    doc = json.loads(json.dumps(provenance_scenes[1]["lines"]))
    doc["provenance"]["offsets"] = spoil(doc["provenance"]["offsets"])
    _spoiled_scene_exits_2(tmp_path, capsys, doc, "provenance.offsets do not hold one slide offset per certificate copy")


_SAMPLES = {"grounded-box-family": lambda: build_box_family(6, 3, ProviderPolicy("pigeonhole")),
            "line-family": lambda: odd_cycle_lines(5), "shift-system": lambda: build_shift_system(5, seed=1)}


@pytest.mark.parametrize("kind", sorted(scenes._SCENES))
def test_each_kind_reads_the_entries_its_labels_write(kind):
    # a family scene is read at the paths its kind declares, so they are the
    # rationals labels() writes for one object, in row order, and they give
    # back the family's grid; a shift scene writes each line's triple beside
    # the labels of its line family
    cls = scenes._SCENES[kind][0]
    fam = _SAMPLES[kind]()
    assert type(fam) is cls and cls.kind == kind
    labels = LineFamily.labels(fam) if cls is ShiftSystem else fam.labels()
    for label in labels:
        assert [(name, j) for name, values in label.items() for j in range(len(values))] == list(cls.entries)
        assert all(type(label[name][j]) is str for name, j in cls.entries)
    assert cls.grid([[obj[name][j] for name, j in cls.entries] for obj in labels], rat) == (fam.den, list(fam.rows))
    written = scene_to_doc(fam)[cls.key]
    assert written == ([{"triple": t, **line} for t, line in zip(fam.labels(), labels)] if cls is ShiftSystem else labels)


def test_a_scene_object_is_written_by_its_exact_class():
    system = build_shift_system(5, seed=1)
    assert isinstance(system, LineFamily) and scene_to_doc(system)["kind"] == "shift-system"
    as_lines = LineFamily(system.rows, None, 1, den=system.den)
    assert as_lines != system and scene_to_doc(as_lines)["kind"] == "line-family"
    with pytest.raises(TypeError, match="not a scene object"):
        scene_to_doc(cycle_graph(5))


@pytest.mark.parametrize("argv", [_BOXES, _LINES, ["build", "shift", "--n", "7"]], ids=["boxes", "lines", "shift"])
def test_build_and_verify_make_no_box_or_line_object(tmp_path, monkeypatch, capsys, argv):
    # families are built, read, checked and written as grid rows; the
    # objects are views that only a caller asks for
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} made")

    for cls in (GroundedSquareBox, Box3, Interval, Line3, Point3, Dir3):
        monkeypatch.setattr(cls, "__init__", refuse)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert main(["verify", f"{out}.scene.json"]) == EXIT_OK


_MUTATED = [None, -1, 0, 2, 10**6, 3.5, True, "x", "0", "1/0", "-1/2", [], [0], {}, {"a": 1}]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["boxes", "lines", "shift"]), pick=st.randoms(use_true_random=False),
       value=st.sampled_from(_MUTATED))
def test_mutated_provenance_exits_0_or_2(provenance_scenes, kind, pick, value):
    # one provenance field set to a wrong type or value: verify either
    # passes, fails a check in its report, or names the bad field on one
    # stderr line; no exception leaves main
    root, docs = provenance_scenes
    doc = json.loads(json.dumps(docs[kind]))
    path = pick.choice(list(_field_paths(doc["provenance"])))
    node = doc["provenance"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    scene = root / "mutated.scene.json"
    scene.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(scene), "--checks", "all"])
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    if code == EXIT_CHECK_FAILED and not out.getvalue().endswith("status: check-failed\n"):
        assert err.getvalue().count("\n") == 1
    else:
        assert err.getvalue() == ""


@pytest.fixture(scope="module")
def built_documents(provenance_scenes):
    """The two recursion scenes, a shift scene and a certificate, by kind,
    and a scratch directory."""
    root, docs = provenance_scenes
    with contextlib.redirect_stdout(io.StringIO()):
        argv = ["gallai", "make", "--T", "0,1,2", "--k", "2", "--g", "4", "--out", str(root / "c.json")]
        assert main(argv) == EXIT_OK
    return root, {**docs, "certificate": read(root / "c.json")}


_MISSPELLED = st.one_of(st.floats(), st.booleans(), st.sampled_from(["1e0", " 1", "2/2"]))


@settings(max_examples=400, deadline=None)
@given(kind=st.sampled_from(["boxes", "lines", "shift", "certificate"]), data=st.data())
def test_a_document_loads_only_as_its_writer_writes_it(built_documents, kind, data):
    # one field set to a float, a bool or a misspelled rational, or one extra
    # key, dropped key or extra list entry, anywhere, provenance included: the
    # load is refused with exit 2 and one stderr line, or the loaded object
    # writes back the same document
    root, docs = built_documents
    doc = json.loads(json.dumps(docs[kind]))
    # a random walk down from the root, so top-level fields are drawn as often as deep ones
    node, path = doc, ()
    while type(node) in (dict, list) and node and data.draw(st.booleans()):
        key = data.draw(st.sampled_from(list(node) if type(node) is dict else range(len(node))))
        parent, node, path = node, node[key], (*path, key)
    edits = ["set", "drop"] if path else []
    edits += ["key"] if type(node) is dict else ["entry"] if type(node) is list else []
    edit, value = data.draw(st.sampled_from(edits)), data.draw(_MISSPELLED)
    if edit == "set":
        parent[path[-1]] = value
    elif edit == "drop":
        del parent[path[-1]]
    elif edit == "key":
        node["extra"] = value
    else:
        node.append(value)
    file = root / "edited.json"
    file.write_text(json.dumps(doc))
    doc = read(file)
    load, write, check = (
        (load_certificate, certificate_to_doc, ["gallai", "check"]) if kind == "certificate"
        else (load_scene, scene_to_doc, ["verify"])
    )
    try:
        obj = load(file)
    except SceneFormatError:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([*check, str(file)]) == EXIT_CHECK_FAILED
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("check failed: bad ")
    else:
        assert json.dumps(write(obj), sort_keys=True) == json.dumps(doc, sort_keys=True)
