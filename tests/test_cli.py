"""Command line interface, file formats and the pipeline."""

import gzip
import hashlib
import json
import os
import pathlib
import random
import re
import shutil

import numpy as np
import pytest
from click.testing import CliRunner

import pcl.algebra
import pcl.cli
import pcl.fold
import pcl.sts
from pcl.algebra import kernel_words, rank_of
from pcl.cli import main
from pcl.doubling import Code
from pcl.fold import quotient_graph
from pcl.ioutil import code_to_json, load_code, read_json, save_code
from pcl.partitions import Atlas
from pcl.scan import make_code
from pcl.structure import StructureReport, Verdict
from pcl.words import rank_gf2, sigma_bytes

from code_helpers import occupancy
from graph_helpers import graph_from_json

PINNED_ATLAS = (pathlib.Path(__file__).resolve().parents[1]
                / "perfbench" / "reference" / "atlas.json.gz")


@pytest.fixture(scope="module")
def code_files(witnesses, tmp_path_factory):
    d = tmp_path_factory.mktemp("codes")
    paths = {}
    for kappa in (7, 9, 11):
        p = d / ("k%d.json" % kappa)
        save_code(str(p), witnesses[kappa])
        paths[kappa] = str(p)
    return paths


@pytest.fixture()
def runner():
    return CliRunner()


def test_help(runner):
    res = runner.invoke(main, ["-h"])
    assert res.exit_code == 0
    assert "pipeline" in res.output


def test_perfect_codes_enumerate(runner, tmp_path):
    out = str(tmp_path / "codes.json")
    res = runner.invoke(main, ["perfect-codes", "enumerate", "--out", out])
    assert res.exit_code == 0
    assert "perfect codes of length 7: 240 (30 through zero)" in res.output
    payload = read_json(out)
    assert len(payload) == 240
    assert payload[0]["length"] == 7
    assert len(payload[0]["codewords"]) == 16


def test_partitions_enumerate_extended(runner, tmp_path, atlas, monkeypatch):
    monkeypatch.setattr(pcl.cli, "build_atlas", lambda: atlas)
    out = str(tmp_path / "atlas.json")
    res = runner.invoke(main, ["partitions", "enumerate", "--out", out])
    assert res.exit_code == 0
    assert "length-7 partitions: 27360 in 11 classes" in res.output
    assert "orbit sizes: 30 840 630 5040 5040 420 2520 2520 6720 1680 1920" \
        in res.output
    assert "extended classes: 10 (linear class 0)" in res.output
    assert "merged under extension: 6+7" in res.output
    assert Atlas.load(out).partition7_count == 27360


def test_partitions_enumerate_length7(runner, tmp_path):
    out = str(tmp_path / "classes7.json")
    res = runner.invoke(main,
                        ["partitions", "enumerate", "--length", "7",
                         "--out", out])
    assert res.exit_code == 0
    assert "length-7 partitions: 27360 in 11 classes" in res.output
    # the census's bytes, pinned before the pass moved to code ids
    assert hashlib.sha256(_read_bytes(out)).hexdigest() == (
        "d88253b0b85720d82cf484fad1e2c8c0f819387d99554e83b107279c5908a7aa")
    d = read_json(out)
    assert len(d["classes"]) == 11
    assert d["orbitSizes7"] == [30, 840, 630, 5040, 5040, 420, 2520, 2520,
                                6720, 1680, 1920]
    assert d["classes"][0]["representative"][0]["length"] == 7
    res = runner.invoke(main, ["partitions", "classify", out])
    assert res.exit_code == 0
    assert "length-7 partitions: 27360 in 11 classes" in res.output

    def edited(cid, edit):
        """The census's classes with class cid edited."""
        classes = json.loads(json.dumps(d["classes"]))
        edit(classes[cid])
        return {"classes": classes}

    def swap(c):
        a, b = (comp["codewords"] for comp in c["representative"][:2])
        a[1], b[1] = b[1], a[1]

    # classify checks a length-7 census as Atlas.from_json checks an
    # atlas's, each representative eight perfect codes partitioning the
    # words
    for change, message in [
            ({"partition7Count": 5, "orbitSizes7": [1, 2]},
             "expected each of 0..1"),
            ({"partition7Count": 27359}, "partition7Count 27359 is not the sum"),
            ({"orbitSizes7": [0] + d["orbitSizes7"][1:]}, "positive integer"),
            ({"classes": [dict(c, id=0.0) if c["id"] == 0 else c
                          for c in d["classes"]]},
             "length-7 classes [0.0, 1, 2"),
            (edited(0, lambda c: c.update(representative=[
                {"length": 7, "codewords": ["00"]}])),
             "class 0: components do not partition the words of length 7 "
             "into eight 16-word sets"),
            (edited(3, swap), "class 3: component 0 is not a perfect code: "
             "words 00 and 06 lie at distance 2"),
            (edited(5, lambda c: c["representative"][2].update(length=8)),
             "class 5: expected a length-7 code, got length 8")]:
        with open(out, "w") as fh:
            json.dump(dict(d, **change), fh)
        res = runner.invoke(main, ["partitions", "classify", out])
        _clean_error(res, message)


def test_partitions_classify(runner, atlas_file):
    res = runner.invoke(main, ["partitions", "classify", atlas_file])
    assert res.exit_code == 0
    assert "extended classes: 10 (linear class 0)" in res.output


def test_partitions_classify_rejects_garbage(runner, tmp_path):
    bad = tmp_path / "bad.json"
    for text in (b"{]", b"\xff\xfe{}"):
        bad.write_bytes(text)
        res = runner.invoke(main, ["partitions", "classify", str(bad)])
        assert res.exit_code == 1
        assert "cannot parse" in res.output


def _clean_error(res, message):
    """Exit 1 through click's error path: a message, no traceback."""
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and message in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("args", [
    ["partitions", "classify"],
    ["pipeline", "--sample", "5", "--out-dir", "run", "--atlas"],
], ids=lambda a: a[0])
def test_atlas_without_linear_class_is_rejected(runner, tmp_path, atlas,
                                                args):
    d = atlas.to_json()
    for c in d["classes"]:
        c["linear"] = False
    bad = tmp_path / "no_linear.json"
    bad.write_text(json.dumps(d))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, args + [str(bad)])
    _clean_error(res, "0 classes flagged linear")


def test_partitions_classify_checks_the_census(runner, tmp_path, atlas):
    d = atlas.to_json()
    d["partition7Count"] = "x"
    bad = tmp_path / "bad_count.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, ["partitions", "classify", str(bad)])
    _clean_error(res, "partition7Count 'x' is not the sum 27360")
    # only a length-7 dump skips the atlas checks
    d = atlas.to_json()
    d["classes"][0]["representative"][0]["length"] = 9
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, ["partitions", "classify", str(bad)])
    _clean_error(res, "class 0: expected a length-8 code, got length 9")


def test_non_finite_numbers_are_rejected(runner, tmp_path, atlas,
                                         code_files):
    d = atlas.to_json()
    d["partition7Count"] = float("inf")
    bad = tmp_path / "inf_atlas.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, ["partitions", "classify", str(bad)])
    _clean_error(res, "not an atlas file")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, ["pipeline", "--sample", "5", "--out-dir",
                                   "run", "--atlas", str(bad)])
    _clean_error(res, "cannot read atlas")
    d = read_json(code_files[9])
    d["length"] = float("inf")
    bad = tmp_path / "inf_code.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, ["analyze", str(bad), "--out",
                               str(tmp_path / "a.json")])
    _clean_error(res, "cannot read code")


def test_double_one_code(runner, tmp_path, atlas_file):
    out = str(tmp_path / "code.json")
    res = runner.invoke(main,
                        ["double", "--source", "0", "--target", "0",
                         "--sigma", "45026713", "--atlas", atlas_file,
                         "--out", out])
    assert res.exit_code == 0
    assert "code (0,0,45026713): rank=12 kernelDim=9" in res.output
    code = load_code(out)
    assert len(code.words) == 2048
    assert code.sigma == bytes((4, 5, 0, 2, 6, 7, 1, 3))


def test_double_classifies_from_scratch_without_an_atlas(runner, tmp_path):
    pinned = tmp_path / "atlas.json"
    with gzip.open(PINNED_ATLAS, "rb") as fh:
        pinned.write_bytes(fh.read())
    args = ["double", "--source", "0", "--target", "0", "--sigma", "45026713",
            "--out"]
    res = runner.invoke(main, args + [str(tmp_path / "pinned.json"),
                                      "--atlas", str(pinned)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(main, args + [str(tmp_path / "scratch.json")])
    assert res.exit_code == 0, res.output
    note = "no --atlas given; classifying partitions from scratch"
    assert note in res.stderr and note not in res.stdout
    assert _read_bytes(tmp_path / "scratch.json") == \
        _read_bytes(tmp_path / "pinned.json")


def test_double_scan_sigma(runner, tmp_path, atlas_file):
    out = str(tmp_path / "rows.json")
    res = runner.invoke(main,
                        ["double", "--source", "0", "--target", "0",
                         "--scan-sigma", "--sample", "3", "--seed", "0",
                         "--atlas", atlas_file, "--out", out])
    assert res.exit_code == 0
    lines = [l for l in res.output.splitlines() if l.startswith("sigma=")]
    assert len(lines) == 3
    assert all(re.fullmatch(r"sigma=\d{8} rank=\d+ kernelDim=\d+", l)
               for l in lines)
    assert lines[0].startswith("sigma=24365017 ")
    rows = read_json(out)
    assert len(rows) == 3
    assert set(rows[0]) == {"sourceClass", "targetClass", "sigma",
                            "rank", "kernelDim"}


def test_double_scan_sigma_rows_are_pinned(runner, tmp_path, atlas_file):
    out = tmp_path / "rows.json"
    res = runner.invoke(main,
                        ["double", "--source", "0", "--target", "1",
                         "--scan-sigma", "--sample", "3", "--seed", "5",
                         "--atlas", atlas_file, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert res.output == ("sigma=14237560 rank=14 kernelDim=7\n"
                          "sigma=01364725 rank=14 kernelDim=7\n"
                          "sigma=26371054 rank=13 kernelDim=7\n"
                          "wrote %s\n" % out)
    assert out.read_bytes() == b"""\
[
 {
  "sourceClass": 0,
  "targetClass": 1,
  "sigma": "14237560",
  "rank": 14,
  "kernelDim": 7
 },
 {
  "sourceClass": 0,
  "targetClass": 1,
  "sigma": "01364725",
  "rank": 14,
  "kernelDim": 7
 },
 {
  "sourceClass": 0,
  "targetClass": 1,
  "sigma": "26371054",
  "rank": 13,
  "kernelDim": 7
 }
]
"""


def test_double_scan_sigma_exhaustive(runner, tmp_path, atlas, atlas_file):
    out = str(tmp_path / "rows.json")
    res = runner.invoke(main,
                        ["double", "--source", "0", "--target", "3",
                         "--scan-sigma", "--atlas", atlas_file, "--out", out])
    assert res.exit_code == 0
    rows = read_json(out)
    assert len(rows) == 40320
    assert len({r["sigma"] for r in rows}) == 40320
    for r in random.Random(0).sample(rows, 50):
        code = make_code(atlas, 0, 3, sigma_bytes(r["sigma"]))
        assert (r["rank"], r["kernelDim"]) == (
            rank_of(code), rank_gf2(kernel_words(code))), r


@pytest.mark.parametrize("change", [
    lambda comp: comp["codewords"].__setitem__(0, "1ff"),
    lambda comp: comp.update(length="eight"),
], ids=["codeword-too-wide", "length-not-a-number"])
def test_double_rejects_a_malformed_atlas_component(runner, tmp_path, atlas,
                                                    change):
    d = atlas.to_json()
    change(d["classes"][3]["representative"][0])
    bad = tmp_path / "bad_component.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, ["double", "--source", "3", "--target", "0",
                               "--sigma", "01234567", "--atlas", str(bad),
                               "--out", str(tmp_path / "x.json")])
    _clean_error(res, "cannot read atlas")


@pytest.mark.parametrize("change", [
    lambda comp: comp["codewords"].pop(),
    lambda comp: comp.update(length=8.7),
], ids=["component-of-15-words", "fractional-length"])
@pytest.mark.parametrize("args", [
    lambda path, out: ["double", "--source", "0", "--target", "0", "--sigma",
                       "01234567", "--atlas", path, "--out", out],
    lambda path, out: ["partitions", "classify", path],
], ids=["double", "classify"])
def test_a_malformed_class_is_rejected_at_load(runner, tmp_path, change,
                                               args):
    with gzip.open(PINNED_ATLAS, "rt") as fh:
        d = json.load(fh)
    change(next(c for c in d["classes"] if c["id"] == 3)
           ["representative"][0])
    bad = tmp_path / "bad_class.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, args(str(bad), str(tmp_path / "x.json")))
    _clean_error(res, "class 3: ")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("args", [
    lambda path, out: ["partitions", "classify", path],
    lambda path, out: ["double", "--source", "3", "--target", "0", "--sigma",
                       "01234567", "--atlas", path, "--out", out],
    lambda path, out: ["pipeline", "--pair", "0,3", "--atlas", path,
                       "--out-dir", out],
], ids=["classify", "double", "pipeline"])
def test_a_class_of_non_perfect_components_is_rejected(runner, tmp_path,
                                                       args):
    with gzip.open(PINNED_ATLAS, "rt") as fh:
        d = json.load(fh)
    first, second = (comp["codewords"] for comp in next(
        c for c in d["classes"] if c["id"] == 3)["representative"][:2])
    first[0], second[0] = second[0], first[0]
    bad = tmp_path / "swapped.json"
    bad.write_text(json.dumps(d))
    res = runner.invoke(main, args(str(bad), str(tmp_path / "out")))
    _clean_error(res, "class 3: component 0 is not an extended perfect code")
    assert sorted(os.listdir(tmp_path)) == ["swapped.json"]


def test_double_usage_errors(runner, atlas_file):
    res = runner.invoke(main, ["double", "--source", "0", "--target", "0",
                               "--atlas", atlas_file])
    assert res.exit_code == 2
    assert "either --sigma or --scan-sigma" in res.output
    res = runner.invoke(main, ["double", "--source", "0", "--target", "0",
                               "--sigma", "0123456x", "--atlas", atlas_file,
                               "--out", "x.json"])
    assert res.exit_code == 2


_DOUBLE_SCAN = ["double", "--source", "1", "--target", "3", "--scan-sigma"]


@pytest.mark.parametrize("args, option", [
    (_DOUBLE_SCAN + ["--seed", "-1"], "--seed"),
    (_DOUBLE_SCAN + ["--sample", "-2"], "--sample"),
    (["pipeline", "--seed", "-1"], "--seed"),
    (["pipeline", "--sample", "0"], "--sample"),
], ids=["double-seed", "double-sample", "pipeline-seed", "pipeline-sample"])
def test_seeds_and_sample_sizes_are_validated(runner, tmp_path, atlas_file,
                                               args, option):
    out_dir = tmp_path / "run"
    if args[0] == "pipeline":
        args = args + ["--out-dir", str(out_dir)]
    res = runner.invoke(main, args + ["--atlas", atlas_file])
    assert res.exit_code == 2, res.output
    assert option in res.output
    assert not out_dir.exists()


def test_analyze(runner, tmp_path, code_files):
    out = str(tmp_path / "a.json")
    res = runner.invoke(main, ["analyze", code_files[9], "--out", out])
    assert res.exit_code == 0
    first = json.loads(res.output.splitlines()[0])
    assert first == {"rank": 12, "kernelDim": 9, "cosetCount": 4}
    payload = read_json(out)
    assert payload["sourceClass"] == 0
    assert payload["sigma"] == "45026713"


def test_analyze_default_out(runner, tmp_path, witnesses):
    p = tmp_path / "c.json"
    save_code(str(p), witnesses[8])
    res = runner.invoke(main, ["analyze", str(p)])
    assert res.exit_code == 0
    side = tmp_path / "c.analysis.json"
    assert side.exists()
    assert read_json(str(side))["kernelDim"] == 8


def _even_words(n):
    """The n smallest even-weight 16-bit words: right parity, no tiling."""
    return [w for w in range(1 << 16) if bin(w).count("1") % 2 == 0][:n]


MALFORMED = {
    "not-json": "{not json",
    "5-words": json.dumps({"length": 16, "codewords": [
        "%04x" % w for w in _even_words(5)]}),
    "2048-not-perfect": json.dumps({"length": 16, "codewords": [
        "%04x" % w for w in _even_words(2048)]}),
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
@pytest.mark.parametrize("args", [
    ["analyze"], ["sts-types"], ["verify-theorem5"],
    ["export", "--format", "json", "--out", "g.json"],
], ids=lambda a: a[0])
def test_rejects_malformed_code(runner, tmp_path, args, text):
    p = tmp_path / "broken.json"
    p.write_text(text)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, [args[0], str(p)] + args[1:])
        assert not os.listdir(".")
    assert res.exit_code == 1, res.output
    assert "cannot read code" in res.output
    assert not os.path.exists(tmp_path / "broken.analysis.json")


@pytest.mark.parametrize("key, value", [
    ("sourceClass", "abc"), ("targetClass", -1), ("sourceClass", True),
    ("targetClass", 2.0), ("sourceClass", None)],
    ids=["string", "negative", "bool", "float", "null"])
@pytest.mark.parametrize("args", [
    ["analyze"], ["sts-types"], ["verify-theorem5"],
    ["export", "--format", "json", "--out", "g.json"],
], ids=lambda a: a[0])
def test_rejects_a_class_id_that_is_not_one(runner, tmp_path, witnesses,
                                            args, key, value):
    p = tmp_path / "bad-class.json"
    save_code(str(p), witnesses[9])
    d = read_json(str(p))
    d[key] = value
    p.write_text(json.dumps(d))
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, [args[0], str(p)] + args[1:])
        assert not os.listdir(".")
    assert res.exit_code == 1, res.output
    assert "cannot read code" in res.output
    assert "%s %r is not a class id" % (key, value) in res.output
    assert not os.path.exists(tmp_path / "bad-class.analysis.json")


def _forbid(monkeypatch, owner, *names):
    """Each named callable of owner fails the test when called."""
    def never(*args, **kwargs):
        raise AssertionError("the command ran")
    for name in names:
        monkeypatch.setattr(owner, name, never)


@pytest.mark.parametrize("args", [
    ["perfect-codes", "enumerate", "--out"],
    ["partitions", "enumerate", "--length", "7", "--out"],
    ["double", "--source", "0", "--target", "0", "--sigma", "01234567",
     "--out"],
    ["analyze", "CODE", "--out"],
    ["sts-types", "CODE", "--csv"],
    ["verify-theorem5", "CODE", "--report"],
    ["export", "CODE", "--format", "json", "--out"],
], ids=lambda a: a[0])
def test_an_output_in_a_missing_directory_is_a_usage_error(
        runner, tmp_path, code_files, monkeypatch, args):
    _forbid(monkeypatch, pcl.cli, "build_atlas", "enumerate_partitions7",
            "enumerate_perfect7", "load_code")
    missing = tmp_path / "no" / "such"
    res = runner.invoke(main, [code_files[9] if a == "CODE" else a
                               for a in args] + [str(missing / "x.out")])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '%s'" % args[-1] in res.output
    assert "directory %s does not exist" % missing in res.output
    assert not (tmp_path / "no").exists()
    # a symlink is written through, so its target's directory must exist
    link = tmp_path / "link.out"
    link.symlink_to(missing / "x.out")
    res = runner.invoke(main, [code_files[9] if a == "CODE" else a
                               for a in args] + [str(link)])
    assert res.exit_code == 2, res.output
    assert "directory %s does not exist" % missing in res.output
    assert not (tmp_path / "no").exists()


_PIPELINE = ["pipeline", "--sample", "5", "--out-dir", "run"]
_DOUBLE = ["double", "--source", "0", "--target", "0"]
_BAD_OPTIONS = {
    "pair-not-ints": (_PIPELINE + ["--pair", "a,b"],
                      "Invalid value for '--pair': expected LEFT,RIGHT"),
    "pair-of-three": (_PIPELINE + ["--pair", "0,1,2"],
                      "Invalid value for '--pair': expected LEFT,RIGHT"),
    "sigma-not-digits": (_DOUBLE + ["--sigma", "0123456x", "--out", "c.json"],
                         "Invalid value for '--sigma': not a permutation"),
    "sigma-repeats": (_DOUBLE + ["--sigma", "01234566", "--out", "c.json"],
                      "Invalid value for '--sigma': not a permutation"),
    "no-mode": (_DOUBLE + ["--out", "c.json"],
                "either --sigma or --scan-sigma is required"),
    "both-modes": (_DOUBLE + ["--sigma", "01234567", "--scan-sigma",
                              "--out", "c.json"], "not both"),
    "sigma-without-out": (_DOUBLE + ["--sigma", "01234567"],
                          "--out is required when building one code"),
    "sigma-with-sample": (_DOUBLE + ["--sigma", "01234567", "--sample", "5",
                                     "--out", "c.json"],
                          "--sample applies to --scan-sigma only"),
    "sigma-with-seed": (_DOUBLE + ["--sigma", "01234567", "--seed", "3",
                                   "--out", "c.json"],
                        "--seed applies to --scan-sigma only"),
    # an explicit --seed is refused even at its default value
    "sigma-with-seed-0": (_DOUBLE + ["--sigma", "01234567", "--seed", "0",
                                     "--out", "c.json"],
                          "--seed applies to --scan-sigma only"),
    # class ids are checked against the atlas, so it is loaded for these
    "pair-out-of-range": (_PIPELINE + ["--pair", "0,42"],
                          "Invalid value for '--pair': class 42 out of "
                          "range 0..9"),
    "second-pair-negative": (_PIPELINE + ["--pair", "0,1", "--pair", "-1,0"],
                             "Invalid value for '--pair': class -1 out of "
                             "range 0..9"),
    "source-out-of-range": (["double", "--source", "12", "--target", "0",
                             "--sigma", "01234567", "--out", "c.json"],
                            "Invalid value for '--source': class 12 out of "
                            "range 0..9"),
    "target-out-of-range": (["double", "--source", "0", "--target", "10",
                             "--scan-sigma", "--out", "c.json"],
                            "Invalid value for '--target': class 10 out of "
                            "range 0..9"),
}


@pytest.mark.parametrize("args, message", _BAD_OPTIONS.values(),
                         ids=_BAD_OPTIONS.keys())
def test_a_bad_option_is_a_usage_error_before_any_work(
        runner, tmp_path, atlas_file, monkeypatch, args, message):
    _forbid(monkeypatch, pcl.cli, "build_atlas")
    if "out of range" not in message:  # no atlas is needed to refuse these
        _forbid(monkeypatch, Atlas, "load")
    with runner.isolated_filesystem(temp_dir=tmp_path):
        res = runner.invoke(main, args + ["--atlas", atlas_file])
        assert not os.listdir(".")  # no --out-dir, atlas.json or --out
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_sts_types_rejects_a_replaced_word(runner, tmp_path, witnesses):
    code = witnesses[8]
    words = code.words.tolist()
    occ = occupancy(code.words)
    words[5] = next(w for w in _even_words(1 << 15) if not occ[w])
    p = tmp_path / "replaced.json"
    p.write_text(json.dumps({"length": 16, "codewords": [
        "%04x" % w for w in sorted(words)]}))
    res = runner.invoke(main, ["sts-types", str(p)])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "cannot read code" in res.output
    assert "Traceback" not in res.output


def test_sts_types(runner, tmp_path, code_files):
    csv = str(tmp_path / "types.csv")
    res = runner.invoke(main, ["sts-types", code_files[9], "--csv", csv])
    assert res.exit_code == 0
    vlines = [l for l in res.output.splitlines() if l.startswith("vertex ")]
    assert len(vlines) == 4
    assert all(l.endswith(" " + "2" * 16) for l in vlines)
    assert "homogeneous: True (constant)" in res.output
    assert "warning" not in res.output
    rows = pathlib.Path(csv).read_text().splitlines()
    assert rows[0] == "vertex,representative,types"
    assert len(rows) == 5
    assert rows[1].endswith(",%s" % ("2" * 16))


def test_sts_types_mixed(runner, code_files):
    res = runner.invoke(main, ["sts-types", code_files[7]])
    assert res.exit_code == 0
    vlines = [l for l in res.output.splitlines() if l.startswith("vertex ")]
    assert len(vlines) == 16
    assert "homogeneous: False" in res.output
    chars = {c for l in vlines for c in l.split()[-1]}
    assert chars == {"3", "8", "g"}


def test_sts_types_warns_of_untabulated_systems(runner, tmp_path, atlas):
    p = tmp_path / "k6.json"
    save_code(str(p), make_code(atlas, 0, 3, sigma_bytes("24365017")))
    res = runner.invoke(main, ["sts-types", str(p)])
    assert res.exit_code == 0, res.output
    vlines = [l for l in res.output.splitlines() if l.startswith("vertex ")]
    assert len(vlines) == 32  # kappa 6: 2048 >> 6 cosets
    assert sum(l.count("?") for l in vlines) == 128
    assert ("warning: 128 punctured systems match no signature in the "
            "type table (rendered ?)") in res.output


def test_verify_theorem5_pass(runner, tmp_path, code_files):
    rep = str(tmp_path / "report.json")
    res = runner.invoke(main, ["verify-theorem5", code_files[9],
                               "--report", rep])
    assert res.exit_code == 0
    assert "kappa=9 pass (20 exact, 5 relabeled, 0 spectrum, 0 fail)" \
        in res.output
    d = read_json(rep)
    assert d["passed"] is True
    assert d["kappa"] == 9


def test_verify_theorem5_fail(runner, code_files):
    res = runner.invoke(main, ["verify-theorem5", code_files[7]])
    assert res.exit_code == 1
    assert "kappa=7 FAIL (32 exact, 112 relabeled, 8 spectrum, 24 fail)" \
        in res.output
    assert "  fail " in res.output


def test_verify_theorem5_cuts_a_long_expectation(runner, code_files,
                                                 monkeypatch):
    expected = "".join("%02d," % i for i in range(30))
    failing = Verdict("link(0,1)", "fail", expected, "3 left-half labels")
    monkeypatch.setattr(pcl.cli, "report_stage", lambda code, path:
                        StructureReport(7, (failing,), np.zeros((1, 1))))
    res = runner.invoke(main, ["verify-theorem5", code_files[7]])
    assert res.exit_code == 1
    line, = [l for l in res.output.splitlines() if l.startswith("  fail ")]
    shown = expected[:61] + "..."
    assert len(expected) > 64 and len(shown) == 64
    assert line == ("  fail link(0,1): expected %s, observed 3 left-half "
                    "labels" % shown)


def test_verify_theorem5_out_of_range(runner, code_files):
    res = runner.invoke(main, ["verify-theorem5", code_files[11]])
    assert res.exit_code == 1
    assert "kernel dimensions 5..9, got 11" in res.output


def test_verify_theorem5_rejects_a_code_outside_doubling_coordinates(
        runner, tmp_path, witnesses):
    # the kappa=5 witness with coordinates 0 and 8 swapped is extended
    # 1-perfect, but its left halves are no longer all even
    words = witnesses[5].words
    swapped = words & 0xFEFE | (words & 1) << 8 | (words >> 8) & 1
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(code_to_json(swapped, 16)))
    res = runner.invoke(main, ["verify-theorem5", str(path)])
    _clean_error(res, "label 0186 has odd left support")
    assert "not a code in doubling coordinates" in res.output


def test_fano_dump(runner):
    res = runner.invoke(main, ["fano", "dump"])
    assert res.exit_code == 0
    assert re.search(r"^X\s+7\s+0123 ", res.output, re.M)
    assert "registry: 74 tags" in res.output
    assert re.search(r"^1_a\s+1_3\^5\s+01 23 45 67$", res.output, re.M)


def test_export_json_roundtrip(runner, tmp_path, code_files, witnesses):
    out = str(tmp_path / "g.json")
    res = runner.invoke(main, ["export", code_files[9], "--format", "json",
                               "--out", out])
    assert res.exit_code == 0
    reps, labels, mult, sts = graph_from_json(read_json(out))
    g = quotient_graph(witnesses[9])
    assert np.array_equal(mult, g.mult)
    assert labels == g.labels
    assert sts == ["2" * 16] * 4


def test_export_json_without_sts(runner, tmp_path, code_files):
    out = str(tmp_path / "g.json")
    res = runner.invoke(main, ["export", code_files[9], "--format", "json",
                               "--out", out, "--no-sts"])
    assert res.exit_code == 0
    assert graph_from_json(read_json(out))[3] is None


def test_export_dot_and_csv(runner, tmp_path, code_files):
    dot = str(tmp_path / "g.dot")
    res = runner.invoke(main, ["export", code_files[9], "--format", "dot",
                               "--out", dot])
    assert res.exit_code == 0
    text = pathlib.Path(dot).read_text()
    assert text.startswith("graph fold {")
    assert text.endswith("}\n")
    assert "2222222222222222" in text
    csv = str(tmp_path / "g.csv")
    res = runner.invoke(main, ["export", code_files[9], "--format", "csv",
                               "--out", csv])
    assert res.exit_code == 0
    rows = pathlib.Path(csv).read_text().splitlines()
    assert len(rows) == 4
    assert rows[0].split(",")[0] == "44"


@pytest.fixture(scope="module")
def pipeline_runs(atlas_file, tmp_path_factory):
    """Two identical pipeline runs: (out_dir, result) each."""
    runs = []
    for name in ("a", "b"):
        d = str(tmp_path_factory.mktemp("pipeline") / name)
        res = CliRunner().invoke(main, ["pipeline", "--out-dir", d,
                                        "--atlas", atlas_file,
                                        "--sample", "60", "--seed", "0"])
        runs.append((d, res))
    return runs


def test_pipeline_end_to_end(pipeline_runs):
    d1, res = pipeline_runs[0]
    assert res.exit_code == 0, res.output
    for kappa in (5, 6, 7, 8, 9):
        assert "[scan] kappa=%d from classes" % kappa in res.output
        for stem in ("code_k%d.json", "analysis_k%d.json", "sts_k%d.csv",
                     "report_k%d.json"):
            assert os.path.exists(os.path.join(d1, stem % kappa))
    assert "[scan] linear baseline kappa=11" in res.output
    assert "[summary] wrote" in res.output
    summary = read_json(os.path.join(d1, "summary.json"))
    assert sorted(summary["found"]) == ["5", "6", "7", "8", "9"]
    assert summary["found"]["9"]["passed"] is True
    assert summary["found"]["5"]["passed"] is False
    assert summary["found"]["5"]["untabulatedTypes"] == 0
    assert summary["linear"]["kernelDim"] == 11
    assert Atlas.load(os.path.join(d1, "atlas.json")).partition7_count == 27360


def test_pipeline_reports_kernel_dimensions_it_did_not_find(
        runner, tmp_path, atlas_file):
    d = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--pair", "0,0", "--sample", "3",
                               "--atlas", atlas_file, "--out-dir", str(d)])
    assert res.exit_code == 0, res.output
    assert ("[scan] no code found for kappa in [5, 6, 7, 9] within 3 "
            "permutations per pair") in res.output
    assert sorted(os.listdir(d)) == [
        "analysis_k8.json", "atlas.json", "code_k8.json", "code_linear.json",
        "report_k8.json", "sts_k8.csv", "summary.json"]
    assert list(read_json(str(d / "summary.json"))["found"]) == ["8"]


def test_a_second_pipeline_run_removes_the_first_runs_kappa_files(
        runner, tmp_path, atlas_file, pipeline_runs):
    d = tmp_path / "run"
    shutil.copytree(pipeline_runs[0][0], d)
    # a kappa without prescriptions and a foreign file are not its own
    for name in ("code_k4.json", "notes.txt"):
        (d / name).write_text("kept")
    res = runner.invoke(main, ["pipeline", "--pair", "0,0", "--sample", "3",
                               "--atlas", atlas_file, "--out-dir", str(d)])
    assert res.exit_code == 0, res.output
    assert sorted(os.listdir(d)) == [
        "analysis_k8.json", "atlas.json", "code_k4.json", "code_k8.json",
        "code_linear.json", "notes.txt", "report_k8.json", "sts_k8.csv",
        "summary.json"]
    assert list(read_json(str(d / "summary.json"))["found"]) == ["8"]


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_pipeline_is_deterministic(pipeline_runs):
    (d1, r1), (d2, r2) = pipeline_runs
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert r1.output.replace(d1, "@") == r2.output.replace(d2, "@")
    names = sorted(os.listdir(d1))
    assert names == sorted(os.listdir(d2))
    for name in names:
        assert _read_bytes(os.path.join(d1, name)) == \
            _read_bytes(os.path.join(d2, name)), name


# sha256 of every artifact of the --sample 60 --seed 0 run: a change to
# any artifact's layout or content fails here
PIPELINE_SHA256 = {
    "analysis_k5.json": "623e2748f1aad0c303d8fa78a72fdec9803ce96aff961dc5f46e1c0c75fbb57b",
    "analysis_k6.json": "14578cc684051f1a877f9bb7aa32fe48e440b11caa023cb3836363ef4acbcdd5",
    "analysis_k7.json": "6cee8ab5915a48d973d308583b62cd41136c6720a8cc9811248c44bfa0170d68",
    "analysis_k8.json": "80741c6c8e7f0bd80b3b4620bf5bae17ce0ae13a8b08c958aafc52bc2248a108",
    "analysis_k9.json": "20d9624fc6bf1a8896fb59ab12687b0aff06917c9120d6dbe7ffd22b003f648b",
    "atlas.json": "00ff84e58415bfcb90a3e5dce42d10b7ba26d33c6e4925a917b8af6c0bec4152",
    "code_k5.json": "e1bccef892baa96eeac7f1f66b8177bfa6d645d30c29a79d835a9c3ca08c18b8",
    "code_k6.json": "69f841460f29d0acf15551c3cecbc738ff1e163504da442b220c33971a82aa3f",
    "code_k7.json": "eaf3b1b7e1ecb3dbc364eb9ee34c9a9085a8c1f1a9ecf698994382e9934d6dea",
    "code_k8.json": "9135b5e22e425b133e7b07a1a68856a2c8a73288aad6558605f59081d66f7302",
    "code_k9.json": "0787da8c0b2f8c34d3a3860b4d06696a6d6b168d497d3c20b290e9b96334c1cc",
    "code_linear.json": "ef60913a7c6eb8b6140ffb14e87e7a4170be0b1935410801796c664b4fab8cc3",
    "report_k5.json": "aa04b291625b7482e0c44113adcb4f95bbb27db5db4d35a8c37d48e3419b37bd",
    "report_k6.json": "ebb8eaced86cdc27ee7eb63f23a6f4c30265d0cd8919bc653343d6fe4b9bc4d4",
    "report_k7.json": "2963548d9bf1d475b0eb042ca3b290c3e2445555849b55fb74384d5a7b266d6c",
    "report_k8.json": "9aea81a02a026b0f867f96a2e483208e5dfc3f0d1f08bbb47a26f557ac94f195",
    "report_k9.json": "1dbf630b180ba38a10294e9ae5b4f134f5f376636af2493d8ae681037d9e5c1d",
    "sts_k5.csv": "fc6d6bcd0c36b30d77dc1c80e2548f081bc666162aff65f903c2a1cc5543ff59",
    "sts_k6.csv": "db41cb89b46caa6d8839ecf26bcaf43a0d0eadd8c42dc520d7a4d9b6a68dfd56",
    "sts_k7.csv": "27e49a25355c814400c74972a2c19f5996748867f85c9b0735f9e843a6dc8e5d",
    "sts_k8.csv": "f74905b8f9429ab49c52d8dbe4f6ddce023ca7b71a87987135a8f4ba052b5fdd",
    "sts_k9.csv": "70c83b6692d86e37ab4e516b28a357feb532cc09f843556173229cba00cb66b9",
    "summary.json": "3393b003547f9fa6bc8499e41a4a776d047d4f591903e47b0b3fcc079da870d9",
}


def test_pipeline_artifacts_are_pinned(pipeline_runs):
    d, res = pipeline_runs[0]
    assert res.exit_code == 0, res.output
    assert sorted(os.listdir(d)) == sorted(PIPELINE_SHA256)
    for name, digest in PIPELINE_SHA256.items():
        assert hashlib.sha256(_read_bytes(os.path.join(d, name))).hexdigest() \
            == digest, name


# stdout of the --sample 60 --seed 0 run, its output directory masked
PIPELINE_STDOUT = """\
[partitions] length-7 partitions: 27360 in 11 classes
[partitions] orbit sizes: 30 840 630 5040 5040 420 2520 2520 6720 1680 1920
[partitions] extended classes: 10 (linear class 0)
[partitions] merged under extension: 6+7
[scan] linear baseline kappa=11, structure check skipped
[scan] kappa=5 from classes (1,3) sigma=47650123
[analyze] kappa=5 rank=13 cosets=64
[sts-types] kappa=5: 64 vertices, 5 distinct tuples
[verify] kappa=5 FAIL (128 exact, 128 relabeled, 0 spectrum, 1472 fail)
[scan] kappa=6 from classes (0,3) sigma=36250417
[analyze] kappa=6 rank=13 cosets=32
[sts-types] kappa=6: 32 vertices, 4 distinct tuples
[verify] kappa=6 FAIL (64 exact, 384 relabeled, 48 spectrum, 32 fail)
[scan] kappa=7 from classes (0,1) sigma=24365017
[analyze] kappa=7 rank=13 cosets=16
[sts-types] kappa=7: 16 vertices, 3 distinct tuples
[verify] kappa=7 FAIL (32 exact, 112 relabeled, 8 spectrum, 24 fail)
[scan] kappa=8 from classes (0,0) sigma=24365017
[analyze] kappa=8 rank=13 cosets=8
[sts-types] kappa=8: 8 vertices, 1 distinct tuples
[verify] kappa=8 pass (45 exact, 8 relabeled, 0 spectrum, 0 fail)
[scan] kappa=9 from classes (0,0) sigma=47650123
[analyze] kappa=9 rank=12 cosets=4
[sts-types] kappa=9: 4 vertices, 1 distinct tuples
[verify] kappa=9 pass (20 exact, 5 relabeled, 0 spectrum, 0 fail)
[summary] wrote @/summary.json
"""


def test_pipeline_stdout_is_pinned(pipeline_runs):
    d, res = pipeline_runs[0]
    assert res.exit_code == 0, res.output
    assert res.output.replace(d, "@") == PIPELINE_STDOUT


# sha256 of `pcl export` of the run's kappa 5 and 9 codes, per format,
# with and without --sts; csv has no vertex labels, so both are equal
EXPORT_SHA256 = {
    (5, "json", True): "1b1bdd056b299e86b20f1ed91f20074a04e9a5341efe815be4a0471a98c96385",
    (5, "json", False): "627f00fedb40f1d6ee2b3e7386d136566eda9078668e77cd5a4eafd2de130a81",
    (5, "dot", True): "0f609ab7ff7cc57fea0b02cd7a38eb8c45c3b4d506e4685ff37b4107df131896",
    (5, "dot", False): "6667ff925eb870f3ccdca1ad59dabf9f2b2f59dec6028806d93cddd2680b2c95",
    (5, "csv", True): "259ea6dd1fab7b3d529025dc2ebec779818d9205f70ba02d2f8a0edf4e102891",
    (5, "csv", False): "259ea6dd1fab7b3d529025dc2ebec779818d9205f70ba02d2f8a0edf4e102891",
    (9, "json", True): "e968ab86b649545cb45989950773e4cdec95ac40a255f3ea4f717a62589c29b3",
    (9, "json", False): "38e7eefe0670a9c0bcca8bab02e2939050853206984f3f368b724026d672df36",
    (9, "dot", True): "f5948a19a5646a6e7eaee1ac3f767cd72d26477708c37c27e1a15f6419edfcc8",
    (9, "dot", False): "9e7739ffe0ad07cb2eb5679def7b9a5b3b241102cd2fee56d5b1d27b2b1f7cad",
    (9, "csv", True): "bb15f4ef3a21dd821e1cc9a62e46a75834a53b2adcc5f63a1be11c31094a0ebb",
    (9, "csv", False): "bb15f4ef3a21dd821e1cc9a62e46a75834a53b2adcc5f63a1be11c31094a0ebb",
}


def test_exports_are_pinned(runner, tmp_path, pipeline_runs):
    d, res = pipeline_runs[0]
    assert res.exit_code == 0, res.output
    for (kappa, fmt, with_sts), digest in EXPORT_SHA256.items():
        out = str(tmp_path / ("g.%s" % fmt))
        res = runner.invoke(main, [
            "export", os.path.join(d, "code_k%d.json" % kappa), "--format",
            fmt, "--out", out, "--sts" if with_sts else "--no-sts"])
        assert res.exit_code == 0, res.output
        assert hashlib.sha256(_read_bytes(out)).hexdigest() == digest, \
            (kappa, fmt, with_sts)


def test_subcommands_reproduce_pipeline_artifacts(runner, tmp_path,
                                                  pipeline_runs):
    d, res = pipeline_runs[0]
    assert res.exit_code == 0, res.output
    found = read_json(os.path.join(d, "summary.json"))["found"]
    for kappa in (5, 6, 7, 8, 9):
        code = os.path.join(d, "code_k%d.json" % kappa)
        verdict = 0 if found[str(kappa)]["passed"] else 1
        for args, name, status in (
                (["analyze", code, "--out"], "analysis_k%d.json", 0),
                (["sts-types", code, "--csv"], "sts_k%d.csv", 0),
                (["verify-theorem5", code, "--report"], "report_k%d.json",
                 verdict)):
            name %= kappa
            out = str(tmp_path / name)
            res = runner.invoke(main, args + [out])
            assert res.exit_code == status, res.output
            assert _read_bytes(out) == _read_bytes(os.path.join(d, name)), name


def test_kernel_is_computed_once_per_code(witnesses, tmp_path, monkeypatch):
    calls, decompositions = [], []
    compute = pcl.algebra.kernel_words
    monkeypatch.setattr(pcl.algebra, "kernel_words",
                        lambda code: calls.append(code) or compute(code))
    decompose = pcl.algebra.cosets
    for module in (pcl.algebra, pcl.fold):
        monkeypatch.setattr(module, "cosets", lambda code, basis:
                            decompositions.append(code)
                            or decompose(code, basis))
    w = witnesses[8]
    code = Code(w.words.copy(), w.left, w.right, w.sigma)
    assert pcl.sts.fully_tabulated(code)
    assert pcl.cli.analysis_stage(code, str(tmp_path / "a.json"))["kernelDim"] == 8
    pcl.cli.types_stage(code, None)
    pcl.cli.report_stage(code, None)
    assert calls == [code]
    assert decompositions == [code]
