"""Malformed code and atlas files end in exit 1 with a message.

Hypothesis mutates a valid code file and the pinned atlas: it drops
keys, changes the type of values, writes odd-width or non-hex words and
duplicates codewords.  analyze, partitions classify and double --atlas
read the results.  It also permutes the 16 coordinates of a witness
code, which keeps it extended 1-perfect but in general takes it out of
doubling coordinates, and runs every command that reads a code on it.
Whatever the input, each command exits 0 or 1, prints "Error:" when it
exits 1 (verify-theorem5 also exits 1 on a failing verdict, which it
prints as FAIL), and raises nothing but SystemExit.
"""

import copy
import gzip
import json
import pathlib

import numpy as np
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from pcl.cli import main
from pcl.ioutil import code_to_json, save_code

REFERENCE_ATLAS = (pathlib.Path(__file__).resolve().parents[1]
                   / "perfbench" / "reference" / "atlas.json.gz")

# edge values first: a few examples should meet each of them
JSON_VALUES = st.sampled_from(
    [None, True, 0, -1, 2 ** 70, 0.5, float("inf"), float("nan"), "", "x",
     "16", [], {}, [1, 2], {"a": 1}]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=4)

BAD_WORDS = st.sampled_from(["", "0", "1", "abc", "1ff", "fffff", "zz",
                             "0x1f", "-2", " 3c", "g0", "ab cd"])

FUZZ = settings(max_examples=30, deadline=None)


def _nodes(doc, at=()):
    """(path, value) for every value in a JSON document, the root first."""
    yield at, doc
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for k, v in items:
        yield from _nodes(v, at + (k,))


def _parent(doc, path):
    for k in path[:-1]:
        doc = doc[k]
    return doc


@st.composite
def mutated(draw, doc):
    """doc after one to three drops, retypes, bad words or duplicates."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        op = draw(st.sampled_from(["drop", "retype", "word", "duplicate"]))
        if op == "drop":
            paths = [p for p, _ in nodes
                     if p and isinstance(_parent(doc, p), dict)]
        elif op == "word":
            paths = [p for p, v in nodes if p and isinstance(v, str)]
        elif op == "duplicate":
            paths = [p for p, v in nodes if isinstance(v, list) and v]
        else:
            paths = [p for p, _ in nodes]
        if not paths:
            continue
        # a depth first, so that the few top-level keys are hit as often
        # as the thousands of codewords
        depth = draw(st.sampled_from(sorted({len(p) for p in paths})))
        path = draw(st.sampled_from([p for p in paths if len(p) == depth]))
        if op == "duplicate":
            words = _parent(doc, path + (0,))
            src = draw(st.integers(0, len(words) - 1))
            words.insert(draw(st.integers(0, len(words))),
                         copy.deepcopy(words[src]))
        elif not path:
            doc = copy.deepcopy(draw(JSON_VALUES))
        elif op == "drop":
            del _parent(doc, path)[path[-1]]
        else:
            # a copy: sampled_from hands out the same list or dict each time
            _parent(doc, path)[path[-1]] = copy.deepcopy(draw(
                BAD_WORDS if op == "word" else JSON_VALUES))
    return doc


def _assert_clean_exit(res, verdict=None):
    """Exit 0, or 1 with "Error:" or with the command's own verdict."""
    assert res.exception is None or isinstance(res.exception, SystemExit), \
        repr(res.exception)
    assert res.exit_code in (0, 1), res.output
    if res.exit_code == 1:
        assert "Error:" in res.output or (verdict and verdict in res.output)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def code_doc(witnesses, fuzz_dir):
    path = str(fuzz_dir / "valid_code.json")
    save_code(path, witnesses[7])
    return json.loads(pathlib.Path(path).read_text())


@pytest.fixture(scope="module")
def atlas_doc():
    with gzip.open(REFERENCE_ATLAS, "rt") as fh:
        return json.load(fh)


@FUZZ
@given(data=st.data())
def test_analyze_survives_mutated_code(code_doc, fuzz_dir, data):
    path = fuzz_dir / "code.json"
    path.write_text(json.dumps(data.draw(mutated(code_doc))))
    _assert_clean_exit(CliRunner().invoke(
        main, ["analyze", str(path), "--out", str(fuzz_dir / "a.json")]))


@FUZZ
@given(data=st.data())
def test_classify_survives_mutated_atlas(atlas_doc, fuzz_dir, data):
    path = fuzz_dir / "atlas_classify.json"
    path.write_text(json.dumps(data.draw(mutated(atlas_doc))))
    _assert_clean_exit(CliRunner().invoke(
        main, ["partitions", "classify", str(path)]))


@FUZZ
@given(data=st.data())
def test_double_survives_mutated_atlas(atlas_doc, fuzz_dir, data):
    path = fuzz_dir / "atlas_double.json"
    path.write_text(json.dumps(data.draw(mutated(atlas_doc))))
    _assert_clean_exit(CliRunner().invoke(
        main, ["double", "--source", "0", "--target", "1",
               "--sigma", "51304276", "--atlas", str(path),
               "--out", str(fuzz_dir / "doubled.json")]))


@FUZZ
@given(data=st.data())
def test_code_readers_survive_permuted_coordinates(witnesses, fuzz_dir, data):
    code = witnesses[data.draw(st.sampled_from(sorted(witnesses)))]
    perm = data.draw(st.permutations(range(16)))
    moved = np.zeros_like(code.words)
    for i, p in enumerate(perm):
        moved |= (code.words >> i & 1) << p
    path = str(fuzz_dir / "permuted.json")
    pathlib.Path(path).write_text(json.dumps(code_to_json(moved, 16)))
    for args in (["analyze", path, "--out", str(fuzz_dir / "p.json")],
                 ["sts-types", path],
                 ["verify-theorem5", path],
                 ["export", path, "--format", "json",
                  "--out", str(fuzz_dir / "g.json")]):
        verdict = " FAIL (" if args[0] == "verify-theorem5" else None
        _assert_clean_exit(CliRunner().invoke(main, args), verdict)
