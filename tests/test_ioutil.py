"""write_json writes exactly what json.dumps(obj, indent=1) writes.

The standard library is the oracle: every artifact object of a pipeline
run and hypothesis-drawn values must come out byte for byte as
json.dumps(obj, indent=1) + "\\n", and what it refuses must raise the
same TypeError.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

import pcl.cli
from pcl import ioutil, partitions
from pcl.ioutil import code_to_json, write_json
from pcl.words import word_hex


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


def _written(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _oracle(obj) -> bytes:
    return (json.dumps(obj, indent=1) + "\n").encode()


def test_pipeline_artifacts_match_the_stdlib(atlas_file, tmp_path,
                                             monkeypatch):
    written = []
    plain = ioutil.write_json

    def recording(path, obj):
        plain(path, obj)
        written.append((path, obj))

    for module in (ioutil, partitions, pcl.cli):
        monkeypatch.setattr(module, "write_json", recording)
    res = CliRunner().invoke(pcl.cli.main, [
        "pipeline", "--out-dir", str(tmp_path), "--atlas", atlas_file,
        "--sample", "100"])
    assert res.exit_code == 0, res.output
    # atlas, six codes, five analyses, five reports and the summary
    assert len(written) == 18
    for path, obj in written:
        assert _written(path) == _oracle(obj), path


KEYS = (st.text() | st.integers() | st.floats(allow_nan=True)
        | st.booleans() | st.none())
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.text() | st.text(st.characters(max_codepoint=0x1F)))
VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20)


@settings(deadline=None, max_examples=200)
@given(VALUES)
@example([True, 1, False, 0, 1.0, None])
@example({-0.0: -0.0, 1e300: [1e300, -1e-300], math.nan: math.inf,
          True: -math.inf, None: "", 7: {}, "é\x00 \U0001F600": []})
@example([[], {}, [[]], [{}], ()])
def test_drawn_values_match_the_stdlib(out_dir, obj):
    path = str(out_dir / "drawn.json")
    write_json(path, obj)
    assert _written(path) == _oracle(obj)


@pytest.mark.parametrize("obj", [
    {1, 2}, np.int64(3), [1, {"a": np.int64(3)}], {"k": frozenset()},
    {(1, 2): 3}, [object()],
], ids=["set", "int64", "nested-int64", "frozenset", "tuple-key", "object"])
def test_refusals_match_the_stdlib(out_dir, obj):
    with pytest.raises(TypeError) as std:
        json.dumps(obj, indent=1)
    path = out_dir / "refused.json"
    with pytest.raises(TypeError) as ours:
        write_json(str(path), obj)
    assert str(ours.value) == str(std.value)
    assert not path.exists()


def test_code_to_json_formats_sorted_hex():
    words = np.array([0xBEEF, 0x0001, 0x8000], dtype=np.uint16)
    for n in (16, 15, 8):
        want = sorted(word_hex(int(w), n) for w in words if w >> n == 0)
        got = code_to_json(words[words < (1 << n)], n)
        assert got == {"length": n, "codewords": want}
    assert code_to_json([5, 3], 7) == {"length": 7, "codewords": ["03", "05"]}
