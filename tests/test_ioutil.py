"""The artifact writers: what write_json refuses, the modes atomic_write
gives, the symlinks it writes through, what a failed write leaves, the
code schema, and UTF-8 whatever the locale.

The artifacts' bytes are pinned in test_cli.py.
"""

import json
import os
import pathlib
import subprocess
import sys

from click.testing import CliRunner
import numpy as np
import pytest

import pcl.cli
from pcl.ioutil import atomic_write, code_to_json, write_json
from pcl.words import word_hex


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("json")


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


@pytest.fixture()
def umask(request):
    """Set the process umask for one test and restore it afterwards."""
    old = os.umask(request.param)
    yield request.param
    os.umask(old)


def _mode(path) -> int:
    return os.stat(path).st_mode & 0o777


@pytest.mark.parametrize("umask", [0o022, 0o077], indirect=True,
                         ids=["022", "077"])
def test_written_files_get_the_mode_open_gives(umask, tmp_path):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}")
    want = _mode(plain)
    path = tmp_path / "a.json"
    write_json(str(path), {})
    assert _mode(path) == want
    os.chmod(path, 0o600)  # overwriting gives the mode of a new file
    write_json(str(path), [])
    assert _mode(path) == want
    out = tmp_path / "codes.json"
    res = CliRunner().invoke(pcl.cli.main, ["perfect-codes", "enumerate",
                                            "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert _mode(out) == want


@pytest.mark.parametrize("exists", [True, False], ids=["existing", "missing"])
def test_a_symlinked_output_is_written_through(tmp_path, exists):
    """As open() does: the link stays and the file it names gets the
    text, whether or not that file existed."""
    real, link = tmp_path / "real.json", tmp_path / "link.json"
    if exists:
        real.write_text("old")
    link.symlink_to("real.json")
    write_json(str(link), {"a": 1})
    assert link.is_symlink() and os.readlink(link) == "real.json"
    assert real.read_text() == '{\n "a": 1\n}\n'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "real.json"]


def test_a_failed_rename_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    target = tmp_path / "out.json"
    target.write_text("old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(str(target), "new")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]  # no .part


def test_json_is_utf8_under_an_ascii_locale(tmp_path, atlas):
    """JSON files are UTF-8 (RFC 8259): an ASCII locale changes neither
    what is read nor what is written."""
    d = atlas.to_json()
    d["classes"][0]["alias"] = "Fano \u00e9"
    path = tmp_path / "atlas.json"
    path.write_bytes(json.dumps(d, ensure_ascii=False).encode("utf-8"))
    script = """if True:
        import sys
        from pcl.ioutil import atomic_write
        atomic_write(sys.argv[2], "Fano \\u00e9\\n")
        from pcl.cli import main
        main(["partitions", "classify", sys.argv[1]])
        """
    res = subprocess.run(
        [sys.executable, "-c", script, str(path), str(tmp_path / "out.txt")],
        text=True, capture_output=True, cwd=tmp_path,
        env=dict(os.environ, LC_ALL="C", PYTHONUTF8="0",
                 PYTHONCOERCECLOCALE="0",
                 PYTHONPATH=str(pathlib.Path(pcl.cli.__file__).parents[1])))
    assert res.returncode == 0, res.stderr + res.stdout
    assert "extended classes: 10 (linear class 0)" in res.stdout
    assert (tmp_path / "out.txt").read_bytes() == "Fano \u00e9\n".encode()
