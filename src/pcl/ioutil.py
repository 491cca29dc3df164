"""Shared persistence helpers for the CLI commands.

All writes go through a temp file plus atomic rename so failed runs
never leave partial artifacts, and the file gets the mode open() would
give it.  Every JSON artifact is written by write_json, so its layout,
json.dumps(obj, indent=1) plus a newline, is decided in one place.
Codes use one JSON schema everywhere, written by code_to_json and read
by code_from_json: {"length": n, "codewords": [hex, ...]} with
codewords sorted ascending, plus optional provenance keys for doubled
codes.  Atlas components and the length-7 census dumps use it too.
Loaded codes are checked to be extended 1-perfect before use, by
building their neighbour table (Code.neighbours).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .doubling import Code
from .words import parse_word, sigma_bytes, sigma_str, word_hex


def atomic_write(path: str, text: str) -> None:
    """Write text to path through a temp file in the same directory.

    A symlinked path is written through, as open(path, "w") does: the
    file the link resolves to is replaced, not the link.  mkstemp makes
    the temp file owner-only; before the rename it gets 0o666 less the
    umask, the mode open(path, "w") gives a new file.
    """
    path = os.path.realpath(path)
    d = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        umask = os.umask(0)  # read by setting; restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Write obj as a JSON artifact: one space of indent per nesting
    level, ASCII escapes, and a closing newline."""
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def code_to_json(words, n: int) -> dict:
    return {
        "length": n,
        "codewords": [word_hex(w, n) for w in np.sort(words).tolist()],
    }


def code_from_json(d: dict, length: int) -> list[int]:
    """The sorted codewords of a code of the given length, which the
    declared "length" must equal as an integer, not only in value."""
    n = int(d["length"])
    if n != length or type(d["length"]) is not int:
        raise ValueError("expected a length-%d code, got length %r"
                         % (length, d["length"]))
    words = sorted(parse_word(s) for s in d["codewords"])
    if any(w >> n for w in words):
        raise ValueError("codeword wider than declared length")
    return words


def provenance(code: Code) -> dict:
    """The recipe keys of a doubled code, or of a scan.ScanRow, that are
    known; the one place they are spelled."""
    d: dict = {}
    if code.left is not None:
        d["sourceClass"] = code.left
    if code.right is not None:
        d["targetClass"] = code.right
    if code.sigma is not None:
        d["sigma"] = sigma_str(code.sigma)
    return d


def save_code(path: str, code: Code) -> None:
    write_json(path, {**code_to_json(code.words, 16), **provenance(code)})


def load_code(path: str) -> Code:
    """The code in a file, with the provenance keys it has; sourceClass
    and targetClass, where present, must be class ids."""
    d = read_json(path)
    words = code_from_json(d, 16)
    for key in ("sourceClass", "targetClass"):
        v = d.get(key, 0)
        if type(v) is not int or v < 0:
            raise ValueError("%s %r is not a class id, a non-negative "
                             "integer" % (key, v))
    sigma = sigma_bytes(d["sigma"]) if "sigma" in d else None
    code = Code(np.array(words, dtype=np.uint16), d.get("sourceClass"),
                d.get("targetClass"), sigma)
    code.neighbours  # raises ValueError unless extended 1-perfect
    return code
