"""Shared persistence helpers for the CLI commands.

All writes go through a temp file plus atomic rename so failed runs
never leave partial artifacts.  JSON artifacts are written exactly as
json.dumps(obj, indent=1) writes them, by an encoder of that one
layout; with indent set, the standard library leaves its C encoder for
a Python generator per nesting level.  Codes use one JSON schema
everywhere, written by code_to_json and read by code_from_json:
{"length": n, "codewords": [hex, ...]} with codewords sorted
ascending, plus optional provenance keys for doubled codes.  Atlas
components and the length-7 census dumps use it too.
Loaded codes are checked to be extended 1-perfect before use, by
building their neighbour table (Code.neighbours).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .doubling import Code
from .words import parse_word, sigma_bytes, sigma_str


def atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_string = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _number(x) -> str:
    """A float as json writes it: repr, or NaN and the infinities."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# the scalar types, matched exactly; subclasses take the isinstance path
_LEAVES = {str: _string, int: int.__repr__, float: _number,
           bool: {True: "true", False: "false"}.__getitem__,
           type(None): lambda _: "null"}


def _key(k) -> str:
    """A dict key as json writes it, before quoting."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, (int, float)):
        return _dumps(k, "")
    raise TypeError("keys must be str, int, float, bool or None, not %s"
                    % type(k).__name__)


def _dumps(x, indent: str) -> str:
    """x as json.dumps(x, indent=1) writes it at the depth of indent.

    indent is a newline and one space per enclosing container.  Strings
    go through the standard library's own escaping, and subclasses of
    the scalar and container types are written as their bases are.
    Scalar items are looked up inline, without a call per item.
    """
    leaf = _LEAVES.get(type(x))
    if leaf is not None:
        return leaf(x)
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = indent + " "
        body = [_string(k if type(k) is str else _key(k)) + ": "
                + (f(v) if (f := _LEAVES.get(type(v))) else _dumps(v, inner))
                for k, v in x.items()]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = indent + " "
        body = [f(v) if (f := _LEAVES.get(type(v))) else _dumps(v, inner)
                for v in x]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    if isinstance(x, str):
        return _string(x)
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _number(x)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(x).__name__)


def write_json(path: str, obj) -> None:
    """obj as json.dumps(obj, indent=1) writes it, plus a newline."""
    atomic_write(path, _dumps(obj, "\n") + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def code_to_json(words, n: int) -> dict:
    digits = "%%0%dx" % ((n + 3) // 4)
    return {
        "length": n,
        "codewords": [digits % w for w in np.sort(words).tolist()],
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
    """The recipe keys of a doubled code that are known."""
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
