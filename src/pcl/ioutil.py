"""Shared persistence helpers for the CLI commands.

All writes go through a temp file plus atomic rename so failed runs
never leave partial artifacts.  Code files use one JSON schema
everywhere: {"length": n, "codewords": [hex, ...]} with codewords
sorted ascending, plus optional provenance keys for doubled codes.
Loaded codes are checked to be extended 1-perfect before use.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .doubling import Code
from .perfect import is_extended_perfect16
from .words import parse_sigma, sigma_str, word_hex


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


def write_json(path: str, obj) -> None:
    atomic_write(path, json.dumps(obj, indent=1) + "\n")


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def code_to_json(words, n: int) -> dict:
    return {
        "length": n,
        "codewords": sorted(word_hex(int(w), n) for w in words),
    }


def code_from_json(d: dict) -> tuple[list[int], int]:
    n = int(d["length"])
    words = sorted(int(s, 16) for s in d["codewords"])
    if any(w >> n for w in words):
        raise ValueError("codeword wider than declared length")
    return words, n


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
    d = read_json(path)
    words, n = code_from_json(d)
    if n != 16:
        raise ValueError("expected a length-16 code, got length %d" % n)
    ws = np.array(words, dtype=np.uint16)
    if not is_extended_perfect16(ws, thorough=False):
        raise ValueError("%d codewords do not form an extended 1-perfect "
                         "code of length 16" % len(ws))
    sigma = parse_sigma(d["sigma"]) if "sigma" in d else None
    return Code(ws, d.get("sourceClass"), d.get("targetClass"), sigma)
