"""The README's paper-claims ledger cannot drift from the tests.

Each row of the "Paper claims" table names what checks it: the tests,
as path::name, of a row reproduced or differing, and the open ROADMAP
items of a row not measured.  Every named test must be defined at the
top level of its file, and every named item must be listed under the
ROADMAP's open items.
"""

from __future__ import annotations

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COLUMNS = ["claim", "notion", "paper", "repo", "status", "checked by"]
STATUSES = {"reproduced", "differs", "not measured"}


def _read(name: str) -> str:
    with open(os.path.join(ROOT, name), encoding="utf-8") as f:
        return f.read()


def _section(text: str, heading: str) -> str:
    """The text under a level-2 heading, up to the next one."""
    start = text.index("\n## %s\n" % heading)
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def claim_rows() -> list[dict]:
    lines = [line for line in _section(_read("README.md"),
                                        "Paper claims").splitlines()
             if line.startswith("|")]
    cells = [[c.strip() for c in line.strip("|").split("|")]
             for line in lines]
    assert cells[0] == COLUMNS
    assert set("".join(cells[1])) <= set("-")
    return [dict(zip(COLUMNS, row, strict=True)) for row in cells[2:]]


def open_items() -> set[int]:
    return {int(n) for n in re.findall(
        r"^(\d+)\. \*\*", _section(_read("ROADMAP.md"), "Open items"),
        flags=re.MULTILINE)}


def test_every_row_is_filled_in_with_a_known_status():
    rows = claim_rows()
    assert rows
    for row in rows:
        assert row["status"] in STATUSES, row["claim"]
        assert all(row.values()), row["claim"]


def test_every_named_test_exists():
    for row in claim_rows():
        if row["status"] == "not measured":
            continue
        named = re.findall(r"`([^`]+)`", row["checked by"])
        assert named, row["claim"]
        for ref in named:
            path, name = ref.split("::")
            tree = ast.parse(_read(path))
            assert name.startswith("test_") and name in {
                node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)}, ref


def test_every_unmeasured_claim_names_an_open_item():
    items = open_items()
    assert items
    for row in claim_rows():
        if row["status"] != "not measured":
            continue
        named = re.fullmatch(r"ROADMAP items? ([\d, and]+)",
                             row["checked by"])
        assert named, row["claim"]
        numbers = {int(n) for n in re.findall(r"\d+", named.group(1))}
        assert numbers and numbers <= items, row["claim"]
