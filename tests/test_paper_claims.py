"""The README's paper-claims ledger cannot drift from the tests.

Each row of the "Paper claims" table names what checks it: the tests,
as path::name, of a row reproduced or differing, and the open ROADMAP
items of a row not measured.  Every named test must be defined at the
top level of its file, and every named item must be listed under the
ROADMAP's open items.  The repo column of a row reproduced or differing
must read as repo_cells renders it from the fixture or table that one
of its named tests pins.
"""

from __future__ import annotations

import ast
import os
import re

from test_cli import PIPELINE_STDOUT
from test_scan import CENSUS
from test_structure import HALF_FOLD_INDEX, KAPPA9_COUNTS

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


def _and(items) -> str:
    """Items listed as "a", "a and b" or "a, b and c"."""
    *head, last = map(str, items)
    return " and ".join(filter(None, [", ".join(head), last]))


def repo_cells(atlas) -> dict:
    """The repo cell of each row reproduced or differing, keyed by the
    named test that pins its numbers, rendered from that test's source:
    the atlas fixture, test_scan.CENSUS, the verdict lines of
    test_cli.PIPELINE_STDOUT, or test_structure's kappa = 9 tables."""
    (merged,) = atlas.merged
    ranks = sorted({rank for rank, _ in CENSUS})
    kappas = sorted({kappa for _, kappa in CENSUS})
    verify = re.findall(r"^\[verify\] kappa=(\d+) (pass|FAIL) \(.* (\d+) "
                        r"fail\)$", PIPELINE_STDOUT, flags=re.MULTILINE)
    failed = [(kappa, n) for kappa, status, n in verify if status == "FAIL"]
    by_index: dict = {}
    for pair, index in HALF_FOLD_INDEX.items():
        by_index.setdefault(index, []).append("(%d, %d)" % pair)
    # the paper takes the half-supported subgroup to have index 2
    off = sum(n for pair, n in KAPPA9_COUNTS.items()
              if HALF_FOLD_INDEX[pair] != 2)
    return {
        "tests/test_partitions.py::test_census_counts":
            "{:,} in {} classes".format(atlas.partition7_count,
                                        len(atlas.orbit_sizes7)),
        "tests/test_partitions.py::test_extended_classes":
            "{}; length-7 classes {} merge".format(len(atlas.classes),
                                                   _and(merged)),
        "tests/test_scan.py::test_every_doubled_code_is_pinned":
            "(16, 2048, 4) codes, a witness for each κ = 5..9; over all "
            "{:,} (L, R, σ), rank {}..{} and κ {}..{}".format(
                sum(CENSUS.values()), ranks[0], ranks[-1], kappas[0],
                kappas[-1]),
        "tests/test_cli.py::test_pipeline_stdout_is_pinned":
            "pass at κ = {}; fail at κ = {} ({} failed verdicts)".format(
                ", ".join(k for k, status, _ in verify if status == "pass"),
                ", ".join(k for k, _ in failed), _and(n for _, n in failed)),
        "tests/test_structure.py::"
        "test_half_fold_index_is_pinned_on_every_kappa9_pair":
            "index {}; all {:,} codes off {} fail".format(
                ", ".join("%d on %s" % (index, _and(pairs))
                          for index, pairs in by_index.items()),
                off, _and(by_index[2])),
    }


def test_repo_cells_hold_the_pinned_numbers(atlas):
    cells = repo_cells(atlas)
    seen = set()
    for row in claim_rows():
        if row["status"] == "not measured":
            continue
        keys = [ref for ref in re.findall(r"`([^`]+)`", row["checked by"])
                if ref in cells]
        assert len(keys) == 1, row["claim"]
        assert row["repo"] == cells[keys[0]], row["claim"]
        seen.update(keys)
    assert seen == set(cells)
