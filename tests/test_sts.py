"""Triple systems of the punctured codes and Pasch-profile typing."""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from pcl import sts
from pcl.algebra import kernel
from pcl.doubling import Code
from pcl.perfect import puncture
from pcl.scan import make_code
from pcl.sts import (LETTERS, ROWS, PaschProfile, StsSystem, check_sts,
                     class_type_tuple, classify_type, code_type_grid,
                     derived_sts, fully_tabulated, homogeneity, multiset_keys,
                     pasch_profile, pasch_profile_brute, random_sts15,
                     render_tuple, sts_of, type_char)
from pcl.words import parse_sigma

WITNESS_TYPES = {5: [1, 2, 3, 4, 5, 6, 7], 6: [2, 3, 5, 6, 7],
                 7: [3, 8, 16], 8: [3], 9: [2], 11: [1]}


def test_rows_table_integrity():
    assert sorted(ROWS) == [1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 16]
    for t, (total, per_point) in ROWS.items():
        assert len(per_point) == 15
        assert sum(per_point) == 6 * total
        assert tuple(sorted(per_point, reverse=True)) == per_point


def test_classify_type_on_table_rows():
    for t, (total, per_point) in ROWS.items():
        assert classify_type(PaschProfile(total, per_point)) == t
        shuffled = per_point[7:] + per_point[:7]
        assert classify_type(PaschProfile(total, shuffled)) == t
    assert classify_type(PaschProfile(1, (1,) * 15)) is None


def test_type_char():
    assert [type_char(t) for t in (1, 7, 8)] == ["1", "7", "8"]
    assert LETTERS == {13: "c", 14: "d", 16: "g"}
    assert [type_char(t) for t in (13, 14, 16)] == ["c", "d", "g"]
    assert type_char(None) == "?"
    with pytest.raises(ValueError):
        type_char(12)


def test_render_tuple():
    assert render_tuple((1, 13, None, 16)) == "1c?g"


def test_derived_sts_matches_puncture_route(witnesses):
    code = witnesses[9]
    v = int(code.words[0])
    for i in (0, 5, 12, 15):
        via_sqs = derived_sts(code, v, i)
        pw = puncture(code.words, i)
        vv = puncture(v, i)
        via_puncture = sts_of(pw, vv)
        assert via_sqs.triples == via_puncture.triples


def test_witness_type_grids(witnesses):
    for kappa, types in WITNESS_TYPES.items():
        grid = code_type_grid(witnesses[kappa])
        assert len(grid) == 2048 >> kappa
        assert all(len(t) == 16 for _, t in grid)
        assert sorted({t for _, row in grid for t in row}) == types


def test_constant_grids(witnesses):
    for kappa in (9, 11):
        tuples = [t for _, t in code_type_grid(witnesses[kappa])]
        assert homogeneity(tuples) == (True, True)
    assert homogeneity([(1, 2), (2, 1)]) == (True, False)
    assert homogeneity([(1, 1), (1, 2)]) == (False, False)
    assert homogeneity([(1, None), (None, 1)]) == (True, False)
    assert homogeneity([(None, None)]) == (True, True)
    assert multiset_keys([(16, 13, None), (None, 16, 13)]) == {"?cg"}


def test_linear_profile(witnesses):
    code = witnesses[11]
    v = int(code.words[0])
    prof = pasch_profile(derived_sts(code, v, 0))
    assert prof.signature() == (105, (42,) * 15)
    assert classify_type(prof) == 1


def test_vertex_and_class_tuples_agree(witnesses):
    code = witnesses[8]
    v = int(code.words[0])
    k = kernel(code).basis[-1]
    assert class_type_tuple(code, v) == class_type_tuple(code, v ^ k)
    assert render_tuple(class_type_tuple(code, v)) == "3" * 16


def test_untabulated_signatures_regression(atlas):
    code = make_code(atlas, 1, 3, parse_sigma("24365017"))
    assert not fully_tabulated(code)
    assert all(None not in t for t in code.type_tuples.values())
    grid = code_type_grid(code)
    missing = sum(t is None for _, row in grid for t in row)
    assert missing > 0
    assert "?" in render_tuple(grid[0][1]) or missing > 0
    assert grid == code_type_grid(make_code(atlas, 1, 3, code.sigma))


def test_kept_code_is_typed_once(atlas, monkeypatch):
    calls = []
    counted = sts.pasch_profile
    monkeypatch.setattr(sts, "pasch_profile",
                        lambda s: calls.append(s) or counted(s))
    code = make_code(atlas, 0, 0, parse_sigma("24365017"))
    assert fully_tabulated(code)
    cosets = 2048 >> 8
    assert len(calls) == 16 * cosets
    grid = code_type_grid(code)
    assert len(grid) == cosets
    assert len(calls) == 16 * cosets
    fresh = Code(code.words.copy(), code.left, code.right, code.sigma)
    assert code_type_grid(fresh) == grid


def test_fully_tabulated_on_witnesses(witnesses):
    assert fully_tabulated(witnesses[8])
    assert fully_tabulated(witnesses[5])


def test_check_sts_rejects():
    with pytest.raises(ValueError):
        check_sts((0b111,) * 35)
    with pytest.raises(ValueError):
        check_sts((0b111,))


def test_random_sts15_deterministic_and_valid():
    a = random_sts15(42)
    b = random_sts15(42)
    assert a.triples == b.triples
    assert len(a) == 35
    c = random_sts15(43)
    assert c.triples != a.triples


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_pasch_counts_agree(seed):
    sts = random_sts15(seed)
    assert pasch_profile(sts) == pasch_profile_brute(sts)


def test_dual_pasch_on_code_systems(witnesses):
    code = witnesses[7]
    v = int(code.words[0])
    for i in (0, 9):
        sts = derived_sts(code, v, i)
        assert pasch_profile(sts) == pasch_profile_brute(sts)


def test_profile_signature_is_sorted():
    p = PaschProfile(10, (1, 3, 2) + (0,) * 12)
    assert p.signature() == (10, (3, 2, 1) + (0,) * 12)
