"""Permutation scans and kernel-dimension representative search.

The invariants the scan reads off the partitions are checked against
kernel_words and the rank of the codeword differences, computed from the
built codes' words, against code_helpers.perm_count_invariants, the
per-permutation count formula over translations found from the
components, and against code_helpers.batched_invariants, which reads
them off the translation actions with numpy and pins the (rank, kernel
dimension) cells of all 4,032,000 doubled codes.
"""

import json
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from pcl import algebra, scan, sts
from pcl.algebra import kernel_words
from pcl.cli import main
from pcl.ioutil import provenance
from pcl.partitions import Atlas, _log2_kernel_size
from pcl.scan import (PRIORITY_PAIRS, ScanRow, iter_sigmas,
                      find_representatives, make_code, scan_pair)
from pcl.sts import code_type_grid, fully_tabulated
from pcl.words import rank_gf2, sigma_bytes, sigma_str

from code_helpers import batched_invariants, perm_count_invariants
from conftest import KAPPA_WITNESSES

# find_representatives(per_pair=400, seed=0) as it chose when it built
# and measured every scanned code.
FOUND_AT_400 = {5: (1, 3, "47650123"), 6: (0, 3, "36250417"),
                7: (0, 1, "24365017"), 8: (0, 0, "24365017"),
                9: (0, 0, "47650123")}


def brute_invariants(code) -> tuple[int, int]:
    return rank_gf2(code.words ^ code.words[0]), rank_gf2(kernel_words(code))


def test_witness_table_is_consistent(atlas, witnesses):
    for kappa, (left, right, sig) in KAPPA_WITNESSES.items():
        code = witnesses[kappa]
        assert (code.left, code.right) == (left, right)
        assert sigma_str(code.sigma) == sig
        assert len(kernel_words(code)) == 1 << kappa


def test_priority_pairs_are_valid_class_ids(atlas):
    n = len(atlas.classes)
    for left, right in PRIORITY_PAIRS:
        assert 0 <= left < n and 0 <= right < n


def test_iter_sigmas_explicit_and_deterministic(atlas):
    explicit = [(0, 1, 2, 3, 4, 5, 6, 7), [7, 6, 5, 4, 3, 2, 1, 0], "45026713"]
    rows = scan_pair(atlas, 0, 0, explicit)
    assert [r.sigma for r in rows] == [bytes(range(8)), bytes(range(7, -1, -1)),
                                       bytes((4, 5, 0, 2, 6, 7, 1, 3))]
    a = list(iter_sigmas(sample=40, seed=3))
    b = list(iter_sigmas(sample=40, seed=3))
    assert a == b
    assert len(set(a)) == 40
    assert list(iter_sigmas(sample=25, seed=3)) == a[:25]
    assert a != list(iter_sigmas(sample=40, seed=4))


def test_iter_sigmas_full_enumeration_prefix():
    it = iter_sigmas()
    assert next(it) == bytes(range(8))
    assert next(it) == bytes((0, 1, 2, 3, 4, 5, 7, 6))


def test_scan_pair_rows(atlas):
    sigmas = [sigma_bytes("01234567"), sigma_bytes("45026713")]
    rows = scan_pair(atlas, 0, 0, sigmas)
    assert [r.kernel for r in rows] == [11, 9]
    assert [r.rank for r in rows] == [11, 12]
    assert provenance(rows[1]) == {"sourceClass": 0, "targetClass": 0,
                                   "sigma": "45026713"}


def test_find_representatives_on_explicit_budget(atlas):
    found = find_representatives(atlas, pairs=((0, 0),), per_pair=40,
                                 seed=0)
    assert sorted(found) == [8, 9]
    code = found[9]
    assert (code.left, code.right) == (0, 0)
    assert len(kernel_words(code)) == 1 << 9
    assert fully_tabulated(code)


def test_find_representatives_prefers_tabulated_codes(found):
    for kappa, code in found.items():
        assert len(kernel_words(code)) == 1 << kappa
        assert fully_tabulated(code)


def test_find_representatives_work_counts(atlas, monkeypatch):
    """Kernels and typed vertices of the per_pair=100 scan, counted.

    The 17 codes it rejects each fail at their least codeword, before a
    kernel is computed; the five it keeps are typed at every one of
    their 8 + 4 + 16 + 32 + 64 = 124 coset representatives.
    """
    kernels, vertices, verdicts = [], [], []
    kw, fpt, ft = (algebra.kernel_words, sts.fourth_point_table,
                   scan.fully_tabulated)
    monkeypatch.setattr(algebra, "kernel_words",
                        lambda c: kernels.append(c) or kw(c))
    monkeypatch.setattr(sts, "fourth_point_table",
                        lambda c, v: vertices.append(v) or fpt(c, v))

    def judged(code):
        verdicts.append((code, ft(code)))
        return verdicts[-1][1]

    monkeypatch.setattr(scan, "fully_tabulated", judged)
    found = find_representatives(atlas, pairs=PRIORITY_PAIRS, per_pair=100,
                                 seed=0)
    assert sorted(found) == [5, 6, 7, 8, 9]
    assert len(kernels) == 5
    assert len(vertices) == 141
    rejected = [c for c, ok in verdicts if not ok]
    assert len(rejected) == 17
    assert all(c.kernel_cosets is None for c in rejected)
    assert all(len(c.signatures) == 1 for c in rejected)


def test_find_representatives_stops_once_every_kernel_is_settled(
        atlas, monkeypatch):
    # the priority pairs settle every prescribed kernel dimension at 100
    # permutations a pair, so a pair listed after them is never scanned
    scanned = []
    scan_pair_ = scan.scan_pair
    monkeypatch.setattr(scan, "scan_pair", lambda atlas, left, right, sigmas:
                        scanned.append((left, right))
                        or scan_pair_(atlas, left, right, sigmas))

    def recipes(found):
        return {k: (c.left, c.right, c.sigma) for k, c in found.items()}

    found = find_representatives(atlas, pairs=PRIORITY_PAIRS + ((2, 2),),
                                 per_pair=100, seed=0)
    assert scanned == list(PRIORITY_PAIRS)
    assert recipes(found) == recipes(find_representatives(
        atlas, pairs=PRIORITY_PAIRS, per_pair=100, seed=0))


def test_fully_tabulated_matches_type_grid(atlas):
    outcomes = set()
    for k in range(50):
        left, right = PRIORITY_PAIRS[k % len(PRIORITY_PAIRS)]
        sig = next(iter_sigmas(1, seed=100 + k))
        code = make_code(atlas, left, right, sig)
        grid = list(code_type_grid(make_code(atlas, left, right, sig)))
        ok = fully_tabulated(code)
        assert ok == all(None not in t for _, t in grid)
        outcomes.add(ok)
    assert outcomes == {True, False}


def test_scan_row_frozen():
    r = ScanRow(0, 1, bytes(range(8)), 11, 11)
    with pytest.raises(AttributeError):
        r.rank = 5


def test_pair_invariants_match_brute_on_every_pair(atlas):
    n = len(atlas.classes)
    for left in range(n):
        for right in range(n):
            for row in scan_pair(atlas, left, right,
                                 iter_sigmas(2, seed=n * left + right)):
                code = make_code(atlas, left, right, row.sigma)
                assert (row.rank, row.kernel) == brute_invariants(code), \
                    code.label


def test_pair_invariants_match_brute_on_witnesses(atlas, witnesses):
    for kappa, (left, right, sig) in KAPPA_WITNESSES.items():
        row, = scan_pair(atlas, left, right, [sig])
        got = (row.rank, row.kernel)
        assert got == brute_invariants(witnesses[kappa])
        assert got[1] == kappa


@pytest.mark.parametrize("pair", [(5, 1), (1, 5), (9, 0), (0, 0)])
def test_pair_invariants_match_perm_counts_on_every_sigma(atlas, pair):
    # between groups of order 16 and 4 the two orders take both
    # conjugation directions, with W_R of rank 2 and of rank 1; then the
    # trivial group, and rank 3 on both sides (7 sets of W_R against 16
    # of U_L)
    for row in scan_pair(atlas, *pair, iter_sigmas()):
        assert ((row.rank, row.kernel)
                == perm_count_invariants(atlas, *pair, row.sigma)), row.sigma


def test_pair_invariants_match_perm_counts_on_every_pair(atlas):
    n = len(atlas.classes)
    for left in range(n):
        for right in range(n):
            for row in scan_pair(atlas, left, right,
                                 iter_sigmas(20, seed=1000 + n * left + right)):
                assert ((row.rank, row.kernel)
                        == perm_count_invariants(atlas, left, right, row.sigma))


# (rank, kernel dimension) counts over all 40,320 sigmas of the pairs
# the pipeline scans
PRIORITY_HISTOGRAMS = {
    (0, 0): {(11, 11): 1344, (12, 9): 9408, (13, 8): 18816, (14, 8): 10752},
    (0, 1): {(12, 8): 2688, (13, 7): 16128, (14, 7): 21504},
    (0, 3): {(13, 6): 2688, (13, 7): 5376, (14, 6): 32256},
    (1, 3): {(13, 5): 2496, (13, 6): 768, (13, 7): 192, (14, 5): 35712,
             (14, 6): 1152},
}


def test_priority_pair_histograms_are_pinned(atlas):
    assert {pair: Counter((row.rank, row.kernel)
                          for row in scan_pair(atlas, *pair, iter_sigmas()))
            for pair in PRIORITY_PAIRS} == PRIORITY_HISTOGRAMS


# (rank, kernel dimension) cells of all 4,032,000 doubled codes: every
# ordered class pair under all 40,320 sigmas
CENSUS = {
    (11, 11): 1344,
    (12, 7): 1312, (12, 8): 5472, (12, 9): 14912,
    (13, 4): 10592, (13, 5): 36352, (13, 6): 82496, (13, 7): 78816,
    (13, 8): 50176,
    (14, 2): 341184, (14, 3): 934464, (14, 4): 1083648, (14, 5): 871584,
    (14, 6): 420064, (14, 7): 88832, (14, 8): 10752,
}


def test_every_doubled_code_is_pinned(atlas):
    n = len(atlas.classes)
    table = batched_invariants(atlas, list(iter_sigmas()),
                               [(l, r) for l in range(n) for r in range(n)])
    cells = Counter()
    for rank, kappa in table.values():
        keys, counts = np.unique(rank.astype(int) * 16 + kappa,
                                 return_counts=True)
        cells.update({divmod(k, 16): c
                      for k, c in zip(keys.tolist(), counts.tolist())})
    assert sum(cells.values()) == n * n * scan.FACT8 == 4032000
    assert cells == CENSUS


def test_batched_invariants_match_scan_pair_on_every_pair(atlas):
    n = len(atlas.classes)
    for left in range(n):
        for right in range(n):
            rows = scan_pair(atlas, left, right,
                             iter_sigmas(200, seed=2000 + n * left + right))
            (rank, kappa), = batched_invariants(
                atlas, [r.sigma for r in rows], [(left, right)]).values()
            assert [(r.rank, r.kernel) for r in rows] == list(
                zip(rank.tolist(), kappa.tolist())), (left, right)


@pytest.mark.parametrize("sigma", [(0, 0, 1, 2, 3, 4, 5, 6), tuple(range(9)),
                                   (0.0, 1, 2, 3, 4, 5, 6, 7),
                                   (256, 1, 2, 3, 4, 5, 6, 7)])
def test_a_sigma_that_is_no_permutation_is_rejected(atlas, sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        scan_pair(atlas, 1, 3, [sigma])
    with pytest.raises(ValueError, match="not a permutation"):
        make_code(atlas, 1, 3, sigma)


def test_an_empty_kernel_is_rejected():
    with pytest.raises(ValueError, match="power of two"):
        _log2_kernel_size(0)


def test_find_representatives_keeps_its_choices(found):
    assert {k: (code.left, code.right, sigma_str(code.sigma))
            for k, code in found.items()} == FOUND_AT_400


def test_overlapping_components_are_rejected(atlas, tmp_path):
    d = atlas.to_json()
    comps = d["classes"][2]["representative"]
    # one word now lies in two components and another in none
    comps[1]["codewords"][0] = comps[0]["codewords"][0]
    with pytest.raises(ValueError, match="class 2: components do not "
                       "partition"):
        Atlas.from_json(d)

    path = tmp_path / "broken.json"
    path.write_text(json.dumps(d))
    res = CliRunner().invoke(main, ["scan", "--source", "0", "--target", "1",
                                    "--sample", "1", "--atlas", str(path)])
    assert res.exit_code == 1
    assert "class 2: components do not partition" in res.output
