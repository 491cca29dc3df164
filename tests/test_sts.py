"""Triple systems of the punctured codes and Pasch-profile typing.

The codes are typed from their neighbour tables: fourth_point_table
reads each vertex's table off Code.neighbours, and pasch_per_point
counts on it; derived_sts and pasch_profile read one system and its
counts off the same tables.  The block route they replaced
(sts_oracles) is the oracle of the tables, the type tuples and the coset
certificate, and the puncture route sts_of, checked by
sts_oracles.check_sts, is the oracle of derived_sts.  The Pasch
counter's oracles are the line-pair counter it replaced, the ordered
point-pair counter (pasch_per_point_ordered), the completion search
sts_oracles.pasch_profile_completion and the 4-subset count below;
random_sts15 exercises the counters away from the codes.
"""

import random
from itertools import combinations, permutations

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from pcl import scan, sts
from pcl.algebra import kernel_cosets
from pcl.doubling import Code
from pcl.perfect import puncture
from pcl.scan import PRIORITY_PAIRS, find_representatives, make_code
from pcl.sts import (LETTERS, ROWS, class_type_tuple, code_type_grid,
                     derived_sts, fourth_point_table, fully_tabulated,
                     pasch_per_point, pasch_profile, render_tuple, type_char,
                     type_grid)
from pcl.words import sigma_bytes

from code_helpers import occupancy
from sts_oracles import (blocks_at, check_sts, class_type_tuple_sorted,
                         classify_type, derived_profiles,
                         pasch_per_point_line_pairs, pasch_profile_completion,
                         third_point_table, vertex_signatures,
                         vertex_types)

WITNESS_TYPES = {5: [1, 2, 3, 4, 5, 6, 7], 6: [2, 3, 5, 6, 7],
                 7: [3, 8, 16], 8: [3], 9: [2], 11: [1]}


def sts_of(words15, v: int) -> tuple:
    """The STS carried by a codeword of a length-15 1-perfect code, as
    the sorted tuple of its triple masks."""
    ws = np.asarray(words15, dtype=np.uint16)
    d = ws ^ np.uint16(v)
    tr = tuple(int(t) for t in np.sort(d[np.bitwise_count(d) == 3]))
    check_sts(tr)
    return tr


def pasch_profile_brute(triples) -> tuple:
    """Independent per-point Pasch counts over all 4-subsets of triples."""
    acc = [0] * 15
    for quad in combinations(triples, 4):
        u = quad[0] | quad[1] | quad[2] | quad[3]
        if u.bit_count() != 6:
            continue
        if any((a & b).bit_count() != 1 for a, b in combinations(quad, 2)):
            continue
        for i in range(15):
            if (u >> i) & 1:
                acc[i] += 1
    return tuple(acc)


def random_sts15(seed: int, max_tries: int = 200000) -> tuple:
    """A random STS(15) by hill-climbing pair coverage.

    Keep a partial set of triples covering each pair at most once.  Pick
    an uncovered pair (a, b), then a third point c with (a, c) also
    uncovered; at most the triple owning (b, c) clashes and is evicted,
    so the triple count never drops and the walk converges.
    """
    rng = random.Random(seed)
    pair_owner: dict = {}
    triples: set = set()

    def pairs_of(t):
        pts = [i for i in range(15) if (t >> i) & 1]
        return [tuple(sorted(p)) for p in combinations(pts, 2)]

    uncovered = {tuple(sorted(p)) for p in combinations(range(15), 2)}
    tries = 0
    while uncovered and tries < max_tries:
        tries += 1
        a, b = rng.choice(sorted(uncovered))
        if rng.random() < 0.5:
            # anchoring c at the smaller endpoint every time can trap the
            # walk in a closed cycle of states
            a, b = b, a
        # the uncovered degree at a point is even, so a second uncovered
        # pair at a always exists
        cands = [c for c in range(15)
                 if c != b and tuple(sorted((a, c))) in uncovered]
        c = rng.choice(cands)
        t = (1 << a) | (1 << b) | (1 << c)
        bc = tuple(sorted((b, c)))
        old = pair_owner.get(bc)
        if old is not None:
            triples.discard(old)
            for p in pairs_of(old):
                pair_owner.pop(p, None)
                uncovered.add(p)
        triples.add(t)
        for p in pairs_of(t):
            pair_owner[p] = t
            uncovered.discard(p)
    if uncovered:
        raise RuntimeError("hill climb did not converge")
    tr = tuple(sorted(triples))
    check_sts(tr)
    return tr


def pasch_per_point_ordered(third: np.ndarray) -> np.ndarray:
    """Per-point Pasch counts of (S, n, n) third-point tables, by point pairs.

    At point p the triples {p, x, x'} and {p, y, y'}, x' = T[p, x],
    close into a Pasch configuration when T[x, y] == T[x', y'].  Each
    one through p is seen from four ordered (x, y), so the count is
    #{(x, y) : y != x, y != x', T[x, y] == T[x', y']} / 4.
    """
    s = np.arange(len(third))[:, None, None, None]
    px = third[:, :, :, None]       # x' = T[p, x]
    py = third[:, :, None, :]       # y' = T[p, y]
    pts = np.arange(third.shape[1])
    hit = ((px >= 0) & (py >= 0) & (pts[:, None] != pts) & (pts != px)
           & (third[:, None] == third[s, px, py]))
    counts = hit.sum(axis=(2, 3))
    assert not (counts % 4).any(), "ordered Pasch counts not divisible by 4"
    return counts // 4


def sts_table(system) -> np.ndarray:
    """The (1, 15, 15) third-point table of one STS(15)."""
    third = np.full((1, 15, 15), -1, dtype=np.int64)
    for t in system:
        a, b, c = [i for i in range(15) if (t >> i) & 1]
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            third[0, x, y] = third[0, y, x] = z
    return third


def test_rows_table_integrity():
    assert sorted(ROWS) == [1, 2, 3, 4, 5, 6, 7, 8, 13, 14, 16]
    for t, (total, per_point) in ROWS.items():
        assert len(per_point) == 15
        assert sum(per_point) == 6 * total
        assert tuple(sorted(per_point, reverse=True)) == per_point


def test_classify_type_on_table_rows():
    for t, (total, per_point) in ROWS.items():
        assert classify_type(per_point) == t
        shuffled = per_point[7:] + per_point[:7]
        assert classify_type(shuffled) == t
    assert classify_type((1,) * 15) is None


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
    rng = random.Random(9)
    checked = 0
    for kappa in (5, 6, 7, 8, 9):
        code = witnesses[kappa]
        reps = kernel_cosets(code).reps.tolist()
        for v in rng.sample(reps, 4):
            for i in range(16):
                assert derived_sts(code, v, i) == sts_of(
                    puncture(code.words, i), puncture(v, i))
                checked += 1
    assert checked == 5 * 4 * 16


def test_witness_type_grids(witnesses):
    for kappa, types in WITNESS_TYPES.items():
        grid = list(code_type_grid(witnesses[kappa]))
        assert len(grid) == 2048 >> kappa
        assert all(len(t) == 16 for _, t in grid)
        assert sorted({t for _, row in grid for t in row}) == types


def test_constant_grids(witnesses, monkeypatch):
    for kappa in (9, 11):
        grid = type_grid(witnesses[kappa])
        assert (grid.homogeneous, grid.distinct, grid.unknown) \
            == ((True, True), 1, 0)

    def grid_of(signatures):
        """The TypeGrid of a grid whose vertices 0, 1, ... carry the given
        signatures, each typed by its row of the table."""
        monkeypatch.setattr(sts, "code_type_grid", lambda code: [
            (v, tuple(map(classify_type, sigs)))
            for v, sigs in code.signatures.items()])
        return type_grid(Code(None, signatures=dict(enumerate(signatures))))

    def summary(signatures):
        grid = grid_of(signatures)
        return grid.homogeneous, grid.distinct, grid.unknown

    s = {t: per_point for t, (_, per_point) in ROWS.items()}
    # two untabulated signatures, both rendered "?"
    x = (14, 14, 12, 12, 10, 10, 10, 9, 9, 9, 9, 8, 8, 8, 8)
    y = (14, 12, 12, 12, 12, 12, 9, 9, 9, 9, 8, 8, 8, 8, 8)
    assert summary([(s[1], s[2]), (s[2], s[1])]) == ((True, False), 1, 0)
    assert summary([(s[1], s[1]), (s[1], s[2])]) == ((False, False), 2, 0)
    assert summary([(s[1], x), (x, s[1])]) == ((True, False), 1, 2)
    assert summary([(x, x)]) == ((True, True), 1, 2)
    assert summary([(x, y)]) == ((True, False), 1, 2)
    assert summary([(x, x), (y, y)]) == ((False, False), 2, 4)
    last = [(s[16], s[13], x), (x, s[16], s[13]), (s[13],) * 3]
    assert summary(last) == ((False, False), 2, 2)
    # the rows of that last grid, each tuple rendered once
    assert grid_of(last).rows == [(0, "0000", "gc?"), (1, "0001", "?gc"),
                                  (2, "0002", "ccc")]


def test_distinct_counts_signatures_not_renderings(atlas):
    # at kappa = 6, three different untabulated signatures all render "?"
    code = make_code(atlas, 0, 3, sigma_bytes("50142637"))
    reps = kernel_cosets(code).reps.tolist()
    assert len(reps) == 2048 >> 6
    grid = type_grid(code)
    assert len({"".join(sorted(s)) for _, _, s in grid.rows}) == 4
    assert grid.distinct == 5 == len(
        {tuple(sorted(vertex_signatures(code, r))) for r in reps})
    assert (grid.homogeneous, grid.unknown) == ((False, False), 160)


def test_linear_profile(witnesses):
    code = witnesses[11]
    v = int(code.words[0])
    prof = pasch_profile(derived_sts(code, v, 0))
    assert sum(prof) == 6 * 105
    assert prof == (42,) * 15
    assert classify_type(prof) == 1


def test_vertex_and_class_tuples_agree(witnesses):
    code = witnesses[8]
    v = int(code.words[0])
    k = kernel_cosets(code).basis[-1]
    assert class_type_tuple(code, v) == class_type_tuple(code, v ^ k)
    assert render_tuple(class_type_tuple(code, v)) == "3" * 16


def test_class_type_tuple_rejects_a_translate_outside_the_kernel(witnesses):
    code = witnesses[5]
    fresh = Code(code.words.copy(), code.left, code.right, code.sigma)
    dec = kernel_cosets(fresh)
    v = int(dec.reps[0])
    assert class_type_tuple(fresh, v) == class_type_tuple(code, v)
    outside = int(dec.reps[1]) ^ v
    dec.basis += (outside,)
    with pytest.raises(AssertionError, match="differs inside a kernel coset"):
        class_type_tuple(fresh, v)


def test_fully_tabulated_rejects_a_translate_outside_the_kernel(witnesses):
    # the scan's verdict reads the checked coset walk, so a basis word
    # outside the kernel is caught there too
    code = witnesses[5]
    assert fully_tabulated(code)
    fresh = Code(code.words.copy(), code.left, code.right, code.sigma)
    dec = kernel_cosets(fresh)
    dec.basis += (int(dec.reps[1]) ^ int(dec.reps[0]),)
    with pytest.raises(AssertionError, match="differs inside a kernel coset"):
        fully_tabulated(fresh)


def test_untabulated_signatures_regression(atlas):
    code = make_code(atlas, 1, 3, sigma_bytes("24365017"))
    assert not fully_tabulated(code)
    fresh = list(code_type_grid(make_code(atlas, 1, 3, code.sigma)))
    assert code.signatures
    assert all(len(s) == 16 and s == vertex_signatures(code, v)
               and tuple(map(classify_type, s)) == dict(fresh)[v]
               for v, s in code.signatures.items())
    grid = list(code_type_grid(code))
    missing = sum(t is None for _, row in grid for t in row)
    assert missing > 0
    assert "?" in render_tuple(grid[0][1]) or missing > 0
    assert grid == fresh


def test_kept_code_is_typed_once(atlas, monkeypatch):
    vertices, systems = [], []
    table, oracle = sts.fourth_point_table, sts.pasch_profile
    monkeypatch.setattr(sts, "fourth_point_table",
                        lambda c, v: vertices.append(v) or table(c, v))
    monkeypatch.setattr(sts, "pasch_profile",
                        lambda s: systems.append(s) or oracle(s))
    code = make_code(atlas, 0, 0, sigma_bytes("24365017"))
    assert fully_tabulated(code)
    cosets = 2048 >> 8
    assert len(vertices) == cosets
    grid = list(code_type_grid(code))
    assert len(grid) == cosets
    assert len(vertices) == cosets
    assert systems == []
    fresh = Code(code.words.copy(), code.left, code.right, code.sigma)
    assert list(code_type_grid(fresh)) == grid


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
    assert a == b
    assert len(a) == 35
    c = random_sts15(43)
    assert c != a


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=10_000))
def test_dual_pasch_counts_agree(seed):
    sts = random_sts15(seed)
    assert pasch_profile_completion(sts) == pasch_profile_brute(sts)
    assert pasch_profile(sts) == pasch_profile_brute(sts)
    third = sts_table(sts)
    assert np.array_equal(pasch_per_point(third),
                          pasch_per_point_ordered(third))
    assert np.array_equal(pasch_per_point(third),
                          pasch_per_point_line_pairs(third))


def test_point_off_seven_lines_raises():
    third = sts_table(random_sts15(7))
    a, b, c = 0, 1, int(third[0, 0, 1])
    for x, y in permutations((a, b, c), 2):
        third[0, x, y] = -1
    with pytest.raises(AssertionError, match="7 lines"):
        pasch_per_point(third)


def test_dual_pasch_on_code_systems(witnesses):
    code = witnesses[7]
    v = int(code.words[0])
    for i in (0, 9):
        sts = derived_sts(code, v, i)
        assert (pasch_profile_completion(sts) == pasch_profile(sts)
                == pasch_profile_brute(sts))


def test_profile_signature_is_sorted():
    # classify_type reads a profile by its total and its per-point
    # counts sorted in decreasing order, whatever order they come in
    t, (total, per_point) = next((t, row) for t, row in ROWS.items()
                                 if len(set(row[1])) > 1)
    assert classify_type(per_point[::-1]) == t
    assert classify_type((1, 3, 2) + (0,) * 12) is None


def test_batched_profiles_match_completion_search(witnesses):
    for kappa in (5, 6, 7, 8, 9):
        code = witnesses[kappa]
        for r in kernel_cosets(code).reps:
            v = int(r)
            systems = [derived_sts(code, v, i) for i in range(16)]
            assert (derived_profiles(blocks_at(code, v))
                    == list(map(pasch_profile_completion, systems))
                    == list(map(pasch_profile, systems)))
            third = third_point_table(blocks_at(code, v))
            assert np.array_equal(pasch_per_point(third),
                                  pasch_per_point_ordered(third))
            assert np.array_equal(pasch_per_point(third),
                                  pasch_per_point_line_pairs(third))


def test_batched_profiles_match_brute(witnesses):
    rng = random.Random(5)
    for _ in range(6):
        code = witnesses[rng.choice((5, 6, 7, 8, 9))]
        v = int(rng.choice(list(kernel_cosets(code).reps)))
        i = rng.randrange(16)
        brute = pasch_profile_brute(derived_sts(code, v, i))
        assert derived_profiles(blocks_at(code, v))[i] == brute
        row = pasch_per_point(fourth_point_table(code, v))[i].tolist()
        assert tuple(row[:i] + row[i + 1:]) == brute


def test_corrupted_block_raises_sqs_error(witnesses):
    code = witnesses[5]
    v = int(kernel_cosets(code).reps[3])
    blocks = blocks_at(code, v)
    assert derived_profiles(blocks)[0] == pasch_profile_completion(
        derived_sts(code, v, 0))
    present = set(blocks.tolist())
    bad = blocks.copy()
    bad[7] = next(q for q in range(1 << 16)
                  if q.bit_count() == 4 and q not in present)
    with pytest.raises(ValueError, match="exactly once"):
        third_point_table(bad)
    with pytest.raises(ValueError, match="exactly once"):
        third_point_table(blocks[1:])
    with pytest.raises(ValueError, match="4-subset"):
        third_point_table(np.append(blocks[1:], 0b111))


def test_neighbour_tables_match_the_block_route(atlas, witnesses,
                                               monkeypatch):
    typed = 0
    for kappa in (5, 6, 7, 8, 9):
        code = witnesses[kappa]
        for r in kernel_cosets(code).reps.tolist():
            assert np.array_equal(fourth_point_table(code, r),
                                  third_point_table(blocks_at(code, r)))
            assert (class_type_tuple(code, r)
                    == class_type_tuple_sorted(code, r)
                    == vertex_types(code, r))
            typed += 1
    assert typed == 64 + 32 + 16 + 8 + 4
    # the 17 codes the per_pair=100 representative scan rejects
    verdicts, judge = [], scan.fully_tabulated
    monkeypatch.setattr(scan, "fully_tabulated",
                        lambda c: verdicts.append((c, judge(c)))
                        or verdicts[-1][1])
    find_representatives(atlas, pairs=PRIORITY_PAIRS, per_pair=100, seed=0)
    rejected = [c for c, ok in verdicts if not ok]
    assert len(rejected) == 17
    for code in rejected:
        v = int(code.words[0])
        assert np.array_equal(fourth_point_table(code, v),
                              third_point_table(blocks_at(code, v)))
        assert code.signatures == {v: vertex_signatures(code, v)}
        assert None in map(classify_type, code.signatures[v])


def _with_a_replaced_word(code) -> Code:
    """The code with one codeword swapped for an even non-codeword."""
    words, occ = code.words.copy(), occupancy(code.words)
    words[5] = next(w for w in range(1 << 16)
                    if w.bit_count() % 2 == 0 and not occ[w])
    return Code(np.sort(words), code.left, code.right, code.sigma)


def test_a_replaced_word_is_rejected(witnesses):
    for kappa in (5, 9):
        with pytest.raises(ValueError, match="not extended 1-perfect"):
            fully_tabulated(_with_a_replaced_word(witnesses[kappa]))
    bad = _with_a_replaced_word(witnesses[8])
    with pytest.raises(ValueError, match="not extended 1-perfect"):
        list(code_type_grid(bad))
    with pytest.raises(ValueError, match="not extended 1-perfect"):
        fourth_point_table(bad, int(bad.words[0]))
    odd = Code(witnesses[8].words ^ np.uint16(1))
    with pytest.raises(ValueError, match="2048 even words"):
        fully_tabulated(odd)
