"""Perfect codes of length 7 and their parity extensions."""

import numpy as np
import pytest

from pcl.doubling import Code
from pcl.perfect import (enumerate_perfect7, enumerate_zero_subspace_codes,
                         extend_even, puncture)

from code_helpers import (ball, is_extended_perfect8, is_extended_perfect16,
                          is_perfect, tiles15)


def hamming7() -> tuple:
    """The linear perfect code whose check matrix columns are 1..7 in binary."""
    out = []
    for w in range(128):
        s = 0
        for i in range(7):
            if (w >> i) & 1:
                s ^= i + 1
        if s == 0:
            out.append(w)
    return tuple(out)


def enumerate_zero_codes_by_tiling() -> list:
    """All perfect codes through zero, found by exact ball tiling.

    Independent of the subspace route: backtracking on the lowest uncovered
    word, no linearity assumed.  The oracle for the subspace count.
    """
    balls = [ball(w) for w in range(128)]
    full = (1 << 128) - 1
    sols = []

    def search(cover, chosen):
        if cover == full:
            sols.append(tuple(sorted(chosen)))
            return
        w = (cover + 1 & ~cover).bit_length() - 1
        for c in [w] + [w ^ (1 << i) for i in range(7)]:
            b = balls[c]
            if not (cover & b):
                chosen.append(c)
                search(cover | b, chosen)
                chosen.pop()

    search(balls[0], [0])
    return sorted(set(sols))


def test_hamming7_is_a_linear_perfect_code():
    h = hamming7()
    assert len(h) == 16
    assert h[0] == 0
    assert is_perfect(h)
    s = set(h)
    assert all((a ^ b) in s for a in h for b in h)
    assert sorted(w.bit_count() for w in h) == [0] + [3] * 7 + [4] * 7 + [7]


def test_ball_size():
    assert ball(0).bit_count() == 8
    assert ball(0b1010101).bit_count() == 8


def test_zero_code_census_two_routes():
    via_subspaces = enumerate_zero_subspace_codes()
    via_tiling = enumerate_zero_codes_by_tiling()
    assert len(via_subspaces) == 30
    assert len(via_tiling) == 30
    assert sorted(map(tuple, via_subspaces)) == sorted(map(tuple, via_tiling))
    for c in via_subspaces:
        assert c[0] == 0
        assert is_perfect(c)


def test_full_census():
    codes = enumerate_perfect7()
    assert len(codes) == 240
    assert len({tuple(c) for c in codes}) == 240
    for c in codes[::17]:
        assert is_perfect(c)
    # every code is one of 128 translates of a zero code, each translate
    # hitting 16 of the 128 words, so 240 * 16 / 128 = 30 contain zero
    assert sum(1 for c in codes if c[0] == 0) == 30


def test_extend_even_and_puncture():
    h = hamming7()
    e = extend_even(h)
    assert all(w.bit_count() % 2 == 0 for w in e)
    assert sorted(puncture(w, 7) for w in e) == sorted(h)
    assert is_extended_perfect8(e)


@pytest.mark.parametrize("w, i, want", [
    (0b1011, 1, 0b101), (0b1011, 0, 0b101), (0x8001, 15, 1),
    (0xFFFF, 0, 0x7FFF), (0x8001, 0, 0x4000)])
def test_puncture_int_and_array(w, i, want):
    assert puncture(w, i) == want
    got = puncture(np.array([w], dtype=np.uint16), i)
    assert got.dtype == np.uint16
    assert int(got[0]) == want


def test_is_extended_perfect8_rejects():
    h = hamming7()
    e = list(extend_even(h))
    e[0] ^= 0b11  # still even weight, no longer distance 4
    assert not is_extended_perfect8(tuple(e))
    assert not is_extended_perfect8(e[:15])


def test_is_perfect_rejects():
    h = list(hamming7())
    h[0] = 1
    assert not is_perfect(tuple(h))


def _has_neighbour_table(words) -> bool:
    try:
        Code(np.array(words, dtype=np.uint16)).neighbours
    except ValueError:
        return False
    return True


def test_extended_perfect16_and_tiling(witnesses):
    code = witnesses[11]
    words = [int(w) for w in code.words]
    assert is_extended_perfect16(words, thorough=True)
    assert _has_neighbour_table(words)
    pw = puncture(code.words, 0)
    assert tiles15(pw)
    assert not is_extended_perfect16(words[:-1], thorough=False)
    assert not _has_neighbour_table(words[:-1])


def test_extended_perfect16_rejects_odd_tamper(witnesses):
    words = [int(w) for w in witnesses[9].words]
    words[3] ^= 0b111
    assert not is_extended_perfect16(sorted(words), thorough=False)
    assert not _has_neighbour_table(sorted(words))


def test_neighbour_table_agrees_with_the_tiling_check(witnesses):
    rng = np.random.default_rng(3)
    for kappa in (5, 7, 9):
        words = witnesses[kappa].words
        assert _has_neighbour_table(words)
        for _ in range(4):
            bad = words.copy()
            bad[rng.integers(2048)] ^= np.uint16(3 << rng.integers(15))
            assert (_has_neighbour_table(np.sort(bad))
                    == is_extended_perfect16(bad, thorough=True))
