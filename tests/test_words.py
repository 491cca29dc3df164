"""Bit-level word helpers."""

from hypothesis import given
from hypothesis import strategies as st
import numpy as np
import pytest

from pcl.words import (EVEN8, coset_minima, mask_of, parse_quad, parse_word,
                       perm_word_map, points_of, quad_name, rank_gf2,
                       sigma_bytes, sigma_str, word_hex, xor_closure)

words16 = st.integers(min_value=0, max_value=0xFFFF)


def test_weight_and_distance_basics():
    words = [0, 0xFFFF, 0b1011, 0b1100 ^ 0b1010, 5 ^ 5]
    assert [w.bit_count() for w in words] == [0, 16, 3, 2, 0]
    assert np.bitwise_count(np.array(words, dtype=np.uint16)).tolist() \
        == [0, 16, 3, 2, 0]


@given(words16, words16)
def test_distance_is_symmetric_xor_weight(v, w):
    assert (v ^ w).bit_count() == (w ^ v).bit_count() == bin(v ^ w).count("1")


@given(words16, words16, words16)
def test_distance_triangle(u, v, w):
    assert (u ^ w).bit_count() <= (u ^ v).bit_count() + (v ^ w).bit_count()


def test_bitwise_count_matches_scalar():
    words = range(1 << 16)
    assert np.bitwise_count(np.array(words, dtype=np.uint16)).tolist() \
        == [w.bit_count() for w in words]
    assert EVEN8.tolist() == [b for b in range(256)
                              if bin(b).count("1") % 2 == 0]


def test_halves_and_join():
    m = 0xAB3C
    lo, hi = m & 0xFF, m >> 8
    assert (lo, hi) == (0x3C, 0xAB)
    assert lo | (hi << 8) == m


def test_points_and_masks_roundtrip():
    assert points_of(0b10110) == [1, 2, 4]
    assert mask_of((1, 2, 4)) == 0b10110
    assert mask_of(points_of(0xBEEF)) == 0xBEEF


def test_quad_names():
    q = mask_of((0, 3, 10, 15))
    assert quad_name(q) == "03af"
    assert parse_quad("03af") == q
    assert parse_quad(quad_name(mask_of((4, 5, 6, 7)))) == 0xF0


def test_word_hex_roundtrip():
    assert word_hex(0, 16) == "0000"
    assert word_hex(0xBEEF, 16) == "beef"
    assert parse_word(word_hex(0x2A, 8)) == 0x2A
    assert word_hex(0x55, 7) == "55"


def test_parse_sigma():
    assert sigma_bytes("01234567") == bytes(range(8))
    assert sigma_bytes("24365017") == bytes((2, 4, 3, 6, 5, 0, 1, 7))
    assert sigma_str(sigma_bytes("45026713")) == "45026713"
    with pytest.raises(ValueError):
        sigma_bytes("0123456")
    with pytest.raises(ValueError):
        sigma_bytes("01234566")


perms8 = st.permutations(range(8))


@given(perms8)
def test_perm_word_map_is_weight_preserving_bijection(perm):
    m = perm_word_map(perm, 8)
    assert sorted(int(x) for x in m) == list(range(256))
    ws = np.arange(256, dtype=np.uint16)
    assert all(int(m[w]).bit_count() == int(w).bit_count() for w in ws[:32])


@given(perms8, perms8)
def test_perm_word_map_composition(p, q):
    mp = perm_word_map(p, 8)
    mq = perm_word_map(q, 8)
    comp = [p[q[i]] for i in range(8)]
    mc = perm_word_map(comp, 8)
    assert np.array_equal(mc, mp[mq])


def test_xor_closure():
    span = xor_closure([0b0011, 0b0101])
    assert sorted(span) == [0, 0b0011, 0b0101, 0b0110]
    assert xor_closure([]) == [0]


@given(st.lists(words16, max_size=6))
def test_xor_closure_size_is_power_of_two(gens):
    span = xor_closure(gens)
    assert len(span) == 1 << rank_gf2(gens)
    assert 0 in span
    s = set(span)
    assert all((a ^ b) in s for a in span[:4] for b in span[:4])


def test_rank_gf2():
    assert rank_gf2([]) == 0
    assert rank_gf2([0]) == 0
    assert rank_gf2([1, 2, 3]) == 2
    assert rank_gf2([1, 2, 4, 8]) == 4


@pytest.mark.parametrize("bits, dtype", [(8, np.uint8), (16, np.uint16)])
def test_coset_minima_match_the_brute_minimum(bits, dtype):
    rng = np.random.default_rng(bits)
    for dim in range(bits // 2 + 1):
        gens = [int(g) for g in rng.integers(0, 1 << bits, size=dim)]
        # the last generator is the sum of two others, so the set is
        # dependent
        gens.append(gens[0] ^ gens[1] if dim >= 2 else 0)
        span = xor_closure(gens)
        words = rng.integers(0, 1 << bits, size=(3, 40)).astype(dtype)
        low = coset_minima(words, gens)
        assert low.dtype == dtype and low.shape == words.shape
        assert low.tolist() == [[min(int(w) ^ s for s in span) for w in row]
                                for row in words]
