"""Kernel, rank and coset machinery on the doubled codes.

kernel_words_brute (code_helpers), cosets_loop and rank_brute are the
oracles of the incremental kernel, the coset decomposition by echelon
reduction and the rank read off the kernel cosets.
"""

import numpy as np
import pytest

from pcl import algebra
from pcl.algebra import cosets, kernel_cosets, kernel_words, rank_of
from pcl.doubling import SPACE16, Code
from pcl.scan import iter_sigmas, make_code
from pcl.structure import split_sides
from pcl.words import coset_minima, echelon_basis, rank_gf2, xor_closure

from code_helpers import (coset_numbers, coset_of, half_pure_subgroup,
                          in_span, kernel_words_brute, occupancy)

EXPECTED = {
    # kappa: (rank, weight4 split (left, right, mixed), half-pure dim)
    5: (13, (6, 2, 0), 5),
    6: (13, (14, 2, 0), 6),
    7: (14, (14, 6, 0), 7),
    8: (13, (14, 14, 0), 8),
    9: (12, (14, 14, 16), 8),
    11: (11, (14, 14, 112), 8),
}


def cosets_loop(code, basis):
    """(reps, coset of each codeword) by a walk over the sorted codewords:
    each word not yet filed opens a coset, which is filed whole."""
    lw = np.array(xor_closure(basis), dtype=np.uint16)
    index = np.full(SPACE16, -1, dtype=np.int32)
    reps = []
    for w in code.words:
        if index[w] < 0:
            index[w ^ lw] = len(reps)
            reps.append(int(w))
    return np.array(reps, dtype=np.uint16), index[code.words]


def rank_brute(code) -> int:
    """Rank of all 2048 codeword differences, by row reduction of their
    2048 x 16 bit matrix over GF(2).

    An oracle calls no routine of the fast path it checks: rank_of
    eliminates with words.rank_gf2, so this one eliminates on its own.
    """
    m = ((code.words ^ code.words[0])[:, None] >> np.arange(16)) & 1
    m = m.astype(bool)
    rank = 0
    for col in range(16):
        pivots = np.flatnonzero(m[rank:, col])
        if pivots.size == 0:
            continue
        m[[rank, rank + pivots[0]]] = m[[rank + pivots[0], rank]]
        hit = m[:, col].copy()
        hit[rank] = False
        m[hit] ^= m[rank]
        rank += 1
    return rank


def _pair_codes(atlas, witnesses, seed: int) -> list:
    """The witnesses plus one seeded doubled code per class pair."""
    n = len(atlas.classes)
    codes = list(witnesses.values())
    for left in range(n):
        for right in range(n):
            sig = next(iter_sigmas(1, seed=seed + n * left + right))
            codes.append(make_code(atlas, left, right, sig))
    return codes


def test_cosets_and_rank_match_the_oracles_on_every_pair(atlas, witnesses):
    for code in _pair_codes(atlas, witnesses, 2000):
        fresh = Code(code.words.copy())
        basis = kernel_cosets(fresh).basis
        for sub in (basis, basis[1:],
                    echelon_basis(half_pure_subgroup(kernel_words(fresh)))):
            dec = cosets(fresh, sub)
            reps, word_coset = cosets_loop(fresh, sub)
            assert np.array_equal(dec.reps, reps), code.label
            assert np.array_equal(coset_numbers(fresh, dec), word_coset), \
                code.label
        assert rank_of(fresh) == rank_brute(fresh), code.label


def test_switched_codes_match_the_oracles(switched):
    # codes no doubling gives: rank 15, and kappa 1 at rank 15
    assert [(rank_of(c), len(kernel_cosets(c).basis)) for c in switched] \
        == [(12, 7), (12, 7), (13, 4), (13, 4), (14, 2), (13, 5), (14, 3),
            (14, 2), (15, 1), (14, 2), (15, 5)]
    odd = np.flatnonzero(np.bitwise_count(np.arange(SPACE16)) % 2)
    for code in switched:
        assert np.array_equal(kernel_words(code), kernel_words_brute(code))
        assert rank_of(code) == rank_brute(code)
        dec = kernel_cosets(code)
        reps, word_coset = cosets_loop(code, dec.basis)
        assert np.array_equal(dec.reps, reps)
        assert np.array_equal(coset_numbers(code, dec), word_coset)
        # every odd word's neighbour, against a table of its own
        near = odd ^ (1 << code.neighbours[odd].astype(np.intp))
        assert occupancy(code.words)[near].all()


def test_cosets_of_a_dependent_basis(witnesses):
    code = witnesses[7]
    b = kernel_cosets(code).basis
    dec = cosets(code, b + (b[0] ^ b[1],))
    assert dec.basis == b
    assert np.array_equal(dec.reps, cosets(code, b).reps)


def test_witness_invariants(witnesses):
    for kappa, (rk, split, hp_dim) in EXPECTED.items():
        code = witnesses[kappa]
        kw = kernel_words(code)
        assert len(kw) == 1 << kappa
        assert rank_of(code) == rk
        w4 = kw[np.bitwise_count(kw) == 4]
        assert tuple(map(len, split_sides(w4))) == split
        hp = half_pure_subgroup(kw)
        assert rank_gf2([int(x) for x in hp]) == hp_dim


def test_kernel_words_match_brute_on_every_pair(atlas, witnesses):
    for code in _pair_codes(atlas, witnesses, 1000):
        assert np.array_equal(kernel_words(code), kernel_words_brute(code)), \
            code.label


def test_kernel_is_a_subspace(witnesses):
    kw = kernel_words(witnesses[7])
    s = {int(w) for w in kw}
    assert 0 in s
    assert all((a ^ b) in s for a in s for b in s)


def _translate(code, t):
    return Code(np.sort(code.words ^ np.uint16(t)), code.left, code.right,
                code.sigma)


def test_kernel_translate_invariance(witnesses):
    code = witnesses[6]
    moved = _translate(code, 0x5AA5)
    assert np.array_equal(kernel_words(code), kernel_words(moved))
    assert sorted(int(w) for w in moved.words) == \
        sorted(int(w) ^ 0x5AA5 for w in code.words)


def test_weight4_words_and_pure_parts(witnesses):
    kw = kernel_words(witnesses[9])
    w4 = kw[np.bitwise_count(kw) == 4]
    assert len(w4) == sum(map(len, split_sides(w4)))
    lo = kw[(kw & 0xFF00) == 0]
    hi = kw[(kw & 0x00FF) == 0] >> 8
    # both halves come back as byte values
    assert all(int(w) <= 0xFF for w in lo)
    assert all(int(w) <= 0xFF for w in hi)
    assert len(lo) == len(hi) == 16
    # pure weight-4 kernel parts come in complementary pairs per half
    for part in (lo, hi):
        w4 = {int(w) for w in part if int(w).bit_count() == 4}
        assert len(w4) == 14
        assert all((w ^ 0xFF) in w4 for w in w4)


def test_rank_and_kernel_without_zero_codeword(witnesses):
    raw = witnesses[9]
    assert int(raw.words[0]) != 0
    norm = _translate(raw, int(raw.words[0]))
    assert kernel_cosets(raw).basis == kernel_cosets(norm).basis
    assert len(kernel_cosets(raw).basis) == 9
    assert rank_gf2(norm.words) == rank_of(norm) == rank_of(raw) == 12


def test_linear_span_basics():
    basis = echelon_basis([0b0110, 0b0011, 0b0101, 0])
    assert basis == (0b0011, 0b0110)  # ordered by leading bit
    assert xor_closure(basis) == [0, 0b0011, 0b0101, 0b0110]
    assert in_span(basis, 0b0110)
    assert in_span(basis, 0)
    assert not in_span(basis, 0b0111)
    assert not in_span(basis, 0b1000)


def test_cosets(witnesses):
    code = _translate(witnesses[9], int(witnesses[9].words[0]))
    basis = kernel_cosets(code).basis
    dec = cosets(code, basis)
    assert len(dec.reps) == 4
    assert int(dec.reps[0]) == 0
    assert coset_of(code, dec, 0) == 0
    with pytest.raises(KeyError):
        coset_of(code, dec, 1)
    # the cosets are whole and disjoint, each led by its least word
    number = coset_numbers(code, dec)
    assert np.bincount(number).tolist() == [512] * 4
    assert [int(code.words[number == i].min()) for i in range(4)] \
        == dec.reps.tolist()


def test_coset_counts_scale_with_kappa(witnesses):
    for kappa in (5, 6, 7, 8, 9, 11):
        code = witnesses[kappa]
        dec = cosets(code, kernel_words(code))
        assert len(dec.basis) == kappa
        assert len(dec.reps) == 2048 >> kappa


def test_cosets_reject_non_kernel_subspace(witnesses):
    code = witnesses[8]
    with pytest.raises(ValueError):
        cosets(code, (0b11,))


def test_cosets_reject_a_codeword_difference_outside_the_kernel(witnesses):
    # the spanning-word check is what makes every coset whole: a
    # difference of two codewords of distinct cosets is no kernel word
    code = witnesses[8]
    kept = kernel_cosets(code)
    w = int(kept.reps[0]) ^ int(kept.reps[1])
    assert w not in kernel_words(code).tolist()
    with pytest.raises(ValueError, match="not contained in the kernel"):
        cosets(code, kept.basis + (kept.basis[0] ^ w,))


def test_coset_reps_helper(witnesses):
    code = witnesses[8]
    kept = kernel_cosets(code)
    reps = cosets(code, kept.basis).reps
    assert len(reps) == 8
    assert len({int(r) for r in reps}) == 8
    assert int(reps[0]) == int(code.words[0])
    assert kept is kernel_cosets(code)
    assert kept.basis == echelon_basis(kernel_words(code))
    assert np.array_equal(kept.reps, reps)


def test_a_decomposition_is_sealed(witnesses):
    # typing and folding trust a decomposition without re-checking it, so
    # none can be altered after cosets checked it, nor handed to a code
    code = witnesses[7]
    for dec in (kernel_cosets(code), cosets(code, kernel_words(code)[:4])):
        with pytest.raises(ValueError, match="read-only"):
            dec.reps[1] = dec.reps[0]
        with pytest.raises(AttributeError):
            dec.basis = dec.basis[1:]
        with pytest.raises(AttributeError):
            dec.reps = dec.reps[::-1]
    kept = kernel_cosets(code)
    assert np.array_equal(kept.reps, cosets_loop(code, kept.basis)[0])
    for cache in ({"kernel_cosets": kept}, {"signatures": {}}):
        with pytest.raises(TypeError, match="unexpected keyword"):
            Code(code.words.copy(), **cache)


@pytest.mark.parametrize("kw", [[0, 3, 5], [0, 0]],
                         ids=["not-closed", "repeated-word"])
def test_kernel_cosets_checks_the_kernel_words(witnesses, monkeypatch, kw):
    fresh = Code(witnesses[8].words.copy())
    monkeypatch.setattr(algebra, "kernel_words",
                        lambda code: np.array(kw, dtype=np.uint16))
    with pytest.raises(AssertionError,
                       match="kernel words are not the span of their basis"):
        kernel_cosets(fresh)
    assert fresh.kernel_cosets is None


def test_half_pure_subgroup_is_swap_stable(witnesses):
    kw = kernel_words(witnesses[9])
    hp = {int(w) for w in half_pure_subgroup(kw)}
    kws = {int(w) for w in kw}
    assert hp <= kws
    assert all((a ^ b) in hp for a in list(hp)[:16] for b in list(hp)[:16])
    mixed = kws - hp
    assert len(mixed) == len(hp)  # index 2 when mixed words exist


def test_component_kernels(atlas):
    # the translations fixing every component: the fixer count of the
    # translation action
    sizes = [atlas.classes[k].action.fixers for k in (0, 1, 3)]
    assert sizes == [16, 8, 4]


def test_class_tables_are_pinned(atlas):
    actions = [c.action for c in atlas.classes]
    assert [len(a.perms) for a in actions] == [8, 4, 8, 8, 4, 16, 4, 8, 8, 1]
    assert [len(a.w_sets) for a in actions] == [8, 4, 4, 2, 2, 2, 2, 1, 1, 1]
    masks = range(256)

    def meets_evenly(c, ind):
        return sum(ind[i] for i in range(8) if c >> i & 1) % 2 == 0

    annihilated = []
    for ext, a in zip(atlas.classes, actions):
        # the residues: each component's least word modulo the span of
        # the within-component differences
        comps = np.array(ext.components)
        residues = coset_minima(comps[:, 0],
                                (comps ^ comps[:, :1]).ravel()).tolist()
        assert all(bytes(p[q[i]] for i in range(8)) in a.perms
                   for p in a.perms for q in a.perms)
        assert all(bytes(p[p[i]] for i in range(8)) == bytes(range(8))
                   for p in a.perms)  # involutions
        assert len(a.w_sets) == 1 << a.rank
        assert bytes([1] * 8) not in a.w_sets
        # U = W + {0, all eight}, as partitions.DoublingPair forms it
        u_sets = {bytes(b ^ e for b in w) for w in a.w_sets for e in (0, 1)}
        z = [x ^ residues[0] for x in residues]
        for w in a.w_sets:
            # w is T_f for a linear f: every index set summing the z to 0
            # meets it evenly
            for c in masks:
                v = 0
                for i in range(8):
                    if c >> i & 1:
                        v ^= z[i]
                assert v or meets_evenly(c, w), (w, c)
        # U's annihilator is exactly the null relations of the residues
        perp = [c for c in masks if all(meets_evenly(c, u) for u in u_sets)]
        nulls = []
        for c in masks:
            v = 0
            for i in range(8):
                if c >> i & 1:
                    v ^= residues[i]
            if bin(c).count("1") % 2 == 0 and v == 0:
                nulls.append(c)
        assert perp == nulls
        annihilated.append(len(perp).bit_length() - 1)
    assert annihilated == [4, 5, 5, 6, 6, 6, 6, 7, 7, 7]


def test_the_table_drops_the_sets_that_cannot_pass(atlas):
    # sigma^-1 keeps a set's size, so the sets of W_R of a size that U_L
    # lacks are dropped: all of them for left classes 7, 8 and 9, where
    # r = 0 and U_L is {0, all eight}; right classes 7, 8 and 9 have no
    # nonzero set
    n = len(atlas.classes)
    tables = {(left, right): atlas.pair(left, right).tables
              for left in range(n) for right in range(n)}
    assert sum(map(len, tables.values())) == 119  # of 170 nonzero sets
    assert {pair for pair, t in tables.items() if t} == {
        (left, right) for left in range(7) for right in range(7)}


def test_doubled_range_is_a_theorem_of_the_table(atlas):
    # partitions.DoublingPair: the differences of a class span 7 - r
    # dimensions and all ones fixes every component, so no pair and no
    # sigma gives rank above 14 or kernel dimension below 2
    for ext in atlas.classes:
        comps = np.array(ext.components)
        assert rank_gf2((comps ^ comps[:, :1]).ravel()) + ext.action.rank == 7
        assert ext.action.fixers >= 2
    n = len(atlas.classes)
    for left in range(n):
        for right in range(n):
            for rank, kappa in atlas.pair(left, right).results.values():
                assert 11 <= rank <= 14 and 2 <= kappa <= 11, (left, right)
