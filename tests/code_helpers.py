"""Constructions and checks that only tests use.

ball and is_perfect state the tiling property of 1-perfect codes of
length 7 directly; is_extended_perfect8 checks a parity-extended
component by its distances; tiles15 and is_extended_perfect16 check a
length-16 code by the tiling of its punctures, the oracle of
Code.neighbours; occupancy marks the codewords in a table of its own, so
membership tests do not read the table they check;
enumerate_pair_partitions, pair_masks and product build the
pair-partition products that structure.decompose_mixed recognizes;
in_span and coset_of test membership in the span of a basis and in the
cosets of a decomposition; half_pure_subgroup is the oracle of the
subgroup structure folds over at kappa = 9; perm_count_invariants is the
oracle of the scan.scan_pair rows, which algebra.DoublingPair evaluates.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

from pcl.fano import PairPartition
from pcl.perfect import puncture
from pcl.words import (echelon_basis, mask_of, points_of, rank_gf2,
                       xor_closure)


def ball(w: int, n: int = 7) -> int:
    """Occupancy mask (as a 2^n-bit int) of the radius-1 ball around w."""
    m = 1 << w
    for i in range(n):
        m |= 1 << (w ^ (1 << i))
    return m


def is_perfect(words, n: int = 7) -> bool:
    """Radius-1 balls around the words tile F_2^n exactly."""
    if len(words) * (n + 1) != (1 << n):
        return False
    cover = 0
    for w in words:
        b = ball(w, n)
        if cover & b:
            return False
        cover |= b
    return cover == (1 << (1 << n)) - 1


def is_extended_perfect8(words) -> bool:
    """16 words of length 8, even weights, pairwise distance at least 4."""
    ws = sorted(set(int(w) for w in words))
    if len(ws) != 16 or any(w.bit_count() & 1 for w in ws):
        return False
    return all((a ^ b).bit_count() >= 4 for a, b in combinations(ws, 2))


def enumerate_pair_partitions() -> list[PairPartition]:
    """All 105 pair partitions of [0,7], sorted by name tag."""
    out = []

    def rec(free, pairs):
        if not free:
            out.append(PairPartition(tuple(pairs)))
            return
        a = min(free)
        for b in sorted(free - {a}):
            rec(free - {a, b}, pairs + [(a, b)])

    rec(frozenset(range(8)), [])
    return out


def pair_masks(p: PairPartition) -> tuple:
    """The four pairs of p as 8-bit masks, in p's pair order."""
    return tuple(mask_of(ab) for ab in p.pairs)


def product(a: PairPartition, b: PairPartition) -> tuple:
    """The 16 quadruples (left pair of a) + (right pair of b shifted by 8)."""
    quads = [am | (bm << 8) for am in pair_masks(a) for bm in pair_masks(b)]
    return tuple(sorted(quads, key=points_of))


def tiles15(pw: np.ndarray) -> bool:
    """Do radius-1 balls around these length-15 words tile F_2^15?"""
    shifts = np.array([0] + [1 << i for i in range(15)], dtype=np.uint16)
    hits = (pw[:, None] ^ shifts[None, :]).ravel()
    counts = np.bincount(hits, minlength=1 << 15)
    return bool((counts == 1).all())


def is_extended_perfect16(words, thorough: bool = True) -> bool:
    """2048 even words of length 16 whose punctures tile F_2^15.

    The quick form (thorough=False) punctures at coordinate 0 only; with
    16 even-weight words per ball column that already forces distance 4.
    """
    ws = np.asarray(words, dtype=np.uint16)
    if len(ws) != 2048 or len(np.unique(ws)) != 2048:
        return False
    if (np.bitwise_count(ws) % 2).any():
        return False
    coords = range(16) if thorough else (0,)
    return all(tiles15(puncture(ws, i)) for i in coords)


def occupancy(words) -> np.ndarray:
    """A 65,536-entry table, True exactly at the given words."""
    occ = np.zeros(1 << 16, dtype=bool)
    occ[np.asarray(words, dtype=np.intp)] = True
    return occ


def in_span(basis: tuple, w: int) -> bool:
    """Is w in the span of an independent basis?"""
    return len(echelon_basis(basis + (int(w),))) == len(basis)


def half_pure_subgroup(kw: np.ndarray) -> np.ndarray:
    """Span of the half-supported weight-4 words among the kernel words
    kw, sorted, each checked to lie in the kernel."""
    w4 = kw[np.bitwise_count(kw) == 4]
    half = w4[((w4 & 0xFF00) == 0) | ((w4 & 0x00FF) == 0)]
    span = np.array(xor_closure(int(w) for w in half), dtype=np.uint16)
    if not np.isin(span, kw).all():
        raise AssertionError("half-pure span left the kernel")
    return span


def coset_of(code, dec, w: int) -> int:
    """The coset of a decomposition of code that holds codeword w."""
    at = np.flatnonzero(code.words == w)
    if not len(at):
        raise KeyError("word %04x is not in the code" % w)
    return int(dec.word_coset[at[0]])


@lru_cache(maxsize=None)
def _partition_oracle(components) -> tuple:
    """Translation counts, difference basis and first words of a partition.

    The counts map each permutation p with C_i + a = C_p[i] for every i
    to the number of the 256 words a that realize it.
    """
    col = {w: i for i, comp in enumerate(components) for w in comp}
    counts = Counter()
    for a in range(256):
        images = [{col.get(w ^ a) for w in comp} for comp in components]
        if all(len(img) == 1 and None not in img for img in images):
            counts[tuple(img.pop() for img in images)] += 1
    deltas = echelon_basis(w ^ comp[0] for comp in components for w in comp)
    return counts, deltas, tuple(c[0] for c in components)


def perm_count_invariants(atlas, left: int, right: int, sigma) -> tuple:
    """(rank, kernel dimension) of a doubled code, summed per permutation.

    The kernel size is the sum over the permutations pa of the left
    class of mult_L(pa) mult_R(sigma pa sigma^-1); the rank is that of
    both halves' difference bases and the block words (r_i | s_sigma(i)
    << 8) + (r_0 | s_sigma(0) << 8), r and s the components' first words.
    """
    lc, ld, lr = _partition_oracle(atlas.classes[left].components)
    rc, rd, rr = _partition_oracle(atlas.classes[right].components)
    inv = [0] * 8
    for i, s in enumerate(sigma):
        inv[s] = i
    size = sum(mult * rc.get(tuple(sigma[pa[inv[j]]] for j in range(8)), 0)
               for pa, mult in lc.items())
    assert size > 0 and size & (size - 1) == 0, size
    r0 = lr[0] | rr[sigma[0]] << 8
    blocks = [(lr[i] | rr[sigma[i]] << 8) ^ r0 for i in range(1, 8)]
    return (rank_gf2(list(ld) + [d << 8 for d in rd] + blocks),
            size.bit_length() - 1)
