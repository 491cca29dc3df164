"""Constructions and checks that only tests use.

ball and is_perfect state the tiling property of 1-perfect codes of
length 7 directly; is_extended_perfect8 checks a parity-extended
component by its distances; tiles15 and is_extended_perfect16 check a
length-16 code by the tiling of its punctures, the oracle of
Code.neighbours; occupancy marks the codewords in a table of its own, so
membership tests do not read the table they check;
enumerate_pair_partitions, pair_masks and product build the
pair-partition products that structure.decompose_mixed recognizes;
in_span tests membership in the span of a basis, and coset_numbers and
coset_of file codewords into the cosets of a decomposition by span
membership, not by coset minima; half_pure_subgroup is the oracle of the
subgroup structure folds over at kappa = 9; perm_count_invariants is the
oracle of the scan.scan_pair rows, which algebra.DoublingPair evaluates,
and batched_invariants evaluates the same rows with numpy for many
sigmas at once, from the translation actions alone; switched_code
builds extended 1-perfect codes outside the doubling.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np

from pcl.doubling import Code
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


def coset_numbers(code, dec) -> np.ndarray:
    """The i with w in reps[i] + span(basis) for each codeword w, aligned
    with code.words; AssertionError when a codeword is in none."""
    index = np.full(1 << 16, -1, dtype=np.int64)
    span = np.array(xor_closure(dec.basis), dtype=np.uint16)
    for i, r in enumerate(dec.reps):
        index[span ^ r] = i
    number = index[code.words]
    if (number < 0).any():
        raise AssertionError("a codeword lies in no coset")
    return number


def coset_of(code, dec, w: int) -> int:
    """The coset of a decomposition of code that holds codeword w."""
    at = np.flatnonzero(code.words == w)
    if not len(at):
        raise KeyError("word %04x is not in the code" % w)
    return int(coset_numbers(code, dec)[at[0]])


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


def _log2_exact(counts: np.ndarray) -> np.ndarray:
    assert ((counts > 0) & (counts & (counts - 1) == 0)).all(), counts
    return np.log2(counts).round().astype(np.int8)


def batched_invariants(atlas, sigmas, pairs) -> dict:
    """{(left, right): (rank, kernel dimension) arrays} of the codes each
    class pair doubles under each of sigmas, permutations as 8 bytes,
    read off the classes' TranslationAction with numpy.

    The kernel has f_L f_R k words, k the number of p in A_L whose
    sigma p sigma^-1 lies in A_R; a permutation is keyed by its 8 bytes
    read as one uint64.  2^j counts the w in W_R whose sigma^-1(w), the
    gather w[sigma], lies in U_L = W_L + {0, all eight}, keyed by its
    8 bits in a 256-entry table, and the rank is 14 - j.  No
    algebra.DoublingPair table is read.
    """
    sig = np.frombuffer(b"".join(sigmas), dtype=np.uint8).reshape(-1, 8)
    inv = np.argsort(sig, axis=1)

    def keys(rows) -> np.ndarray:
        return np.ascontiguousarray(rows, dtype=np.uint8).view(np.uint64)[:, 0]

    def key8(rows) -> np.ndarray:
        return np.packbits(rows, axis=-1, bitorder="little")[..., 0]

    def arr(b: bytes) -> np.ndarray:
        return np.frombuffer(b, dtype=np.uint8)

    @lru_cache(maxsize=None)
    def left_side(c: int) -> tuple:
        """Keys of sigma p sigma^-1, p in A_L, and the U_L table."""
        act = atlas.classes[c].action
        # (sigma p sigma^-1)[i] = sigma[p[sigma^-1[i]]]
        conj = [keys(np.take_along_axis(sig[:, arr(p)], inv, axis=1))
                for p in act.perms]
        in_u = np.zeros(256, dtype=bool)
        for w in map(arr, act.w_sets):
            in_u[key8(w)] = in_u[key8(w) ^ 0xFF] = True
        return conj, in_u

    @lru_cache(maxsize=None)
    def right_side(c: int) -> tuple:
        """Keys of A_R and of sigma^-1(w), w in W_R."""
        act = atlas.classes[c].action
        return (keys([arr(q) for q in act.perms]),
                [key8(arr(w)[sig]) for w in act.w_sets])

    out = {}
    for left, right in pairs:
        (conj, in_u), (into, moved) = left_side(left), right_side(right)
        k = sum(np.isin(c, into) for c in conj)
        two_j = sum(in_u[m] for m in moved)
        fixers = atlas.classes[left].action.fixers * \
            atlas.classes[right].action.fixers
        out[left, right] = (14 - _log2_exact(two_j),
                            _log2_exact(fixers * k))
    return out


@lru_cache(maxsize=None)
def _hamming15() -> tuple:
    """The length-15 Hamming code, bit j standing for point j + 1 of
    PG(3, 2) (the words whose points xor to 0), and for each coordinate
    i the span of its 7 weight-3 words through i, its minimal
    i-component through 0 (128 words)."""
    w = np.arange(1 << 15)
    syndrome = np.zeros_like(w)
    for j in range(15):
        syndrome ^= ((w >> j) & 1) * (j + 1)
    lines = [[(1 << i) | (1 << a) | (1 << (((i + 1) ^ (a + 1)) - 1))
              for a in range(15) if a != i] for i in range(15)]
    return (w[syndrome == 0].astype(np.uint16),
            tuple(np.array(xor_closure(ls), dtype=np.uint16) for ls in lines))


def switched_code(rng, rounds: int) -> Code:
    """An extended 1-perfect code of length 16 built without doubling.

    Vasil'ev switching: rounds pairwise disjoint i-components c + K_i of
    the length-15 Hamming code, each for a random codeword c and
    coordinate i, are moved by e_i (a component meeting one already
    taken is drawn again), and a parity bit is appended at coordinate
    15.  Disjoint components switch independently, since their radius-1
    balls stay where they were; the result is still checked by
    is_extended_perfect16.
    """
    ham, components = _hamming15()
    taken = np.zeros(1 << 15, dtype=bool)
    moves = np.zeros(1 << 15, dtype=np.uint16)
    for _ in range(rounds):
        for _ in range(1000):
            i = int(rng.integers(15))
            part = components[i] ^ rng.choice(ham)
            if not taken[part].any():
                break
        else:
            raise ValueError("no free component in 1000 draws")
        taken[part] = True
        moves[part] = 1 << i
    words = ham ^ moves[ham]
    words |= (np.bitwise_count(words) & 1).astype(np.uint16) << 15
    if not is_extended_perfect16(words):
        raise AssertionError("switching left the extended perfect codes")
    return Code(np.sort(words))
