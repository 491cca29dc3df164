"""Enumeration and checks for 1-perfect codes of length 7 and their extensions.

A 1-perfect code of length 7 is a 16-subset of F_2^7 whose radius-1 balls
tile the space.  The 30 through the zero word are the Hamming codes,
each the kernel of a parity check whose columns are the 7 nonzero
vectors of F_2^3 in some order; with their translates there are 240.
Parity extension and puncturing move between lengths 7 and 8.
The doubled codes of length 16 are checked by the same tiling property,
stated on their odd words, when doubling.Code builds their neighbour
table.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

N7 = 7
SPACE7 = 1 << N7


def enumerate_zero_subspace_codes() -> list:
    """The 30 perfect codes through zero, the Hamming codes, sorted.

    Label the 7 coordinates with the nonzero vectors of F_2^3, each
    labelling one permutation of them; the words whose labels xor to 0
    form a Hamming code, and every labelling gives one of them.
    """
    labels = np.array(list(permutations(range(1, N7 + 1))), dtype=np.uint8)
    words = np.arange(SPACE7)
    syndromes = np.zeros((len(labels), SPACE7), dtype=np.uint8)
    for i in range(N7):
        syndromes ^= labels[:, i:i + 1] * (words >> i & 1).astype(np.uint8)
    # the zeros of each row, in order: the 16 words of one code
    codes = np.nonzero(syndromes == 0)[1].reshape(-1, 16)
    return sorted(set(map(tuple, codes.tolist())))


def enumerate_perfect7() -> list:
    """The 240 distinct perfect codes of length 7 (translate closure of the 30)."""
    seen = set()
    for code in enumerate_zero_subspace_codes():
        for t in range(SPACE7):
            seen.add(tuple(sorted(w ^ t for w in code)))
    return sorted(seen)


def extend_even(words7) -> tuple:
    """Append an overall parity coordinate (position 7)."""
    return tuple(sorted(w | ((w.bit_count() & 1) << N7) for w in words7))


def puncture(w, i: int):
    """Delete coordinate i, shifting the higher coordinates down one.

    Works on one int or elementwise on an unsigned numpy word array,
    whose dtype it keeps: the result is one bit narrower than the input.
    """
    return ((w >> (i + 1)) << i) | (w & ((1 << i) - 1))
