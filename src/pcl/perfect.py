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

    The words whose coordinate labels, the 7 nonzero vectors of F_2^3,
    xor to 0 form one; two labellings give one code exactly when they
    differ by an element of GL(3, 2), which acts freely.  So only the 30
    normalized labellings are taken: coordinates 0 and 1 labelled 1 and
    2, and the first later coordinate labelled outside {1, 2, 3} by 4.
    """
    labels = np.array([(1, 2) + rest for rest in permutations(range(3, 8))
                       if next(v for v in rest if v != 3) == 4], np.uint8)
    bits = (np.arange(SPACE7)[:, None] >> np.arange(N7) & 1).astype(np.uint8)
    syndromes = np.bitwise_xor.reduce(labels[:, None] * bits, axis=2)
    # the zeros of each row, in order: the 16 words of one code
    codes = np.nonzero(syndromes == 0)[1].reshape(-1, 16)
    return sorted(map(tuple, codes.tolist()))


def enumerate_perfect7() -> list:
    """The 240 perfect codes of length 7, sorted: each Hamming code H
    translated by its coset leaders 0, e_0..e_6; distinct, as leaders
    differ in at most 2 places and H is the difference set of H + t."""
    return sorted(tuple(sorted(w ^ t for w in code))
                  for code in enumerate_zero_subspace_codes()
                  for t in (0, 1, 2, 4, 8, 16, 32, 64))


def extend_even(words7) -> tuple:
    """Append an overall parity coordinate (position 7)."""
    return tuple(sorted(w | ((w.bit_count() & 1) << N7) for w in words7))


def puncture(w, i: int):
    """Delete coordinate i, shifting the higher coordinates down one.

    Works on one int or elementwise on an unsigned numpy word array,
    whose dtype it keeps: the result is one bit narrower than the input.
    """
    return ((w >> (i + 1)) << i) | (w & ((1 << i) - 1))
