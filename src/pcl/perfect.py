"""Enumeration and checks for 1-perfect codes of length 7 and their extensions.

A 1-perfect code of length 7 is a 16-subset of F_2^7 whose radius-1 balls
tile the space.  There are 30 such codes through the zero word and 240 in
total.  Parity extension and puncturing move between lengths 7 and 8.
The doubled codes of length 16 are checked by the same tiling property
one length down, punctured at coordinate 15, when doubling.Code builds
their neighbour table.
"""

from __future__ import annotations

from itertools import combinations

from .words import weight, xor_closure

N7 = 7
SPACE7 = 1 << N7


def enumerate_zero_subspace_codes() -> list:
    """All 4-dimensional subspaces of F_2^7 with minimum weight 3, via RREF bases.

    Every such subspace is a perfect code through zero; the enumeration walks
    all reduced echelon bases (one per subspace) and keeps those whose nonzero
    words all have weight at least 3.
    """
    out = []
    for pivots in combinations(range(N7), 4):
        nonpiv = [c for c in range(N7) if c not in pivots]
        free_slots = [[c for c in nonpiv if c > p] for p in pivots]
        total_free = sum(len(s) for s in free_slots)
        for bits in range(1 << total_free):
            rows = []
            k = 0
            for i, p in enumerate(pivots):
                r = 1 << p
                for c in free_slots[i]:
                    if (bits >> k) & 1:
                        r |= 1 << c
                    k += 1
                rows.append(r)
            span = xor_closure(rows)
            if all(weight(w) >= 3 for w in span if w):
                out.append(tuple(span))
    return sorted(out)


def enumerate_perfect7() -> list:
    """The 240 distinct perfect codes of length 7 (translate closure of the 30)."""
    seen = set()
    for code in enumerate_zero_subspace_codes():
        for t in range(SPACE7):
            seen.add(tuple(sorted(w ^ t for w in code)))
    return sorted(seen)


def extend_even(words7) -> tuple:
    """Append an overall parity coordinate (position 7)."""
    return tuple(sorted(w | ((weight(w) & 1) << N7) for w in words7))


def puncture(w, i: int):
    """Delete coordinate i, shifting the higher coordinates down one.

    Works on one int or elementwise on an unsigned numpy word array,
    whose dtype it keeps: the result is one bit narrower than the input.
    """
    return ((w >> (i + 1)) << i) | (w & ((1 << i) - 1))
