"""Bit-level primitives for binary words of length up to 16.

Words are plain ints; coordinates are numbered 0..f and rendered as hex
digits.  The left half of a length-16 word is coordinates 0-7 (low byte),
the right half is 8-f (high byte).  Bulk operations work on numpy arrays
of word values.  Weights are int.bit_count for one word and
np.bitwise_count for an array.
"""

from __future__ import annotations

import numpy as np

# the 128 even bytes, increasing
EVEN8 = np.flatnonzero(np.bitwise_count(np.arange(256)) % 2 == 0)

HEX_DIGITS = "0123456789abcdef"
IDENTITY8 = bytes(range(8))  # permutations of 0..7 as bytes, p[i] = image of i


def points_of(mask: int):
    """Sorted coordinate list of a support mask."""
    return [i for i in range(16) if (mask >> i) & 1]


def mask_of(points) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def quad_name(mask: int) -> str:
    """Render a support mask as its sorted hex coordinate string, e.g. 0x0f -> '0123'."""
    return "".join(HEX_DIGITS[i] for i in points_of(mask))


def parse_quad(name: str) -> int:
    return mask_of(HEX_DIGITS.index(ch) for ch in name)


def word_hex(w: int, n: int = 16) -> str:
    return "%0*x" % ((n + 3) // 4, w)


def parse_word(s: str) -> int:
    return int(s, 16)


# byte tables between the digit characters '0'..'7' and the values 0..7;
# every other character parses to 255, which no permutation holds
_FROM_DIGITS = bytes(c - 48 if 48 <= c < 56 else 255 for c in range(256))
_TO_DIGITS = bytes.maketrans(IDENTITY8, b"01234567")


def sigma_bytes(s) -> bytes:
    """A permutation of 0..7 as 8 bytes, from a sequence of ints or from
    a string like '51304276'; ValueError for anything else.

    bytes() refuses entries that are not ints in 0..255 (tuple() first,
    so that an int is refused rather than read as a length), and
    deleting the eight bytes from IDENTITY8 leaves nothing exactly when
    they hold each of 0..7.
    """
    try:
        sig = bytes(tuple(s))
    except TypeError:  # a string, an int, or entries that are not ints
        sig = s.encode().translate(_FROM_DIGITS) if isinstance(s, str) else b""
    except ValueError:  # an int outside 0..255
        sig = b""
    if len(sig) != 8 or IDENTITY8.translate(None, sig):
        raise ValueError("not a permutation of 0..7: %r" % (s,))
    return sig


def sigma_str(sigma: bytes) -> str:
    return sigma.translate(_TO_DIGITS).decode()


def fixed_points(p: bytes) -> int:
    return sum(a == b for a, b in zip(p, IDENTITY8))


def perm_word_map(perm, n: int) -> np.ndarray:
    """Word-level remap table for a coordinate permutation.

    Entry w of the result is the word obtained from w by moving bit i to
    position perm[i], for all words of n bits at once.
    """
    idx = np.arange(1 << n)
    out = np.zeros(1 << n, dtype=np.uint32 if n > 8 else np.uint8)
    for i in range(n):
        out |= (((idx >> i) & 1) << perm[i]).astype(out.dtype)
    return out


def xor_closure(gens) -> list:
    """Span of a set of words under xor, as a sorted list (includes 0)."""
    span = {0}
    for g in gens:
        span |= {g ^ s for s in span}
    return sorted(span)


def echelon_basis(words) -> tuple:
    """GF(2) elimination: an independent basis of the span, as a tuple
    ordered by leading bit, lowest first.

    Each word is reduced against the basis so far and kept, partially
    reduced, when it gains a new leading bit.  A subspace is held as
    this tuple: its words are xor_closure(basis), its dimension
    len(basis).
    """
    basis: dict = {}
    for w in words:
        w = int(w)
        while w:
            lead = w.bit_length() - 1
            if lead in basis:
                w ^= basis[lead]
            else:
                basis[lead] = w
                break
    return tuple(basis[k] for k in sorted(basis))


def coset_minima(words, basis) -> np.ndarray:
    """The least word of each coset w + S, S spanned by basis.

    Every nonzero word of S has its highest bit at the leading bit of an
    echelon basis word, so clearing those from the top down leaves the
    least word of w + S.  basis may be dependent.
    """
    low = np.array(words)
    for b in reversed(echelon_basis(basis)):
        low[(low >> (b.bit_length() - 1)) & 1 == 1] ^= b
    return low


def rank_gf2(words) -> int:
    """Rank of a set of words viewed as GF(2) vectors."""
    return len(echelon_basis(words))
