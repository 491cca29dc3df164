"""Length-16 codes from pairs of length-8 partitions.

Given two extended partitions (C_0..C_7) and (D_0..D_7) and a matching
sigma, the doubled code is the union over i of all words x | (y << 8)
with x in C_i and y in D_sigma(i).  Coordinates 0-7 are the low byte,
8-15 the high byte.  The result is an extended perfect code of length
16 with 2048 words, minimum distance 4 and all weights even.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .words import sigma_bytes, sigma_str

if TYPE_CHECKING:
    from .algebra import CosetDecomposition

SPACE16 = 1 << 16
AT_CODE = 16  # Code.neighbours at a codeword


@dataclass(eq=False)
class Code:
    """A doubled code plus the recipe that produced it: the class ids
    and sigma, a permutation of 0..7 as 8 bytes (words.sigma_bytes).

    signatures caches, keyed by the codeword typed, the 16 sorted
    per-point Pasch signatures sts has computed at it.  sts's one coset
    walk, code_type_grid, types each kernel coset at its least word, and
    the scan's verdict reads that walk, so a kept code is not typed again
    for its grid.  kernel_cosets caches the decomposition into kernel
    cosets once algebra.kernel_cosets has computed it; its basis is the
    kernel's echelon basis.  neighbours is the one table over the words
    of length 16, built when first read.
    """

    words: np.ndarray
    left: int | None = None
    right: int | None = None
    sigma: bytes | None = None
    signatures: dict = field(default_factory=dict, repr=False)
    kernel_cosets: CosetDecomposition | None = field(default=None,
                                                     repr=False)

    @cached_property
    def neighbours(self) -> np.ndarray:
        """The codeword next to every odd word, as the coordinate to flip.

        Entry w is the d with w ^ e_d in the code when w is odd, AT_CODE
        when w is a codeword, and -1 at every other even word.  The
        2048 x 16 neighbours c ^ e_d of the codewords are scattered into
        it, one coordinate at a time.  They fill all 32,768 odd words
        exactly when the scatter is injective, which for 2048 even words
        is the extended 1-perfect property (minimum distance 4), and then
        reading the table at v ^ e_a ^ e_b ^ e_c gives the fourth point
        of the block through a, b, c of the SQS(16) at codeword v.
        Raises ValueError otherwise.  int8, 64 KB.
        """
        words = self.words
        odd = int((np.bitwise_count(words) & 1).sum())
        if len(words) != 2048 or odd:
            raise ValueError("an extended 1-perfect code of length 16 has "
                             "2048 even words, not %d words with %d odd"
                             % (len(words), odd))
        words = words.astype(np.intp)
        pos = np.full(SPACE16, -1, dtype=np.int8)
        for d in range(16):
            pos[words ^ (1 << d)] = d
        if np.count_nonzero(pos >= 0) != SPACE16 // 2:
            raise ValueError("two codewords lie within distance 2: the "
                             "code is not extended 1-perfect")
        pos[words] = AT_CODE
        return pos

    @property
    def label(self) -> str:
        s = sigma_str(self.sigma) if self.sigma is not None else "?"
        return "(%s,%s,%s)" % (self.left, self.right, s)


def double(left_components, right_components, sigma,
           left_id: int | None = None, right_id: int | None = None) -> Code:
    """The doubled code; ValueError unless sigma is a permutation of 0..7
    (words.sigma_bytes), which the code keeps as 8 bytes."""
    sigma = sigma_bytes(sigma)
    words = []
    for i, comp in enumerate(left_components):
        d = right_components[sigma[i]]
        lo = np.array(comp, dtype=np.uint16)
        hi = np.array(d, dtype=np.uint16) << 8
        words.append((lo[:, None] | hi[None, :]).ravel())
    allw = np.sort(np.concatenate(words))
    return Code(allw, left_id, right_id, sigma)
