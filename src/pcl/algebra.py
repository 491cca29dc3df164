"""Kernel and rank invariants of length-16 codes.

The kernel of a code C is the group of words k with C + k = C.  It is
invariant under translation of C, always contains 0, and for the codes
built here always contains ffff.

A subspace of the kernel is held as its echelon basis
(words.echelon_basis), and cosets decomposes a code into its cosets,
checked once and read-only after.  kernel_cosets is the one entry point
to the kernel itself: it computes the kernel words, checks once that
they are the span of their basis, and keeps the kernel cosets on the
code.

kernel_words computes the kernel from the 2048 codewords, and rank_of
the rank from its cosets; they serve codes loaded from files and are
the test oracle of partitions.DoublingPair, which reads both off the
classes a code is doubled from, without building it.  kernel_words
and cosets read membership off Code.neighbours (AT_CODE at a
codeword), so they run only on a certified extended 1-perfect code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doubling import AT_CODE, SPACE16, Code
from .words import coset_minima, echelon_basis, rank_gf2, xor_closure


def kernel_words(code: Code) -> np.ndarray:
    """All k with C + k = C, sorted, starting with 0.

    Any kernel word is a difference of codewords, so only the 2048
    differences against one fixed codeword are candidates, and only the
    undecided ones are tested.  A kernel word c closes the span found so
    far (K grows to K + c) and moves the known outsiders by c; an
    outsider c rules out its whole coset K + c.  Both sets stay unions
    of cosets of the current K, so each test decides a whole coset.
    """
    words, pos = code.words, code.neighbours
    state = np.zeros(SPACE16, dtype=np.int8)  # 1 kernel, -1 not, 0 unknown
    kw = np.zeros(1, dtype=np.uint16)
    out = np.zeros(0, dtype=np.uint16)
    state[0] = 1
    for c in words ^ words[0]:
        if state[c]:
            continue
        if (pos[words ^ c] == AT_CODE).all():
            kw = np.concatenate([kw, kw ^ c])
            state[kw] = 1
            moved = out ^ c
            moved = moved[state[moved] == 0]
            state[moved] = -1
            out = np.concatenate([out, moved])
        else:
            coset = kw ^ c
            state[coset] = -1
            out = np.concatenate([out, coset])
    return np.sort(kw)


def rank_of(code: Code) -> int:
    """Rank of the translate through 0: dimension of the codeword differences.

    The code is the union of the cosets r_i + K of its kernel, so the
    differences span K plus the words r_i + r_0: kappa basis words and
    2^(11 - kappa) representatives are eliminated instead of 2048
    differences, 69 words at kappa = 5.
    """
    dec = kernel_cosets(code)
    shifts = (dec.reps ^ dec.reps[0]).tolist()
    return rank_gf2(dec.basis + tuple(shifts))


@dataclass(frozen=True, eq=False)
class CosetDecomposition:
    """Cosets of a kernel subspace inside a code: the subspace's echelon
    basis and the cosets' least words in increasing order, read-only.

    The package builds one only in cosets, after checking every spanning
    word, so a decomposition in hand is certified: each coset r_i + L
    lies whole in the code.  Folding and typing rely on that and check
    it no further."""

    basis: tuple
    reps: np.ndarray


def cosets(code: Code, basis) -> CosetDecomposition:
    """Decompose the code into cosets of a subspace of its kernel.

    basis is any set of words spanning the subspace, dependent or not.
    Each is checked to be a kernel word (C + b = C), and they are
    eliminated once into the echelon basis the decomposition keeps.
    C + b = C for every spanning word b gives C + s = C for every s in
    the span, so a coset of the subspace that meets C lies in C: every
    coset is whole, and the code is the disjoint union of r_i + L.
    Representatives are the lexicographic minima (words.coset_minima),
    numbered in increasing order; the codewords are distinct, so the
    sorted minima repeat each one |L| times in a row.
    """
    words, pos = code.words, code.neighbours
    for b in basis:
        if not (pos[words ^ np.uint16(b)] == AT_CODE).all():
            raise ValueError("subspace is not contained in the kernel")
    basis = echelon_basis(basis)
    reps = np.sort(coset_minima(words, basis))[::1 << len(basis)]
    reps.flags.writeable = False
    return CosetDecomposition(basis, reps)


def kernel_cosets(code: Code) -> CosetDecomposition:
    """The code's kernel cosets, decomposed once and kept on the code;
    the kernel dimension is len(kernel_cosets(code).basis).

    That the kernel is a subspace is asserted, not assumed: the sorted
    kernel_words must equal the span of their echelon basis, which fails
    on a set that is not xor-closed and on a repeated word alike.  This
    is the one place a decomposition is attached to a code.
    """
    if code.kernel_cosets is None:
        kw = kernel_words(code)
        basis = echelon_basis(kw)
        if np.sort(kw).tolist() != xor_closure(basis):
            raise AssertionError("kernel words are not the span of their "
                                 "basis")
        code.kernel_cosets = cosets(code, basis)
    return code.kernel_cosets
