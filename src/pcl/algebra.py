"""Kernel and rank invariants of length-16 codes.

The kernel of a code C is the group of words k with C + k = C.  It is
invariant under translation of C, always contains 0, and for the codes
built here always contains ffff.

A subspace of the kernel is held as its echelon basis
(words.echelon_basis), and cosets decomposes a code into its cosets.
kernel_cosets is the one entry point to the kernel itself: it computes
the kernel words, checks once that they are the span of their basis,
and keeps the kernel cosets on the code.

A DoublingPair table, one per ordered class pair, reads a doubled
code's kernel dimension off the intersection of its classes'
translation groups, and its rank off the intersection of the
annihilators of their null relations, without building it;
scan.scan_pair is its one caller.  kernel_words computes the kernel
from the 2048 codewords, and rank_of the rank from its cosets; they
serve codes loaded from files and are the test oracle of the table.
kernel_words and cosets read membership off Code.neighbours (AT_CODE
at a codeword), so they run only on a certified extended 1-perfect code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .doubling import AT_CODE, SPACE16, Code
from .words import (IDENTITY8, coset_minima, echelon_basis, rank_gf2,
                    xor_closure)


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


def _log2_kernel_size(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError("kernel size %d is not a power of two" % n)
    return n.bit_length() - 1


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


def _fixed_points(p: bytes) -> int:
    return sum(a == b for a, b in zip(p, IDENTITY8))


class DoublingPair(NamedTuple):
    """(rank, kernel dimension) of the doubled codes of one ordered
    class pair, read off the two partitions in a few bytes.translate
    calls.

    With L = (C_0..C_7) the left class, R = (D_0..D_7) the right one,
    the code doubled under sigma is the union of the products
    C_i x D_sigma(i), which is never built here (Phelps, SIAM J. Alg.
    Disc. Meth. 1984).

    Kernel: (a, b) fixes the code exactly when a permutes L's components
    by translation (pa in A_L), b permutes R's (pb in A_R), and pb =
    sigma pa sigma^-1.  Each element of A_L is realized by f_L
    translations, so the kernel size is f_L f_R |A_L & sigma^-1 A_R sigma|,
    counted by conjugating one group's elements into the other.

    Rank: the codeword differences are spanned by the within-component
    differences of L and of R, each in its own half, and by the blocks
    (x_i + x_0, y_sigma(i) + y_sigma(0)) of residues, i = 1..7.  These
    span 7 - dim(N_L & sigma^-1 N_R), N_L and N_R the null relations of
    TranslationAction and sigma^-1 S = {i : sigma(i) in S}.  The
    annihilator of that meet in F_2^8 is U_L + sigma^-1 U_R, of
    dimension (r_L + 1) + (r_R + 1) - dim(U_L & sigma^-1 U_R), and
    U_L & sigma^-1 U_R is {0, all eight} plus the sets sigma^-1(w), w in
    W_R, that lie in U_L (all eight is in neither W).  Hence

        rank = delta_L + delta_R + r_L + r_R
               - log2 #{w in W_R : sigma^-1(w) in U_L}.

    The count is the same from either side, so the smaller W is the one
    carried.  With r = 0 on either side W = {0} or U = {0, all eight},
    and the count is 1.

    The table: moves are the translate tables of the non-identity
    elements of A_L (when left_moves) or A_R that sigma conjugates into
    the other group, into.  Conjugation keeps the cycle type, for these
    involutions the number of fixed points, so only elements of a count
    the other group has are kept, from the side with fewer.  tables:
    translate tables of the nonzero sets of the smaller W, W_R when
    right_w, carried by sigma^-1 (or sigma) into the other side's U, u.
    results: (rank, kernel dimension) by the tests passed, one per move
    and 16 per set; each kernel size in it is checked once, and a count
    that is not a subgroup's raises KeyError.  Atlas.pair builds one per
    pair.
    """

    moves: tuple
    into: frozenset
    left_moves: bool
    tables: tuple
    u: frozenset
    right_w: bool
    results: dict

    @classmethod
    def of(cls, la, ra) -> "DoublingPair":
        """The table of two partitions.TranslationAction, left then right."""
        def candidates(a, b) -> list:
            kinds = {_fixed_points(p) for p in b.perms if p != IDENTITY8}
            return [p for p in a.perms
                    if p != IDENTITY8 and _fixed_points(p) in kinds]

        left, right = candidates(la, ra), candidates(ra, la)
        # conjugating A_L's elements costs a second maketrans
        left_moves = len(left) + 1 < len(right)
        moves, into = (left, ra.perms) if left_moves else (right, la.perms)
        right_w = ra.rank <= la.rank
        w, u = (ra, la) if right_w else (la, ra)
        base = la.delta_dim + ra.delta_dim + la.rank + ra.rank
        meets = min(len(la.perms), len(ra.perms)).bit_length()
        results = {(1 << k) - 1 + 16 * ((1 << j) - 1):
                   (base - j, _log2_kernel_size(la.fixers * ra.fixers << k))
                   for k in range(meets)
                   for j in range(min(la.rank, ra.rank) + 1)}
        return cls(tuple(bytes.maketrans(IDENTITY8, p) for p in moves), into,
                   left_moves,
                   tuple(bytes.maketrans(IDENTITY8, t) for t in w.w_sets[1:]),
                   u.u_sets, right_w, results)

    def invariants(self, sig: bytes) -> tuple[int, int]:
        """(rank, kernel dimension) of the code doubled under sig, a
        permutation of 0..7 as 8 bytes (words.sigma_bytes)."""
        moves, into, left_moves, tables, u, right_w, results = self
        passed = 0
        if moves:
            back = bytes.maketrans(sig, IDENTITY8)  # sigma^-1 as a table
            if left_moves:  # sigma p sigma^-1, p in A_L
                s, t = back[:8], bytes.maketrans(IDENTITY8, sig)
            else:  # sigma^-1 q sigma, q in A_R
                s, t = sig, back
            for p in moves:
                if s.translate(p).translate(t) in into:
                    passed += 1
        if tables:  # sigma^-1(w) for w in W_R, sigma(w) for w in W_L
            s = sig if right_w else bytes.maketrans(sig, IDENTITY8)[:8]
            for w in tables:
                if s.translate(w) in u:
                    passed += 16
        return results[passed]


@dataclass(eq=False)
class CosetDecomposition:
    """Cosets of a kernel subspace inside a code: the subspace's echelon
    basis, the cosets' least words in increasing order, and the coset
    number of every codeword, aligned with code.words."""

    basis: tuple
    reps: np.ndarray
    word_coset: np.ndarray


def cosets(code: Code, basis) -> CosetDecomposition:
    """Decompose the code into cosets of a subspace of its kernel.

    basis is any set of words spanning the subspace, dependent or not.
    Each is checked to be a kernel word (C + b = C), and they are
    eliminated once into the echelon basis the decomposition keeps.
    C + b = C for every spanning word b gives C + s = C for every s in
    the span, so a coset of the subspace that meets C lies in C: every
    coset is whole.  Representatives are the lexicographic minima
    (words.coset_minima), numbered in increasing order; np.unique of
    the minima gives the representatives and, as its inverse, every
    word's coset.
    """
    words, pos = code.words, code.neighbours
    for b in basis:
        if not (pos[words ^ np.uint16(b)] == AT_CODE).all():
            raise ValueError("subspace is not contained in the kernel")
    basis = echelon_basis(basis)
    reps, inverse = np.unique(coset_minima(words, basis),
                              return_inverse=True)
    return CosetDecomposition(basis, reps, inverse)


def kernel_cosets(code: Code) -> CosetDecomposition:
    """The code's kernel cosets, decomposed once and kept on the code;
    the kernel dimension is len(kernel_cosets(code).basis).

    That the kernel is a subspace is asserted, not assumed: the sorted
    kernel_words must equal the span of their echelon basis, which fails
    on a set that is not xor-closed and on a repeated word alike.
    """
    if code.kernel_cosets is None:
        kw = kernel_words(code)
        basis = echelon_basis(kw)
        if np.sort(kw).tolist() != xor_closure(basis):
            raise AssertionError("kernel words are not the span of their "
                                 "basis")
        code.kernel_cosets = cosets(code, basis)
    return code.kernel_cosets
