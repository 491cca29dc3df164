"""Kernel and rank invariants of length-16 codes.

The kernel of a code C is the group of words k with C + k = C.  It is
invariant under translation of C, always contains 0, and for the codes
built here always contains ffff.  Weight-4 kernel words split by
support: left means support inside coordinates 0-7, right means inside
8-15, mixed means both halves are touched.

doubled_invariants reads a doubled code's kernel dimension off the
intersection of its classes' translation groups, and its rank off the
residues summed over one class's null relations, without building it.
kernel_words computes the kernel from the 2048 codewords, and rank_of
the rank from its cosets; they serve codes loaded from files and are
the test oracle of the formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .doubling import SPACE16, Code
from .words import (IDENTITY8, coset_minima, echelon_basis, popcounts16,
                    rank_gf2, xor_closure)


def kernel_words(code: Code) -> np.ndarray:
    """All k with C + k = C, sorted, starting with 0.

    Any kernel word is a difference of codewords, so only the 2048
    differences against one fixed codeword are candidates, and only the
    undecided ones are tested.  A kernel word c closes the span found so
    far (K grows to K + c) and moves the known outsiders by c; an
    outsider c rules out its whole coset K + c.  Both sets stay unions
    of cosets of the current K, so each test decides a whole coset.
    """
    words, occ = code.words, code.occ
    state = np.zeros(SPACE16, dtype=np.int8)  # 1 kernel, -1 not, 0 unknown
    kw = np.zeros(1, dtype=np.uint16)
    out = np.zeros(0, dtype=np.uint16)
    state[0] = 1
    for c in words ^ words[0]:
        if state[c]:
            continue
        if occ[words ^ c].all():
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
    return rank_gf2(dec.subspace.basis + tuple(shifts))


def doubled_invariants(atlas, left: int, right: int, sigma) -> tuple[int, int]:
    """(rank, kernel dimension) of the doubled code of two atlas classes.

    With L = (C_0..C_7) the left class, R = (D_0..D_7) the right one,
    the code is the union of the products C_i x D_sigma(i), which is
    never built here (Phelps, SIAM J. Alg. Disc. Meth. 1984).

    Kernel: (a, b) fixes the code exactly when a permutes L's components
    by translation (pa in A_L), b permutes R's (pb in A_R), and pb =
    sigma pa sigma^-1.  Each element of A_L is realized by f_L
    translations, so the kernel size is f_L f_R |A_L & sigma^-1 A_R sigma|,
    counted by conjugating the smaller group's elements into the larger.

    Rank: the codeword differences are spanned by the within-component
    differences of L and of R, each in its own half, and by the block
    words u_i | v_i << 8, u_i = x_i + x_0, v_i = y_sigma(i) + y_sigma(0).
    Projecting them onto the left half gives rank{u_i} plus the rank of
    the v summed over each null relation of L.
    """
    la, ra = atlas.classes[left].action, atlas.classes[right].action
    sig = bytes(sigma)
    fwd, back = bytes.maketrans(IDENTITY8, sig), bytes.maketrans(sig, IDENTITY8)
    if len(la.perms) <= len(ra.perms):  # sigma pa sigma^-1 into A_R
        moves, big, s, t = la.moves, ra.perms, back[:8], fwd
    else:  # sigma^-1 pb sigma into A_L
        moves, big, s, t = ra.moves, la.perms, sig, back
    meet = 1 + sum([s.translate(p).translate(t) in big for p in moves])
    z, sums = ra.residues, []
    for rel in la.nulls if la.rank and ra.rank else ():
        v = 0
        for i in rel:
            v ^= z[sigma[i]]
        sums.append(v)
    # with one side's residues all equal the blocks span the other side's
    blocks = la.rank + rank_gf2(sums) if la.rank else ra.rank
    return (la.delta_dim + ra.delta_dim + blocks,
            _log2_kernel_size(la.fixers * ra.fixers * meet))


def weight4_words(kw: np.ndarray) -> np.ndarray:
    return kw[popcounts16(kw) == 4]


def half_pure_subgroup(kw: np.ndarray) -> np.ndarray:
    """Span of the half-supported weight-4 kernel words, inside the kernel."""
    w4 = weight4_words(kw)
    half = w4[((w4 & 0xFF00) == 0) | ((w4 & 0x00FF) == 0)]
    span = np.array(xor_closure(int(w) for w in half), dtype=np.uint16)
    ks = frozenset(int(k) for k in kw)
    if any(int(s) not in ks for s in span):
        raise AssertionError("half-pure span left the kernel")
    return span


@dataclass(frozen=True)
class LinearSpan:
    """A GF(2) subspace held by an independent basis."""

    basis: tuple

    @classmethod
    def from_words(cls, words) -> "LinearSpan":
        basis = echelon_basis(words)
        return cls(tuple(basis[k] for k in sorted(basis)))

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def words(self) -> np.ndarray:
        return np.array(xor_closure(self.basis), dtype=np.uint16)

    def __len__(self) -> int:
        return 1 << len(self.basis)


def kernel(code: Code) -> LinearSpan:
    """The kernel as a span, kept on the code with its cosets.

    Closure under xor is asserted, not assumed: the full table of
    pairwise sums is checked against the kernel occupancy.
    """
    if code.kernel_cosets is not None:
        return code.kernel_cosets.subspace
    kw = kernel_words(code)
    kocc = np.zeros(SPACE16, dtype=bool)
    kocc[kw] = True
    if not kocc[kw[:, None] ^ kw[None, :]].all():
        raise AssertionError("kernel is not xor-closed")
    span = LinearSpan.from_words(kw)
    if len(span) != len(kw):
        raise AssertionError("kernel basis does not regenerate the kernel")
    code.kernel_cosets = cosets(code, span)
    return span


@dataclass(eq=False)
class CosetDecomposition:
    """Cosets of a kernel subspace inside a code."""

    subspace: LinearSpan
    reps: np.ndarray
    index: np.ndarray

    def __len__(self) -> int:
        return len(self.reps)


def cosets(code: Code, span: LinearSpan) -> CosetDecomposition:
    """Decompose the code into cosets of a subspace of its kernel.

    Representatives are the lexicographic minima (words.coset_minima),
    numbered in increasing order; every coset is checked to have full
    size.  np.unique of the minima gives the representatives and every
    word's coset.
    """
    words, occ = code.words, code.occ
    for b in span.basis:
        if not occ[words ^ np.uint16(b)].all():
            raise ValueError("subspace is not contained in the kernel")
    reps, inverse = np.unique(coset_minima(words, span.basis),
                              return_inverse=True)
    if len(reps) << rank_gf2(span.basis) != len(words):
        raise AssertionError("cosets do not partition the code")
    index = np.full(SPACE16, -1, dtype=np.int32)
    index[words] = inverse
    return CosetDecomposition(span, reps, index)


def kernel_cosets(code: Code) -> CosetDecomposition:
    """The code's kernel cosets, decomposed once and kept on the code."""
    kernel(code)
    return code.kernel_cosets
