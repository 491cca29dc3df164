"""Rank and kernel dimension of a doubled code, read off its two partitions.

An independent check on the census rows: it never builds the 2048-word
code.  For partitions L = (C_0..C_7), R = (D_0..D_7) and a matching sigma,
the doubled code is the union of the products C_i x D_sigma(i).

Kernel: (a, b) fixes the code exactly when a permutes the components of L
by translation (C_i + a = C_pa(i)), b permutes those of R (pb), and
pb . sigma = sigma . pa.  Its dimension is log2 of the number of such pairs.

Rank: the differences of codewords are spanned by the within-component
differences of L (low byte), those of R (high byte), and the block
representatives r_i | s_sigma(i) << 8 taken relative to block 0; the
rank is the dimension of that span.
"""

from __future__ import annotations

from collections import Counter


def _gf2_rank(words) -> int:
    basis: dict[int, int] = {}
    for w in words:
        while w:
            lead = w.bit_length() - 1
            if lead not in basis:
                basis[lead] = w
                break
            w ^= basis[lead]
    return len(basis)


class PartitionOracle:
    """Translation action and difference basis of one length-8 partition."""

    def __init__(self, components):
        self.components = [sorted(int(w) for w in c) for c in components]
        if len(self.components) != 8:
            raise ValueError("a partition has eight components")
        col = {}
        for i, comp in enumerate(self.components):
            for w in comp:
                col[w] = i
        self.reps = [c[0] for c in self.components]
        self.deltas = [w ^ c[0] for c in self.components for w in c]
        # perms[a] = tuple p with C_i + a = C_p[i], for each translation a
        self.perms: dict[int, tuple] = {}
        for a in range(256):
            p = []
            for comp in self.components:
                targets = {col.get(w ^ a) for w in comp}
                if len(targets) != 1 or None in targets:
                    break
                p.append(targets.pop())
            else:
                self.perms[a] = tuple(p)
        self.perm_counts = Counter(self.perms.values())


def kernel_dim(left: PartitionOracle, right: PartitionOracle, sigma) -> int:
    inv = [0] * 8
    for i, s in enumerate(sigma):
        inv[s] = i
    count = 0
    for pa in left.perms.values():
        # pb must equal sigma . pa . sigma^-1
        want = tuple(sigma[pa[inv[j]]] for j in range(8))
        count += right.perm_counts.get(want, 0)
    if count & (count - 1):
        raise ValueError("kernel size %d is not a power of two" % count)
    return count.bit_length() - 1


def rank(left: PartitionOracle, right: PartitionOracle, sigma) -> int:
    r0 = left.reps[0] | (right.reps[sigma[0]] << 8)
    blocks = [(left.reps[i] | (right.reps[sigma[i]] << 8)) ^ r0
              for i in range(1, 8)]
    return _gf2_rank(left.deltas + [d << 8 for d in right.deltas] + blocks)
