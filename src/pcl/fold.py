"""Per-codeword Steiner quadruple systems and folds over kernel subgroups.

At any codeword v the weight-4 differences v ^ c over all codewords c
form the blocks of a Steiner quadruple system on the 16 coordinates:
140 blocks covering each of the 560 triples exactly once.  The check is
made once per code, at every codeword at once, when sts first reads the
code's neighbour table (Code.neighbours): its scatter of the 2048 x 16
neighbours of the codewords is injective exactly when the code is
extended 1-perfect, and the triple a, b, c at v then has the one fourth
point the table gives at v ^ e_a ^ e_b ^ e_c.  Folding over
a subgroup L of the kernel collapses each L-coset of the code to one
vertex; a weight-4 difference between cosets becomes an edge labeled by
its support, and weight-4 words inside L itself become loops.  Loop
labels are therefore the same at every vertex.

The fold needs no check of its own.  algebra.cosets certifies that the
code is the disjoint union of whole cosets r_i + L, so for cosets r_i +
L and r_j + L every difference u ^ v lies in r_i ^ r_j + L, and a row or
column of their difference table is that whole coset.  Each label of the
edge appears exactly once in every row and every column, and the labels
depend only on r_i ^ r_j + L; the fold computes them once per class,
keyed by its least word.  No two classes share a label, since a shared
word would put both differences in one coset of L.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import cosets, kernel_cosets
from .doubling import Code
from .words import coset_minima, quad_name, word_hex, xor_closure


@dataclass(frozen=True, eq=False)
class SqsGraph:
    """Fold of a code over a kernel subspace.

    Vertices index the subspace cosets inside the code.  Each vertex
    pair (i, j), the diagonal included, falls in the difference class
    r_i ^ r_j + L numbered pair_class[i, j]; classes[k] is the sorted
    tuple of weight-4 words of class k.  Class 0 is L itself, whose
    words are the loop shared by every vertex.  mult is the full
    multiplicity matrix with loop counts on the diagonal.  The dot and
    json exporters label vertex i with sts[i] when given the list sts.
    """

    reps: np.ndarray
    classes: tuple
    pair_class: np.ndarray

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def loop_labels(self) -> tuple:
        return self.classes[0]

    def links(self):
        """(i, j, class) for every vertex pair i < j, row by row."""
        i, j = np.triu_indices(self.order, 1)
        return zip(i.tolist(), j.tolist(), self.pair_class[i, j].tolist())

    @property
    def labels(self) -> dict:
        """(i, j) -> labels for each pair i < j with one, row by row."""
        return {(i, j): self.classes[k]
                for i, j, k in self.links() if self.classes[k]}

    @property
    def mult(self) -> np.ndarray:
        return np.array([len(c) for c in self.classes],
                        dtype=np.int64)[self.pair_class]

    def to_json(self, sts=None) -> dict:
        verts = []
        for i, r in enumerate(self.reps):
            v = {"id": i, "representative": word_hex(int(r), 16)}
            if sts is not None:
                v["stsTuple"] = sts[i]
            verts.append(v)
        loops = [((i, i), self.loop_labels) for i in range(self.order)]
        edges = [{"a": i, "b": j, "quadruples": [quad_name(b) for b in labs],
                  "multiplicity": len(labs)}
                 for (i, j), labs in loops + list(self.labels.items())]
        return {"vertices": verts, "edges": edges}

    def to_dot(self, sts=None) -> str:
        lines = ["graph fold {"]
        for i in range(self.order):
            label = str(i)
            if sts is not None:
                label += "\\n" + sts[i]
            lines.append('  v%d [label="%s"];' % (i, label))
        mult = self.mult
        for i, j in [(i, i) for i in range(self.order)] + list(self.labels):
            lines.append('  v%d -- v%d [label="%d"];' % (i, j, mult[i, j]))
        lines.append("}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.mult) + "\n"


def quotient_graph(code: Code, basis=None) -> SqsGraph:
    """Fold over a kernel subspace, spanned by the words of basis
    (algebra.cosets); the whole kernel when basis is None.

    Every pair is keyed by the least word of r_i ^ r_j + L, and the
    labels of each class are the weight-4 words of key ^ L, read off one
    (classes, |L|) array.  The covering property that makes this sound
    follows from the decomposition's own check (module docstring).
    """
    dec = kernel_cosets(code) if basis is None else cosets(code, basis)
    reps = dec.reps
    m = len(reps)
    sub = np.array(xor_closure(dec.basis), dtype=np.uint16)
    # the diagonal's key 0 is the least, so L itself is class 0
    keys, pair_class = np.unique(
        coset_minima(reps[:, None] ^ reps[None, :], dec.basis),
        return_inverse=True)
    diffs = keys[:, None] ^ sub[None, :]
    w4 = np.bitwise_count(diffs) == 4
    # 0xFFFF has weight 16, so it pads each sorted row after the labels
    quads = np.sort(np.where(w4, diffs, 0xFFFF), axis=1).tolist()
    classes = tuple(tuple(q[:n])
                    for q, n in zip(quads, w4.sum(axis=1).tolist()))
    return SqsGraph(reps, classes, pair_class.reshape(m, m))
