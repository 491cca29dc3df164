"""Per-codeword Steiner quadruple systems and folds over kernel subgroups.

At any codeword v the weight-4 differences v ^ c over all codewords c
form the blocks of a Steiner quadruple system on the 16 coordinates:
140 blocks covering each of the 560 triples exactly once, which
sts.third_point_table checks whenever it types a vertex.  Folding over
a subgroup L of the kernel collapses each L-coset of the code to one
vertex; a weight-4 difference between cosets becomes an edge labeled by
its support, and weight-4 words inside L itself become loops.  Loop
labels are therefore the same at every vertex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import LinearSpan, cosets, kernel_cosets
from .doubling import Code
from .words import parse_quad, popcounts16, quad_name, word_hex


@dataclass(eq=False)
class SqsGraph:
    """Fold of a code over a kernel subspace.

    Vertices index the subspace cosets inside the code.  labels[(i, j)]
    with i < j is the sorted tuple of weight-4 supports between cosets i
    and j; loop_labels is the common per-vertex loop set.  mult is the
    full multiplicity matrix with loop counts on the diagonal.
    """

    code: Code
    span: LinearSpan
    reps: np.ndarray
    loop_labels: tuple
    labels: dict
    mult: np.ndarray
    vertex_sts: list | None = field(default=None)

    @property
    def order(self) -> int:
        return len(self.reps)

    @property
    def loop_count(self) -> int:
        return len(self.loop_labels)

    def edge_labels(self, i: int, j: int) -> tuple:
        if i == j:
            return self.loop_labels
        return self.labels.get((min(i, j), max(i, j)), ())

    def row_sums(self) -> np.ndarray:
        return self.mult.sum(axis=1)

    def to_json(self) -> dict:
        verts = []
        for i, r in enumerate(self.reps):
            v = {"id": i, "representative": word_hex(int(r), 16)}
            if self.vertex_sts is not None:
                v["stsTuple"] = self.vertex_sts[i]
            verts.append(v)
        edges = [{"a": i, "b": i,
                  "quadruples": [quad_name(b) for b in self.loop_labels],
                  "multiplicity": len(self.loop_labels)}
                 for i in range(self.order)]
        for (i, j), labs in sorted(self.labels.items()):
            edges.append({"a": i, "b": j,
                          "quadruples": [quad_name(b) for b in labs],
                          "multiplicity": len(labs)})
        return {"vertices": verts, "edges": edges}

    def to_dot(self) -> str:
        lines = ["graph fold {"]
        for i in range(self.order):
            label = str(i)
            if self.vertex_sts is not None:
                label += "\\n" + self.vertex_sts[i]
            lines.append('  v%d [label="%s"];' % (i, label))
        for e in self.to_json()["edges"]:
            lines.append('  v%d -- v%d [label="%d"];'
                         % (e["a"], e["b"], e["multiplicity"]))
        lines.append("}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        return "\n".join(",".join(str(x) for x in row) for row in self.mult) + "\n"


def graph_from_json(d: dict) -> tuple:
    """Round-trip companion to SqsGraph.to_json: (reps, labels, mult, sts)."""
    verts = sorted(d["vertices"], key=lambda v: v["id"])
    reps = np.array([int(v["representative"], 16) for v in verts], dtype=np.uint16)
    sts = [v.get("stsTuple") for v in verts]
    if all(s is None for s in sts):
        sts = None
    m = len(reps)
    mult = np.zeros((m, m), dtype=np.int64)
    labels = {}
    for e in d["edges"]:
        i, j = e["a"], e["b"]
        quads = tuple(sorted(parse_quad(q) for q in e["quadruples"]))
        if len(quads) != e["multiplicity"]:
            raise ValueError("multiplicity does not match quadruple count")
        if i == j:
            mult[i, i] = len(quads)
        else:
            labels[(min(i, j), max(i, j))] = quads
            mult[i, j] = mult[j, i] = len(quads)
    return reps, labels, mult, sts


def quotient_graph(code: Code, span: LinearSpan | None = None) -> SqsGraph:
    """Fold over a kernel subspace; the whole kernel when span is None.

    Every edge is verified to have the covering property: each label
    appears exactly once per row and column of the coset-pair difference
    table, checked with one sort of the table along each axis.
    """
    dec = kernel_cosets(code) if span is None else cosets(code, span)
    span = dec.subspace
    reps = dec.reps
    m = len(reps)
    sub = span.words()
    loop = tuple(int(b) for b in np.sort(sub[popcounts16(sub) == 4]))
    labels: dict = {}
    mult = np.zeros((m, m), dtype=np.int64)
    np.fill_diagonal(mult, len(loop))
    members = [code.words[dec.index[code.words] == i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = reps[i] ^ reps[j] ^ sub
            w4 = d[popcounts16(d) == 4]
            if len(w4) == 0:
                continue
            labs = tuple(int(b) for b in np.sort(w4))
            dd = members[i][:, None] ^ members[j][None, :]
            ww = np.where(popcounts16(dd) == 4, dd, 0)
            rows = np.sort(ww, axis=1)
            cols = np.sort(ww, axis=0)
            if not ((rows == rows[0]).all() and (cols == rows[:1].T).all()):
                raise AssertionError(
                    "covering property fails between cosets %d and %d" % (i, j))
            labels[(i, j)] = labs
            mult[i, j] = mult[j, i] = len(labs)
    return SqsGraph(code, span, reps, loop, labels, mult)


def vertex_sum_check(g: SqsGraph) -> bool:
    """Every vertex's incident multiplicities (loop once) sum to 140."""
    return bool((g.row_sums() == 140).all())
