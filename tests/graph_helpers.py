"""Readers of folded graphs that only tests use.

graph_from_json parses what SqsGraph.to_json writes; edge_labels,
loop_count and row_sums read one edge, the loop size or the degrees
off a graph; vertex_sum_check is
the degree identity of every fold: 140 blocks meet each codeword.
"""

import numpy as np

from pcl.words import parse_quad


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


def edge_labels(g, i: int, j: int) -> tuple:
    """Labels between vertices i and j of a fold; the loop when i == j."""
    if i == j:
        return g.loop_labels
    return g.labels.get((min(i, j), max(i, j)), ())


def loop_count(g) -> int:
    return len(g.loop_labels)


def row_sums(g) -> np.ndarray:
    return g.mult.sum(axis=1)


def vertex_sum_check(g) -> bool:
    """Every vertex's incident multiplicities (loop once) sum to 140."""
    return bool((row_sums(g) == 140).all())
