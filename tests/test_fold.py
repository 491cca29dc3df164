"""SQS extraction and folding over kernel subspaces.

check_sqs below is the triple-by-triple oracle of the block route's SQS
check, the coverage count of third_point_table, whose tables equal the
ones the package reads off Code.neighbours (test_sts);
quotient_graph_pairwise is the per-pair oracle of quotient_graph's one
pass over the difference classes, and pairs_cover the all-pairs
covering table that algebra.cosets' check implies.  All three file the
codewords into cosets by span membership (code_helpers.coset_numbers).
"""

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from pcl.algebra import cosets, kernel_cosets, kernel_words
from pcl.doubling import Code
from pcl.fold import quotient_graph
from pcl.words import echelon_basis, quad_name, xor_closure

from code_helpers import coset_numbers, half_pure_subgroup, occupancy
from graph_helpers import (edge_labels, graph_from_json, loop_count,
                           row_sums, vertex_sum_check)
from sts_oracles import third_point_table

# kappa -> (vertex count, loop multiplicity) of the whole-kernel fold
FOLD_SHAPE = {5: (64, 8), 6: (32, 16), 7: (16, 20), 8: (8, 28), 9: (4, 44)}


@dataclass(frozen=True)
class SqsSystem:
    """An SQS(16): 140 quadruple blocks as support masks."""

    blocks: tuple

    def __len__(self) -> int:
        return len(self.blocks)


def check_sqs(blocks, points: int = 16) -> None:
    """Raise unless the blocks cover every point triple exactly once."""
    expect = points * (points - 1) * (points - 2) // 24
    if len(blocks) != expect:
        raise ValueError("got %d blocks, want %d" % (len(blocks), expect))
    seen: set = set()
    for b in blocks:
        pts = [i for i in range(points) if (int(b) >> i) & 1]
        if len(pts) != 4 or int(b) >> points:
            raise ValueError("block %x is not a 4-subset" % int(b))
        for t in combinations(pts, 3):
            if t in seen:
                raise ValueError("triple %s covered twice" % (t,))
            seen.add(t)
    # 140 blocks x 4 triples each = 560 = all triples, so coverage is complete


def is_sqs(blocks, points: int = 16) -> bool:
    try:
        check_sqs(blocks, points)
    except ValueError:
        return False
    return True


def sqs_of(code: Code, v: int) -> SqsSystem:
    """The SQS carried by codeword v, validated."""
    if not occupancy(code.words)[v]:
        raise ValueError("%04x is not a codeword" % v)
    d = code.words ^ np.uint16(v)
    blocks = tuple(int(b) for b in np.sort(d[np.bitwise_count(d) == 4]))
    check_sqs(blocks)
    return SqsSystem(blocks)


def foldable(code, basis) -> bool:
    """Does every weight-4 label repeat exactly once per source codeword?

    The oracle of the covering property quotient_graph relies on.  For
    cosets U, V of the subspace and any label q between them, each u in
    U must see exactly one v in V with u ^ v of support q.  Words are
    grouped by coset and every row and column of every coset-pair table,
    within a coset too, is sorted on its own; no kernel shortcut.
    """
    dec = cosets(code, basis)
    m = len(dec.reps)
    size = 1 << len(dec.basis)
    number = coset_numbers(code, dec)
    members = [code.words[number == i] for i in range(m)]
    for i in range(m):
        for j in range(i, m):
            d = members[i][:, None] ^ members[j][None, :]
            w4 = np.where(np.bitwise_count(d) == 4, d, 0)
            first = np.sort(w4[0])
            for r in range(1, size):
                if not np.array_equal(np.sort(w4[r]), first):
                    return False
            if i != j:
                for c in range(size):
                    if not np.array_equal(np.sort(w4[:, c]), first):
                        return False
    return True


def pairs_cover(code: Code, basis=None, number=None) -> bool:
    """The covering property on every coset pair i < j, by one table.

    Words are filed into rows by their coset number, coset_numbers
    unless number is given; every u ^ v with u in row i and v in row j
    must lie in r_i ^ r_j + L, checked on the (pairs, |L|, |L|) table of
    differences.
    """
    dec = kernel_cosets(code) if basis is None else cosets(code, basis)
    sub = np.array(xor_closure(dec.basis), dtype=np.uint16)
    m = len(dec.reps)
    if number is None:
        number = coset_numbers(code, dec)
    by_coset = np.argsort(number, kind="stable")
    members = code.words[by_coset].reshape(m, len(sub))
    inside = np.zeros(1 << 16, dtype=bool)
    inside[sub] = True
    i, j = np.triu_indices(m, 1)
    table = members[i][:, :, None] ^ members[j][:, None, :]
    table ^= (dec.reps[i] ^ dec.reps[j])[:, None, None]
    return bool(inside[table].all())


def quotient_graph_pairwise(code: Code, basis=None) -> tuple:
    """The fold built one coset pair at a time: (reps, loop, labels, mult).

    labels maps each pair i < j with a label to its sorted label tuple.
    Each pair's difference table is checked for the covering property by
    sorting it along both axes: every row and every column must hold the
    same weight-4 words.
    """
    dec = kernel_cosets(code) if basis is None else cosets(code, basis)
    reps = dec.reps
    m = len(reps)
    sub = np.array(xor_closure(dec.basis), dtype=np.uint16)
    loop = tuple(int(b) for b in np.sort(sub[np.bitwise_count(sub) == 4]))
    labels: dict = {}
    mult = np.zeros((m, m), dtype=np.int64)
    np.fill_diagonal(mult, len(loop))
    number = coset_numbers(code, dec)
    members = [code.words[number == i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            d = reps[i] ^ reps[j] ^ sub
            w4 = d[np.bitwise_count(d) == 4]
            if len(w4) == 0:
                continue
            labs = tuple(int(b) for b in np.sort(w4))
            dd = members[i][:, None] ^ members[j][None, :]
            ww = np.where(np.bitwise_count(dd) == 4, dd, 0)
            rows = np.sort(ww, axis=1)
            cols = np.sort(ww, axis=0)
            if not ((rows == rows[0]).all() and (cols == rows[:1].T).all()):
                raise AssertionError(
                    "covering property fails between cosets %d and %d" % (i, j))
            labels[(i, j)] = labs
            mult[i, j] = mult[j, i] = len(labs)
    return reps, loop, labels, mult


def test_sqs_of_witness(witnesses):
    code = witnesses[9]
    v = int(code.words[0])
    sqs = sqs_of(code, v)
    assert len(sqs) == 140
    assert all(bin(b).count("1") == 4 for b in sqs.blocks)
    assert is_sqs(sqs.blocks)
    assert (third_point_table(sqs.blocks) >= 0).sum() == 16 * 15 * 14
    with pytest.raises(ValueError):
        sqs_of(code, v ^ 1)


def test_sqs_constant_on_kernel_cosets(witnesses):
    code = witnesses[8]
    v0 = int(code.words[0])
    kw = kernel_words(code)
    v1 = v0 ^ int(kw[1])
    assert v1 != v0
    assert sqs_of(code, v0).blocks == sqs_of(code, v1).blocks


def test_check_sqs_rejects():
    for bad in ((0b1111,) * 140, (0b111,) + (0b1111,) * 139, ()):
        assert not is_sqs(bad)
        with pytest.raises(ValueError):
            third_point_table(bad)


def test_foldable_over_kernel(witnesses):
    for kappa in (5, 6, 7, 8, 9):
        code = witnesses[kappa]
        assert foldable(code, kernel_words(code))


def test_foldable_over_half_pure_subgroup(witnesses):
    code = witnesses[9]
    basis = echelon_basis(half_pure_subgroup(kernel_words(code)))
    assert len(basis) == 8
    assert foldable(code, basis)
    g = quotient_graph(code, basis)
    assert g.order == 8
    assert vertex_sum_check(g)


def test_quotient_graph_shapes(witnesses):
    for kappa, (order, loop) in FOLD_SHAPE.items():
        g = quotient_graph(witnesses[kappa])
        assert g.order == order
        assert loop_count(g) == loop
        assert (row_sums(g) == 140).all()
        assert vertex_sum_check(g)
        assert np.array_equal(g.mult, g.mult.T)
        assert (np.diag(g.mult) == loop).all()


def _same_fold(g, oracle) -> bool:
    """g has the oracle's vertices, loop, labels on every pair (none on a
    pair the oracle leaves out) and multiplicities."""
    reps, loop, labels, mult = oracle
    m = len(reps)
    pairs = {(i, j): g.classes[g.pair_class[i, j]]
             for i in range(m) for j in range(i + 1, m)}
    return (np.array_equal(g.reps, reps) and g.loop_labels == loop
            and (np.diag(g.pair_class) == 0).all()
            and np.array_equal(g.pair_class, g.pair_class.T)
            and pairs == {e: labels.get(e, ()) for e in pairs}
            and list(g.labels.items()) == list(labels.items())
            and np.array_equal(g.mult, mult))


def test_quotient_graph_matches_pairwise(witnesses):
    for kappa in FOLD_SHAPE:
        code = witnesses[kappa]
        assert pairs_cover(code)
        assert _same_fold(quotient_graph(code), quotient_graph_pairwise(code))
    code = witnesses[9]
    basis = echelon_basis(half_pure_subgroup(kernel_words(code)))
    assert pairs_cover(code, basis)
    assert _same_fold(quotient_graph(code, basis),
                      quotient_graph_pairwise(code, basis))


def test_pairs_cover_rejects_misplaced_words(witnesses):
    code = witnesses[7]
    rng = np.random.default_rng(3)
    for u in [code.words[0], code.words[-1]] + list(rng.choice(code.words, 4)):
        coset = coset_numbers(code, kernel_cosets(code))
        at = np.searchsorted(code.words, u)
        swap = [at, rng.choice(np.flatnonzero(coset != coset[at]))]
        coset[swap] = coset[swap[::-1]]
        assert not pairs_cover(code, number=coset)


def test_switched_folds_match_pairwise(switched):
    for code in switched:
        g = quotient_graph(code)
        assert (row_sums(g) == 140).all()
        if g.order <= 128:  # kappa >= 4: the per-pair oracle stays quick
            assert pairs_cover(code)
            assert _same_fold(g, quotient_graph_pairwise(code))


def test_edge_labels_accessors(witnesses):
    g = quotient_graph(witnesses[9])
    assert edge_labels(g, 0, 0) == g.loop_labels
    assert edge_labels(g, 1, 2) == edge_labels(g, 2, 1)
    lab = edge_labels(g, 0, 1)
    assert len(lab) == g.mult[0, 1]
    assert all(bin(b).count("1") == 4 for b in lab)


def test_graph_json_roundtrip(witnesses):
    g = quotient_graph(witnesses[8])
    g.vertex_sts = ["3" * 16] * g.order
    d = g.to_json()
    reps, labels, mult, sts = graph_from_json(d)
    assert np.array_equal(reps, g.reps)
    assert labels == g.labels
    assert np.array_equal(mult, g.mult)
    assert sts == g.vertex_sts


def test_graph_json_roundtrip_without_sts(witnesses):
    g = quotient_graph(witnesses[9])
    reps, labels, mult, sts = graph_from_json(g.to_json())
    assert sts is None
    assert np.array_equal(mult, g.mult)


def test_graph_from_json_rejects_bad_multiplicity(witnesses):
    d = quotient_graph(witnesses[9]).to_json()
    d["edges"][0]["multiplicity"] += 1
    with pytest.raises(ValueError):
        graph_from_json(d)


def test_to_dot_and_csv(witnesses):
    g = quotient_graph(witnesses[9])
    dot = g.to_dot()
    assert dot.startswith("graph fold {")
    assert dot.rstrip().endswith("}")
    assert 'v0 [label="0"];' in dot
    assert ("v0 -- v0 [label=\"%d\"];" % loop_count(g)) in dot
    csv = g.to_csv()
    rows = csv.strip().split("\n")
    assert len(rows) == g.order
    assert [int(x) for x in rows[0].split(",")] == list(g.mult[0])


def test_dot_includes_sts_labels(witnesses):
    g = quotient_graph(witnesses[9])
    g.vertex_sts = ["2" * 16] * g.order
    assert 'v0 [label="0\\n%s"];' % ("2" * 16) in g.to_dot()


def test_loop_labels_live_in_kernel(witnesses):
    code = witnesses[7]
    g = quotient_graph(code)
    kw = {int(w) for w in kernel_words(code)}
    assert set(g.loop_labels) <= kw
    assert all(quad_name(b) for b in g.loop_labels)
