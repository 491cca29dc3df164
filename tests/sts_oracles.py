"""The typing routines the neighbour table replaced, kept as oracles.

Each vertex used to be typed from its 140 blocks: blocks_at collects the
weight-4 differences at a codeword, third_point_table fills the 24
orders of every block into a fourth-point table and counts the fills
(the SQS(16) check), pasch_per_point_line_pairs counts Pasch
configurations on that table, derived_profiles turns the counts into the
16 per-point count tuples, vertex_signatures sorts each into its
signature, the counts nonincreasing, and classify_type looks each up by
it.  class_type_tuple_sorted certifies a coset by sorting the weight-4
differences at its basis translates.  The package now reads the
fourth-point table off Code.neighbours, types a vertex by one sort of
its count table, and types a coset at its representative alone, since
C + k = C makes the tables of a coset agree; tests compare the two
routes.

The package's second triple-system route is kept here too: check_sts,
which checks triple masks to form a Steiner triple system, and
pasch_profile_completion, which counts the Pasch configurations of an
STS(15) by a completion search over its intersecting triple pairs.
"""

from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from pcl.sts import ROWS
from pcl.words import echelon_basis

from code_helpers import kernel_words_brute

ROW_OF = {per_point: t for t, (_, per_point) in ROWS.items()}


def classify_type(per_point):
    """Type id from the signature table, or None when absent; the
    signature is the per-point counts in decreasing order, which fix the
    total, a sixth of their sum."""
    return ROW_OF.get(tuple(sorted(per_point, reverse=True)))


def check_sts(triples, points: int = 15) -> None:
    """ValueError unless the masks are the triples of an STS(points)."""
    if len(triples) != points * (points - 1) // 6:
        raise ValueError("wrong triple count %d" % len(triples))
    seen: set = set()
    for t in triples:
        pts = [i for i in range(points) if (int(t) >> i) & 1]
        if len(pts) != 3 or int(t) >> points:
            raise ValueError("block %x is not a 3-subset" % int(t))
        for pair in combinations(pts, 2):
            if pair in seen:
                raise ValueError("pair %s covered twice" % (pair,))
            seen.add(pair)


def pasch_profile_completion(triples) -> tuple:
    """Per-point Pasch counts of an STS(15), by completion search over
    intersecting triple pairs.

    For triples t1, t2 sharing one point, each way of matching their
    free points in pairs either closes into a Pasch configuration with
    one new sixth point or does not; every configuration is reached six
    times, once per triple pair inside it that shares a point.  Returns
    the 15 counts in point order; their sum is six times the total.
    """
    through: dict = {}
    for t in triples:
        pts = [i for i in range(15) if (t >> i) & 1]
        for a, b in combinations(pts, 2):
            through[(1 << a) | (1 << b)] = t
    total6 = 0
    acc = [0] * 15
    for t1, t2 in combinations(triples, 2):
        common = t1 & t2
        if common.bit_count() != 1:
            continue
        r1 = t1 ^ common
        r2 = t2 ^ common
        b = 1 << (r1.bit_length() - 1)
        c = r1 ^ b
        for d, e in ((r2 & -r2, r2 ^ (r2 & -r2)),
                     (r2 ^ (r2 & -r2), r2 & -r2)):
            t3 = through.get(b | d)
            t4 = through.get(c | e)
            if t3 is None or t4 is None:
                continue
            x = t3 & t4
            if x.bit_count() != 1 or x & (t1 | t2):
                continue
            if t3 & common or t4 & common:
                continue
            total6 += 1
            mm = t1 | t2 | x
            while mm:
                low = mm & -mm
                acc[low.bit_length() - 1] += 1
                mm ^= low
    if total6 % 6 or any(a % 6 for a in acc):
        raise AssertionError("completion counts not divisible by 6")
    return tuple(a // 6 for a in acc)

# the 24 orders of a block's four points, and the distinct (a, b, c)
_ORDERS = np.array(list(permutations(range(4))))
_POINTS = np.arange(16)
_DISTINCT = ((_POINTS[:, None, None] != _POINTS[None, :, None])
             & (_POINTS[:, None, None] != _POINTS)
             & (_POINTS[:, None] != _POINTS)).ravel()


def blocks_at(code, v: int) -> np.ndarray:
    """The blocks of the SQS(16) at codeword v, sorted."""
    d = code.words ^ np.uint16(v)
    return np.sort(d[np.bitwise_count(d) == 4])


def third_point_table(blocks) -> np.ndarray:
    """Fourth-point table of an SQS(16) given by its blocks.

    Q[a, b, c] is the fourth point of the block through a, b, c, and -1
    where a, b, c are not distinct.  Each block fills its 24 ordered
    entries.  Raises unless every triple of distinct points is filled
    exactly once, which is the SQS(16) property; the derived system
    Q[i] at each point i is then an STS(15).
    """
    blocks = np.asarray(blocks, dtype=np.int64)
    bits = (blocks[:, None] >> _POINTS) & 1
    if (bits.sum(axis=1) != 4).any() or (blocks >> 16).any():
        raise ValueError("a block is not a 4-subset of 16 points")
    order = np.nonzero(bits)[1].reshape(-1, 4)[:, _ORDERS]
    flat = (order[..., 0] * 256 + order[..., 1] * 16 + order[..., 2]).ravel()
    if not (np.bincount(flat, minlength=4096)[_DISTINCT] == 1).all():
        raise ValueError("%d blocks do not cover every triple exactly once"
                         % len(blocks))
    third = np.full(4096, -1, dtype=np.int64)
    third[flat] = order[..., 3].ravel()
    return third.reshape(16, 16, 16)


def pasch_per_point_line_pairs(third: np.ndarray) -> np.ndarray:
    """Per-point Pasch counts of (S, n, n) third-point tables.

    The same count as sts.pasch_per_point, both matchings tested on the
    21 pairs of lines through each point, with the pairs indexed by
    np.triu_indices and every lookup index computed from the table.
    """
    n = third.shape[1]
    first = third > np.arange(n)     # x < T[p, x]: one entry per line
    lines = first.sum(axis=2)
    if ((lines != 0) & (lines != 7)).any():
        raise AssertionError("a point of a triple system is not on 7 lines")
    s, p, x = np.nonzero(first)
    flat = third.reshape(-1)
    x = x.reshape(-1, 7)
    y = flat[(s * n + p) * n + x.ravel()].reshape(-1, 7)   # T[p, x]
    base = s.reshape(-1, 7)[:, :1] * (n * n)
    a, b = np.triu_indices(7, 1)
    x1, y1, x2, y2 = x[:, a], y[:, a], x[:, b], y[:, b]
    hit = ((flat[base + x1 * n + x2] == flat[base + y1 * n + y2]).sum(axis=1)
           + (flat[base + x1 * n + y2] == flat[base + y1 * n + x2]).sum(axis=1))
    counts = np.zeros(third.shape[:2], dtype=np.int64)
    counts[s[::7], p[::7]] = hit
    if (counts.sum(axis=1) % 6).any():
        raise AssertionError("per-point Pasch counts do not sum to 6 per "
                             "configuration")
    return counts


def derived_profiles(blocks) -> list:
    """Per-point Pasch counts of the 16 derived systems of an SQS(16).

    Entry i is the system at point i, its per-point counts in increasing
    point order with i left out, as pasch_profile(derived_sts) gives.
    """
    counts = pasch_per_point_line_pairs(third_point_table(blocks))
    return [tuple(row[:i] + row[i + 1:])
            for i, row in enumerate(counts.tolist())]


def vertex_signatures(code, v: int) -> tuple:
    """Signatures of the 16 derived systems at codeword v, from its
    blocks: each system's per-point counts sorted nonincreasing."""
    return tuple(tuple(sorted(p, reverse=True))
                 for p in derived_profiles(blocks_at(code, v)))


def vertex_types(code, v: int) -> tuple:
    """Types of the 16 derived systems at codeword v, from its blocks."""
    return tuple(classify_type(s) for s in vertex_signatures(code, v))


@lru_cache(maxsize=8)
def _kernel_basis(code) -> tuple:
    """A basis of the brute-force kernel, kept for the code's next coset."""
    return echelon_basis(kernel_words_brute(code))


def class_type_tuple_sorted(code, rep: int) -> tuple:
    """Type tuple of a kernel coset, certified by sorted difference sets.

    The weight-4 differences at the representative and at its
    translates by a kernel basis are sorted in one (dimension + 1, 2048)
    array and compared row by row.  The basis spans the brute-force
    kernel, not the algebra.kernel_cosets the typing walk reads.
    """
    tup = vertex_types(code, rep)
    at = np.array((0,) + _kernel_basis(code),
                  dtype=np.uint16) ^ np.uint16(rep)
    d = code.words ^ at[:, None]
    # 0xFFFF has weight 16, so it pads each sorted row after the blocks
    w4 = np.sort(np.where(np.bitwise_count(d) == 4, d, 0xFFFF), axis=1)
    if not (w4 == w4[0]).all():
        raise AssertionError("type tuple differs inside a kernel coset")
    return tup
