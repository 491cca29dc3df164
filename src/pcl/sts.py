"""Triple systems of punctured codes and their Pasch-count types.

Deleting a coordinate of a length-16 code gives a 1-perfect length-15
code; the distance-3 neighbors of any of its codewords carve a Steiner
triple system STS(15) out of the 35 supports.  Equivalently, the STS at
coordinate i is the derived system at i of the SQS(16) that the
weight-4 differences form at the codeword.  Types are recognized by
the pair (total Pasch count, sorted per-point counts); the table covers
the 11 type signatures arising from doubled codes, with letter aliases
c, d, g for the two-digit ids; a signature outside the table types as
None, rendered "?".

The production counter works on third-point tables.  third_point_table
turns the 140 blocks at a codeword into Q[a, b, c], the fourth point of
the block through a, b, c; counting its entries checks that every
triple is covered once, so the blocks form an SQS(16) and all 16
derived systems T_i[x, y] = Q[i, x, y] are STS(15).  A Pasch
configuration through a point p holds exactly two of the 7 lines
through p, so pasch_per_point counts the configurations through every
point of all 16 systems of a vertex in one numpy pass over the 21
pairs of lines through each point.  pasch_profile, a completion search
over pairs of triples of one derived_sts system, is kept as its
independent oracle.

code_type_grid is the one typing routine: it types every coset of the
kernel in turn.  fully_tabulated shares its per-vertex step and stops
at the first vertex with an untabulated system, which is what the
representative scan needs; it types the least codeword before it
computes the kernel, so most rejected codes never need one.  Both keep
each coset's complete tuple on the code (Code.type_tuples), so a code
the scan kept is not typed again when its grid is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .algebra import kernel, kernel_cosets
from .doubling import Code
from .perfect import puncture
from .words import popcounts16, weight

# type id -> (total Pasch count, per-point counts sorted nonincreasing)
ROWS = {
    1: (105, (42,) * 15),
    2: (73, (42,) + (30,) * 8 + (26,) * 6),
    3: (57, (26,) * 3 + (24,) * 8 + (18,) * 4),
    4: (49, (30, 26, 22) + (20,) * 4 + (18,) * 6 + (14,) * 2),
    5: (49, (26, 26) + (20,) * 4 + (18,) * 9),
    6: (37, (22,) * 3 + (14,) * 6 + (12,) * 6),
    7: (33, (18,) * 3 + (12,) * 12),
    8: (37, (18,) * 3 + (15,) * 4 + (14,) * 7 + (10,)),
    13: (33, (20, 16, 16, 14, 14) + (12,) * 9 + (10,)),
    14: (37, (24, 16, 16, 16) + (15,) * 4 + (14,) * 3 + (12,) * 4),
    16: (49, (21,) * 8 + (18,) * 7),
}

for _t, (_total, _tup) in ROWS.items():
    assert len(_tup) == 15 and sum(_tup) == 6 * _total, _t

ROW_OF = {v: k for k, v in ROWS.items()}

LETTERS = {13: "c", 14: "d", 16: "g"}


def type_char(t) -> str:
    """One-character rendering; two-digit types use their letter alias."""
    if t is None:
        return "?"
    if t < 10:
        return str(t)
    if t in LETTERS:
        return LETTERS[t]
    raise ValueError("no letter alias for type %d" % t)


@dataclass(frozen=True)
class StsSystem:
    """An STS(15): 35 triple supports over 15 points."""

    triples: tuple

    def __len__(self) -> int:
        return len(self.triples)


@dataclass(frozen=True)
class PaschProfile:
    total: int
    per_point: tuple

    def signature(self) -> tuple:
        return (self.total, tuple(sorted(self.per_point, reverse=True)))


def check_sts(triples, points: int = 15) -> None:
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


def derived_sts(code: Code, v: int, i: int) -> StsSystem:
    """STS at coordinate i: blocks through i of the SQS at v, i deleted."""
    d = code.words ^ np.uint16(v)
    w4 = d[popcounts16(d) == 4]
    hit = w4[(w4 >> i) & 1 == 1]
    tr = tuple(int(t) for t in np.sort(puncture(hit, i)))
    check_sts(tr)
    return StsSystem(tr)


def pasch_profile(sts: StsSystem) -> PaschProfile:
    """Pasch count by completion search over intersecting triple pairs.

    For triples t1, t2 sharing one point, each way of matching their
    free points in pairs either closes into a Pasch configuration with
    one new sixth point or does not; every configuration is reached six
    times, once per triple pair inside it that shares a point.
    """
    triples = sts.triples
    through: dict = {}
    for t in triples:
        pts = [i for i in range(15) if (t >> i) & 1]
        for a, b in combinations(pts, 2):
            through[(1 << a) | (1 << b)] = t
    total6 = 0
    acc = [0] * 15
    for t1, t2 in combinations(triples, 2):
        common = t1 & t2
        if weight(common) != 1:
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
            if weight(x) != 1 or x & (t1 | t2):
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
    return PaschProfile(total6 // 6, tuple(a // 6 for a in acc))


def classify_type(profile: PaschProfile):
    """Type id from the signature table, or None when absent."""
    return ROW_OF.get(profile.signature())


# the 24 orders of a block's four points, and the distinct (a, b, c)
_ORDERS = np.array(list(permutations(range(4))))
_POINTS = np.arange(16)
_DISTINCT = ((_POINTS[:, None, None] != _POINTS[None, :, None])
             & (_POINTS[:, None, None] != _POINTS)
             & (_POINTS[:, None] != _POINTS)).ravel()


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


def pasch_per_point(third: np.ndarray) -> np.ndarray:
    """Per-point Pasch counts of a stack of (S, n, n) third-point tables.

    third[s, x, y] is the third point of the line through x and y in
    system s, -1 when x == y or either point is outside the system.
    Each point p of an STS(15) lies on 7 lines {p, x, T[p, x]}, each
    taken once with x < T[p, x].  A Pasch configuration through p holds
    exactly two of them, {p, x, x'} and {p, y, y'}, and its other two
    lines pair their free points in one of two ways: T[x, y] ==
    T[x', y'] or T[x, y'] == T[x', y].  So testing both matchings on
    each of the 21 pairs of lines counts every configuration through p
    once.  Points outside a system lie on no line and count 0.

    The table is symmetric and x -> T[p, x] is an involution, since
    third_point_table fills all 24 orders of each block exactly once;
    hence each line is listed once.  Raises unless every point lies on
    0 or 7 lines and each system's counts sum to 6 per configuration.
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


def derived_profiles(blocks) -> list[PaschProfile]:
    """Pasch profiles of the 16 derived systems of an SQS(16), by point.

    Entry i is the system at point i, its per-point counts in increasing
    point order with i left out, as pasch_profile(derived_sts) gives.
    """
    out = []
    counts = pasch_per_point(third_point_table(blocks))
    for i, row in enumerate(counts.tolist()):
        per_point = tuple(row[:i] + row[i + 1:])
        out.append(PaschProfile(sum(per_point) // 6, per_point))
    return out


def _w4_set(code: Code, v: int) -> np.ndarray:
    d = code.words ^ np.uint16(v)
    return np.sort(d[popcounts16(d) == 4])


def _vertex_types(code: Code, v: int) -> tuple:
    """Types of the 16 derived systems at codeword v, None when untabulated.

    Computed in one pass and kept on the code under v.
    """
    known = code.type_tuples.get(v)
    if known is None:
        known = code.type_tuples[v] = tuple(
            classify_type(p) for p in derived_profiles(_w4_set(code, v)))
    return known


def class_type_tuple(code: Code, rep: int) -> tuple:
    """Type tuple of a kernel coset, checked to be coset-independent.

    Entry i types the derived system at coordinate i, None when its
    signature is not in the table.  The weight-4 difference set at v and
    at v+k coincides for kernel k, which forces equal derived systems at
    every coordinate; the basis translates of the representative certify
    the whole coset, compared in one (dimension + 1, 2048) array.
    """
    tup = _vertex_types(code, rep)
    at = np.array((0,) + kernel(code).basis, dtype=np.uint16) ^ np.uint16(rep)
    d = code.words ^ at[:, None]
    # 0xFFFF has weight 16, so it pads each sorted row after the blocks
    w4 = np.sort(np.where(popcounts16(d) == 4, d, 0xFFFF), axis=1)
    if not (w4 == w4[0]).all():
        raise AssertionError("type tuple differs inside a kernel coset")
    return tup


def code_type_grid(code: Code) -> list[tuple[int, tuple]]:
    """(representative, type tuple) per kernel coset, in coset order."""
    return [(int(r), class_type_tuple(code, int(r)))
            for r in kernel_cosets(code).reps]


def render_tuple(types) -> str:
    return "".join(type_char(t) for t in types)


def fully_tabulated(code: Code) -> bool:
    """Whether every punctured-system profile matches a table row.

    Types the least codeword before the kernel is computed; it is always
    the first coset representative, so its tuple is not computed twice.
    Then early-exits at the first vertex with a miss, so rejecting a
    code is much cheaper than building its full type grid.  Skips the
    coset-independence check; use code_type_grid when emitting
    artifacts.
    """
    if None in _vertex_types(code, int(code.words[0])):
        return False
    return all(None not in _vertex_types(code, int(r))
               for r in kernel_cosets(code).reps)


def multiset_keys(tuples) -> set[str]:
    """Distinct type multisets, each as its sorted rendered characters."""
    return {"".join(sorted(render_tuple(t))) for t in tuples}


def homogeneity(tuples) -> tuple[bool, bool]:
    """(all vertices alike as multisets, alike and constant).

    Compared on rendered characters, so untabulated entries count as '?'.
    """
    keys = multiset_keys(tuples)
    sqs_h = len(keys) == 1
    sts_h = sqs_h and len(set(next(iter(keys)))) == 1
    return sqs_h, sts_h
