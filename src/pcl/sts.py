"""Triple systems of punctured codes and their Pasch-count types.

Deleting a coordinate of a length-16 code gives a 1-perfect length-15
code; the distance-3 neighbors of any of its codewords carve a Steiner
triple system STS(15) out of the 35 supports.  Types are recognized by
the pair (total Pasch count, sorted per-point counts); the table covers
the 11 type signatures arising from doubled codes, with letter aliases
c, d, g for the two-digit ids; a signature outside the table types as
None, rendered "?".  Two independent Pasch counters are kept so each can
certify the other.

code_type_grid is the one typing routine: it types every coset of the
kernel in turn.  fully_tabulated shares its per-coordinate step and
stops at the first untabulated system, which is what the
representative scan needs.  Both keep each coset's complete
tuple on the code (Code.type_tuples), so a code the scan kept is not
typed again when its grid is written.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .algebra import cosets, kernel
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


def sts_of(words15, v: int) -> StsSystem:
    """The STS carried by a codeword of a length-15 1-perfect code."""
    ws = np.asarray(words15, dtype=np.uint16)
    d = ws ^ np.uint16(v)
    tr = tuple(int(t) for t in np.sort(d[popcounts16(d) == 3]))
    check_sts(tr)
    return StsSystem(tr)


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


def pasch_profile_brute(sts: StsSystem) -> PaschProfile:
    """Independent Pasch count over all 4-subsets of triples."""
    triples = sts.triples
    total = 0
    acc = [0] * 15
    for quad in combinations(triples, 4):
        u = quad[0] | quad[1] | quad[2] | quad[3]
        if weight(u) != 6:
            continue
        if any(weight(a & b) != 1 for a, b in combinations(quad, 2)):
            continue
        total += 1
        for i in range(15):
            if (u >> i) & 1:
                acc[i] += 1
    return PaschProfile(total, tuple(acc))


def classify_type(profile: PaschProfile):
    """Type id from the signature table, or None when absent."""
    return ROW_OF.get(profile.signature())


def _coordinate_types(code: Code, v: int):
    """Type of the derived system at each coordinate of v, None when untabulated.

    Once all 16 are typed the tuple is kept on the code under v, and a
    later call replays it.
    """
    known = code.type_tuples.get(v)
    if known is not None:
        yield from known
        return
    types = []
    for i in range(16):
        types.append(classify_type(pasch_profile(derived_sts(code, v, i))))
        yield types[-1]
    code.type_tuples[v] = tuple(types)


def _w4_set(code: Code, v: int) -> np.ndarray:
    d = code.words ^ np.uint16(v)
    return np.sort(d[popcounts16(d) == 4])


def class_type_tuple(code: Code, rep: int) -> tuple:
    """Type tuple of a kernel coset, checked to be coset-independent.

    Entry i types the derived system at coordinate i, None when its
    signature is not in the table.  The weight-4 difference set at v and
    at v+k coincides for kernel k, which forces equal derived systems at
    every coordinate; the basis translates of the representative certify
    the whole coset.
    """
    tup = tuple(_coordinate_types(code, rep))
    base = _w4_set(code, rep)
    for b in kernel(code).basis:
        if not np.array_equal(_w4_set(code, rep ^ b), base):
            raise AssertionError("type tuple differs inside a kernel coset")
    return tup


def code_type_grid(code: Code) -> list[tuple[int, tuple]]:
    """(representative, type tuple) per kernel coset, in coset order."""
    return [(int(r), class_type_tuple(code, int(r)))
            for r in cosets(code, kernel(code)).reps]


def render_tuple(types) -> str:
    return "".join(type_char(t) for t in types)


def fully_tabulated(code: Code) -> bool:
    """Whether every punctured-system profile matches a table row.

    Early-exits on the first miss, so rejecting a code is much cheaper
    than building its full type grid.  Skips the coset-independence
    check; use code_type_grid when emitting artifacts.
    """
    return all(t is not None
               for r in cosets(code, kernel(code)).reps
               for t in _coordinate_types(code, int(r)))


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


def random_sts15(seed: int, max_tries: int = 200000) -> StsSystem:
    """A random STS(15) by hill-climbing pair coverage.

    Keep a partial set of triples covering each pair at most once.  Pick
    an uncovered pair (a, b), then a third point c with (a, c) also
    uncovered; at most the triple owning (b, c) clashes and is evicted,
    so the triple count never drops and the walk converges.  Used to
    exercise the Pasch counters away from the codes.
    """
    rng = random.Random(seed)
    pair_owner: dict = {}
    triples: set = set()

    def pairs_of(t):
        pts = [i for i in range(15) if (t >> i) & 1]
        return [tuple(sorted(p)) for p in combinations(pts, 2)]

    uncovered = {tuple(sorted(p)) for p in combinations(range(15), 2)}
    tries = 0
    while uncovered and tries < max_tries:
        tries += 1
        a, b = rng.choice(sorted(uncovered))
        if rng.random() < 0.5:
            # anchoring c at the smaller endpoint every time can trap the
            # walk in a closed cycle of states
            a, b = b, a
        # the uncovered degree at a point is even, so a second uncovered
        # pair at a always exists
        cands = [c for c in range(15)
                 if c != b and tuple(sorted((a, c))) in uncovered]
        c = rng.choice(cands)
        t = (1 << a) | (1 << b) | (1 << c)
        bc = tuple(sorted((b, c)))
        old = pair_owner.get(bc)
        if old is not None:
            triples.discard(old)
            for p in pairs_of(old):
                pair_owner.pop(p, None)
                uncovered.add(p)
        triples.add(t)
        for p in pairs_of(t):
            pair_owner[p] = t
            uncovered.discard(p)
    if uncovered:
        raise RuntimeError("hill climb did not converge")
    tr = tuple(sorted(triples))
    check_sts(tr)
    return StsSystem(tr)
