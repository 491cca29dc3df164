"""Triple systems of punctured codes and their Pasch-count types.

Deleting a coordinate of a length-16 code gives a 1-perfect length-15
code; the distance-3 neighbors of any of its codewords carve a Steiner
triple system STS(15) out of the 35 supports.  Equivalently, the STS at
coordinate i is the derived system at i of the SQS(16) that the
weight-4 differences form at the codeword.  Types are recognized by
the sorted per-point Pasch counts, which fix the total Pasch count, a
sixth of their sum.  The table's 11 rows, with letter aliases c, d, g
for the two-digit ids, cover the signatures of the codes that the
representative scan keeps, not those of all doubled codes, among which
23 per-point signatures occur at kernel dimensions 5..9; a signature
outside the table types as None, rendered "?".

The production counter works on fourth-point tables.  An extended
1-perfect code puts every odd word at distance 1 from exactly one
codeword, so one table per code, Code.neighbours, records for each odd
word w the coordinate d with w + e_d in the code.  Building it checks
that the 2048 x 16 neighbours are distinct, which is the SQS(16)
property at every codeword at once.  At codeword v, fourth_point_table
reads Q[a, b, c], the fourth point of the block through a, b, c, as the
table's entry at v + e_a + e_b + e_c, so all 16 derived systems T_i[x,
y] = Q[i, x, y] are STS(15).  A Pasch configuration through a point p
holds exactly two of the 7 lines through p, so pasch_per_point counts
the configurations through every point of all 16 systems of a vertex in
one numpy pass over the 21 pairs of lines through each point.
derived_sts and pasch_profile are readers of the same tables for one
system, a sorted tuple of 35 triple masks, and its 15 per-point counts;
no stage calls them, and they keep their names for perfbench's tracer.

A type tuple is one per kernel coset: a kernel word k has C + k = C,
so Code.neighbours[w ^ k] == Code.neighbours[w] at every odd w, and the
fourth-point tables at v and v ^ k agree.  class_type_tuple therefore
types a coset at any one of its words.  code_type_grid is the one walk
over the kernel cosets: it lazily yields each coset's representative
and type tuple, the least codeword's before the kernel is computed.
type_grid renders the tuples once, "?" for an untabulated entry, into
the TypeGrid that the commands print and write; its summary compares
the signatures themselves, so two different untabulated systems are not
alike.  fully_tabulated reads the walk up to the first vertex with an
untabulated system, so most codes the representative scan rejects never
need a kernel.  Each vertex's signatures are kept on the code
(Code.signatures), so a code the scan kept is not typed again when its
grid is written.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import kernel_cosets
from .doubling import Code
from .perfect import puncture
from .words import word_hex

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

# sorted per-point counts -> type id; the total is their sum over 6
_TYPE_OF = {tup: t for t, (_, tup) in ROWS.items()}

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


@lru_cache(maxsize=None)
def _triples() -> tuple[np.ndarray, np.ndarray]:
    """The 3360 ordered triples of distinct points of a 16^3 table: their
    flat positions and their masks e_a ^ e_b ^ e_c."""
    a, b, c = np.indices((16, 16, 16)).reshape(3, -1)
    at = np.flatnonzero((a != b) & (a != c) & (b != c))
    return at, (1 << a[at]) ^ (1 << b[at]) ^ (1 << c[at])


def fourth_point_table(code: Code, v: int) -> np.ndarray:
    """Fourth-point table of the SQS(16) at codeword v, from the code's
    neighbour table.

    Q[a, b, c] is the fourth point of the block through a, b, c, and -1
    where a, b, c are not distinct.  v ^ e_a ^ e_b ^ e_c is odd, so it
    lies next to exactly one codeword, v ^ e_a ^ e_b ^ e_c ^ e_d, and
    Code.neighbours gives d; its construction checked the SQS(16)
    property at every codeword at once.
    """
    at, masks = _triples()
    q = np.full(4096, -1, dtype=np.int8)
    q[at] = code.neighbours[masks ^ v]
    return q.reshape(16, 16, 16)


# the 84 lookups of the 21 pairs of lines (x_a, y_a), (x_b, y_b) through
# a point, as rows of the (14, lines) point array [x_1..x_7, y_1..y_7]:
# T[x_a, x_b], T[x_a, y_b] against T[y_a, y_b], T[y_a, x_b]
_A, _B = np.triu_indices(7, 1)
_ROW = np.concatenate([_A, _A, _A + 7, _A + 7])
_COL = np.concatenate([_B, _B + 7, _B + 7, _B])


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
    once.  The 14 line points of every point fill the columns of one
    array, and the 84 lookups of each column sit at fixed rows of it, so
    one gather reads all of them.  Points outside a system lie on no line
    and count 0.

    The table is symmetric and x -> T[p, x] is an involution when it is
    the fourth-point table of an SQS(16) or of one STS, so each line is
    listed once.  Raises unless every point lies on 0 or 7 lines and
    each system's counts sum to 6 per configuration.
    """
    n = third.shape[-1]
    flat = third.reshape(-1)
    at = np.flatnonzero(third > np.arange(n))   # x < T[p, x]: one per line
    lines = np.bincount(at // n, minlength=flat.size // n)
    if ((lines != 0) & (lines != 7)).any():
        raise AssertionError("a point of a triple system is not on 7 lines")
    row = at[::7] // n                          # s * n + p, one per point
    pts = np.empty((14, len(row)), dtype=np.intp)
    pts[:7] = (at % n).reshape(-1, 7).T
    pts[7:] = flat[at].reshape(-1, 7).T
    lookup = (pts * n + row // n * (n * n))[_ROW]
    lookup += pts[_COL]
    look = flat[lookup]
    counts = np.zeros(flat.size // n, dtype=np.int64)
    counts[row] = np.count_nonzero(look[:42] == look[42:], axis=0)
    counts = counts.reshape(third.shape[:-1])
    if (counts.sum(axis=-1) % 6).any():
        raise AssertionError("per-point Pasch counts do not sum to 6 per "
                             "configuration")
    return counts


def derived_sts(code: Code, v: int, i: int) -> tuple:
    """STS at coordinate i of the SQS at v, i deleted, as the sorted tuple
    of its 35 triple masks: the blocks {i, a, b, c} with a < b < c =
    Q[i, a, b] of fourth_point_table."""
    q = fourth_point_table(code, v)[i].astype(np.intp)
    a, b = np.nonzero(np.triu(q > np.arange(16), 1))
    blocks = (1 << a) | (1 << b) | (1 << q[a, b])
    return tuple(sorted(puncture(blocks, i).tolist()))


def pasch_profile(triples) -> tuple:
    """Per-point Pasch counts of an STS(15) given as triple masks:
    pasch_per_point on its third-point table."""
    p = np.nonzero((np.array(triples)[:, None] >> np.arange(15)) & 1)[1]
    x, y, z = p.reshape(-1, 3).T
    third = np.full((15, 15), -1, dtype=np.int8)
    third[[x, y, z, y, z, x], [y, z, x, x, y, z]] = [z, x, y, z, x, y]
    return tuple(pasch_per_point(third[None])[0].tolist())


def class_type_tuple(code: Code, v: int) -> tuple:
    """Type tuple of the kernel coset of codeword v: the types of the 16
    derived systems at v, None when untabulated.

    Entry i types the system at point i by its signature, its per-point
    counts sorted nonincreasing; point i itself is on no line of it, so
    its 0 sorts last and is dropped.  The 16 signatures are computed in
    one pass and kept on the code under v.  Every word of the coset has
    the same fourth-point table (module docstring), so v stands for it.
    """
    sigs = code.signatures.get(v)
    if sigs is None:
        counts = pasch_per_point(fourth_point_table(code, v))
        rows = -np.sort(-counts, axis=1)[:, :-1]
        sigs = code.signatures[v] = tuple(map(tuple, rows.tolist()))
    return tuple(_TYPE_OF.get(s) for s in sigs)


def code_type_grid(code: Code) -> Iterator[tuple[int, tuple]]:
    """(representative, type tuple) per kernel coset, in coset order.

    Lazy, so a reader may stop early.  The least codeword is always the
    first representative, so it is typed before the kernel is computed.
    """
    v = int(code.words.min())
    yield v, class_type_tuple(code, v)
    for r in kernel_cosets(code).reps[1:].tolist():
        yield r, class_type_tuple(code, r)


def render_tuple(types) -> str:
    return "".join(type_char(t) for t in types)


class TypeGrid(NamedTuple):
    """The type grid rendered, one row per kernel coset, and what is read
    off it.  An untabulated entry, which some doubled codes with small
    kernels have, renders as "?"; its signature is a type of its own."""

    rows: list            # (vertex, representative hex, rendered tuple)
    homogeneous: tuple    # (alike as multisets, alike and constant)
    distinct: int         # distinct signature multisets
    unknown: int          # untabulated coordinates over all vertices


def type_grid(code: Code) -> TypeGrid:
    """code_type_grid rendered, and summarized on the signatures the walk
    kept on the code."""
    grid = list(code_type_grid(code))
    rows = [(i, word_hex(rep, 16), render_tuple(tup))
            for i, (rep, tup) in enumerate(grid)]
    keys = {tuple(sorted(code.signatures[rep])) for rep, _ in grid}
    alike = len(keys) == 1
    return TypeGrid(rows, (alike, alike and len(set(min(keys))) == 1),
                    len(keys), sum(s.count("?") for _, _, s in rows))


def fully_tabulated(code: Code) -> bool:
    """Whether every punctured system of every vertex has a tabulated
    type: code_type_grid read up to the first vertex with a miss."""
    return all(None not in tup for _, tup in code_type_grid(code))
