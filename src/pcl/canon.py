"""Orbit classes of code partitions under coordinate and translation symmetry.

Each component of a partition of F_2^7 into perfect codes is one of the
240 perfect codes of length 7, and each component of its parity
extension is the even extension of one.  code_table(n) lists the codes
of length n, row i code i at both lengths, so a partition is the ids of
its eight codes; sorted, they are one uint64 key.  The groups, S_7 x
all translations at length 7 and S_8 x even translations at length 8,
act through generators, each a table over the 240 ids (code_moves), so
a moved key is one gather, one sort and one view.

Canonical forms are rows.  A partition's row holds at position k the
component id of the k-th word, relabeled by first occurrence so that
equal rows mean equal unordered partitions; length-7 rows index the
words of F_2^7, length-8 rows words.EVEN8, the even words of F_2^8 in
increasing order.  An orbit's minimum, its least row, is the canonical
form of every partition in it, and class ids are the ranks of the
orbit minima.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .perfect import enumerate_perfect7, extend_even
from .words import EVEN8, perm_word_map, points_of

UNASSIGNED = 255  # partition_col's id for the words outside every component
_ROW_WORDS = {7: np.arange(128), 8: EVEN8}


def partition_col(p, size: int) -> np.ndarray:
    """col[w] = i for each word w of component i, UNASSIGNED for the
    other words below size; one row, or one per partition of an (N, 8,
    16) array.  Components are of equal size, their words of 8 bits."""
    comps = np.asarray(p, dtype=np.uint8)
    words = comps.reshape(comps.shape[:-2] + (-1,))
    col = np.full(words.shape[:-1] + (size,), UNASSIGNED, dtype=np.uint8)
    ids = np.arange(comps.shape[-2], dtype=np.uint8).repeat(comps.shape[-1])
    np.put_along_axis(col, words, ids, axis=-1)
    return col


def relabel_np(col: np.ndarray) -> np.ndarray:
    """Relabel component ids by first occurrence, on one row or on every
    row of a 2-D array at once; each row must hold every id 0..7."""
    a = np.asarray(col, dtype=np.uint8)
    rows = a.reshape(-1, a.shape[-1])
    first = np.stack([(rows == v).argmax(axis=1) for v in range(8)], axis=1)
    new = np.argsort(np.argsort(first, axis=1), axis=1).astype(np.uint8)
    return np.take_along_axis(new, rows, axis=1).reshape(a.shape)


@lru_cache(maxsize=None)
def code_table(n: int) -> np.ndarray:
    """The 240 perfect codes of length 7, or for n = 8 their even
    extensions, as sorted rows of 16 words; row i is code i."""
    if n == 7:
        return np.array(enumerate_perfect7(), dtype=np.uint8)
    return np.array([extend_even(c) for c in code_table(7).tolist()],
                    dtype=np.uint8)


def _code_ids(comps, n: int) -> np.ndarray:
    """The code ids of components given as sorted word arrays;
    ValueError naming the first component that is no code of length n."""
    index = {row.tobytes(): i for i, row in enumerate(code_table(n))}
    ids = [index.get(np.asarray(c, dtype=np.uint8).tobytes(), -1)
           for c in comps]
    if -1 in ids:
        raise ValueError("component %d is not a%s perfect code of length %d"
                         % (ids.index(-1), "n extended" * (n == 8), n))
    return np.array(ids, dtype=np.uint8)


@lru_cache(maxsize=None)
def code_moves(n: int) -> tuple:
    """The generators of the length-n group as tables over the code ids,
    entry i the id of the image of code i: (0 1), the cycle i -> i + 1,
    then the unit translations, or at length 8 those by e0 + ei."""
    swap01 = perm_word_map((1, 0) + tuple(range(2, n)), n)
    cycle = perm_word_map(tuple((i + 1) % n for i in range(n)), n)
    shifts = ([1 << i for i in range(7)] if n == 7
              else [1 | (1 << i) for i in range(1, 8)])
    words = np.arange(1 << n, dtype=np.uint8)
    return tuple(_code_ids(np.sort(m[code_table(n)], axis=1), n)
                 for m in [swap01, cycle] + [words ^ s for s in shifts])


def _keys(ids: np.ndarray) -> np.ndarray:
    """One uint64 key per partition of code ids: its eight ids, sorted."""
    return np.sort(ids, axis=-1).view(np.uint64).ravel()


def _ids(keys: np.ndarray) -> np.ndarray:
    return keys.view(np.uint8).reshape(-1, 8)


def _rows(ids: np.ndarray, n: int) -> np.ndarray:
    """The relabeled rows of partitions given by their code ids."""
    col = partition_col(code_table(n)[ids], 1 << n)
    return relabel_np(col[..., _ROW_WORDS[n]])


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row; keys sort as the rows do, lexicographically."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


class OrbitClasses(NamedTuple):
    """Orbits of a partition set, ranked by orbit minimum.

    class_of[i] is the class id of partition i; reps[c] is the least
    partition index in class c and sizes[c] its number of partitions.
    Class ids are the ranks of the orbit minima.
    """

    class_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray


def orbit_classes(ids: np.ndarray, n: int) -> OrbitClasses:
    """Classify partitions, an (N, 8) array of code ids, into the orbits
    of the length-n group.

    Each generator moves all keys in one step, and each image is looked
    up among the sorted keys.  The partitions must be distinct and closed
    under the group: an image outside the set raises, which makes the
    pass a completeness check of the enumeration that produced them.
    Orbits are labeled by propagating the least index along the
    generator edges until nothing changes; each generator permutes the
    closed set, so its edges go round its cycles and reach every
    partition of the orbit.  Rows are built only to rank the orbits.
    """
    count = len(ids)
    keys = _keys(ids)
    order = np.argsort(keys)
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        raise ValueError("duplicate partitions in the enumerated set")
    moves = []
    for table in code_moves(n):
        img = _keys(table[ids])
        at = np.minimum(np.searchsorted(ranked, img), count - 1)
        if (ranked[at] != img).any():
            raise ValueError("orbit left the enumerated set")
        moves.append(order[at])
    label, prev = np.arange(count), None
    while not np.array_equal(label, prev):
        prev = label
        label = np.minimum.reduce([prev] + [prev[m] for m in moves])
        label = label[label]
    # a class ranks by the first of its partitions in sorted row order
    by_row = np.argsort(_row_keys(_rows(ids, n)), kind="stable")
    comps, first = np.unique(label[by_row], return_index=True)
    class_of = np.argsort(np.argsort(first))[np.searchsorted(comps, label)]
    return OrbitClasses(class_of, comps[np.argsort(first)],
                        np.bincount(class_of))


def _least_row(col: np.ndarray, n: int) -> tuple:
    """The least row over the orbit of the partition col, closed under
    the generators one key set at a time."""
    col, words = np.asarray(col), _ROW_WORDS[n]
    orbit = new = _keys(_code_ids([words[col[words] == i]
                                   for i in range(8)], n))
    while len(new):
        imgs = np.concatenate([_keys(t[_ids(new)]) for t in code_moves(n)])
        new = np.setdiff1d(imgs, orbit)
        orbit = np.union1d(orbit, new)
    return tuple(np.sort(_row_keys(_rows(_ids(orbit), n)))[0].tobytes())


def minimal_image7(col: np.ndarray) -> tuple:
    """Canonical row of a length-7 partition: the minimum of its orbit."""
    return _least_row(col, 7)


def minimal_image8(colw: np.ndarray) -> tuple:
    """Canonical row of a length-8 extended partition, over the even words.

    colw has 256 entries; only the even words are read, since even
    translations preserve the even-weight half, so the odd words may
    carry any filler.
    """
    return _least_row(colw, 8)


@lru_cache(maxsize=None)
def _split_permutations() -> np.ndarray:
    """The 4! 4! = 576 permutations of range(8) that send points 0..3
    onto 0..3, as rows, row[p] the image of point p: one permutation of
    the low points paired with one of the high points."""
    low = np.array(list(permutations(range(4))), dtype=np.uint8)
    return np.column_stack([np.repeat(low, 24, axis=0),
                            np.tile(low + 4, (24, 1))])


def minimal_quadset8(masks) -> tuple:
    """Least sorted image of a set of quadruples of the 8 points, over
    all point relabelings.

    Each mask is a quadruple: an 8-bit mask of weight 4.  Two sets have
    equal minimal images exactly when some permutation of the 8 points
    carries one onto the other.  Results are memoized on the sorted
    distinct masks: structure checks canonicalize the same fixed
    families on every link.  Any other mask raises ValueError.
    """
    masks = tuple(sorted(set(int(m) for m in masks)))
    for m in masks:
        if not (0 <= m <= 0xFF and m.bit_count() == 4):
            raise ValueError("expected quadruples, 8-bit masks in 0..255 "
                             "of weight 4, got %#x" % m)
    return _minimal_quadset8(masks)


@lru_cache(maxsize=4096)
def _minimal_quadset8(masks: tuple) -> tuple:
    """The least sorted image, searched over the permutations that can
    give it.

    Any image of a quadruple is at least 0x0F, reached exactly by the
    permutations carrying it onto points 0..3.  So the least sorted
    image starts with 0x0F, and only the permutations carrying some
    mask of the set onto 0..3 can give it: 576 per mask, instead of all
    40,320.
    """
    if not masks:
        return ()
    split, perms = _split_permutations(), []
    for m in masks:  # relabel so that m's points come first
        order = points_of(m) + [p for p in range(8) if not m >> p & 1]
        perms.append(split[:, np.argsort(order)])
    perms = np.concatenate(perms)
    bits = np.left_shift(np.uint8(1), perms.T)  # [p, k]: point p's image
    imgs = np.sort(np.stack([np.bitwise_or.reduce(bits[points_of(m)], axis=0)
                             for m in masks], axis=1), axis=1)
    for j in range(1, len(masks)):  # rows least on columns 0..j
        least = imgs[:, j] == imgs[:, j].min()
        if not least.all():
            imgs = imgs[least]
    return tuple(int(x) for x in imgs[0])
