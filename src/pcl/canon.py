"""Orbit classes of code partitions under coordinate and translation symmetry.

A partition of 128 words into components is a row: row[k] is the
component id of the k-th word, with ids relabeled by first occurrence
so that equal rows mean equal unordered partitions.  Length-7 rows index
the words of F_2^7; length-8 rows index words.EVEN8, the even words of
F_2^8 in increasing order, the only words even translations reach.

The groups act through generators, each a gather map g: the moved rows
are rows[:, g], whose position k holds the word at position g[k].  For
length 7 they generate S_7 x all translations: (0 1), the inverse of
the 7-cycle and the 7 unit translations; for length 8, S_8 x even
translations: (0 1), the inverse of the 8-cycle and the 7 translations
by e0 + ei.  A moved row is relabeled by relabel_np, which assumes what
every row of a whole partition satisfies: each id 0..7 is present.

orbit_classes applies every generator to all rows at once and labels
the orbits as connected components.  An orbit's minimum, its
lexicographically least row, is the canonical form of every partition
in it: two partitions are equivalent exactly when their orbit minima
are equal, and class ids are the ranks of the orbit minima.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import NamedTuple

import numpy as np

from .words import EVEN8, perm_word_map, points_of


def relabel_np(col: np.ndarray) -> np.ndarray:
    """Relabel component ids by first occurrence, on one row or on every
    row of a 2-D array at once; each row must hold every id 0..7."""
    a = np.asarray(col, dtype=np.uint8)
    rows = a.reshape(-1, a.shape[-1])
    first = np.stack([(rows == v).argmax(axis=1) for v in range(8)], axis=1)
    new = np.argsort(np.argsort(first, axis=1), axis=1).astype(np.uint8)
    return np.take_along_axis(new, rows, axis=1).reshape(a.shape)


@lru_cache(maxsize=None)
def generators(n: int) -> tuple:
    """Gather maps of the generators of the length-n group on the 128 row positions."""
    swap01 = perm_word_map((1, 0) + tuple(range(2, n)), n)
    cycle = perm_word_map(tuple((i - 1) % n for i in range(n)), n)
    if n == 7:
        words = np.arange(128)
        shifts = [1 << i for i in range(7)]
    elif n == 8:
        words = EVEN8
        shifts = [1 | (1 << i) for i in range(1, 8)]
    else:
        raise ValueError("no partition group for length %d" % n)
    position = np.zeros(1 << n, dtype=np.intp)
    position[words] = np.arange(128)
    maps = [swap01[words], cycle[words]] + [words ^ s for s in shifts]
    return tuple(position[m] for m in maps)


def _keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row; keys sort as the rows do, lexicographically."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


class OrbitClasses(NamedTuple):
    """Orbits of a row set, ranked by orbit minimum.

    class_of[i] is the class id of row i; reps[c] is the least row index
    in class c, sizes[c] its number of rows and minima[c] its orbit
    minimum.  Class ids are the ranks of the minima.
    """

    class_of: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray
    minima: np.ndarray


def orbit_classes(rows: np.ndarray, gens) -> OrbitClasses:
    """Classify relabeled rows into the orbits of the generated group.

    Each generator moves all rows in one step, and each image is looked
    up among the sorted row keys.  The rows must be distinct and closed
    under the group: an image outside the set raises, which makes the
    pass a completeness check of the enumeration that produced them.
    Orbits are labeled by propagating the least row index along the
    generator edges until nothing changes.  Each generator permutes the
    closed set, so following its edges forward goes round its cycles
    and reaches every row of the orbit.
    """
    n = len(rows)
    keys = _keys(rows)
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    if (ranked[1:] == ranked[:-1]).any():
        raise ValueError("duplicate partitions in the enumerated set")
    moves = []
    for g in gens:
        img = _keys(relabel_np(rows[:, g]))
        at = np.minimum(np.searchsorted(ranked, img), n - 1)
        if (ranked[at] != img).any():
            raise ValueError("orbit left the enumerated set")
        moves.append(order[at])
    label = np.arange(n)
    while True:
        new = label.copy()
        for m in moves:
            np.minimum(new, label[m], out=new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    # a class ranks by the first of its rows in sorted key order
    comps, first = np.unique(label[order], return_index=True)
    rank = np.argsort(first)
    reps = comps[rank]
    class_id = np.empty(n, dtype=np.intp)
    class_id[reps] = np.arange(len(reps))
    class_of = class_id[label]
    return OrbitClasses(class_of, reps, np.bincount(class_of),
                        rows[order[first[rank]]])


def orbit(row: np.ndarray, gens) -> np.ndarray:
    """Every relabeled row the generators reach from one relabeled row."""
    seen = {row.tobytes()}
    found = [row]
    frontier = row[None, :]
    while len(frontier):
        imgs = relabel_np(np.concatenate([frontier[:, g] for g in gens]))
        fresh = []
        for img in imgs:
            key = img.tobytes()
            if key not in seen:
                seen.add(key)
                fresh.append(img)
        found += fresh
        frontier = np.array(fresh, dtype=np.uint8).reshape(-1, row.size)
    return np.array(found)


def _orbit_minimum(row: np.ndarray, gens) -> tuple:
    minima = orbit_classes(orbit(relabel_np(row), gens), gens).minima
    return tuple(int(x) for x in minima[0])


def minimal_image7(col: np.ndarray) -> tuple:
    """Canonical row of a length-7 partition: the minimum of its orbit."""
    return _orbit_minimum(col, generators(7))


def minimal_image8(colw: np.ndarray) -> tuple:
    """Canonical row of a length-8 extended partition, over the even words.

    colw has 256 entries; only the even words are read, since even
    translations preserve the even-weight half, so the odd words may
    carry any filler.
    """
    return _orbit_minimum(np.asarray(colw)[EVEN8], generators(8))


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
