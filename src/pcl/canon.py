"""Canonical forms for code partitions under coordinate and translation symmetry.

A partition of (a subset of) F_2^n into components is represented by a col
array: col[w] = component id of word w, with ids relabeled by first
occurrence so that equal col arrays mean equal unordered partitions.

Length-7 partitions are compared under S_7 x all translations; length-8
extended partitions under S_8 x even translations.  Both canonical forms
are explicit minimal images computed with survivor pruning position by
position: at each word position only the group elements that realize the
least relabeled id so far stay alive.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

UNASSIGNED = 255


def relabel_np(col: np.ndarray) -> np.ndarray:
    """Relabel component ids by first occurrence; UNASSIGNED stays put."""
    out = col.copy()
    mask = col != UNASSIGNED
    vals, first = np.unique(col[mask], return_index=True)
    order = np.argsort(first)
    lut = np.empty(256, dtype=np.uint8)
    lut[vals[order]] = np.arange(len(vals), dtype=np.uint8)
    out[mask] = lut[col[mask]]
    return out


def _perm_word_table(n: int) -> np.ndarray:
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    wm = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    idx = np.arange(1 << n, dtype=np.uint16)
    for i in range(n):
        bit = ((idx >> i) & 1).astype(np.uint8)
        wm |= bit[None, :] << perms[:, i][:, None]
    return wm


class WordMaps:
    """Word images of every coordinate permutation, built once per length."""

    _tables: dict = {}

    @classmethod
    def table(cls, n: int) -> np.ndarray:
        if n not in cls._tables:
            cls._tables[n] = _perm_word_table(n)
        return cls._tables[n]


def _minimal_image(colw: np.ndarray, wm: np.ndarray, translations) -> tuple:
    """Least relabeled col sequence over perms x translations, as a tuple.

    Survivors are (perm, translation) pairs; maps[s] is the partial
    relabeling each survivor has committed to so far.
    """
    trans = np.array(translations, dtype=np.uint16)
    nperm = wm.shape[0]
    jj = np.repeat(np.arange(nperm), len(trans))
    xx = np.tile(trans, nperm)
    maps = np.full((len(jj), 8), -1, dtype=np.int8)
    counts = np.zeros(len(jj), dtype=np.int8)
    key = []
    for t in translations:
        src = wm[jj, (t ^ xx).astype(np.uint16)]
        vals = colw[src].astype(np.int16)
        r = maps[np.arange(len(jj)), vals]
        fresh = r < 0
        r = np.where(fresh, counts, r)
        m = int(r.min())
        keep = r == m
        jj, xx, maps, counts = jj[keep], xx[keep], maps[keep], counts[keep]
        fresh, vals = fresh[keep], vals[keep]
        if fresh.any():
            sel = np.flatnonzero(fresh)
            maps[sel, vals[sel]] = counts[sel]
            counts[sel] += 1
        key.append(m)
    return tuple(key)


def minimal_image7(col: np.ndarray) -> tuple:
    """Canonical col sequence of a length-7 partition, all 128 positions."""
    return _minimal_image(col, WordMaps.table(7), list(range(128)))


def minimal_image8(colw: np.ndarray) -> tuple:
    """Canonical col sequence of a length-8 extended partition.

    colw has 256 entries; odd-weight words carry UNASSIGNED and are
    neither iterated nor reachable, since even translations preserve the
    even-weight half.
    """
    even = [t for t in range(256) if bin(t).count("1") % 2 == 0]
    return _minimal_image(colw, WordMaps.table(8), even)


def minimal_quadset8(masks) -> tuple:
    """Least sorted image of a set of 8-bit masks over all point relabelings.

    Two mask sets have equal minimal images exactly when some permutation
    of the 8 points carries one onto the other.  Results are memoized on
    the sorted distinct masks: structure checks canonicalize the same
    fixed families on every link.
    """
    return _minimal_quadset8(tuple(sorted(set(int(m) for m in masks))))


@lru_cache(maxsize=4096)
def _minimal_quadset8(masks: tuple) -> tuple:
    arr = np.asarray(masks, dtype=np.intp)
    if arr.size == 0:
        return ()
    imgs = np.sort(WordMaps.table(8)[:, arr], axis=1)
    best = imgs[np.lexsort(imgs.T[::-1])[0]]
    return tuple(int(x) for x in best)
