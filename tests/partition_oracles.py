"""The row-based orbit pass, the oracle of canon.orbit_classes.

A partition here is its row: the component id of each of the 128 words
(words.EVEN8 at length 8), relabeled by first occurrence.  Each
generator is a gather map g on the row positions, the moved rows are
rows[:, g] relabeled, and the orbits come from looking every moved row
up among the sorted rows.  canon classifies on code ids instead and
builds rows only to rank the orbits; this pass never sees a code id,
and row_ids converts its rows for the id pass.

is_linear_partition, a closure test on the component through 0, is the
oracle of partitions.ExtClass.linear, which reads linearity off the
translation action instead.
"""

import numpy as np

from pcl.canon import code_table, relabel_np
from pcl.words import EVEN8, perm_word_map


def row_generators(n: int) -> tuple:
    """Gather maps of the generators of the length-n group on the 128
    row positions: (0 1), the inverse of the n-cycle, the translations."""
    swap01 = perm_word_map((1, 0) + tuple(range(2, n)), n)
    cycle = perm_word_map(tuple((i - 1) % n for i in range(n)), n)
    if n == 7:
        words = np.arange(128)
        shifts = [1 << i for i in range(7)]
    else:
        words = EVEN8
        shifts = [1 | (1 << i) for i in range(1, 8)]
    position = np.zeros(1 << n, dtype=np.intp)
    position[words] = np.arange(128)
    maps = [swap01[words], cycle[words]] + [words ^ s for s in shifts]
    return tuple(position[m] for m in maps)


def _keys(rows: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1]))).ravel()


def row_orbit_classes(rows: np.ndarray, gens) -> tuple:
    """(class_of, reps, sizes) of distinct relabeled rows closed under
    the generators, class ids the ranks of the least rows of the orbits;
    ValueError on a duplicate row or an image outside the set."""
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
    comps, first = np.unique(label[order], return_index=True)
    reps = comps[np.argsort(first)]
    class_id = np.empty(n, dtype=np.intp)
    class_id[reps] = np.arange(len(reps))
    class_of = class_id[label]
    return class_of, reps, np.bincount(class_of)


def row_orbit(row: np.ndarray, gens) -> np.ndarray:
    """Every relabeled row the generators reach from one relabeled row,
    in the order a breadth-first search finds them."""
    seen = {row.tobytes()}
    found = [row]
    frontier = row[None, :]
    while len(frontier):
        imgs = relabel_np(np.concatenate([frontier[:, g] for g in gens]))
        fresh = []
        for img in imgs:
            if img.tobytes() not in seen:
                seen.add(img.tobytes())
                fresh.append(img)
        found += fresh
        frontier = np.array(fresh, dtype=np.uint8).reshape(-1, row.size)
    return np.array(found)


def row_ids(rows: np.ndarray) -> np.ndarray:
    """The code ids of the components 0..7 of length-7 rows."""
    index = {tuple(c): i for i, c in enumerate(code_table(7).tolist())}
    return np.array([[index[tuple(np.flatnonzero(r == v).tolist())]
                      for v in range(8)] for r in rows], dtype=np.uint8)


def is_linear_partition(p8) -> bool:
    """True when the components are the cosets of one linear code."""
    base = next((comp for comp in p8 if 0 in comp), ())
    bs = frozenset(base)
    if any((a ^ b) not in bs for a in base for b in base):
        return False
    return all(comp and frozenset(w ^ comp[0] for w in comp) == bs
               for comp in p8)
