"""Invariant scans over the doubling permutation.

Doubling two fixed partition classes under different permutations
yields codes whose rank and kernel dimension depend on the permutation.
A permutation sigma of 0..7 travels as 8 bytes (words.sigma_bytes).
The scan walks permutations deterministically (an explicit list, whose
entries are checked to be permutations, a seeded sample without
replacement, or all 40320 in lexicographic order, from iter_sigmas) and
tabulates the invariants as ScanRow named tuples.  scan_pair is the one
route from sigma to (rank, kernel dimension): it reads them off the
class pair's algebra.DoublingPair table, without building the code.
find_representatives walks its rows and builds a code only when it may
keep it, the first found per kernel dimension; a kept code carries its
recipe (Code.left, right, sigma), and the one it prefers has every
kernel coset typed and certified.  algebra.kernel_words
and the rank of the built code's word differences are the oracle of
the rows.
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

import numpy as np

from .doubling import Code, double
from .fano import PRESCRIPTIONS
from .partitions import Atlas
from .sts import fully_tabulated
from .words import sigma_bytes

FACT8 = 40320

# Scan order: the first pair produces kernel dimensions 8, 9 and 11 in
# quantity, the later pairs lead with 7, 6 and 5 respectively.
PRIORITY_PAIRS: tuple[tuple[int, int], ...] = ((0, 0), (0, 1), (0, 3), (1, 3))


class ScanRow(NamedTuple):
    """Invariants of one doubled code; a tuple, so its fields are fixed."""

    left: int
    right: int
    sigma: bytes
    rank: int
    kernel: int


def iter_sigmas(sample: int | None = None, seed: int = 0):
    """Permutations of [0,7] as bytes: all 40320 in lexicographic order,
    or a seeded sample without replacement."""
    if sample is None or sample >= FACT8:
        yield from map(bytes, permutations(range(8)))
        return
    rng = np.random.default_rng(seed)
    seen: set = set()
    while len(seen) < sample:
        s = bytes(rng.permutation(8).tolist())
        if s not in seen:
            seen.add(s)
            yield s


def make_code(atlas: Atlas, left: int, right: int, sigma) -> Code:
    return double(atlas.classes[left].components,
                  atlas.classes[right].components,
                  sigma, left, right)


def scan_pair(atlas: Atlas, left: int, right: int, sigmas) -> list[ScanRow]:
    """One invariant row per permutation, in the order given; each row
    holds its sigma as checked bytes (ValueError for one that is no
    permutation of 0..7)."""
    invariants = atlas.pair(left, right).invariants
    rows = []
    for s in sigmas:
        sig = sigma_bytes(s)
        # tuple.__new__ builds the row ScanRow() would, at about half
        # the cost: it skips the named tuple's Python-level __new__
        rows.append(tuple.__new__(ScanRow, (left, right, sig)
                                  + invariants(sig)))
    return rows


def find_representatives(atlas: Atlas, pairs=PRIORITY_PAIRS,
                         per_pair: int = 400, seed: int = 0,
                         ) -> dict[int, Code]:
    """One code per prescribed kernel dimension (fano.PRESCRIPTIONS)
    from a seeded permutation scan.

    Pairs are scanned in order with a fresh sample each; the result maps
    kernel dimension to the code, which carries its recipe.  Some codes with
    small kernels puncture to triple systems whose Pasch profiles match
    no type-table row; the scan keeps the first code whose profiles all
    classify and falls back to the first found otherwise.  A code is
    built only when its kernel dimension, read off the scan_pair row, is
    wanted and not yet settled.  Deterministic for fixed atlas, pair
    list, sample size and seed.
    """
    want = set(PRESCRIPTIONS)
    found: dict[int, Code] = {}
    settled: set[int] = set()
    for left, right in pairs:
        if want <= settled:
            break
        for _, _, sig, _, kap in scan_pair(atlas, left, right,
                                           iter_sigmas(per_pair, seed)):
            if kap not in want or kap in settled:
                continue
            code = make_code(atlas, left, right, sig)
            if fully_tabulated(code):
                found[kap] = code
                settled.add(kap)
            elif kap not in found:
                found[kap] = code
    return found
