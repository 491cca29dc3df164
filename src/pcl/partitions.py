"""Partitions of F_2^7 into perfect codes and their even extensions.

The pipeline enumerates every partition of the 128 length-7 words into
eight perfect codes as the ids of its codes, and classifies them up to
coordinate permutation and translation in one orbit pass over the ids.
The same ids name the codes' even extensions, so a second pass over the
same array classifies the parity extensions up to coordinate
permutation and even translation.  Two length-7 classes merge under
extension, leaving ten extended classes.  The Atlas keeps the extended
representatives, for downstream pairing, and the length-7 orbit sizes,
from which it derives the census totals.

Class ids are the ranks of the orbit minima (canon.orbit_classes), the
canonical forms of the classes, so the numbering is independent of
enumeration order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import DoublingPair
from .canon import (OrbitClasses, code_table, minimal_image7, minimal_image8,
                    orbit_classes, partition_col)
from .ioutil import code_from_json, code_to_json, read_json, write_json
from .perfect import SPACE7
from .words import (EVEN8, IDENTITY8, coset_minima, echelon_basis, word_hex,
                    xor_closure)


def enumerate_partitions7() -> np.ndarray:
    """All partitions of F_2^7 into eight perfect codes, in branching order.

    Branches on the component containing the lowest uncovered word, so
    each partition appears exactly once, as a row of the ids of its
    codes in canon.code_table(7), ordered by their minimum element.
    """
    codes = code_table(7).tolist()
    masks = [sum(1 << w for w in c) for c in codes]
    through = [[i for i, m in enumerate(masks) if m >> w & 1]
               for w in range(SPACE7)]
    out: list[tuple] = []
    full = (1 << SPACE7) - 1

    def rec(covered: int, chosen: list[int]) -> None:
        if covered == full:
            out.append(tuple(chosen))
            return
        w = ((covered + 1) & ~covered).bit_length() - 1
        for i in through[w]:
            if masks[i] & covered == 0:
                chosen.append(i)
                rec(covered | masks[i], chosen)
                chosen.pop()

    rec(0, [])
    return np.array(out, dtype=np.uint8)


def canonical_form(p, extended: bool = False) -> bytes:
    """The orbit minimum as bytes; equal exactly for equivalent partitions.
    ValueError names a component that is not a code of the length."""
    if extended:
        return bytes(minimal_image8(partition_col(p, 256)))
    return bytes(minimal_image7(partition_col(p, SPACE7)))


def orbit_classify7(ids: np.ndarray) -> OrbitClasses:
    """Classes of the length-7 partitions, given as code ids: one orbit
    pass under S_7 x F_2^7, which also checks that the set is complete."""
    return orbit_classes(ids, 7)


def is_linear_partition(p8) -> bool:
    """True when the components are the cosets of one linear code."""
    base = next((comp for comp in p8 if 0 in comp), ())
    bs = frozenset(base)
    if any((a ^ b) not in bs for a in base for b in base):
        return False
    return all(comp and frozenset(w ^ comp[0] for w in comp) == bs
               for comp in p8)


def check_census7(count, sizes: list, classes: list) -> None:
    """ValueError unless a length-7 census is consistent: sizes holds
    positive ints, the length-7 class ids listed (sorted, with
    repetition) are the ints 0..len(sizes) - 1 each once, one per orbit
    size, and count is the sum of the sizes."""
    if not all(type(n) is int and n > 0 for n in sizes):
        raise ValueError("orbitSizes7 holds a size that is not a "
                         "positive integer")
    if (any(type(i) is not int for i in classes)
            or classes != list(range(len(sizes)))):
        raise ValueError("length-7 classes %s listed, expected each of "
                         "0..%d once, one per orbit size"
                         % (classes, len(sizes) - 1))
    if type(count) is not int or count != sum(sizes):
        raise ValueError("partition7Count %r is not the sum %d of "
                         "orbitSizes7" % (count, sum(sizes)))


def partition_from_json(reps: list, length: int) -> tuple:
    """The components of a class representative as sorted tuples;
    ValueError unless they are perfect codes, 16 words at distance 3 or
    more, partitioning the words of length 7, or at length 8 extended
    ones, at distance 4 or more, partitioning the even words."""
    comps = tuple(tuple(code_from_json(comp, length)) for comp in reps)
    even = length == 8
    if (len(comps) != 8 or any(len(c) != 16 for c in comps)
            or sorted(w for c in comps for w in c)
            != (EVEN8.tolist() if even else list(range(SPACE7)))):
        raise ValueError("components do not partition the %swords of "
                         "length %d into eight 16-word sets"
                         % ("even " * even, length))
    arr = np.array(comps, dtype=np.uint8)
    dist = np.bitwise_count(arr[:, :, None] ^ arr[:, None])
    close = (dist > 0) & (dist < 3 + even)
    if close.any():
        k, i, j = np.argwhere(close)[0].tolist()
        raise ValueError("component %d is not %s perfect code: words %s "
                         "and %s lie at distance %d"
                         % (k, "an extended" if even else "a",
                            word_hex(comps[k][i], length),
                            word_hex(comps[k][j], length), dist[k, i, j]))
    return comps


class TranslationAction(NamedTuple):
    """What doubling needs of a partition (C_0..C_7) of the even words.

    perms is the group A of permutations p, as bytes, with C_i + a =
    C_p[i] for every i and some even translation a; a + a = 0, so every
    p is an involution.  Each p is realized by the same number, fixers,
    of translations: a coset of those fixing every C_i.  delta_dim is
    the dimension of the span of the within-component differences, and
    the residue x_i is C_i reduced modulo that span, the least word of
    its coset; that is a linear map, so residues add like the words they
    reduce.  rank is the rank r of the z_i = x_i + x_0.

    Index sets of 0..7, held as 8-byte indicators, carry the residues'
    linear structure.  The null relations N are the even sets c with
    sum_{i in c} x_i = 0, a space of dimension 7 - r.  Each linear
    functional f on the z_i gives the set T_f = {i : f(z_i) = 1}; these
    form w_sets, the empty set first: the space W spanned by the sets
    T_b of components whose z_i has bit b.  W has 2^r sets and none
    holds index 0 (z_0 = 0), so W never holds all eight.  u_sets is
    U = W + {0, all eight}, the annihilator of N in F_2^8: a set c in N
    meets T_f evenly, since the parity of the meet is f(sum_c z_i) =
    f(sum_c x_i) = 0 for c even, and the annihilator of N has dimension
    8 - (7 - r) = r + 1, that of U.
    """

    perms: frozenset
    fixers: int
    delta_dim: int
    rank: int
    w_sets: tuple
    u_sets: frozenset


def _indicator(s: int) -> bytes:
    return bytes(s >> i & 1 for i in range(8))


@dataclass
class ExtClass:
    """One extended partition class: a representative and its ancestry.

    The translation action that algebra.DoublingPair reads the rank and
    kernel of doubled codes from is built on first use, not when an
    atlas is loaded.
    """

    components: tuple
    length7_classes: tuple[int, ...]
    linear: bool
    alias: str | None = None

    @cached_property
    def action(self) -> TranslationAction:
        comps = np.array(self.components, dtype=np.uint8)
        col = partition_col(comps, 256)
        # img[a, i] holds the components hit by C_i + a; a permutes the
        # components when each row is constant
        img = col[comps[None] ^ EVEN8.astype(np.uint8)[:, None, None]]
        permuting = (img == img[:, :, :1]).all(axis=(1, 2))
        counts = Counter(p.tobytes() for p in img[permuting, :, 0])
        if len(set(counts.values())) != 1:
            raise AssertionError("unequal fibres of the translation action")
        basis = echelon_basis((comps ^ comps[:, :1]).ravel())
        x = coset_minima(comps[:, 0], basis).tolist()
        # T_b, the components whose residue difference has bit b, spans W
        w = xor_closure(sum(((x[i] ^ x[0]) >> b & 1) << i for i in range(8))
                        for b in range(8))
        return TranslationAction(
            frozenset(counts), counts[IDENTITY8], len(basis),
            len(w).bit_length() - 1, tuple(map(_indicator, w)),
            frozenset(_indicator(t ^ e) for t in w for e in (0, 0xFF)))

    def to_json(self) -> dict:
        return {
            "alias": self.alias,
            "representative": [code_to_json(comp, 8)
                               for comp in self.components],
            "length7Classes": list(self.length7_classes),
            "linear": self.linear,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ExtClass":
        comps = partition_from_json(d["representative"], 8)
        linear, alias = d["linear"], d.get("alias")
        if type(linear) is not bool:
            raise ValueError("linear %r is not a boolean" % (linear,))
        if alias is not None and type(alias) is not str:
            raise ValueError("alias %r is not a string or null" % (alias,))
        return cls(comps, tuple(d["length7Classes"]), linear, alias)


@dataclass
class Atlas:
    """Extended partition classes plus the length-7 orbit sizes; the
    census totals partition7_count and merged are read off them.  The
    doubling tables of class pairs are kept as they are built."""

    classes: list[ExtClass]
    orbit_sizes7: list[int]
    _pairs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def pair(self, left: int, right: int) -> DoublingPair:
        """The doubling table of an ordered class pair, built on first use."""
        table = self._pairs.get((left, right))
        if table is None:
            table = self._pairs[left, right] = DoublingPair.of(
                self.classes[left].action, self.classes[right].action)
        return table

    @property
    def partition7_count(self) -> int:
        return sum(self.orbit_sizes7)

    @property
    def merged(self) -> list[tuple[int, ...]]:
        return [c.length7_classes for c in self.classes
                if len(c.length7_classes) > 1]

    @property
    def linear_class(self) -> int:
        return next(i for i, c in enumerate(self.classes) if c.linear)

    def to_json(self) -> dict:
        return {
            "classes": [dict(c.to_json(), id=i) for i, c in enumerate(self.classes)],
            "partition7Count": self.partition7_count,
            "orbitSizes7": self.orbit_sizes7,
            "merged": [list(m) for m in self.merged],
        }

    @classmethod
    def from_json(cls, d: dict) -> "Atlas":
        """Parse an atlas; ValueError, naming the class where there is
        one, unless the class ids are 0..n-1, every class has eight
        16-word components partitioning the 128 even words of length 8,
        each of minimum distance 4 (an extended perfect code), exactly
        one class is flagged linear, a partition into the cosets of one
        linear code, and the length-7 census agrees with the
        classes: one positive orbit size per length-7 class they name,
        summing to partition7Count, and merged lists the classes that
        contain more than one length-7 class."""
        entries = sorted(d["classes"], key=lambda c: c["id"])
        ids = [c["id"] for c in entries]
        if (any(type(i) is not int for i in ids)
                or ids != list(range(len(entries)))):
            raise ValueError("class ids are not 0..%d" % (len(entries) - 1))
        classes = []
        for c in entries:
            try:
                classes.append(ExtClass.from_json(c))
            except ValueError as e:
                raise ValueError("class %d: %s" % (c["id"], e)) from e
        count, sizes = d["partition7Count"], list(d["orbitSizes7"])
        merged = [tuple(m) for m in d["merged"]]
        atlas = cls(classes, sizes)
        check_census7(count, sizes, sorted(i for c in atlas.classes
                                           for i in c.length7_classes))
        if merged != atlas.merged:
            raise ValueError("merged %s does not list the classes with more "
                             "than one length-7 class" % (merged,))
        linear = [i for i, c in enumerate(atlas.classes) if c.linear]
        if len(linear) != 1:
            raise ValueError("%d classes flagged linear, expected exactly one"
                             % len(linear))
        if not is_linear_partition(atlas.classes[linear[0]].components):
            raise ValueError("class %d is flagged linear but is not a "
                             "partition into cosets of a linear code"
                             % linear[0])
        return atlas

    def save(self, path: str) -> None:
        write_json(path, self.to_json())

    @classmethod
    def load(cls, path: str) -> "Atlas":
        return cls.from_json(read_json(path))


def build_atlas() -> Atlas:
    """Enumerate the length-7 partitions and classify them at both lengths.

    One orbit pass classifies the 27,360 partitions under S_7 x F_2^7,
    a second classifies their parity extensions under S_8 x even
    translations.  At both lengths class ids are the ranks of the orbit
    minima, so the numbering does not depend on enumeration order.  An
    extended class lists the length-7 classes it contains and is
    represented by the extension of the first one's representative.
    """
    ids = enumerate_partitions7()
    c7 = orbit_classify7(ids)
    c8 = orbit_classes(ids, 8)
    ext_of7 = c8.class_of[c7.reps]
    classes = []
    for k in range(len(c8.reps)):
        members = tuple(int(c) for c in np.flatnonzero(ext_of7 == k))
        rep = code_table(8)[ids[c7.reps[members[0]]]]
        comps = tuple(sorted(map(tuple, rep.tolist())))
        classes.append(ExtClass(comps, members, is_linear_partition(comps)))
    return Atlas(classes, [int(s) for s in c7.sizes])
