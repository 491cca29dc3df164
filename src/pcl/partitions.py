"""Partitions of F_2^7 into perfect codes and their even extensions.

The pipeline enumerates every partition of the 128 length-7 words into
eight perfect codes as the ids of its codes, and classifies them up to
coordinate permutation and translation in one orbit pass over the ids.
The same ids name the codes' even extensions, so a second pass over the
same array classifies the parity extensions up to coordinate
permutation and even translation.  Two length-7 classes merge under
extension, leaving ten extended classes.  The Atlas keeps the extended
representatives, for downstream pairing, and the length-7 orbit sizes,
from which it derives the census totals.  Atlas.pair reads the rank and
kernel of codes doubled from two classes off their translation actions.

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

from .canon import (OrbitClasses, code_table, minimal_image7, minimal_image8,
                    orbit_classes, partition_col)
from .ioutil import code_from_json, code_to_json, read_json, write_json
from .perfect import SPACE7
from .words import (EVEN8, IDENTITY8, coset_minima, echelon_basis,
                    fixed_points, word_hex, xor_closure)


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


def check_census7(d: dict, classes: list) -> list:
    """orbitSizes7 of an atlas or length-7 census d; ValueError unless
    they are positive ints, the length-7 class ids listed (sorted, with
    repetition) are the ints 0..len(sizes) - 1 each once, one per orbit
    size, and partition7Count is the sum of the sizes."""
    count, sizes = d["partition7Count"], list(d["orbitSizes7"])
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
    return sizes


def partition_from_json(reps: list, length: int) -> tuple:
    """The components of a class representative as sorted tuples;
    ValueError unless they are perfect codes, 16 words at distance 3 or
    more, partitioning the words of length 7, or at length 8 extended
    ones, at distance 4 or more, partitioning the even words, and are
    in increasing order, the order sigma indexes them by."""
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
    if list(comps) != sorted(comps):
        raise ValueError("components are not in increasing order: least "
                         "words %s" % " ".join(word_hex(c[0], length)
                                               for c in comps))
    return comps


def classes_from_json(entries: list, length: int) -> list:
    """Each class entry read at its length; ValueError names the class."""
    out = []
    for c in entries:
        try:
            out.append(ExtClass.from_json(c) if length == 8 else
                       partition_from_json(c["representative"], 7))
        except ValueError as e:
            raise ValueError("class %d: %s" % (c["id"], e)) from e
    return out


class TranslationAction(NamedTuple):
    """What doubling needs of a partition (C_0..C_7) of the even words.

    perms is the group A of permutations p, as bytes, with C_i + a =
    C_p[i] for every i and some even translation a; a + a = 0, so every
    p is an involution.  Each p is realized by the same number, fixers,
    of translations: a coset of those fixing every C_i.  The residue x_i
    is C_i reduced modulo D, the span of the within-component
    differences: the least word of its coset, a linear map, so residues
    add like the words they reduce.  rank is the rank r of the z_i =
    x_i + x_0.  Every even word lies in some D + x_i, and the component
    holding 0 has residue 0, so D and the z_i span the 7 dimensions of
    the even words; reduced words meet D only in 0, so dim D = 7 - r.

    Index sets of 0..7, held as 8-byte indicators, carry the residues'
    linear structure.  The null relations N are the even sets c with
    sum_{i in c} x_i = 0, a space of dimension 7 - r.  Each linear
    functional f on the z_i gives the set T_f = {i : f(z_i) = 1}; these
    form w_sets, the empty set first: the space W spanned by the sets
    T_b of components whose z_i has bit b.  W has 2^r sets and none
    holds index 0 (z_0 = 0), so W never holds all eight.  U = W + {0,
    all eight} is the annihilator of N in F_2^8: a set c in N meets T_f
    evenly, since the parity of the meet is f(sum_c z_i) = f(sum_c x_i)
    = 0 for c even, and the annihilator of N has dimension 8 - (7 - r) =
    r + 1, that of U.  For two partitions L, R and a permutation sigma,
    with sigma^-1 S = {i : sigma(i) in S}, N_L & sigma^-1 N_R has the
    annihilator U_L + sigma^-1 U_R; U_L & sigma^-1 U_R is {0, all eight}
    plus the 2^j sets sigma^-1(w), w in W_R, that lie in U_L (all eight
    is in neither W), so N_L & sigma^-1 N_R has dimension 8 - (r_L + 1)
    - (r_R + 1) + (j + 1) = 7 - r_L - r_R + j.
    """

    perms: frozenset
    fixers: int
    rank: int
    w_sets: tuple


def _log2_kernel_size(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError("kernel size %d is not a power of two" % n)
    return n.bit_length() - 1


class DoublingPair(NamedTuple):
    """(rank, kernel dimension) of the doubled codes of one ordered
    class pair, read off the two partitions in a few bytes.translate
    calls.

    With L = (C_0..C_7) the left class, R = (D_0..D_7) the right one,
    the code doubled under sigma is the union of the products
    C_i x D_sigma(i), which is never built here (Phelps, SIAM J. Alg.
    Disc. Meth. 1984).

    Kernel: (a, b) fixes the code exactly when a permutes L's components
    by translation (pa in A_L), b permutes R's (pb in A_R), and pb =
    sigma pa sigma^-1.  Each element of A_L is realized by f_L
    translations, so the kernel size is f_L f_R |A_L & sigma^-1 A_R sigma|,
    counted by conjugating one group's elements into the other.

    Rank: the codeword differences are spanned by the within-component
    differences of L and of R, each in its own half, and by the blocks
    (x_i + x_0, y_sigma(i) + y_sigma(0)) of residues, i = 1..7.  Modulo
    the differences, the blocks span 7 - dim(N_L & sigma^-1 N_R) = r_L
    + r_R - j, and the differences of a class span 7 - r (both from
    TranslationAction), so

        rank = 14 - j,  j = log2 #{w in W_R : sigma^-1(w) in U_L}.

    Range: each component is a translate of an extended Hamming code, of
    dimension 4 and holding all ones, so r <= 3 and f >= 2 on each side:
    rank 11..14 (j <= min(r_L, r_R)) and kernel dimension 2..11.

    The table: moves are the translate tables of the non-identity
    elements of A_L (when left_moves) or A_R that sigma conjugates into
    the other group, into.  Conjugation keeps the cycle type, for these
    involutions the number of fixed points, so only elements of a count
    the other group has are kept, from the side with fewer.  tables:
    translate tables of the nonzero sets of W_R, carried by sigma^-1
    into U_L, u, formed as W_L + {0, all eight}; sigma^-1 keeps a set's
    size, so only sets of a size in U_L are kept, none when r_L = 0.
    results: (rank, kernel dimension) by the tests passed, one per move
    and 16 per set; each kernel size in it is checked once, and a count
    that is not a subgroup's raises KeyError.  Atlas.pair builds one per
    pair.
    """

    moves: tuple
    into: frozenset
    left_moves: bool
    tables: tuple
    u: frozenset
    results: dict

    @classmethod
    def of(cls, la, ra) -> "DoublingPair":
        """The table of two partitions.TranslationAction, left then right."""
        def candidates(a, b) -> list:
            kinds = {fixed_points(p) for p in b.perms if p != IDENTITY8}
            return [p for p in a.perms
                    if p != IDENTITY8 and fixed_points(p) in kinds]

        left, right = candidates(la, ra), candidates(ra, la)
        # conjugating A_L's elements costs a second maketrans
        left_moves = len(left) + 1 < len(right)
        moves, into = (left, ra.perms) if left_moves else (right, la.perms)
        meets = min(len(la.perms), len(ra.perms)).bit_length()
        results = {(1 << k) - 1 + 16 * ((1 << j) - 1):
                   (14 - j, _log2_kernel_size(la.fixers * ra.fixers << k))
                   for k in range(meets)
                   for j in range(min(la.rank, ra.rank) + 1)}
        u = frozenset(bytes(b ^ e for b in w)
                      for w in la.w_sets for e in (0, 1))
        sizes = {sum(w) for w in u}
        return cls(tuple(bytes.maketrans(IDENTITY8, p) for p in moves), into,
                   left_moves,
                   tuple(bytes.maketrans(IDENTITY8, w) for w in ra.w_sets[1:]
                         if sum(w) in sizes),
                   u, results)

    def invariants(self, sig: bytes) -> tuple[int, int]:
        """(rank, kernel dimension) of the code doubled under sig, a
        permutation of 0..7 as 8 bytes (words.sigma_bytes)."""
        moves, into, left_moves, tables, u, results = self
        passed = 0
        if moves:
            back = bytes.maketrans(sig, IDENTITY8)  # sigma^-1 as a table
            if left_moves:  # sigma p sigma^-1, p in A_L
                s, t = back[:8], bytes.maketrans(IDENTITY8, sig)
            else:  # sigma^-1 q sigma, q in A_R
                s, t = sig, back
            for p in moves:
                if s.translate(p).translate(t) in into:
                    passed += 1
        for w in tables:  # sigma^-1(w), w in W_R
            if sig.translate(w) in u:
                passed += 16
        return results[passed]


@dataclass
class ExtClass:
    """One extended partition class: a representative and its ancestry.

    The translation action that DoublingPair reads the rank and kernel
    of doubled codes from is built on first use; linear is read off it,
    never from a file (Atlas.from_json checks a file's flags)."""

    components: tuple
    length7_classes: tuple[int, ...]
    alias: str | None = None

    @property
    def linear(self) -> bool:
        """The components are the cosets of one linear code exactly when
        16 translations, a group inside the component through 0, fix
        them all."""
        return self.action.fixers == 16

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
        return TranslationAction(frozenset(counts), counts[IDENTITY8],
                                 len(w).bit_length() - 1,
                                 tuple(bytes(t >> i & 1 for i in range(8))
                                       for t in w))

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
        alias = d.get("alias")
        if alias is not None and type(alias) is not str:
            raise ValueError("alias %r is not a string or null" % (alias,))
        return cls(comps, tuple(d["length7Classes"]), alias)


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
        each an extended perfect code, in increasing order of their least
        words, the length-7 census agrees with the classes (one positive
        orbit size per length-7 class they name, summing to
        partition7Count, and merged lists those holding more than one),
        each linear flag is the class's computed linear, exactly one
        class is linear, and no two classes share a spectrum, the sorted
        fixed-point counts of A, an invariant that tells all ten apart."""
        entries = sorted(d["classes"], key=lambda c: c["id"])
        ids = [c["id"] for c in entries]
        if (any(type(i) is not int for i in ids)
                or ids != list(range(len(entries)))):
            raise ValueError("class ids are not 0..%d" % (len(entries) - 1))
        classes = classes_from_json(entries, 8)
        sizes = check_census7(d, sorted(i for c in classes
                                        for i in c.length7_classes))
        merged = [tuple(m) for m in d["merged"]]
        atlas = cls(classes, sizes)
        if merged != atlas.merged:
            raise ValueError("merged %s does not list the classes with more "
                             "than one length-7 class" % (merged,))
        seen: dict = {}
        for i, (c, ext) in enumerate(zip(entries, classes)):
            if c["linear"] is not ext.linear:
                raise ValueError("class %d: linear %r is not the computed %r"
                                 % (i, c["linear"], ext.linear))
            spectrum = tuple(sorted(map(fixed_points, ext.action.perms)))
            if seen.setdefault(spectrum, i) != i:
                raise ValueError("classes %d and %d share the spectrum %s"
                                 % (seen[spectrum], i, spectrum))
        if sum(c.linear for c in classes) != 1:
            raise ValueError("expected exactly one linear class")
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
        classes.append(ExtClass(comps, members))
    return Atlas(classes, [int(s) for s in c7.sizes])
