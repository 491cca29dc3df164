"""Named quadruple families and pair-partition algebra on coordinates 0..f.

The left-half families X and Y are the 14 weight-4 codeword supports of
the extended Hamming code on [0,7] whose weight-4 lines through 0 are X;
Y collects the complements of X inside [0,7], and Z mirrors X and Y
into [8,f] by the involution p -> f-p.  Loops and links of folded codes
are described by unions of these families and by products of pair
partitions of the two halves.  Products and their quarters are
recognized in label sets by structure.decompose_mixed.

FAMILIES is the one ordered table of named families and the only
place a family is named.  PRESCRIPTIONS is the paper's whole
per-kernel-dimension prescription, one Prescription record for each
of 5..9: the loop family, the pure link families and the mixed link
rule.  structure.full_report looks a code's record up once and judges
its folded graph against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .words import mask_of, parse_quad, points_of, quad_name

X = tuple(parse_quad(s) for s in
          ("0123", "0145", "0167", "0247", "0256", "0346", "0357"))


def left_complement(q: int) -> int:
    """Complement of a left-half quadruple within [0,7]."""
    if q & ~0xFF:
        raise ValueError("not a left-half quadruple: %s" % quad_name(q))
    return q ^ 0xFF


def supplement(quads, s: int) -> tuple:
    """Image of a quadruple set under p -> s-p, sorted."""
    out = []
    for q in quads:
        pts = points_of(q)
        if max(pts) > s:
            raise ValueError("coordinate above %x in %s" % (s, quad_name(q)))
        out.append(mask_of(s - p for p in pts))
    return tuple(sorted(out, key=points_of))


def _union(*families) -> tuple:
    """The quadruples of the families together, sorted by their points."""
    return tuple(sorted(chain(*families), key=points_of))


def _primed(families: dict) -> dict:
    """The families, then each one's left complements under its name primed."""
    return {**families, **{name + "'": tuple(map(left_complement, quads))
                           for name, quads in families.items()}}


Y = tuple(map(left_complement, X))
Z = supplement(X + Y, 0xF)
XYZ = _union(X, Y, Z)                                   # loop for kappa=8, 9

# A holds the quadruples of X through 1 and B the others, each split in two
FAMILIES = {"X": X, "Y": Y, "Z": Z, "X'": _union(Y, Z),  # loop for kappa=7
            **_primed({"A": X[:3], "B": X[3:]}),
            **_primed({"A_0": X[:1], "A_1": X[1:3],
                       "B_0": X[3:5], "B_1": X[5:]})}
FAMILIES["Z'"] = _union(Z, FAMILIES["A'"])              # loop for kappa=6
FAMILIES["Z_0"] = _union(Z, FAMILIES["A_0'"])           # loop for kappa=5


@dataclass(frozen=True)
class Prescription:
    """The paper's loop and link prescription for one kernel dimension.

    loop is the loop's half-supported family; loop_products full
    products of pair partitions, 16 labels each, join it.  intra names
    the FAMILIES a pure link may carry, none when it is empty, in the
    order ties between them are broken: a link is graded against every
    family of its size, so no verdict checks which family the xor of a
    link's paired vertex labels assigns to it.  A mixed link is
    link_products full products, or at most three quarters of products
    when link_products is 0.  half_fold prescribes the fold over the
    half-supported kernel subgroup, taken to have index 2, which holds
    only for class pair (0, 0)."""

    loop_name: str
    loop: tuple
    loop_products: int
    intra: tuple
    cross_rule: str
    link_products: int
    half_fold: Prescription | None = None


_QUARTERS = "at most three quarters"
_KAPPA8 = Prescription("X+Y+Z", XYZ, 0, (), "one full product", 1)

PRESCRIPTIONS = {
    5: Prescription("Z_0", FAMILIES["Z_0"], 0,
                    ("A_1'", "B_0'", "B_1'", "B_1", "B_0", "A_1", "A_0"),
                    _QUARTERS, 0),
    6: Prescription("Z'", FAMILIES["Z'"], 0, ("B'", "B", "A"), _QUARTERS, 0),
    7: Prescription("X'", FAMILIES["X'"], 0, ("X",), _QUARTERS, 0),
    8: _KAPPA8,
    9: Prescription("X+Y+Z and one full product", XYZ, 1, (),
                    "two full products", 2, half_fold=_KAPPA8),
}


@dataclass(frozen=True)
class PairPartition:
    """A partition of [0,7] into four pairs, pairs sorted by minimum."""

    pairs: tuple

    def __post_init__(self):
        flat = sorted(p for ab in self.pairs for p in ab)
        if flat != list(range(8)):
            raise ValueError("pairs %s do not partition [0,7]" % (self.pairs,))
        if list(self.pairs) != sorted((min(ab), max(ab)) for ab in self.pairs):
            raise ValueError("pairs must be stored sorted by minimum")

    @property
    def name(self) -> str:
        (_, k), (_, l), (_, m), _ = self.pairs
        return "%d_%d^%d" % (k, l, m)


def pair_partition(k: int, l: int, m: int) -> PairPartition:
    """Decode a k_l^m tag: pair 0 with k, then the least free point with
    l, then the least free with m; the last pair is forced."""
    pairs = []
    free = set(range(8))
    for partner in (k, l, m):
        a = min(free)
        if partner not in free or partner == a:
            raise ValueError("tag %d_%d^%d has no consistent pairing" % (k, l, m))
        pairs.append((a, partner))
        free -= {a, partner}
    pairs.append((min(free), max(free)))
    return PairPartition(tuple(pairs))


def parse_pair_name(s: str) -> PairPartition:
    k, rest = s.split("_")
    l, m = rest.split("^")
    return pair_partition(int(k), int(l), int(m))


REGISTRY_TAGS = """
1_a=1_3^5 2_a=2_3^7 3_a=3_2^7 4_a=4_5^7 5_a=5_4^6 6_a=6_7^4 7_a=7_6^5
1_b=1_3^6 2_b=2_3^6 3_b=3_2^6 4_b=4_5^6 5_b=5_4^7 6_b=6_7^5 7_b=7_6^4
1_c=1_3^7 2_c=2_3^5 3_c=3_2^5 4_c=4_6^5 4_d=4_6^7 4_e=4_7^6 5_c=5_7^4
5_d=5_7^6 5_e=5_6^7 6_c=6_4^7 6_d=6_4^5 6_e=6_5^4 7_c=7_5^6 7_d=7_5^4
7_e=7_4^5
1_d=1_5^4 1_e=1_6^7 1_f=1_4^5 2_d=2_5^7 2_e=2_4^6 2_f=2_6^4
3_d=3_4^7 3_e=3_7^4 3_f=3_5^6 4_f=4_3^6 4_g=4_2^7 4_h=4_5^3
5_f=5_2^6 5_g=5_3^7 6_f=6_2^5 6_g=6_7^3 7_f=7_6^3 7_g=7_3^5
1_g=1_4^7 1_h=1_4^6 1_i=1_7^6 1_j=1_5^7 1_k=1_6^5 2_g=2_7^6 2_h=2_5^6
2_i=2_4^7 2_j=2_7^5 2_k=2_4^5 3_g=3_7^6 3_h=3_7^5 3_i=3_4^6 3_j=3_6^7
4_i=4_2^6 4_j=4_3^5 5_h=5_6^4 5_i=5_4^3 5_j=5_2^4 5_k=5_6^3 6_h=6_3^5
6_i=6_3^4 6_j=6_5^7 6_k=6_5^3 7_h=7_5^3 7_i=7_2^5 7_j=7_3^4
""".split()


def partition_registry() -> dict:
    """Short letter names for the pair partitions used in link tables.

    The tag 7_2^3 admits no consistent pairing under the decode rule, so
    its would-be short name 7_k is not registered.
    """
    reg = {}
    for entry in REGISTRY_TAGS:
        alias, tag = entry.split("=")
        reg[alias] = parse_pair_name(tag)
    return reg
