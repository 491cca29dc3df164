"""Verdicts on the loop and link structure of folded codes.

A quotient graph carries three kinds of label sets: the loop shared by
every vertex (the weight-4 words of the fold subspace), pure links whose
labels live in a single half, and mixed links whose labels straddle the
halves.  Each subject is compared against the quadruple families that
fano.PRESCRIPTIONS prescribes for the code's kernel dimension, looked
up by name in fano.FAMILIES, the only place a family is named; the
record is looked up once, in full_report, and no check here branches on
the dimension itself.  A verdict takes one of four levels:

  exact      set equality in construction coordinates,
  relabeled  equality after relabeling points inside each half
             (independent permutations, optionally exchanging halves),
  spectrum   cardinalities agree but the sets could not be identified,
  fail       multiplicity mismatch or no decomposition at all.

One rule, _grade, decides the first three levels for every label set
compared against a family of half-supported quadruples (the loop, the
per-vertex block, the half-fold loop and each pure link); each caller
keeps its own size gate, which gives fail.  Relabelings are certified
subject by subject; no attempt is made to pin one simultaneous
relabeling for the whole graph, only existence per loop or link.

Products of pair partitions and their quarters (Phelps, SIAM J. Alg.
Disc. Meth. 1984) are recognized by decompose_mixed alone, both on
mixed links and on the product parts of loops and half-fold links.

Link verdicts are judged once per difference class of the fold
(SqsGraph.classes) and repeated for each link of the class by one
emitter, _link_verdicts.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import fano
from .algebra import kernel_cosets
from .canon import minimal_quadset8
from .doubling import Code
from .fold import SqsGraph, quotient_graph
from .words import points_of, quad_name

LEVELS = ("exact", "relabeled", "spectrum", "fail")


@dataclass(frozen=True)
class Verdict:
    """Finding for one subject: a loop, a link, or a per-vertex invariant."""

    subject: str
    level: str
    expected: str
    observed: str
    detail: str = ""

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError("unknown verdict level %r" % (self.level,))

    def to_json(self) -> dict:
        d = {"subject": self.subject, "level": self.level,
             "expected": self.expected, "observed": self.observed}
        if self.detail:
            d["detail"] = self.detail
        return d


def split_sides(labels) -> tuple[tuple, tuple, tuple]:
    """Split labels into (left 8-bit, right 8-bit, mixed 16-bit) masks."""
    left, right, mixed = [], [], []
    for m in labels:
        m = int(m)
        if m & 0xFF00 == 0:
            left.append(m)
        elif m & 0x00FF == 0:
            right.append(m >> 8)
        else:
            mixed.append(m)
    return tuple(left), tuple(right), tuple(mixed)


def _describe(labels) -> str:
    L, R, M = split_sides(labels)
    return "%d labels (%d left, %d right, %d mixed)" % (
        len(labels), len(L), len(R), len(M))


def _grade(labels, family) -> str:
    """exact, relabeled or spectrum: how labels compare with family.

    exact when the sets are equal; relabeled when no label is mixed and
    each half's labels are the family's half up to a permutation of the
    8 points (independently per half, the halves possibly exchanged);
    spectrum otherwise.  Size gates, which give fail, are the caller's.
    """
    labels = set(int(m) for m in labels)
    if labels == set(family):
        return "exact"
    L, R, M = split_sides(labels)
    if not M:
        got = (minimal_quadset8(L), minimal_quadset8(R))
        fL, fR, _ = split_sides(family)
        want = (minimal_quadset8(fL), minimal_quadset8(fR))
        if got == want or got == want[::-1]:
            return "relabeled"
    return "spectrum"


@functools.lru_cache(maxsize=4096)
def _as_pair_partition(masks8: tuple):
    """The pair partition whose pairs are these sorted 8-bit masks, or None.

    Memoized: a graph's links repeat a few pair sets many times.
    """
    if len(masks8) != 4:
        return None
    try:
        return fano.PairPartition(tuple(sorted(
            (min(points_of(m)), max(points_of(m))) for m in masks8)))
    except ValueError:
        return None


def _quarters(partners: dict):
    """[(pair, partition), ...] over the pairs in point order when each
    pair's partners form a full pair partition, else None."""
    out = []
    for pair in sorted(partners, key=points_of):
        part = _as_pair_partition(tuple(sorted(partners[pair])))
        if part is None:
            return None
        out.append((pair, part))
    return out


def decompose_mixed(labels):
    """Split an all-mixed label set into whole products or whole quarters.

    Returns ("products", [(a, b), ...]) when the left pairs group by
    identical right sides into full pair partitions, ("quarters",
    [(leftPair, b), ...]) when every left pair carries a full right
    partition on its own, ("quarters-swapped", [(a, rightPair), ...])
    for the mirrored orientation, or None when none of the three fits.
    """
    by_left: dict[int, set] = {}
    by_right: dict[int, set] = {}
    for m in labels:
        m = int(m)
        lp, rp = m & 0xFF, m >> 8
        if lp.bit_count() != 2 or rp.bit_count() != 2:
            return None
        by_left.setdefault(lp, set()).add(rp)
        by_right.setdefault(rp, set()).add(lp)

    groups: dict[frozenset, list] = {}
    for lp, rs in by_left.items():
        groups.setdefault(frozenset(rs), []).append(lp)
    prods = []
    for rs, ls in groups.items():
        a = _as_pair_partition(tuple(sorted(ls)))
        b = _as_pair_partition(tuple(sorted(rs)))
        if a is None or b is None:
            prods = None
            break
        prods.append((a, b))
    if prods is not None:
        return ("products",
                sorted(prods, key=lambda ab: (ab[0].name, ab[1].name)))

    quarters = _quarters(by_left)
    if quarters is not None:
        return ("quarters", quarters)
    swapped = _quarters(by_right)
    if swapped is None:
        return None
    return ("quarters-swapped", [(a, rp) for rp, a in swapped])


def _one_product(labels):
    """(a, b) when the 16 labels are exactly the product a x b, else None."""
    dec = decompose_mixed(labels) if len(labels) == 16 else None
    if dec is not None and dec[0] == "products" and len(dec[1]) == 1:
        return dec[1][0]
    return None


def verify_loops(G: SqsGraph, rx: fano.Prescription) -> list[Verdict]:
    """Per-vertex verdicts for the loop label set.

    Every vertex shares one loop set by construction, so a single
    comparison is replicated across the graph.
    """
    fam = rx.loop
    want = len(fam) + 16 * rx.loop_products
    obs = G.loop_labels
    mixed = split_sides(obs)[2]
    prod = _one_product(mixed)
    expected = "%s, %d labels" % (rx.loop_name, want)
    detail = ""
    if len(obs) != want:
        level = "fail"
        if len(split_sides(fam)[0]) % 2:
            detail = ("half-supported loop labels pair up under the "
                      "half complement, so the odd prescribed half "
                      "count cannot occur")
    else:
        # a loop prescribed with a full product holds it beside the family
        graded = (set(obs) - set(mixed)
                  if rx.loop_products and prod is not None else obs)
        level = _grade(graded, fam)
        if prod is not None:
            detail = "mixed part is the product %s x %s" % (
                prod[0].name, prod[1].name)
    return [Verdict("loop@v%d" % v, level, expected, _describe(obs), detail)
            for v in range(G.order)]


def _link_verdicts(G: SqsGraph, judged: list, prefix: str) -> list[Verdict]:
    """One verdict per link of G, from the verdict fields judged[k] of
    its difference class k; links of a class judged None get none."""
    return [Verdict("%slink(%d,%d)" % (prefix, i, j), *judged[k])
            for i, j, k in G.links() if judged[k] is not None]


def _judge_pure(labels, names, expected):
    """Verdict fields for one link's label set, None unless it is a
    nonempty set of half-supported labels."""
    L, R, M = split_sides(labels)
    if M or not labels:
        return None
    if L and R:
        return ("fail", expected, "%d left and %d right labels on one link"
                % (len(L), len(R)), "")
    obs_desc = "%d %s-half labels" % (len(L or R), "left" if L else "right")
    graded = [(LEVELS.index(_grade(labels, fano.FAMILIES[name])), pos)
              for pos, name in enumerate(names)
              if len(fano.FAMILIES[name]) == len(labels)]
    if not graded:
        return ("fail", expected, obs_desc,
                "no prescribed family of this size")
    at, pos = min(graded)
    note = ("size matches %s only" if LEVELS[at] == "spectrum"
            else "matches %s") % names[pos]
    return (LEVELS[at], expected, obs_desc, note)


def verify_intra_links(G: SqsGraph, rx: fano.Prescription) -> list[Verdict]:
    """Pure links against the prescribed per-vertex families, plus the
    28-label block invariant of loop and pure links at every vertex.

    A link is graded against every family rx.intra names that has its
    size, and the best grade is kept (_judge_pure).
    """
    expected = "one of " + ", ".join(
        "%s(%d)" % (name, len(fano.FAMILIES[name])) for name in rx.intra)
    # class 0 is the loop, no link's, which every block holds
    judged = [None] + [_judge_pure(labels, rx.intra, expected)
                       for labels in G.classes[1:]]
    out = _link_verdicts(G, judged, "")

    blk_exp = set(fano.XYZ)
    for v, row in enumerate(G.pair_class.tolist()):
        blk = set(chain.from_iterable(
            G.classes[k] for k in set(row)
            if k == 0 or judged[k] is not None))
        out.append(Verdict("block@v%d" % v,
                           _grade(blk, blk_exp) if len(blk) == 28 else "fail",
                           "loop and pure links union to X+Y+Z, 28 labels",
                           _describe(blk)))
    return out


def _judge_mixed(labels, rx: fano.Prescription):
    """Verdict fields for one link's label set, None unless some label
    is mixed."""
    expected = rx.cross_rule
    L, R, M = split_sides(labels)
    if not M:
        return None
    if L or R:
        return ("fail", expected, "%d labels with %d half-supported among "
                "them" % (len(labels), len(L) + len(R)), "")
    dec = decompose_mixed(M)
    if dec is None:
        profile = sorted(
            len(set(m >> 8 for m in M if (m & 0xFF) == lp))
            for lp in set(m & 0xFF for m in M))
        return ("fail", expected,
                "%d labels, no whole-product or whole-quarter split" % len(M),
                "right fan-out per left pair: %s" % profile)
    kind, parts = dec
    # parts is never empty, so no product split fits link_products == 0
    quarters_fit = not rx.link_products and len(parts) <= 3
    if kind == "products":
        desc = "products " + ", ".join(
            "%sx%s" % (a.name, b.name) for a, b in parts)
        lv = "exact" if len(parts) == rx.link_products else "spectrum"
    elif kind == "quarters":
        desc = "quarters " + ", ".join(
            "(%s)x%s" % (quad_name(lp), b.name) for lp, b in parts)
        lv = "exact" if quarters_fit else "spectrum"
    else:
        desc = "half-swapped quarters " + ", ".join(
            "%sx(%s)" % (a.name, quad_name(rp)) for a, rp in parts)
        lv = "relabeled" if quarters_fit else "spectrum"
    return (lv, expected, desc, "")


def verify_cross_links(G: SqsGraph, rx: fano.Prescription) -> list[Verdict]:
    """Mixed links decomposed into products or quarters, plus the
    112-label cross budget at every vertex."""
    # class 0 is the loop, whose mixed labels are no link's
    out = _link_verdicts(G, [None] + [_judge_mixed(labels, rx)
                                      for labels in G.classes[1:]], "")
    mixed = np.array([0] + [len(split_sides(labels)[2])
                            for labels in G.classes[1:]])
    totals = mixed[G.pair_class].sum(axis=1).tolist()

    in_loop = 16 * rx.loop_products
    want = 112 - in_loop
    exp_sum = ("112 cross labels, %d on links and %d in the loop"
               % (want, in_loop) if in_loop else "112 cross labels on links")
    return out + _row_verdicts("cross-sum", totals, want, exp_sum)


def _row_verdicts(name: str, sums, want: int, expected: str) -> list[Verdict]:
    """One verdict per vertex: exact when its row sum equals want."""
    return [Verdict("%s@v%d" % (name, v), "exact" if s == want else "fail",
                    expected, "%d" % s)
            for v, s in enumerate(sums)]


def _no_pure_link_verdicts(G: SqsGraph) -> list[Verdict]:
    pure_class = [bool(labels) and not split_sides(labels)[2]
                  for labels in G.classes]
    pure = [(i, j) for i, j, k in G.links() if pure_class[k]]
    return [Verdict("pure-links", "fail" if pure else "exact",
                    "no pure links outside the loop",
                    "%d pure links at %s" % (len(pure), pure) if pure
                    else "none")]


def _index2_verdicts(code: Code, GK: SqsGraph,
                     half: fano.Prescription) -> list[Verdict]:
    """Fold over the half-supported subgroup of the kernel: the loop
    prescribed by half, and a perfect matching of product links whose
    labels rejoin the full-kernel loop.

    The full-kernel loop labels are the weight-4 kernel words, so the
    subgroup is spanned by the half-supported ones among them.  The
    prescription takes it to be of index 2; where it is smaller, the
    verdicts fail."""
    GL = quotient_graph(code, [m for m in GK.loop_labels
                               if not m & 0xFF or not m & 0xFF00])
    out = []
    loop = GL.loop_labels
    lv = _grade(loop, half.loop) if len(loop) == len(half.loop) else "fail"
    out.append(Verdict("half-fold loop", lv, "%s, %d labels"
                       % (half.loop_name, len(half.loop)), _describe(loop)))

    kloop = set(GK.loop_labels)
    expected = "one product rejoining the full-kernel loop"
    judged = [None]  # class 0 is the half-fold loop, no link
    for labels in GL.classes[1:]:
        ls = set(labels)
        if not labels or not ls <= kloop:
            judged.append(None)
            continue
        prod = _one_product(labels)
        folds = (ls | set(loop)) == kloop
        judged.append(
            ("exact", expected,
             "product %sx%s" % (prod[0].name, prod[1].name))
            if prod is not None and folds else
            ("fail", expected, "%d labels, product=%s, rejoins=%s"
             % (len(ls), prod is not None, folds)))
    out += _link_verdicts(GL, judged, "half-fold ")
    deg = np.array([f is not None for f in judged])[GL.pair_class].sum(axis=1)
    met = deg[deg > 0].tolist()
    out.append(Verdict("half-fold matching",
                       "exact" if (deg == 1).all() else "fail",
                       "every vertex on exactly one kernel-label link",
                       "degrees %s over %d vertices"
                       % (sorted(set(met)) or [0], len(met))))
    return out


def _assert_even_left_support(G: SqsGraph) -> None:
    labels = np.fromiter(chain(*G.classes), dtype=np.uint16)
    odd = np.bitwise_count(labels & 0xFF) % 2 == 1
    if odd.any():
        raise ValueError("label %04x has odd left support; not a code in "
                         "doubling coordinates" % int(labels[np.argmax(odd)]))


@dataclass
class StructureReport:
    """Aggregated verdicts for one folded code."""

    kappa: int
    verdicts: tuple
    mult: np.ndarray

    @property
    def overall(self) -> str:
        """The worst level among the verdicts; "exact" when there are none."""
        return max((v.level for v in self.verdicts), key=LEVELS.index,
                   default="exact")

    @property
    def passed(self) -> bool:
        return all(v.level != "fail" for v in self.verdicts)

    def counts(self) -> dict:
        c = dict.fromkeys(LEVELS, 0)
        for v in self.verdicts:
            c[v.level] += 1
        return c

    def failures(self) -> list:
        return [v for v in self.verdicts if v.level == "fail"]

    def summary(self) -> str:
        c = self.counts()
        return ("kappa=%d %s (%d exact, %d relabeled, %d spectrum, %d fail)"
                % (self.kappa, "pass" if self.passed else "FAIL",
                   c["exact"], c["relabeled"], c["spectrum"], c["fail"]))

    def to_json(self) -> dict:
        return {"kappa": self.kappa, "overall": self.overall,
                "passed": self.passed, "levelCounts": self.counts(),
                "verdicts": [v.to_json() for v in self.verdicts],
                "multiplicityMatrix": self.mult.tolist()}


def full_report(code: Code) -> StructureReport:
    """Run every structural check against the quotient graph of a code.

    Prescribed loop and link families exist for kernel dimensions 5
    through 9 only; anything else raises.
    """
    kappa = len(kernel_cosets(code).basis)
    rx = fano.PRESCRIPTIONS.get(kappa)
    if rx is None:
        raise ValueError("loop and link prescriptions cover kernel "
                         "dimensions %d..%d, got %d"
                         % (min(fano.PRESCRIPTIONS), max(fano.PRESCRIPTIONS),
                            kappa))
    G = quotient_graph(code)
    _assert_even_left_support(G)
    verdicts = list(verify_loops(G, rx))
    if rx.intra:
        verdicts += verify_intra_links(G, rx)
    else:
        verdicts += _no_pure_link_verdicts(G)
    verdicts += verify_cross_links(G, rx)
    verdicts += _row_verdicts("degree", G.mult.sum(axis=1).tolist(), 140,
                              "140")
    if rx.half_fold is not None:
        verdicts += _index2_verdicts(code, G, rx.half_fold)
    return StructureReport(kappa, tuple(verdicts), G.mult)
