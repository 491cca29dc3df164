"""Loop and link verification of the folded graphs."""

import dataclasses
import random

import numpy as np
import pytest

from pcl import fano, fold, structure
from pcl.algebra import kernel_words
from pcl.fano import pair_partition
from pcl.fold import SqsGraph, quotient_graph
from pcl.scan import iter_sigmas, make_code, scan_pair
from pcl.structure import (LEVELS, StructureReport, Verdict,
                           _assert_even_left_support, _grade,
                           decompose_mixed, full_report)
from pcl.words import mask_of, points_of, xor_closure

from code_helpers import (batched_invariants, half_pure_subgroup, pair_masks,
                          product)

# kappa -> (passed, (exact, relabeled, spectrum, fail)) for the witnesses
WITNESS_REPORTS = {
    5: (False, (128, 128, 0, 1472)),
    6: (False, (64, 384, 48, 32)),
    7: (False, (32, 112, 8, 24)),
    8: (True, (45, 8, 0, 0)),
    9: (True, (20, 5, 0, 0)),
}


def test_full_report_refuses_switched_codes(switched):
    refusals = []
    for code in switched:
        with pytest.raises(ValueError) as err:
            full_report(code)
        refusals.append(str(err.value))
    odd = "label %s has odd left support; not a code in doubling coordinates"
    dims = "loop and link prescriptions cover kernel dimensions 5..9, got %d"
    assert refusals == [odd % "0198", odd % "021c", dims % 4, dims % 4,
                        dims % 2, odd % "1980", dims % 3, dims % 2, dims % 1,
                        dims % 2, odd % "8070"]


def test_levels_and_worst():
    def overall(levels):
        verdicts = tuple(Verdict("v%d" % i, lv, "", "")
                         for i, lv in enumerate(levels))
        return StructureReport(5, verdicts, np.zeros((1, 1))).overall

    assert LEVELS == ("exact", "relabeled", "spectrum", "fail")
    assert overall(["exact", "exact"]) == "exact"
    assert overall(["exact", "relabeled"]) == "relabeled"
    assert overall(["spectrum", "relabeled", "fail"]) == "fail"
    assert overall(["relabeled", "spectrum", "exact"]) == "spectrum"
    assert overall([]) == "exact"
    with pytest.raises(AttributeError):
        StructureReport(5, (), np.zeros((1, 1))).verdicts = ()


def test_verdict_validation():
    v = Verdict("loop", "exact", "a", "a")
    assert v.to_json() == {"subject": "loop", "level": "exact",
                           "expected": "a", "observed": "a"}
    d = Verdict("link", "fail", "x", "y", detail="why").to_json()
    assert d["detail"] == "why"
    with pytest.raises(ValueError):
        Verdict("loop", "bogus", "a", "b")


def _relabel(mask8: int, perm) -> int:
    return mask_of(perm[p] for p in points_of(mask8))


@pytest.mark.parametrize("fam", [fano.FAMILIES["X+Y+Z"],
                                 fano.FAMILIES["X'"]], ids=["X+Y+Z", "X'"])
def test_grade_levels(fam):
    assert _grade(fam, fam) == "exact"
    rng = random.Random(3)
    left, right = [m for m in fam if m <= 0xFF], [m >> 8 for m in fam if m > 0xFF]
    for _ in range(3):
        pl, pr = rng.sample(range(8), 8), rng.sample(range(8), 8)
        # independent relabelings of the halves, then the halves exchanged;
        # X' has 7 left and 14 right labels, so only the exchange fits it
        moved = ([_relabel(m, pl) << 8 for m in left]
                 + [_relabel(m, pr) for m in right])
        assert set(moved) != set(fam)
        assert _grade(moved, fam) == "relabeled"
        mixed = 0x0303  # points 0, 1, 8, 9
        assert _grade(moved + [mixed], fam) == "spectrum"
        assert _grade(moved[1:] + [mixed], fam) == "spectrum"
    # one left block swapped for a 4-set outside the design: same size,
    # different canonical form
    other = next(q for q in range(256)
                 if bin(q).count("1") == 4 and q not in fano.X + fano.Y)
    assert _grade((other,) + fam[1:], fam) == "spectrum"


def test_odd_left_support_names_the_first_label(witnesses):
    g = quotient_graph(witnesses[9])
    _assert_even_left_support(g)
    classes = list(g.classes)
    labels = classes[1]
    classes[1] = (labels[0] ^ 0x0101,) + labels[1:]
    classes[2] = (0x0107,)
    g = dataclasses.replace(g, classes=tuple(classes))
    with pytest.raises(ValueError, match="label %04x has odd left"
                       % (labels[0] ^ 0x0101)):
        _assert_even_left_support(g)


def test_judge_pure_takes_least_level_then_first_family():
    names = fano.PRESCRIPTIONS[6].intra
    assert names == ("B'", "B", "A")
    B = fano.FAMILIES["B"]

    def judge(labels):
        fields = structure._judge_pure(labels, names, "")
        assert fields is not None
        level, _, observed, note = fields
        return level, observed, note

    # B' and B have one canonical form: a level beats a table position,
    # and the first family wins among equal levels
    assert judge(B) == ("exact", "4 left-half labels", "matches B")
    assert judge(tuple(m << 8 for m in B)) == (
        "relabeled", "4 right-half labels", "matches B'")
    assert judge((0x0F, 0x33, 0x55, 0x96)) == (
        "spectrum", "4 left-half labels", "size matches B' only")
    assert judge(fano.X[:5]) == (
        "fail", "5 left-half labels", "no prescribed family of this size")
    assert structure._judge_pure((0x0F, 0x0F00), names, "e") == (
        "fail", "e", "1 left and 1 right labels on one link", "")


def test_witness_reports(witnesses):
    for kappa, (passed, counts) in WITNESS_REPORTS.items():
        rep = full_report(witnesses[kappa])
        assert rep.kappa == kappa
        c = rep.counts()
        got = (c["exact"], c["relabeled"], c["spectrum"], c["fail"])
        assert got == counts, "kappa=%d: %s" % (kappa, got)
        assert rep.passed is passed
        assert rep.overall == ("relabeled" if passed else "fail")
        want = "pass" if passed else "FAIL"
        assert ("kappa=%d %s" % (kappa, want)) in rep.summary()


def _all_mixed(labels) -> bool:
    return bool(labels) and all(m & 0xFF and m >> 8 for m in labels)


def test_mixed_label_sets_are_judged_once(witnesses, monkeypatch):
    code = witnesses[5]
    g = quotient_graph(code)
    mixed = [labels for labels in g.classes[1:] if _all_mixed(labels)]
    links = [e for e, labels in g.labels.items() if _all_mixed(labels)]
    calls = []
    monkeypatch.setattr(structure, "decompose_mixed",
                        lambda M: calls.append(M) or decompose_mixed(M))
    full_report(code)
    assert len(calls) == len(set(calls)) == len(mixed) < len(links)
    assert set(calls) == set(mixed)
    # the verdicts of one class equal those judged link by link
    rx = fano.PRESCRIPTIONS[5]
    per_link = [(e, structure._judge_mixed(labels, rx))
                for e, labels in g.labels.items()]
    assert [v for v in structure.verify_cross_links(g, rx)
            if v.subject.startswith("link")] == [
        Verdict("link(%d,%d)" % e, *fields)
        for e, fields in per_link if fields is not None]


def test_judge_mixed_verdicts():
    rx, rx8 = fano.PRESCRIPTIONS[6], fano.PRESCRIPTIONS[8]
    assert (rx.cross_rule, rx.link_products) == ("at most three quarters", 0)
    a, b = pair_partition(1, 3, 5), pair_partition(4, 5, 7)
    quarter = tuple(q for q in product(a, b) if q & 0xFF == pair_masks(a)[0])
    desc = "quarters (01)x4_5^7"
    assert structure._judge_mixed(quarter, rx) == (
        "exact", "at most three quarters", desc, "")
    assert structure._judge_mixed(quarter, rx8) == (
        "spectrum", "one full product", desc, "")
    assert structure._judge_mixed((0x0F, 0x0303), rx) == (
        "fail", "at most three quarters",
        "2 labels with 1 half-supported among them", "")
    # pairs {0,1} and {1,2} overlap, so neither side is a pair partition
    overlapping = (0x03, 0x06, 0x30, 0xC0)
    assert structure._as_pair_partition(overlapping) is None
    labels = tuple(lp | rp << 8 for lp in overlapping for rp in overlapping)
    assert structure._judge_mixed(labels, rx) == (
        "fail", "at most three quarters",
        "16 labels, no whole-product or whole-quarter split",
        "right fan-out per left pair: [4, 4, 4, 4]")


def test_a_pure_link_fails_where_none_is_prescribed():
    # vertex pair (0, 1) falls in the pure class 1, the others in the
    # mixed class 2
    g = SqsGraph(np.zeros(3, dtype=np.uint16), ((), (0x0F,), (0x0303,)),
                 np.array([[0, 1, 2], [1, 0, 2], [2, 2, 0]]))
    assert structure._no_pure_link_verdicts(g) == [
        Verdict("pure-links", "fail", "no pure links outside the loop",
                "1 pure links at [(0, 1)]")]


def test_report_json(witnesses):
    rep = full_report(witnesses[9])
    d = rep.to_json()
    assert set(d) == {"kappa", "overall", "passed", "levelCounts",
                      "verdicts", "multiplicityMatrix"}
    m = np.array(d["multiplicityMatrix"])
    assert m.shape == (4, 4)
    assert (m.sum(axis=1) == 140).all()
    assert len(d["verdicts"]) == sum(d["levelCounts"].values())


def test_failures_listing(witnesses):
    rep = full_report(witnesses[7])
    fails = rep.failures()
    assert len(fails) == 24
    assert all(v.level == "fail" for v in fails)


def test_index2_verdicts_present_only_at_kappa9(witnesses):
    subjects9 = {v.subject for v in full_report(witnesses[9]).verdicts}
    subjects8 = {v.subject for v in full_report(witnesses[8]).verdicts}

    def has_half_fold(subs):
        return any(s.startswith("half-fold") for s in subs)

    assert has_half_fold(subjects9)
    assert not has_half_fold(subjects8)
    assert "half-fold loop" in subjects9
    assert "half-fold matching" in subjects9


# index of the half-supported subgroup in the kernel of the kappa = 9
# codes of each class pair that has any, and how many of its 40320
# sigmas give kappa = 9; only the (0,0) codes meet the kappa = 9
# prescriptions (fano.Prescription.half_fold), the others fail them
# (README's paper-claims ledger renders its row from these tables)
HALF_FOLD_INDEX = {(0, 0): 2, (0, 2): 4, (2, 0): 4, (2, 2): 8}
KAPPA9_COUNTS = {(0, 0): 9408, (0, 2): 2688, (2, 0): 2688, (2, 2): 128}


def test_half_fold_index_is_pinned_on_every_kappa9_pair(atlas):
    """Over all sigmas the four pairs hold every kappa = 9 code, and on
    seeded ones of each the half-supported kernel subgroup has the
    pinned index, and the structure checks pass exactly where it is 2."""
    sigmas = list(iter_sigmas())
    at9 = {pair: np.flatnonzero(kappa == 9) for pair, (_, kappa) in
           batched_invariants(atlas, sigmas, HALF_FOLD_INDEX).items()}
    assert {pair: len(ix) for pair, ix in at9.items()} == KAPPA9_COUNTS
    # test_scan.CENSUS pins 14,912 kappa = 9 codes in all
    assert sum(KAPPA9_COUNTS.values()) == 14912
    rng = np.random.default_rng(9)
    for (left, right), ix in at9.items():
        for i in rng.choice(ix, 8, replace=False):
            code = make_code(atlas, left, right, sigmas[i])
            kw = kernel_words(code)
            assert len(kw) == 1 << 9
            assert HALF_FOLD_INDEX[left, right] * len(
                half_pure_subgroup(kw)) == len(kw), (left, right, sigmas[i])
            assert full_report(code).passed == (
                HALF_FOLD_INDEX[left, right] == 2), (left, right, sigmas[i])


def test_half_fold_subgroup_matches_the_oracle(atlas, witnesses,
                                               monkeypatch):
    """The half fold folds over the span of the half-supported weight-4
    kernel words, on the witness and on the kappa = 9 codes of a seeded
    sample of every pair that has any."""
    codes = [witnesses[9]] + [
        make_code(atlas, left, right, row.sigma)
        for left, right in HALF_FOLD_INDEX
        for row in scan_pair(atlas, left, right, iter_sigmas(40, seed=24))
        if row.kernel == 9]
    assert {(c.left, c.right) for c in codes} >= {(0, 0), (0, 2), (2, 0)}
    decompose, seen = fold.cosets, []
    # the whole-kernel fold goes through kernel_cosets, not fold.cosets
    monkeypatch.setattr(fold, "cosets", lambda code, basis:
                        seen.append(decompose(code, basis)) or seen[-1])
    for code in codes:
        seen.clear()
        rep = full_report(code)
        half, = seen
        kw = kernel_words(code)
        sub = xor_closure(half.basis)
        assert sub == half_pure_subgroup(kw).tolist(), code.label
        index = HALF_FOLD_INDEX[code.left, code.right]
        assert index * len(sub) == len(kw), code.label
        assert rep.passed == (index == 2), code.label


def test_full_report_rejects_out_of_range_kernel(witnesses):
    with pytest.raises(ValueError, match="5..9"):
        full_report(witnesses[11])


def test_decompose_mixed_products():
    a = pair_partition(1, 3, 5)
    b = pair_partition(2, 3, 7)
    kind, prods = decompose_mixed(product(a, b))
    assert kind == "products"
    assert prods == [(a, b)]
    two = product(a, b) + product(b, a)
    kind2, prods2 = decompose_mixed(two)
    assert kind2 == "products"
    assert sorted((x.name, y.name) for x, y in prods2) == \
        sorted([(a.name, b.name), (b.name, a.name)])


def test_decompose_mixed_quarters():
    a = pair_partition(1, 3, 5)
    b = pair_partition(4, 5, 7)
    quads = product(a, b)
    quarter = tuple(q for q in quads if q & 0xFF == pair_masks(a)[0])
    kind, quarters = decompose_mixed(quarter)
    assert kind == "quarters"
    assert quarters == [(pair_masks(a)[0], b)]


def test_decompose_mixed_quarters_swapped():
    a = pair_partition(1, 3, 5)
    b = pair_partition(4, 5, 7)
    quads = product(a, b)
    rp = pair_masks(b)[0]
    swapped = tuple(q for q in quads if q >> 8 == rp)
    kind, quarters = decompose_mixed(swapped)
    assert kind == "quarters-swapped"
    assert quarters == [(a, rp)]


def test_decompose_mixed_rejects():
    # a pure-left quadruple is not mixed at all
    assert decompose_mixed((0b1111,)) is None
    a = pair_partition(1, 3, 5)
    b = pair_partition(2, 3, 7)
    broken = product(a, b)[:15]
    assert decompose_mixed(broken) is None
