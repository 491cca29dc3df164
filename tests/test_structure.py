"""Loop and link verification of the folded graphs."""

import numpy as np
import pytest

from pcl import structure
from pcl.fano import pair_partition, product
from pcl.fold import quotient_graph
from pcl.structure import (LEVELS, StructureReport, Verdict, decompose_mixed,
                           full_report, worst)

# kappa -> (passed, (exact, relabeled, spectrum, fail)) for the witnesses
WITNESS_REPORTS = {
    5: (False, (128, 128, 0, 1472)),
    6: (False, (64, 384, 48, 32)),
    7: (False, (32, 112, 8, 24)),
    8: (True, (45, 8, 0, 0)),
    9: (True, (20, 5, 0, 0)),
}


def test_levels_and_worst():
    assert LEVELS == ("exact", "relabeled", "spectrum", "fail")
    assert worst(["exact", "exact"]) == "exact"
    assert worst(["exact", "relabeled"]) == "relabeled"
    assert worst(["spectrum", "relabeled", "fail"]) == "fail"
    assert worst([]) == "exact"


def test_verdict_validation():
    v = Verdict("loop", "exact", "a", "a")
    assert v.to_json() == {"subject": "loop", "level": "exact",
                           "expected": "a", "observed": "a"}
    d = Verdict("link", "fail", "x", "y", detail="why").to_json()
    assert d["detail"] == "why"
    with pytest.raises(ValueError):
        Verdict("loop", "bogus", "a", "b")


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


def test_mixed_label_sets_are_judged_once(witnesses, monkeypatch):
    code = witnesses[5]
    mixed = [labels for labels in quotient_graph(code).labels.values()
             if all(m & 0xFF and m >> 8 for m in labels)]
    calls = []
    monkeypatch.setattr(structure, "decompose_mixed",
                        lambda M: calls.append(M) or decompose_mixed(M))
    memoized = full_report(code).verdicts
    assert len(calls) == len(set(calls)) == len(set(mixed))
    monkeypatch.setattr(structure, "_per_label_set", lambda judge: judge)
    calls.clear()
    assert full_report(code).verdicts == memoized
    assert len(calls) == len(mixed) > len(set(mixed))


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
    quarter = tuple(q for q in quads if q & 0xFF == a.masks()[0])
    kind, quarters = decompose_mixed(quarter)
    assert kind == "quarters"
    assert quarters == [(a.masks()[0], b)]


def test_decompose_mixed_quarters_swapped():
    a = pair_partition(1, 3, 5)
    b = pair_partition(4, 5, 7)
    quads = product(a, b)
    rp = b.masks()[0]
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
