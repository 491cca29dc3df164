"""Named quadruple families and pair-partition algebra on the byte halves."""

import random

from hypothesis import given
from hypothesis import strategies as st
import pytest

from pcl.canon import _minimal_quadset8, minimal_quadset8
from pcl.fano import (FAMILIES, PRESCRIPTIONS, X, Y, Z, PairPartition,
                      left_complement, pair_partition, parse_pair_name,
                      partition_registry, supplement)
from pcl.structure import decompose_mixed
from pcl.words import points_of

from code_helpers import enumerate_pair_partitions, pair_masks, product

FAMILY_SIZES = {
    "X": 7, "Y": 7, "Z": 14, "X'": 21, "Z'": 17, "Z_0": 15, "X+Y+Z": 28,
    "A": 3, "B": 4, "A'": 3, "B'": 4,
    "A_0": 1, "A_1": 2, "B_0": 2, "B_1": 2,
    "A_0'": 1, "A_1'": 2, "B_0'": 2, "B_1'": 2,
}


def test_family_sizes_and_distinctness():
    assert {k: len(v) for k, v in FAMILIES.items()} == FAMILY_SIZES
    # the order pcl fano dump prints
    assert list(FAMILIES) == ["X", "Y", "Z", "X'", "A", "B", "A'", "B'",
                          "A_0", "A_1", "B_0", "B_1",
                          "A_0'", "A_1'", "B_0'", "B_1'", "Z'", "Z_0",
                          "X+Y+Z"]
    for quads in FAMILIES.values():
        assert len(set(quads)) == len(quads)


def test_x_side_families_are_left_half():
    for name in ("X", "Y", "A", "B", "A'", "B'"):
        for q in FAMILIES[name]:
            assert q <= 0xFF
            assert len(points_of(q)) == 4


def test_left_complement_involution():
    for q in FAMILIES["X"]:
        assert left_complement(left_complement(q)) == q
    assert tuple(sorted(map(left_complement, FAMILIES["X"]))) == \
        tuple(sorted(FAMILIES["Y"]))
    with pytest.raises(ValueError):
        left_complement(0x100)


def test_supplement_involution_and_z():
    xy = FAMILIES["X"] + FAMILIES["Y"]
    z = supplement(xy, 0xF)
    assert tuple(sorted(z, key=points_of)) == FAMILIES["Z"]
    assert sorted(supplement(z, 0xF)) == sorted(xy)
    with pytest.raises(ValueError):
        supplement((1 << 8,), 0x7)


def test_composite_families():
    assert set(FAMILIES["X'"]) == set(FAMILIES["Y"]) | set(FAMILIES["Z"])
    assert set(FAMILIES["Z'"]) == set(FAMILIES["Z"]) | set(FAMILIES["A'"])
    assert set(FAMILIES["Z_0"]) == set(FAMILIES["Z"]) | set(FAMILIES["A_0'"])
    assert set(FAMILIES["X+Y+Z"]) == set(X) | set(Y) | set(Z)
    assert set(FAMILIES["A"]) | set(FAMILIES["B"]) == set(FAMILIES["X"])
    assert set(FAMILIES["A_0"]) | set(FAMILIES["A_1"]) == set(FAMILIES["A"])
    assert set(FAMILIES["B_0"]) | set(FAMILIES["B_1"]) == set(FAMILIES["B"])


def loop_formula(kappa: int) -> tuple:
    """Z, the 2^(kappa-4)-1 lexicographically largest members of Y, and
    X from kappa=8 on, sorted: the oracle of each prescribed loop."""
    ytop = min(len(Y), (1 << (kappa - 4)) - 1)
    fam = Z + tuple(sorted(Y, key=points_of, reverse=True)[:ytop])
    if kappa >= 8:
        fam = fam + X
    return tuple(sorted(fam, key=points_of))


def test_expected_loop():
    assert sorted(PRESCRIPTIONS) == [5, 6, 7, 8, 9]
    for kappa, rx in PRESCRIPTIONS.items():
        assert rx.loop == loop_formula(kappa), kappa
    for kappa, name in ((5, "Z_0"), (6, "Z'"), (7, "X'"), (8, "X+Y+Z")):
        assert PRESCRIPTIONS[kappa].loop_name == name
        assert PRESCRIPTIONS[kappa].loop == FAMILIES[name]
    assert PRESCRIPTIONS[9].loop == FAMILIES["X+Y+Z"]


def test_loop_multiplicity_table():
    sizes = {k: len(rx.loop) + 16 * rx.loop_products
             for k, rx in PRESCRIPTIONS.items()}
    assert sizes == {5: 15, 6: 17, 7: 21, 8: 28, 9: 44}
    # only the kappa=9 loop carries a full product of pair partitions
    assert [k for k, rx in PRESCRIPTIONS.items() if rx.loop_products] == [9]


def test_intra_table_shape():
    intra = {k: sum(len(FAMILIES[name]) for name in rx.intra)
             for k, rx in PRESCRIPTIONS.items()}
    assert intra == {5: 13, 6: 11, 7: 7, 8: 0, 9: 0}
    assert {k: rx.intra for k, rx in PRESCRIPTIONS.items()} == {
        5: ("A_1'", "B_0'", "B_1'", "B_1", "B_0", "A_1", "A_0"),
        6: ("B'", "B", "A"), 7: ("X",), 8: (), 9: ()}


def test_mixed_link_rule_and_half_fold():
    assert {k: rx.link_products for k, rx in PRESCRIPTIONS.items()} == {
        5: 0, 6: 0, 7: 0, 8: 1, 9: 2}
    assert {k for k, rx in PRESCRIPTIONS.items()
            if rx.cross_rule == "at most three quarters"} == {5, 6, 7}
    # a dimension-9 kernel's half fold has dimension 8
    assert [k for k, rx in PRESCRIPTIONS.items() if rx.half_fold] == [9]
    assert PRESCRIPTIONS[9].half_fold is PRESCRIPTIONS[8]


def test_pair_partition_construction():
    p = pair_partition(1, 3, 5)
    assert p.pairs == ((0, 1), (2, 3), (4, 5), (6, 7))
    assert p.name == "1_3^5"
    assert pair_masks(p) == (0b11, 0b1100, 0b110000, 0b11000000)
    with pytest.raises(ValueError):
        pair_partition(7, 2, 3)
    with pytest.raises(ValueError):
        PairPartition(((0, 1), (2, 3), (4, 5), (6, 6)))
    with pytest.raises(ValueError):
        PairPartition(((2, 3), (0, 1), (4, 5), (6, 7)))


def test_enumerate_pair_partitions():
    pps = enumerate_pair_partitions()
    assert len(pps) == 105
    assert len({p.pairs for p in pps}) == 105
    assert len({p.name for p in pps}) == 105
    for p in pps[::13]:
        assert parse_pair_name(p.name) == p


def test_partition_registry():
    reg = partition_registry()
    assert len(reg) == 74
    assert reg["1_a"] == pair_partition(1, 3, 5)
    assert all(isinstance(p, PairPartition) for p in reg.values())
    assert len({p.pairs for p in reg.values()}) == 74
    with pytest.raises(ValueError):
        parse_pair_name("7_2^3")


pps = enumerate_pair_partitions()


@given(st.sampled_from(pps), st.sampled_from(pps))
def test_product_recognize_roundtrip(a, b):
    quads = product(a, b)
    assert len(quads) == 16
    assert all(len(points_of(q)) == 4 for q in quads)
    assert decompose_mixed(quads) == ("products", [(a, b)])


@given(st.sampled_from(pps), st.sampled_from(pps))
def test_loq_split_quarters(a, b):
    quarters: dict = {}
    for q in product(a, b):
        quarters.setdefault(q & 0xFF, []).append(q)
    assert sorted(quarters) == sorted(pair_masks(a))
    for lp, quarter in quarters.items():
        assert len(quarter) == 4
        assert decompose_mixed(quarter) == ("quarters", [(lp, b)])


def test_recognize_rejects_non_products():
    assert decompose_mixed(FAMILIES["X"]) is None
    assert decompose_mixed(FAMILIES["Z"]) is None


def test_minimal_quadset8_rejects_masks_beyond_8_bits():
    for bad in ([0x1FF], [0x0F, 0x100], [-1], [0xFF, 0]):
        with pytest.raises(ValueError, match="0..255"):
            minimal_quadset8(bad)


def test_minimal_quadset8_cache_matches_uncached():
    rng = random.Random(5)
    uncached = _minimal_quadset8.__wrapped__
    for rx in PRESCRIPTIONS.values():
        for fam in (FAMILIES[name] for name in rx.intra):
            masks = list(fam) + rng.sample(list(fam), len(fam) // 2)
            rng.shuffle(masks)
            want = uncached(tuple(sorted(set(fam))))
            assert minimal_quadset8(masks) == want
            assert minimal_quadset8(fam) == want
            perm = rng.sample(range(8), 8)
            moved = [sum(1 << perm[i] for i in points_of(m)) for m in fam]
            assert minimal_quadset8(moved) == want
