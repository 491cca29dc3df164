"""Length-7 partition census and the extended atlas."""

import random

import pytest

from pcl.partitions import (Atlas, ExtClass, canonical_form, check_partition7,
                            classify_partitions, extend_partition,
                            is_linear_partition)
from pcl.perfect import is_extended_perfect8, puncture
from pcl.words import perm_word_map, weight

CANON_ORBIT_SIZES = [30, 840, 630, 5040, 5040, 420, 2520, 2520, 6720, 1680, 1920]


def test_census_counts(atlas):
    assert atlas.partition7_count == 27360
    assert len(atlas.orbit_sizes7) == 11
    assert atlas.orbit_sizes7 == CANON_ORBIT_SIZES
    assert sum(atlas.orbit_sizes7) == 27360


def test_extended_classes(atlas):
    assert len(atlas.classes) == 10
    assert atlas.linear_class == 0
    assert atlas.merged == [(6, 7)]
    assert is_linear_partition(atlas.classes[0].components)
    assert sum(1 for c in atlas.classes if c.linear) == 1


def test_every_length7_class_survives(atlas):
    covered = sorted(x for c in atlas.classes for x in c.length7_classes)
    assert covered == list(range(11))
    lengths = sorted(len(c.length7_classes) for c in atlas.classes)
    assert lengths == [1] * 9 + [2]


def test_class_representatives_partition_the_even_space(atlas):
    for c in atlas.classes:
        assert len(c.components) == 8
        seen = set()
        for comp in c.components:
            assert len(comp) == 16
            assert is_extended_perfect8(comp)
            assert all(weight(w) % 2 == 0 for w in comp)
            seen.update(comp)
        assert len(seen) == 128


def _punctured7(ext_class):
    return tuple(tuple(sorted(puncture(w, 7) for w in comp))
                 for comp in ext_class.components)


def test_punctured_representatives_are_partitions7(atlas):
    for c in atlas.classes:
        check_partition7(_punctured7(c))


def test_canonical_form_invariance7(atlas):
    p = _punctured7(atlas.classes[3])
    base = canonical_form(p)
    rng = random.Random(7)
    for _ in range(4):
        perm = rng.sample(range(7), 7)
        wmap = perm_word_map(perm, 7)
        t = rng.randrange(128)
        moved = tuple(tuple(sorted(int(wmap[w]) ^ t for w in comp))
                      for comp in p)
        moved = tuple(sorted(moved))
        check_partition7(moved)
        assert canonical_form(moved) == base
    other = _punctured7(atlas.classes[4])
    assert canonical_form(other) != base


def test_canonical_form_invariance8(atlas):
    p8 = atlas.classes[2].components
    base = canonical_form(p8, extended=True)
    rng = random.Random(8)
    for _ in range(3):
        perm = rng.sample(range(8), 8)
        wmap = perm_word_map(perm, 8)
        t = rng.randrange(256)
        t ^= (weight(t) & 1)  # keep the translation inside the even space
        moved = tuple(sorted(tuple(sorted(int(wmap[w]) ^ t for w in comp))
                             for comp in p8))
        assert canonical_form(moved, extended=True) == base
    assert canonical_form(atlas.classes[5].components, extended=True) != base


def test_classify_partitions_matches_atlas_ordering(atlas):
    p7s = [_punctured7(c) for c in atlas.classes]
    flat = []
    for p in p7s:
        flat.extend([p, p])
    ids = classify_partitions(flat)
    assert ids[::2] == ids[1::2]
    # the merged extended class punctures to one of its two length-7
    # ancestors, so only 10 of the 11 classes appear here
    assert len(set(ids)) == 10


def test_extend_partition_roundtrip(atlas):
    p7 = _punctured7(atlas.classes[1])
    p8 = extend_partition(p7)
    assert all(is_extended_perfect8(comp) for comp in p8)
    assert tuple(tuple(sorted(puncture(w, 7) for w in c)) for c in p8) == p7


def test_extclass_json_roundtrip(atlas):
    c = atlas.classes[4]
    back = ExtClass.from_json(c.to_json())
    assert back == c


def test_atlas_json_roundtrip(atlas, tmp_path):
    d = atlas.to_json()
    assert [c["id"] for c in d["classes"]] == list(range(10))
    back = Atlas.from_json(d)
    assert back.partition7_count == atlas.partition7_count
    assert back.orbit_sizes7 == atlas.orbit_sizes7
    assert back.merged == atlas.merged
    assert back.classes == atlas.classes
    path = tmp_path / "atlas.json"
    atlas.save(str(path))
    assert Atlas.load(str(path)).classes == atlas.classes


def test_atlas_json_schema_keys(atlas):
    d = atlas.to_json()
    assert set(d) == {"classes", "partition7Count", "orbitSizes7", "merged"}
    for c in d["classes"]:
        assert set(c) == {"id", "alias", "representative",
                         "length7Classes", "linear"}
        for comp in c["representative"]:
            assert comp["length"] == 8
            assert len(comp["codewords"]) == 16
