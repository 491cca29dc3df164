"""Length-7 partition census and the extended atlas."""

import gzip
import json
import os
import pathlib
import random
import subprocess
import sys
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np
import pytest

import pcl
from pcl.canon import (code_moves, code_table, minimal_quadset8,
                       orbit_classes, partition_col, relabel_np)
from pcl.partitions import (EVEN8, Atlas, ExtClass, canonical_form,
                            enumerate_partitions7)
from pcl.perfect import enumerate_perfect7, puncture
from pcl.ioutil import code_to_json
from pcl.words import IDENTITY8, fixed_points, perm_word_map

from code_helpers import is_extended_perfect8, is_perfect
from partition_oracles import (is_linear_partition, row_generators, row_ids,
                               row_orbit, row_orbit_classes)
from partition_oracles import relabel as oracle_relabel

CANON_ORBIT_SIZES = [30, 840, 630, 5040, 5040, 420, 2520, 2520, 6720, 1680, 1920]

REFERENCE_ATLAS = (pathlib.Path(__file__).resolve().parents[1]
                   / "perfbench" / "reference" / "atlas.json.gz")


@pytest.fixture(scope="module")
def ids7():
    return enumerate_partitions7()


@lru_cache(maxsize=None)
def perm_word_table(n: int) -> np.ndarray:
    """Word images of every coordinate permutation of n points, one row each."""
    perms = np.array(list(permutations(range(n))), dtype=np.uint8)
    table = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    idx = np.arange(1 << n)
    for i in range(n):
        table |= ((idx >> i) & 1).astype(np.uint8)[None, :] << perms[:, i][:, None]
    return table


def minimal_quadset8_table(masks) -> tuple:
    """Least sorted image of a mask set, over every row of the word table.

    The oracle of canon.minimal_quadset8, which never builds the table.
    """
    arr = np.asarray(sorted(set(masks)), dtype=np.intp)
    if arr.size == 0:
        return ()
    imgs = np.sort(perm_word_table(8)[:, arr], axis=1)
    return tuple(int(x) for x in imgs[np.lexsort(imgs.T[::-1])[0]])


def minimal_image_pruned(colw, wm, translations) -> bytes:
    """Least relabeled col sequence over perms x translations, by survivor pruning.

    The oracle of the orbit minimum: word position by word position,
    only the (perm, translation) pairs that realize the least relabeled
    id so far stay alive; maps[s] is the partial relabeling survivor s
    has committed to.
    """
    trans = np.array(translations, dtype=np.uint16)
    nperm = wm.shape[0]
    jj = np.repeat(np.arange(nperm), len(trans))
    xx = np.tile(trans, nperm)
    maps = np.full((len(jj), 8), -1, dtype=np.int8)
    counts = np.zeros(len(jj), dtype=np.int8)
    key = []
    for t in translations:
        src = wm[jj, (t ^ xx).astype(np.uint16)]
        vals = colw[src].astype(np.int16)
        r = maps[np.arange(len(jj)), vals]
        fresh = r < 0
        r = np.where(fresh, counts, r)
        m = int(r.min())
        keep = r == m
        jj, xx, maps, counts = jj[keep], xx[keep], maps[keep], counts[keep]
        fresh, vals = fresh[keep], vals[keep]
        if fresh.any():
            sel = np.flatnonzero(fresh)
            maps[sel, vals[sel]] = counts[sel]
            counts[sel] += 1
        key.append(m)
    return bytes(key)


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
            assert all(w.bit_count() % 2 == 0 for w in comp)
            seen.update(comp)
        assert len(seen) == 128


def check_partition7(p) -> None:
    """Raise unless p is eight perfect codes partitioning F_2^7."""
    seen: set = set()
    for comp in p:
        if not is_perfect(comp):
            raise ValueError("component is not a perfect code")
        seen.update(comp)
    if len(seen) != 128 or len(p) != 8:
        raise ValueError("components do not partition F_2^7")


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
        t ^= (t.bit_count() & 1)  # keep the translation inside the even space
        moved = tuple(sorted(tuple(sorted(int(wmap[w]) ^ t for w in comp))
                             for comp in p8))
        assert canonical_form(moved, extended=True) == base
    assert canonical_form(atlas.classes[5].components, extended=True) != base


def _moved(p, rng, n):
    """p under a random coordinate permutation and translation, components shuffled."""
    wmap = perm_word_map(rng.sample(range(n), n), n)
    t = rng.randrange(1 << n)
    if n == 8:
        t ^= t.bit_count() & 1  # keep the translation inside the even space
    moved = [tuple(sorted(int(wmap[w]) ^ t for w in comp)) for comp in p]
    rng.shuffle(moved)
    return tuple(moved)


def test_orbit_minimum_matches_survivor_pruning(atlas):
    rng = random.Random(5)
    p7 = _punctured7(atlas.classes[4])
    moved = _moved(p7, rng, 7)
    check_partition7(moved)
    assert canonical_form(moved) == minimal_image_pruned(
        partition_col(moved, 128), perm_word_table(7), range(128))
    moved = _moved(atlas.classes[9].components, rng, 8)
    assert canonical_form(moved, extended=True) == minimal_image_pruned(
        partition_col(moved, 256), perm_word_table(8), EVEN8)


def test_minimal_quadset8_matches_table():
    rng = random.Random(11)
    quads = [sum(1 << p for p in c) for c in combinations(range(8), 4)]
    # masks of another weight, alone or beside quadruples, are refused
    sets, refused = [quads, []], [
        [0], [0xFF], [0, 0xFF], [0xFF, 0], [0x01], [0x7F, 0x80],
        [0, 0x03, 0x70, 0xFF], [0xFE, 0x0F, 0x33]]
    for _ in range(160):
        sets.append(rng.sample(quads, rng.randint(0, 20)))
        drawn = [rng.randrange(256) for _ in range(rng.randint(0, 20))]
        (sets if set(drawn) <= set(quads) else refused).append(drawn)
    mixed = random.Random(12)
    for _ in range(60):
        refused.append([0] + [mixed.randrange(256)
                              for _ in range(mixed.randint(0, 8))])
    for masks in sets:
        assert minimal_quadset8(masks) == minimal_quadset8_table(masks)
    assert len(refused) > 200
    for masks in refused:
        with pytest.raises(ValueError, match="weight 4"):
            minimal_quadset8(masks)


def relabel_oracle(row) -> list:
    """Ids renumbered by first occurrence, one word at a time."""
    first: dict = {}
    return [first.setdefault(v, len(first)) for v in row.tolist()]


def _ids_permuted(rows, rng):
    """Each row with its ids 0..7 renamed by a random permutation of its own."""
    ids = np.argsort(rng.random((len(rows), 8)), axis=1).astype(np.uint8)
    return np.take_along_axis(ids, rows, axis=1)


def test_relabel_np_relabels_by_first_occurrence(atlas):
    rng = np.random.default_rng(19)
    rows = np.stack([partition_col(_punctured7(c), 128) for c in atlas.classes]
                    + [partition_col(c.components, 256)[EVEN8]
                       for c in atlas.classes])
    for moved in (_ids_permuted(rows, rng) for _ in range(3)):
        got = relabel_np(moved)
        for row, out in zip(moved, got):
            assert out.tolist() == relabel_oracle(row)
            assert np.array_equal(relabel_np(row), out)


def test_relabel_np_on_every_length7_partition(ids7):
    rows = _ids_permuted(partition_col(code_table(7)[ids7], 128),
                         np.random.default_rng(7))
    assert len(rows) == 27360
    want = [relabel_oracle(r) for r in rows]
    assert relabel_np(rows).tolist() == want
    # the orbit oracle's own relabel, which must not lean on relabel_np
    assert oracle_relabel(rows).tolist() == want


def _generator_moves(n):
    """The word maps of the generators, in code_moves' order: the
    transposition (0 1), the cycle i -> i + 1, then the translations."""
    swap = perm_word_map((1, 0) + tuple(range(2, n)), n)
    cycle = perm_word_map(tuple((i + 1) % n for i in range(n)), n)
    shifts = ([1 << i for i in range(7)] if n == 7
              else [1 | (1 << i) for i in range(1, 8)])
    words = np.arange(1 << n)
    return [swap, cycle] + [words ^ s for s in shifts]


@pytest.mark.parametrize("n", [7, 8])
def test_generators_gather_the_moved_partition(n):
    codes = code_table(n).tolist()
    tables, moves = code_moves(n), _generator_moves(n)
    assert len(tables) == len(moves) == 9
    for table, move in zip(tables, moves):
        assert sorted(table.tolist()) == list(range(240))
        for code, image in zip(codes, table):
            assert sorted(int(move[w]) for w in code) == codes[image]


@pytest.mark.parametrize("n", [7, 8])
def test_orbit_classes_match_the_row_oracle(ids7, n):
    """The id pass against the row pass on every partition: length-8
    rows are the length-7 ones read at the punctured even words."""
    rows = oracle_relabel(partition_col(code_table(7)[ids7], 128))
    if n == 8:
        rows = oracle_relabel(rows[:, EVEN8 & 0x7F])
    want = row_orbit_classes(rows, row_generators(n))
    got = orbit_classes(ids7, n)
    assert len(ids7) == 27360
    for w, g in zip(want, got):
        assert np.array_equal(w, g)
    assert len(got.sizes) == (11 if n == 7 else 10)


def test_orbit_classes_rank_by_orbit_minimum(atlas):
    # extended classes 0, 2 and 5 puncture to length-7 classes 0, 2 and 5
    gens = row_generators(7)
    reps = [relabel_np(partition_col(_punctured7(atlas.classes[k]), 128))
            for k in (5, 0, 2)]
    ids = np.concatenate([row_ids(row_orbit(r, gens)) for r in reps])
    c = orbit_classes(ids, 7)
    assert list(c.sizes) == [30, 630, 420]
    assert list(c.reps) == [420, 450, 0]
    assert list(c.class_of[[0, 419, 420, 449, 450, 1079]]) == [2, 2, 0, 0, 1, 1]

    def least_row(p):
        """The least relabeled row of the orbit of a partition."""
        return min(row.tobytes() for row in row_orbit(
            relabel_np(partition_col(p, 128)), gens))

    minima = [least_row(code_table(7)[ids[r]]) for r in c.reps]
    assert minima == sorted(minima) == [
        least_row(_punctured7(atlas.classes[k])) for k in (0, 2, 5)]


def test_orbit_pass_rejects_an_incomplete_set(atlas):
    ids = row_ids(row_orbit(relabel_np(partition_col(
        _punctured7(atlas.classes[0]), 128)), row_generators(7)))
    assert len(ids) == 30
    with pytest.raises(ValueError, match="orbit left the enumerated set"):
        orbit_classes(np.delete(ids, 17, axis=0), 7)
    # the same partition with its codes listed in another order
    with pytest.raises(ValueError, match="duplicate"):
        orbit_classes(np.concatenate([ids, ids[5:6, ::-1]]), 7)


@pytest.mark.parametrize("n", [7, 8])
def test_canonical_form_rejects_a_component_that_is_no_code(atlas, n):
    words = np.arange(128) if n == 7 else EVEN8
    kind = "a perfect code" if n == 7 else "an extended perfect code"
    with pytest.raises(ValueError, match="component 0 is not %s of length %d"
                       % (kind, n)):
        canonical_form(words.reshape(8, 16), extended=n == 8)
    base = [list(c) for c in (_punctured7(atlas.classes[3]) if n == 7
                              else atlas.classes[3].components)]
    p = [list(c) for c in base]
    p[2][0], p[5][0] = p[5][0], p[2][0]  # one word traded between two codes
    with pytest.raises(ValueError, match="component 2 is not %s" % kind):
        canonical_form(p, extended=n == 8)
    with pytest.raises(ValueError, match="component 7 is not %s" % kind):
        canonical_form(base[:2] + base[3:], extended=n == 8)
    assert len(canonical_form(base, extended=n == 8)) == 128


def test_loading_an_atlas_builds_no_code_table(tmp_path):
    """Importing the CLI and loading an atlas, what every command that
    is given --atlas does first, builds none of the cached tables."""
    path = tmp_path / "atlas.json"
    with gzip.open(REFERENCE_ATLAS, "rb") as fh:
        path.write_bytes(fh.read())
    script = """if True:
        import importlib, pkgutil, sys
        import pcl, pcl.cli
        from pcl.partitions import Atlas
        Atlas.load(sys.argv[1])
        for m in pkgutil.iter_modules(pcl.__path__):
            mod = importlib.import_module("pcl." + m.name)
            for name, f in sorted(vars(mod).items()):
                if hasattr(f, "cache_info") and f.__module__ == mod.__name__:
                    print(mod.__name__, name, f.cache_info().currsize)
        """
    out = subprocess.run(
        [sys.executable, "-c", script, str(path)], check=True, text=True,
        capture_output=True, cwd=tmp_path,
        env=dict(os.environ,
                 PYTHONPATH=str(pathlib.Path(pcl.__file__).parents[1])),
    ).stdout.split("\n")
    cached = dict((" ".join(line.split()[:2]), line.split()[2])
                  for line in out if line)
    assert {"pcl.canon code_table", "pcl.canon code_moves"} <= set(cached)
    assert set(cached.values()) == {"0"}, cached


def test_atlas_matches_pinned_reference(atlas):
    with gzip.open(REFERENCE_ATLAS, "rt") as fh:
        pinned = json.load(fh)
    assert json.loads(json.dumps(atlas.to_json())) == pinned


def test_extend_partition_roundtrip():
    # row i of each table is code i: the length-8 rows puncture back
    codes7, codes8 = code_table(7), code_table(8)
    assert codes7.tolist() == [list(c) for c in enumerate_perfect7()]
    assert all(is_extended_perfect8(c) for c in codes8.tolist())
    assert np.array_equal(np.sort(puncture(codes8, 7), axis=1), codes7)


def test_extclass_json_roundtrip(atlas):
    c = atlas.classes[4]
    back = ExtClass.from_json(c.to_json())
    assert back == c


def test_a_component_that_is_no_extended_perfect_code_is_rejected(
        atlas, tmp_path):
    # swapping one word between two components keeps the partition of
    # the even words but leaves both components with words at distance 2
    d = atlas.to_json()
    first, second = (comp["codewords"]
                     for comp in d["classes"][3]["representative"][:2])
    first[0], second[0] = second[0], first[0]
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ValueError, match="class 3: component 0 is not an "
                       "extended perfect code: words .* at distance 2"):
        Atlas.load(str(path))


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


def _copy_representative(d, source, target):
    d["classes"][target]["representative"] = \
        d["classes"][source]["representative"]


def _drop_the_linear_class(d):
    # class 0's length-7 class moves to class 1, so the census and
    # merged still agree with the nine classes left
    del d["classes"][0]
    for c in d["classes"]:
        c["id"] -= 1
    d["classes"][0]["length7Classes"].insert(0, 0)
    d["merged"] = [c["length7Classes"] for c in d["classes"]
                   if len(c["length7Classes"]) > 1]


@pytest.mark.parametrize("change, message", [
    (lambda d: d["classes"][0].update(linear=False),
     "class 0: linear False is not the computed True"),
    (lambda d: d["classes"][3].update(linear=True),
     "class 3: linear True is not the computed False"),
    (lambda d: [c.update(linear=c["id"] == 3) for c in d["classes"]],
     "class 0: linear False is not the computed True"),
    (lambda d: d["classes"][9].update(id=11), "class ids are not 0..9"),
    (lambda d: d.update(partition7Count="x"), "partition7Count 'x'"),
    (lambda d: d.update(partition7Count=27361), "partition7Count 27361"),
    (lambda d: d.update(partition7Count=27360.0), "partition7Count 27360.0"),
    (lambda d: d.update(orbitSizes7="abc"), "positive integer"),
    (lambda d: d["orbitSizes7"].__setitem__(0, 0), "positive integer"),
    (lambda d: d["orbitSizes7"].__setitem__(0, True), "positive integer"),
    (lambda d: d["orbitSizes7"].append(1), "expected each of 0..11"),
    (lambda d: d["orbitSizes7"].pop(), "expected each of 0..9"),
    (lambda d: d["classes"][7]["length7Classes"].append(6),
     "expected each of 0..10"),
    (lambda d: d.update(merged=[]), "merged"),
    (lambda d: d.update(merged=[[6, 7], [6, 7]]), "merged"),
    (lambda d: d.update(merged=[[7, 6]]), "merged"),
    (lambda d: d["classes"][3]["representative"][0]["codewords"]
     .__setitem__(0, "1ff"), "codeword wider than declared length"),
    (lambda d: d["classes"][3]["representative"][0].update(length="eight"),
     "invalid literal"),
    (lambda d: d["classes"][3]["representative"][0].update(length=7),
     "expected a length-8 code, got length 7"),
    (lambda d: d["classes"][3]["representative"][0].update(length=8.7),
     "class 3: expected a length-8 code, got length 8.7"),
    (lambda d: d["classes"][3]["representative"][0].update(length=8.0),
     "class 3: expected a length-8 code, got length 8.0"),
    (lambda d: d["classes"][3]["representative"][0]["codewords"].pop(),
     "class 3: components do not partition"),
    (lambda d: d["classes"][3]["representative"].pop(),
     "class 3: components do not partition"),
    (lambda d: d["classes"][0].update(linear="no"),
     "class 0: linear 'no' is not the computed True"),
    (lambda d: d["classes"][3].update(linear="false"),
     "class 3: linear 'false' is not the computed False"),
    (lambda d: d["classes"][0].update(linear=1),
     "class 0: linear 1 is not the computed True"),
    (lambda d: d["classes"][4].update(alias=[1, 2]),
     r"class 4: alias \[1, 2\] is not a string or null"),
    (lambda d: d["classes"][4].update(alias=7),
     "class 4: alias 7 is not a string or null"),
    (lambda d: d["classes"][0].update(length7Classes=[False]),
     r"classes \[False, 1, .*expected each of 0..10"),
    (lambda d: d["classes"][1].update(length7Classes=[1.0]),
     r"classes \[0, 1.0, .*expected each of 0..10"),
    (lambda d: d["classes"][1].update(id=True), "class ids are not 0..9"),
    (lambda d: d["classes"][1].update(id=1.0), "class ids are not 0..9"),
    # sigma matches components by position, so a reordered class would
    # double into another code under the same (L, R, sigma)
    (lambda d: d["classes"][1]["representative"].insert(
        0, d["classes"][1]["representative"].pop(1)),
     "class 1: components are not in increasing order: least words"),
    (lambda d: d["classes"][5]["representative"].reverse(),
     "class 5: components are not in increasing order"),
    # one class listed twice: as the linear class left unflagged, and
    # under the two pairs of classes that share (|A|, fixers, r)
    (lambda d: _copy_representative(d, 0, 3),
     "class 3: linear False is not the computed True"),
    (lambda d: _copy_representative(d, 6, 4),
     r"classes 4 and 6 share the spectrum \(0, 4, 4, 8\)"),
    (lambda d: _copy_representative(d, 7, 8),
     r"classes 7 and 8 share the spectrum \(2, 4, 4, 4, 6, 6, 6, 8\)"),
    (_drop_the_linear_class, "expected exactly one linear class"),
], ids=["no-linear", "two-linear", "nonlinear-flagged", "id-gap",
        "count-not-int", "count-not-sum", "count-float", "sizes-string",
        "size-zero", "size-bool", "size-extra", "size-missing",
        "class-named-twice", "merged-empty", "merged-twice",
        "merged-reordered", "codeword-too-wide", "length-not-a-number",
        "component-length-7", "component-length-fractional",
        "component-length-float", "component-of-15-words",
        "seven-components", "linear-string", "linear-string-false",
        "linear-int", "alias-list", "alias-int", "length7-class-bool",
        "length7-class-float", "id-bool", "id-float", "components-swapped",
        "components-reversed", "class-3-is-class-0", "class-4-is-class-6",
        "class-8-is-class-7", "no-linear-class"])
def test_atlas_from_json_checks_ids_and_linear_flag(atlas, change, message):
    d = json.loads(json.dumps(atlas.to_json()))
    change(d)
    with pytest.raises(ValueError, match=message):
        Atlas.from_json(d)


def test_is_linear_partition_on_malformed_components(atlas):
    assert is_linear_partition(atlas.classes[0].components)
    assert not is_linear_partition(atlas.classes[0].components[1:])
    assert not is_linear_partition(atlas.classes[0].components + ((),))


def test_is_linear_partition_refuses_a_base_not_closed_under_xor():
    # the translates of {0, 1, 2, 7} by the multiples of 4 tile F_2^8,
    # like those of the subgroup {0, 1, 2, 3}; every tile is a translate
    # of the one through 0, which only the closure test tells apart
    for base, linear in (((0, 1, 2, 3), True), ((0, 1, 2, 7), False)):
        tiles = tuple(tuple(w ^ t for w in base) for t in range(0, 256, 4))
        assert sorted(w for tile in tiles for w in tile) == list(range(256))
        assert is_linear_partition(tiles) is linear


def test_linear_matches_the_closure_oracle_on_images_of_every_class(atlas):
    # ExtClass.linear reads the fixer count; the oracle closes the
    # component through 0, which a translation moves
    rng = random.Random(33)
    for ext in atlas.classes:
        assert ext.linear is is_linear_partition(ext.components)
        for _ in range(4):
            moved = tuple(sorted(_moved(ext.components, rng, 8)))
            image = ExtClass(moved, ext.length7_classes)
            assert image.linear is is_linear_partition(moved) is ext.linear


# the fixed-point counts of each class's non-identity translation
# permutations, sorted: Atlas.from_json refuses two classes with one
# spectrum, the identity's 8 included
SPECTRA = {
    0: (0,) * 7,
    1: (0, 2, 6),
    2: (0,) * 5 + (4,) * 2,
    3: (0, 0, 2, 2, 2, 4, 6),
    4: (4, 6, 6),
    5: (0,) * 9 + (4,) * 6,
    6: (0, 4, 4),
    7: (2, 4, 4, 4, 6, 6, 6),
    8: (0,) + (4,) * 6,
    9: (),
}


def _spectrum(ext):
    return tuple(sorted(fixed_points(p) for p in ext.action.perms
                        if p != IDENTITY8))


def test_translation_spectra_are_pinned_and_invariant(atlas):
    # A is conjugated, not changed, by a coordinate permutation or an
    # even translation, so its images keep the class's spectrum
    assert {i: _spectrum(ext) for i, ext in enumerate(atlas.classes)} \
        == SPECTRA
    rng = random.Random(36)
    for i, ext in enumerate(atlas.classes):
        for _ in range(20):
            moved = tuple(sorted(_moved(ext.components, rng, 8)))
            assert _spectrum(ExtClass(moved, ext.length7_classes)) \
                == SPECTRA[i]


# the same counts for the length-7 class representatives that partitions
# enumerate --length 7 writes, under the translations of F_2^7, the
# identity's 8 included
SPECTRA7 = {
    0: (0,) * 7 + (8,),
    1: (0, 2, 6, 8),
    2: (0,) * 5 + (4, 4, 8),
    3: (0, 0, 2, 2, 2, 4, 6, 8),
    4: (4, 6, 6, 8),
    5: (0,) * 9 + (4,) * 6 + (8,),
    6: (0, 4, 4, 8),
    7: (0, 4, 4, 8),
    8: (2, 4, 4, 4, 6, 6, 6, 8),
    9: (0,) + (4,) * 6 + (8,),
    10: (8,),
}


def test_length7_spectra_tell_apart_all_but_the_merged_classes(atlas, ids7):
    """The spectrum does not separate the 11 length-7 classes: 6 and 7,
    which merge under extension, share one, the other nine differ, and
    each length-7 class has its extended class's spectrum."""
    spectra = {}
    for cid, rep in enumerate(orbit_classes(ids7, 7).reps):
        comps = code_table(7)[ids7[rep]]
        col = np.zeros(128, dtype=np.uint8)
        for i, comp in enumerate(comps):
            col[comp] = i
        # a permutes the components when each one's image is one component
        img = col[comps[None] ^ np.arange(128)[:, None, None]]
        perms = {row.tobytes() for row in img[:, :, 0]
                 [(img == img[:, :, :1]).all(axis=(1, 2))]}
        spectra[cid] = tuple(sorted(map(fixed_points, perms)))
    assert spectra == SPECTRA7
    shared = [tuple(c for c in spectra if spectra[c] == s)
              for s in set(spectra.values())]
    assert [m for m in shared if len(m) > 1] == atlas.merged == [(6, 7)]
    for k, ext in enumerate(atlas.classes):
        for c in ext.length7_classes:
            assert spectra[c] == SPECTRA[k] + (8,)


def test_accepted_atlases_reload_equal_from_their_saved_copy(tmp_path):
    with gzip.open(REFERENCE_ATLAS, "rt") as fh:
        pinned = json.load(fh)
    rng = random.Random(7)
    variants = [pinned]
    for k, ext in enumerate(Atlas.from_json(pinned).classes):
        # class k represented by a seeded image of itself
        d = json.loads(json.dumps(pinned))
        moved = sorted(_moved(ext.components, rng, 8))
        d["classes"][k]["representative"] = [code_to_json(c, 8)
                                             for c in moved]
        variants.append(d)
    path = tmp_path / "atlas.json"
    for d in variants:
        atlas = Atlas.from_json(d)
        atlas.save(str(path))
        assert Atlas.load(str(path)) == atlas


def test_atlas_json_schema_keys(atlas):
    d = atlas.to_json()
    assert set(d) == {"classes", "partition7Count", "orbitSizes7", "merged"}
    for c in d["classes"]:
        assert set(c) == {"id", "alias", "representative",
                         "length7Classes", "linear"}
        for comp in c["representative"]:
            assert comp["length"] == 8
            assert len(comp["codewords"]) == 16
