"""Doubling two extended partitions into a length-16 code."""

import numpy as np

from pcl.doubling import Code
from pcl.scan import make_code
from pcl.words import sigma_bytes

from code_helpers import is_extended_perfect16


def test_double_shape_and_metadata(atlas):
    sigma = sigma_bytes("45026713")
    code = make_code(atlas, 0, 0, sigma)
    assert len(code.words) == 2048
    assert code.words.dtype == np.uint16
    assert (np.diff(code.words.astype(np.int32)) > 0).all()
    assert (np.bitwise_count(code.words) % 2 == 0).all()
    assert (code.left, code.right, code.sigma) == (0, 0, sigma)
    assert code.label == "(0,0,45026713)"


def test_double_is_extended_perfect(atlas):
    code = make_code(atlas, 1, 3, sigma_bytes("41056327"))
    assert is_extended_perfect16(code.words, thorough=True)


def test_double_respects_sigma(atlas):
    sigma = sigma_bytes("52637140")
    code = make_code(atlas, 0, 3, sigma)
    lows = [set(c) for c in atlas.classes[0].components]
    highs = [set(c) for c in atlas.classes[3].components]
    for w in code.words[::97]:
        w = int(w)
        i = next(k for k, c in enumerate(lows) if (w & 0xFF) in c)
        assert (w >> 8) in highs[sigma[i]]


def test_membership_helpers(atlas):
    code = make_code(atlas, 0, 0, tuple(range(8)))
    assert code.occ[int(code.words[5])]
    assert int(code.occ.sum()) == len(code.words)
    hole = next(x for x in range(1 << 16) if not code.occ[x])
    assert hole not in set(code.words.tolist())


def test_label_without_metadata():
    c = Code(np.arange(16, dtype=np.uint16))
    assert c.label == "(None,None,?)"
