"""Shared fixtures.

The partition atlas and the kernel-dimension scan are the two expensive
artifacts; both are built once per session.  No test reads a wall time:
results must not depend on machine speed.
"""

import pytest

from pcl.partitions import build_atlas
from pcl.scan import find_representatives, make_code

# Class pairs and permutations recovered by earlier scans; each yields
# the stated kernel dimension and is exercised end to end in the tests.
KAPPA_WITNESSES: dict[int, tuple[int, int, str]] = {
    11: (0, 0, "01234567"),
    9: (0, 0, "45026713"),
    8: (0, 0, "15437062"),
    7: (0, 1, "51304276"),
    6: (0, 3, "52637140"),
    5: (1, 3, "41056327"),
}


@pytest.fixture(scope="session")
def atlas():
    return build_atlas()


@pytest.fixture(scope="session")
def atlas_file(atlas, tmp_path_factory):
    path = tmp_path_factory.mktemp("atlas") / "atlas.json"
    atlas.save(str(path))
    return str(path)


@pytest.fixture(scope="session")
def found(atlas):
    return find_representatives(atlas, per_pair=400, seed=0)


@pytest.fixture(scope="session")
def witnesses(atlas):
    return {k: make_code(atlas, left, right, sigma)
            for k, (left, right, sigma) in KAPPA_WITNESSES.items()}
