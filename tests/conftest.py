"""Shared fixtures.

The partition atlas and the kernel-dimension scan are the two expensive
artifacts; both are built once per session.  No test reads a wall time:
results must not depend on machine speed.
"""

import pytest

from pcl.partitions import build_atlas
from pcl.scan import KAPPA_WITNESSES, find_representatives, make_code


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
