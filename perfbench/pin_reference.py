"""Write the reference outputs that run.py checks against.

    python3 perfbench/pin_reference.py

Runs the current sources once and stores, gzipped, in perfbench/reference/:
    atlas.json.gz        the atlas of `pcl partitions enumerate --length 8`
    pipeline.json.gz     {artifact name: parsed content} of `pcl pipeline
                         --atlas` with run.PIPELINE_ARGS
    census_rows.json.gz  [left, right, sigma, rank, kernelDim] rows from
                         scan.scan_pair, 6 seeded sigmas per class pair,
                         which pin the census oracle to the brute computation

References are pinned once, at the commit that defines the benchmark;
re-pinning hides every output change made since.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import shutil
import subprocess
import sys

from run import PIPELINE_ARGS, REFERENCE, SRC, STATE, parse_artifact

CENSUS_ROWS_SEED = 7
CENSUS_ROWS_PER_PAIR = 6


def pcl(env, *args) -> None:
    subprocess.run([sys.executable, "-m", "pcl.cli", *args], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def dump(name: str, obj) -> None:
    with open(REFERENCE / name, "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(obj, sort_keys=True).encode())


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PCL_THREADS", None)
    work = STATE / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    REFERENCE.mkdir(exist_ok=True)
    try:
        atlas = work / "atlas8.json"
        pcl(env, "partitions", "enumerate", "--length", "8", "--out",
            str(atlas))
        dump("atlas.json.gz", json.loads(atlas.read_text()))

        run_dir = work / "pipeline"
        pcl(env, "pipeline", "--atlas", str(atlas), "--out-dir", str(run_dir),
            *PIPELINE_ARGS)
        dump("pipeline.json.gz",
             {p.name: parse_artifact(p.name, p.read_bytes())
              for p in sorted(run_dir.iterdir())})

        sys.path.insert(0, str(SRC))
        from pcl.partitions import Atlas
        from pcl.scan import scan_pair
        from pcl.words import sigma_str

        loaded = Atlas.load(str(atlas))
        rng = random.Random(CENSUS_ROWS_SEED)
        rows = []
        for left in range(len(loaded.classes)):
            for right in range(len(loaded.classes)):
                sigmas = set()
                while len(sigmas) < CENSUS_ROWS_PER_PAIR:
                    sigmas.add(tuple(rng.sample(range(8), 8)))
                for r in scan_pair(loaded, left, right, sigmas=sorted(sigmas)):
                    rows.append([left, right, sigma_str(r.sigma), r.rank,
                                 r.kernel])
        dump("census_rows.json.gz", rows)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
