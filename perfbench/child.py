"""Worker process of the benchmark, for the steps that are not a plain CLI call.

    child.py setup ATLAS
        import pcl.cli, load the atlas, print time.perf_counter().  The
        parent subtracts its own clock reading taken before the spawn
        (both are CLOCK_MONOTONIC), which gives the start-up cost every
        CLI call pays, without interpreter teardown.
    child.py census SPEC OUT [SPANS SUMMARY]
        load the atlas once, then run SPEC's passes in order until its
        seconds are used (at least one); a pass calls scan.scan_pair with
        explicit sigmas for each class pair.  Rows and per-pair latencies
        go to OUT.
    child.py cli SPANS SUMMARY -- ARGS...
        run the pcl CLI with ARGS under the tracer.

Given SPANS and SUMMARY, the tracer is installed first and its spans and
per-function summary are written to those paths at exit.
"""

from __future__ import annotations

import json
import sys
import time


def _traced(spans_path: str, summary_path: str, body) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return body()
    finally:
        tracer.write_spans(spans_path)
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


def _census(spec_path: str, out_path: str) -> int:
    from pcl.partitions import Atlas
    from pcl import scan
    from pcl.words import sigma_str

    with open(spec_path) as fh:
        spec = json.load(fh)
    atlas = Atlas.load(spec["atlas"])
    passes = []
    start = time.perf_counter()
    for pairs in spec["passes"]:
        latencies, rows = [], []
        t_pass = time.perf_counter()
        for left, right, sigmas in pairs:
            t = time.perf_counter()
            got = scan.scan_pair(atlas, left, right,
                                 sigmas=[tuple(s) for s in sigmas])
            latencies.append(time.perf_counter() - t)
            rows += [[r.left, r.right, sigma_str(r.sigma), r.rank, r.kernel]
                     for r in got]
        passes.append({"wall": time.perf_counter() - t_pass,
                       "latencies": latencies, "rows": rows})
        if time.perf_counter() - start >= spec["seconds"]:
            break
    with open(out_path, "w") as fh:
        json.dump({"passes": passes}, fh)
    return 0


def _cli(args: list[str]) -> int:
    import pcl.cli

    try:
        pcl.cli.main(args, prog_name="pcl")
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        import pcl.cli  # noqa: F401
        from pcl.partitions import Atlas

        Atlas.load(argv[1])
        print(repr(time.perf_counter()))
        return 0
    if mode == "census":
        body = lambda: _census(argv[1], argv[2])
        if len(argv) == 5:
            return _traced(argv[3], argv[4], body)
        return body()
    if mode == "cli":
        sep = argv.index("--")
        return _traced(argv[1], argv[2], lambda: _cli(argv[sep + 1:]))
    raise SystemExit("unknown mode %r" % mode)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
