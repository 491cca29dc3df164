"""Benchmark of the pcl package, measured from outside through its CLI and API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
src/ and nothing is installed.  Workloads (all closed loop: one process,
one operation in flight):

    census    one worker loads the atlas once and calls scan.scan_pair with
              explicit sigmas for all 100 ordered class pairs, the same
              number of sigmas per pair, drawn from the seed.  Exercises
              doubling and algebra (kernel and rank) only.
    pipeline  pcl pipeline --atlas FILE --sample 100, otherwise its defaults
              (pairs, seed 0): the product's end-to-end command and the
              only path through scan.find_representatives and
              sts.fully_tabulated.  Inputs are fixed.  The default sample
              of 400 finds the same five codes and writes the same
              artifacts but for summary.json's "sample"; it spends the
              extra 900 doublings scanning past them, and at about 45 s a
              run it would not fit the benchmark's time budget.  The
              timed passes load the pinned atlas; the traced pass first
              builds it with pcl partitions enumerate --length 8, as
              pcl pipeline does without --atlas, so the traced run also
              measures partitions, perfect and canon.minimal_image7/8.

The classification is not a workload of its own.  Timed alone (about
43 s at --length 8, 11 s at --length 7) it spread by 0.21 to 0.30 of its
median over ten runs on a shared 2-vCPU host, against about 0.1 for
census and 0.2 for pipeline, and no end-to-end bound may exceed 0.25.

Each body is repeated in passes until --seconds have been used (at least
one pass) and the median pass is reported.  Every output is checked: the
atlas file and the pipeline artifacts against references pinned in
perfbench/reference/ (pin_reference.py), compared as parsed content on the keys the
reference has (new keys are not failures, changed or missing values are);
census rows against perfbench/oracle.py, which reads rank and kernel
dimension off the partitions, and which is itself checked against census
rows pinned from the brute computation.

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
body runs one pass untraced and one under perfbench/tracer.py, whatever
--seconds says (the traced pipeline pass, atlas build included, takes
about 80 s), and the per-layer metrics are printed.  The last stdout
line is the JSON result; each run is also appended to
.perfbench/runs.jsonl with the machine details (see perfbench/report.py),
and traced spans go to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import hashlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference"

sys.path.insert(0, str(BENCH_DIR))
import oracle  # noqa: E402
from tracer import CLI_COMMANDS, COUNTED, TIMED  # noqa: E402

RUN_LIMIT_S = 170.0       # the whole run, children included
SETUP_SAMPLES = 9         # setup probes per run, after one warm-up
SIGMAS_PER_PAIR = 2       # census sigmas per class pair and pass
MAX_CENSUS_PASSES = 30
CLASSES = 10
PIPELINE_ARGS = ["--sample", "100"]

# Call counts of the traced workloads at the commit that defined this
# benchmark.  A mismatch is reported (trace.pinned_counts_match = 0), not
# failed: a later change may legitimately call a layer less often.  With
# the pipeline's default sample of 400 the same tracer counted 1244
# kernel_words calls over 1207 doubled codes; the rest are unchanged.
PINNED_COUNTS = {
    "pipeline": {"canon.relabel_np.calls": 273600,
                 "algebra.kernel_words.calls": 344,
                 "doubling.double.calls": 307,
                 "scan.find_representatives.kept": 5,
                 "sts.pasch_profile.calls": 3985,
                 "canon.minimal_quadset8.calls": 1692},
}


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Body:
    """What one execution of a workload body measured and checked."""

    walls: list = field(default_factory=list)
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    codes: int = 0
    summaries: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("mismatch: %s" % what, file=sys.stderr)


class Bench:
    """Work directory, pinned environment and child processes of one run."""

    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = STATE / ("work-%d" % os.getpid())
        self.env = dict(os.environ)
        self.env.pop("PCL_THREADS", None)   # measure the shipped default
        # Children keep their bytecode under .perfbench whatever the
        # caller's settings, so set-up is a warm start, as installed.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = str(STATE / "pycache")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.steps = 0
        self.traces = 0

    def spawn(self, argv: list[str]) -> tuple[int, float, float, Path]:
        """Run one child to completion: (exit code, wall s, peak RSS MB, log)."""
        self.steps += 1
        log = self.work / ("step%03d.log" % self.steps)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with open(log, "wb") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == -9:
            raise BenchError("child timed out: %s" % " ".join(argv))
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log

    def pcl(self, args: list[str], traced: bool, body: Body):
        """One CLI call; under the tracer when traced.  Returns (code, wall)."""
        if traced:
            spans, summary = self.trace_paths()
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "cli",
                    str(spans), str(summary), "--"] + args
        else:
            argv = [sys.executable, "-m", "pcl.cli"] + args
        rc, wall, rss, _ = self.spawn(argv)
        body.rss_mb = max(body.rss_mb, rss)
        if traced:
            body.summaries.append(json.loads(summary.read_text()))
        return rc, wall

    def trace_paths(self) -> tuple[Path, Path]:
        """Where the next traced child writes its spans and its summary."""
        self.traces += 1
        name = "%s-seed%d-%d" % (self.workload, self.seed, self.traces)
        spans_dir = STATE / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        return spans_dir / (name + ".jsonl"), self.work / (name + ".json")


# ---------------------------------------------------------------- references


def load_reference(name: str):
    with gzip.open(REFERENCE / name, "rt") as fh:
        return json.load(fh)


def matches(ref, got) -> bool:
    """got carries every key and value of ref; keys only in got are ignored."""
    if isinstance(ref, dict):
        return isinstance(got, dict) and all(
            k in got and matches(v, got[k]) for k, v in ref.items())
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(matches(a, b) for a, b in zip(ref, got)))
    return type(ref) is type(got) and ref == got


def parse_artifact(name: str, data: bytes):
    text = data.decode()
    if name.endswith(".csv"):
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)


def check_artifact(body: "Body", name: str, data: bytes, want) -> None:
    try:
        ok = matches(want, parse_artifact(name, data))
    except ValueError:   # unreadable or missing output
        ok = False
    body.check(ok, "%s differs from the reference" % name)


def atlas_input(bench: Bench) -> Path:
    """The pinned length-8 atlas, written where the CLI can load it."""
    path = bench.work / "atlas.json"
    if not path.exists():
        ref = load_reference("atlas.json.gz")
        path.write_text(json.dumps(ref, indent=1) + "\n")
    return path


# ----------------------------------------------------------------- workloads


def enumerate_atlas_traced(bench: Bench, body: Body) -> Path:
    """pcl partitions enumerate --length 8, checked; returns the atlas."""
    out = bench.work / ("atlas-%d.json" % bench.steps)
    rc, _ = bench.pcl(["partitions", "enumerate", "--length", "8",
                       "--out", str(out)], True, body)
    body.check(rc == 0, "partitions enumerate exit %d" % rc)
    data = out.read_bytes() if out.exists() else b""
    check_artifact(body, "atlas.json", data, load_reference("atlas.json.gz"))
    return out


def pipeline_pass(bench: Bench, traced: bool) -> Body:
    """One pcl pipeline; traced, it scans an atlas it has just built."""
    ref = load_reference("pipeline.json.gz")
    body = Body()
    if traced:
        atlas = enumerate_atlas_traced(bench, body)
    else:
        atlas = atlas_input(bench)
    out_dir = bench.work / ("pipeline-%d" % bench.steps)
    rc, wall = bench.pcl(["pipeline", "--atlas", str(atlas),
                          "--out-dir", str(out_dir)] + PIPELINE_ARGS,
                         traced, body)
    body.walls.append(wall)
    body.check(rc == 0, "pipeline exit %d" % rc)
    for name, want in sorted(ref.items()):
        path = out_dir / name
        data = path.read_bytes() if path.exists() else b""
        body.outputs[name] = data
        check_artifact(body, "pipeline " + name, data, want)
    return body


def census_inputs(seed: int) -> list:
    """Per pass, per ordered class pair, SIGMAS_PER_PAIR distinct sigmas."""
    rng = random.Random(seed)
    passes = []
    for _ in range(MAX_CENSUS_PASSES):
        pairs = []
        for left in range(CLASSES):
            for right in range(CLASSES):
                sigmas: list = []
                while len(sigmas) < SIGMAS_PER_PAIR:
                    s = rng.sample(range(8), 8)
                    if s not in sigmas:
                        sigmas.append(s)
                pairs.append([left, right, sigmas])
        passes.append(pairs)
    return passes


def census_body(bench: Bench, traced: bool) -> Body:
    inputs = census_inputs(bench.seed)
    spec = bench.work / ("census-%d.json" % bench.steps)
    spec.write_text(json.dumps({"atlas": str(atlas_input(bench)),
                                "seconds": bench.seconds, "passes": inputs}))
    out = bench.work / ("census-out-%d.json" % bench.steps)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "census",
            str(spec), str(out)]
    if traced:
        spans, summary = bench.trace_paths()
        argv += [str(spans), str(summary)]
    rc, _, rss, _ = bench.spawn(argv)
    body = Body(rss_mb=rss)
    if traced:
        body.summaries.append(json.loads(summary.read_text()))
    if rc != 0 or not out.exists():
        raise BenchError("census worker exit %d" % rc)
    oracles = census_oracles()
    passes = json.loads(out.read_text())["passes"]
    for p, (want, got) in enumerate(zip(inputs, passes)):
        body.walls.append(got["wall"])
        body.latencies += got["latencies"]
        expected = [(l, r, "".join(map(str, s)))
                    for l, r, sigmas in want for s in sigmas]
        body.check(len(got["rows"]) == len(expected),
                   "census pass %d returned %d rows" % (p, len(got["rows"])))
        for (l, r, sig), row in zip(expected, got["rows"]):
            sigma = tuple(int(c) for c in sig)
            ok = (row[:3] == [l, r, sig]
                  and row[3] == oracle.rank(oracles[l], oracles[r], sigma)
                  and row[4] == oracle.kernel_dim(oracles[l], oracles[r], sigma))
            body.check(ok, "census row %s" % row)
        body.codes += len(got["rows"])
    body.outputs["rows"] = passes[0]["rows"] if passes else []
    return body


def census_oracles() -> list:
    """Oracles of the pinned atlas, checked against pinned brute rows."""
    atlas = load_reference("atlas.json.gz")
    classes = sorted(atlas["classes"], key=lambda c: c["id"])
    oracles = [oracle.PartitionOracle(
        [[int(w, 16) for w in comp["codewords"]]
         for comp in c["representative"]]) for c in classes]
    for l, r, sig, rank, kappa in load_reference("census_rows.json.gz"):
        sigma = tuple(int(c) for c in sig)
        if (oracle.rank(oracles[l], oracles[r], sigma),
                oracle.kernel_dim(oracles[l], oracles[r], sigma)) != (rank, kappa):
            raise BenchError("census oracle disagrees with pinned row %s"
                             % [l, r, sig, rank, kappa])
    return oracles


def repeat_passes(bench: Bench, one_pass, traced: bool) -> Body:
    """Whole passes until the run's seconds are used; at least one."""
    start = time.monotonic()
    total = Body()
    while True:
        b = one_pass(bench, traced)
        total.walls += b.walls
        total.rss_mb = max(total.rss_mb, b.rss_mb)
        total.attempted += b.attempted
        total.failed += b.failed
        total.outputs = b.outputs
        total.summaries += b.summaries
        if time.monotonic() - start >= bench.seconds:
            return total


WORKLOADS = {
    "census": census_body,
    "pipeline": lambda bench, traced: repeat_passes(bench, pipeline_pass,
                                                    traced),
}


# ------------------------------------------------------------------- metrics


def setup_seconds(bench: Bench) -> float:
    """Median time from a fresh interpreter to pcl.cli imported, atlas loaded."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        rc, _, _, log = bench.spawn([sys.executable, str(BENCH_DIR / "child.py"),
                                     "setup", str(atlas_input(bench))])
        if rc != 0:
            raise BenchError("setup probe failed:\n" + log.read_text())
        if i:   # the first spawn warms the bytecode cache
            samples.append(float(log.read_text().split()[-1]) - t0)
    return statistics.median(samples)


def cpu_probe() -> float:
    """Seconds for a fixed numpy and pure-Python batch; recorded, not gated."""
    import numpy as np

    words = np.arange(0, 1 << 16, 32, dtype=np.uint16) ^ np.uint16(0x5A5A)
    occ = np.zeros(1 << 16, dtype=bool)
    occ[words] = True
    times = []
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(2):
            occ[words[None, :] ^ words[:, None]].all(axis=1)
        acc = 0
        for i in range(600000):
            acc ^= (i * 2654435761) & 0xFFFF
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "pcl").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine(),
            "loadavg": list(os.getloadavg()), "cpu_probe_s": cpu_probe()}


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(bench: Bench, plain: Body, traced: Body) -> dict:
    funcs: dict = {}
    counts: dict = {}
    for s in traced.summaries:
        for name, row in s["functions"].items():
            acc = funcs.setdefault(name, {"calls": 0, "self_s": 0.0,
                                          "total_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
    for name, row in funcs.items():
        counts[name + ".calls"] = row["calls"]

    m: dict = {}
    names = ["%s.%s" % t for t in TIMED] + ["cli." + c for c in CLI_COMMANDS]
    for name in names:
        row = funcs.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        m[name + ".calls"] = (row["calls"], "count")
        m[name + ".self_s"] = (row["self_s"], "s")
        m[name + ".total_s"] = (row["total_s"], "s")
    for mod, fn in COUNTED:
        key = "%s.%s.calls" % (mod, fn)
        m[key] = (counts.get(key, 0), "count")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    codes = counts.get("doubling.double.calls", 0)
    m["scan.kept_ratio"] = (
        ratio(counts.get("scan.find_representatives.kept", 0), codes), "ratio")
    m["algebra.kernel_words.calls_per_code"] = (
        ratio(counts.get("algebra.kernel_words.calls", 0), codes), "ratio")
    m["sts.fully_tabulated.reject_ratio"] = (
        ratio(counts.get("sts.fully_tabulated.rejected", 0),
              counts.get("sts.fully_tabulated.calls", 0)), "ratio")
    m["trace.overhead_frac"] = (
        statistics.median(traced.walls) / statistics.median(plain.walls) - 1,
        "ratio")
    m["trace.outputs_identical"] = (int(plain.outputs == traced.outputs),
                                    "bool")

    pinned = dict(PINNED_COUNTS.get(bench.workload, {}))
    if bench.workload == "census":
        pinned = {"algebra.kernel_words.calls": traced.codes,
                  "algebra.rank_of.calls": traced.codes,
                  "doubling.double.calls": traced.codes,
                  "scan.scan_pair.calls": CLASSES * CLASSES * len(traced.walls)}
    off = {k: (counts.get(k, 0), v) for k, v in pinned.items()
           if counts.get(k, 0) != v}
    for k, (got, want) in off.items():
        print("trace: %s = %d, pinned %d" % (k, got, want), file=sys.stderr)
    m["trace.pinned_counts_match"] = (int(not off), "bool")

    if plain.latencies:
        m["codes_per_s"] = (plain.codes / sum(plain.walls), "1/s")
        m["pair_p50_ms"] = (1000 * percentile(plain.latencies, 50), "ms")
        m["pair_p90_ms"] = (1000 * percentile(plain.latencies, 90), "ms")
    else:
        for k, unit in (("codes_per_s", "1/s"), ("pair_p50_ms", "ms"),
                        ("pair_p90_ms", "ms")):
            m[k] = (0.0, unit)
    return m


def listed_metrics(section: str) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pcl" / "cli.py").is_file():
        print("no pcl sources under %s" % SRC, file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, 0 if args.trace else args.seconds)
    bench.work.mkdir(parents=True, exist_ok=True)
    run = WORKLOADS[args.workload]
    try:
        env = environment()
        if args.trace:
            plain = run(bench, False)
            traced = run(bench, True)
            measured = layer_metrics(bench, plain, traced)
            wanted = listed_metrics("per_layer")
            attempted = plain.attempted + traced.attempted
            failed = plain.failed + traced.failed
        else:
            setup = setup_seconds(bench)
            body = run(bench, False)
            measured = {"wall_s": (statistics.median(body.walls), "s"),
                        "setup_s": (setup, "s"),
                        "peak_rss_mb": (body.rss_mb, "MB")}
            wanted = listed_metrics("end_to_end")
            attempted, failed = body.attempted, body.failed
    except BenchError as e:
        print("benchmark error: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    metrics = {k: {"value": measured[k][0], "unit": measured[k][1]}
               for k in wanted}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace,
                             "time": time.time(), "env": env,
                             **result}) + "\n")
    print("env %s" % json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
