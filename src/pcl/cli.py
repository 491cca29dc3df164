"""Command line front end.

Subcommands mirror the library layers: enumerate the length-7 perfect
codes and partition classes, double a pair of extended classes into one
length-16 code, or tabulate rank and kernel dimension over every
permutation sigma of the pair, compute rank and kernel invariants,
classify the derived triple systems, check the folded graph against the
prescribed loop and link families, and export graphs.

The subcommands and the pipeline share one stage layer: one loader per
input file, and one function per stage (one doubled code, analysis, type
grid, structure report) that computes it and writes its artifact, so the
subcommands reproduce the pipeline's files byte for byte.  The pipeline
chains the stages over a seeded permutation scan; identical options and
seed reproduce byte-identical artifacts.

Every option is checked before any work: click checks its type and
presence, and class ids are checked against the atlas before anything
is built or written.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import click

from .algebra import kernel_cosets, rank_of
from .canon import code_table
from .fano import FAMILIES, PRESCRIPTIONS, partition_registry
from .fold import quotient_graph
from .ioutil import (atomic_write, code_to_json, load_code, provenance,
                     read_json, save_code, write_json)
from .partitions import (Atlas, build_atlas, check_census7, classes_from_json,
                         enumerate_partitions7, orbit_classify7)
from .perfect import enumerate_perfect7
from .scan import (PRIORITY_PAIRS, find_representatives, iter_sigmas,
                   make_code, scan_pair)
from .sts import TypeGrid, type_grid
from .structure import StructureReport, full_report
from .words import IDENTITY8, quad_name, sigma_bytes, sigma_str

# What reading a malformed JSON file can raise; the commands turn these
# into an error message and exit status 1.
_BAD_INPUT = (KeyError, IndexError, TypeError, ValueError, OverflowError)


class OutPath(click.Path):
    """A file to write, not a directory, whose directory, symlinks
    followed, must exist: a bad path fails before the command runs."""

    def __init__(self):
        super().__init__(dir_okay=False)

    def convert(self, value, param, ctx):
        path = super().convert(value, param, ctx)
        d = os.path.dirname(os.path.realpath(path))
        if not os.path.isdir(d):
            self.fail("directory %s does not exist"
                      % click.format_filename(d), param, ctx)
        return path


class ClassPair(click.ParamType):
    """Two class ids written LEFT,RIGHT."""

    name = "L,R"

    def convert(self, value, param, ctx):
        try:
            left, right = value.split(",")
            return int(left), int(right)
        except ValueError:
            self.fail("expected LEFT,RIGHT class ids, got %r" % value,
                      param, ctx)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
def main() -> None:
    """Doubled length-16 codes and their folded quadruple-system graphs."""


def _load_code_checked(path: str):
    try:
        return load_code(path)
    except _BAD_INPUT as e:
        raise click.ClickException("cannot read code %s: %s" % (path, e))


def _load_atlas(path: str | None, class_ids) -> Atlas:
    """The atlas, loaded or classified; each (class id, option) is checked."""
    if path is None:
        click.echo("no --atlas given; classifying partitions from scratch",
                   err=True)
        atlas = build_atlas()
    else:
        try:
            atlas = Atlas.load(path)
        except _BAD_INPUT as e:
            raise click.ClickException("cannot read atlas %s: %s" % (path, e))
    for cid, option in class_ids:
        if not 0 <= cid < len(atlas.classes):
            raise click.BadParameter("class %d out of range 0..%d"
                                     % (cid, len(atlas.classes) - 1),
                                     param_hint="'%s'" % option)
    return atlas


def _census7_lines(sizes) -> list[str]:
    return ["length-7 partitions: %d in %d classes" % (sum(sizes), len(sizes)),
            "orbit sizes: %s" % " ".join(str(s) for s in sizes)]


def _census_lines(atlas: Atlas) -> list[str]:
    lines = _census7_lines(atlas.orbit_sizes7)
    lines.append("extended classes: %d (linear class %d)"
                 % (len(atlas.classes), atlas.linear_class))
    return lines + ["merged under extension: %s" % "+".join(map(str, m))
                    for m in atlas.merged]


# ---------------------------------------------------------------- censuses


@main.group("perfect-codes")
def perfect_codes() -> None:
    """Perfect binary codes of length 7."""


@perfect_codes.command("enumerate")
@click.option("--out", type=OutPath(), default=None,
              help="write all codes as a JSON array")
def perfect_enumerate(out: str | None) -> None:
    """Count the perfect codes of length 7 and optionally dump them."""
    codes = enumerate_perfect7()
    through_zero = sum(1 for c in codes if c[0] == 0)
    click.echo("perfect codes of length 7: %d (%d through zero)"
               % (len(codes), through_zero))
    if out:
        write_json(out, [code_to_json(c, 7) for c in codes])
        click.echo("wrote %s" % out)


@main.group()
def partitions() -> None:
    """Partitions of the length-7 space and their parity extensions."""


@partitions.command("enumerate")
@click.option("--length", "length_", type=click.Choice(["7", "8"]),
              default="8", show_default=True,
              help="7 for the raw classes, 8 for the extended atlas")
@click.option("--out", type=OutPath(), required=True)
def partitions_enumerate(length_: str, out: str) -> None:
    """Enumerate and classify the partitions, writing an atlas JSON."""
    if length_ == "8":
        atlas = build_atlas()
        atlas.save(out)
        lines = _census_lines(atlas)
    else:
        ids = enumerate_partitions7()
        c7 = orbit_classify7(ids)
        sizes = [int(s) for s in c7.sizes]
        classes = [{"id": cid, "alias": None, "representative": [
            code_to_json(comp, 7) for comp in code_table(7)[ids[rep]]]}
            for cid, rep in enumerate(c7.reps)]
        write_json(out, {"classes": classes, "partition7Count": len(ids),
                         "orbitSizes7": sizes})
        lines = _census7_lines(sizes)
    click.echo("\n".join(lines))
    click.echo("wrote %s" % out)


@partitions.command("classify")
@click.argument("atlas_path", type=click.Path(exists=True, dir_okay=False))
def partitions_classify(atlas_path: str) -> None:
    """Print the census recorded in an atlas JSON."""
    try:
        d = read_json(atlas_path)
    except ValueError as e:  # bad JSON, or bytes that are not UTF-8
        raise click.ClickException("cannot parse %s: %s" % (atlas_path, e))
    try:
        if d["classes"][0]["representative"][0]["length"] == 7:
            sizes = check_census7(d, sorted(c["id"] for c in d["classes"]))
            classes_from_json(d["classes"], 7)
            lines = _census7_lines(sizes)
        else:
            lines = _census_lines(Atlas.from_json(d))
    except _BAD_INPUT as e:
        raise click.ClickException("%s is not an atlas file: %s"
                                   % (atlas_path, e))
    click.echo("\n".join(lines))


# ---------------------------------------------------------------- doubling


_SOURCE = click.option("--source", type=int, required=True,
                       help="extended class id for the low byte")
_TARGET = click.option("--target", type=int, required=True,
                       help="extended class id for the high byte")
_ATLAS = click.option("--atlas", "atlas_path",
                      type=click.Path(exists=True, dir_okay=False),
                      help="atlas JSON; classified from scratch when omitted")


@main.command()
@_SOURCE
@_TARGET
@_ATLAS
@click.option("--sigma", type=sigma_bytes, metavar="SIGMA", required=True,
              help="component matching, eight digits over 0..7")
@click.option("--out", type=OutPath(), required=True)
def double(source: int, target: int, atlas_path: str | None, sigma: bytes,
           out: str) -> None:
    """Build a length-16 code from two extended partition classes."""
    atlas = _load_atlas(atlas_path, [(source, "--source"),
                                     (target, "--target")])
    code, row = code_stage(atlas, source, target, sigma, out)
    click.echo("code %s: rank=%d kernelDim=%d"
               % (code.label, row.rank, row.kernel))
    click.echo("wrote %s" % out)


@main.command()
@_SOURCE
@_TARGET
@_ATLAS
@click.option("--sample", type=click.IntRange(min=1), default=None,
              help="scan a seeded sample instead of all 40320 permutations")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--out", type=OutPath(), help="write the rows as JSON")
def scan(source: int, target: int, atlas_path: str | None,
         sample: int | None, seed: int, out: str | None) -> None:
    """Rank and kernel dimension of a class pair doubled under each sigma."""
    atlas = _load_atlas(atlas_path, [(source, "--source"),
                                     (target, "--target")])
    rows = scan_pair(atlas, source, target, iter_sigmas(sample, seed))
    for r in rows:
        click.echo("sigma=%s rank=%d kernelDim=%d"
                   % (sigma_str(r.sigma), r.rank, r.kernel))
    if out:
        write_json(out, [{**provenance(r), "rank": r.rank,
                          "kernelDim": r.kernel} for r in rows])
        click.echo("wrote %s" % out)


def code_stage(atlas: Atlas, left: int, right: int, sigma: bytes,
               out: str) -> tuple:
    """Double a class pair under sigma and write the code to out; the
    code and its ScanRow, with rank and kernel dimension, are returned."""
    row, = scan_pair(atlas, left, right, [sigma])
    code = make_code(atlas, left, right, sigma)
    save_code(out, code)
    return code, row


def analysis_stage(code, out: str) -> dict:
    """Rank, kernel dimension and coset count; written to out with the
    code's provenance keys, returned without them."""
    kappa = len(kernel_cosets(code).basis)
    d = {"rank": rank_of(code), "kernelDim": kappa,
         "cosetCount": len(code.words) >> kappa}
    write_json(out, {**d, **provenance(code)})
    return d


@main.command()
@click.argument("code_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=OutPath(), default=None,
              help="analysis JSON path (default: next to the code)")
def analyze(code_path: str, out: str | None) -> None:
    """Rank, kernel dimension and kernel coset count of a code."""
    code = _load_code_checked(code_path)
    if out is None:
        out = os.path.splitext(code_path)[0] + ".analysis.json"
    click.echo(json.dumps(analysis_stage(code, out)))
    click.echo("wrote %s" % out)


# ------------------------------------------------------- typing and checks


def types_stage(code, csv_path: str | None) -> TypeGrid:
    """Type every kernel coset; write one CSV row per coset to csv_path."""
    grid = type_grid(code)
    if csv_path:
        lines = ["vertex,representative,types"]
        lines += ["%d,%s,%s" % row for row in grid.rows]
        atomic_write(csv_path, "\n".join(lines) + "\n")
    return grid


@main.command("sts-types")
@click.argument("code_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "csv_path", type=OutPath(),
              default=None, help="write one row per kernel coset")
def sts_types(code_path: str, csv_path: str | None) -> None:
    """Triple-system types of the punctured code, one tuple per coset."""
    code = _load_code_checked(code_path)
    grid = types_stage(code, csv_path)
    for row in grid.rows:
        click.echo("vertex %d %s %s" % row)
    sqs_h, sts_h = grid.homogeneous
    click.echo("homogeneous: %s%s"
               % (sqs_h, " (constant)" if sts_h else ""))
    if grid.unknown:
        click.echo("warning: %d punctured systems match no signature "
                   "in the type table (rendered ?)" % grid.unknown)
    if csv_path:
        click.echo("wrote %s" % csv_path)


def _short(x, limit: int = 64) -> str:
    s = str(x)
    return s if len(s) <= limit else s[: limit - 3] + "..."


def report_stage(code, report_path: str | None) -> StructureReport:
    """Structure verdicts of the folded code; written to report_path."""
    rep = full_report(code)
    if report_path:
        write_json(report_path, rep.to_json())
    return rep


@main.command("verify-theorem5")
@click.argument("code_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--report", "report_path", type=OutPath(),
              default=None, help="write the full verdict list as JSON")
def verify_theorem5(code_path: str, report_path: str | None) -> None:
    """Check the folded graph against the prescribed loop and link families."""
    code = _load_code_checked(code_path)
    try:
        rep = report_stage(code, report_path)
    except ValueError as e:
        raise click.ClickException(str(e))
    click.echo(rep.summary())
    for v in rep.failures():
        msg = v.detail or ("expected %s, observed %s"
                           % (_short(v.expected), _short(v.observed)))
        click.echo("  fail %s: %s" % (v.subject, msg))
    if report_path:
        click.echo("wrote %s" % report_path)
    sys.exit(0 if rep.passed else 1)


@main.group()
def fano() -> None:
    """Named quadruple families on the byte halves."""


@fano.command("dump")
def fano_dump() -> None:
    """Print every named family and the pair-partition registry in hex."""
    for name, quads in FAMILIES.items():
        click.echo("%-5s %2d  %s"
                   % (name, len(quads),
                      " ".join(quad_name(q) for q in quads)))
    reg = partition_registry()
    click.echo("registry: %d tags" % len(reg))
    for alias, p in reg.items():
        click.echo("%-4s %-5s %s"
                   % (alias, p.name,
                      " ".join("%x%x" % ab for ab in p.pairs)))


@main.command()
@click.argument("code_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["dot", "csv", "json"]),
              required=True)
@click.option("--out", type=OutPath(), required=True)
@click.option("--sts/--no-sts", "with_sts", default=True, show_default=True,
              help="label vertices with triple-system type tuples (dot "
              "and json only; csv has no vertex labels)")
def export(code_path: str, fmt: str, out: str, with_sts: bool) -> None:
    """Fold a code over its kernel and write the graph."""
    code = _load_code_checked(code_path)
    g = quotient_graph(code)
    if with_sts and fmt in ("dot", "json"):
        g.vertex_sts = [s for _, _, s in type_grid(code).rows]
    if fmt == "dot":
        atomic_write(out, g.to_dot() + "\n")
    elif fmt == "csv":
        atomic_write(out, g.to_csv())
    else:
        write_json(out, g.to_json())
    click.echo("wrote %s" % out)


# ---------------------------------------------------------------- pipeline


@main.command()
@click.option("--out-dir", type=click.Path(file_okay=False), default="run",
              show_default=True)
@_ATLAS
@click.option("--pair", "pairs", type=ClassPair(), multiple=True,
              help="class pair to scan (repeatable; default a fixed list)")
@click.option("--sample", type=click.IntRange(min=1), default=400,
              show_default=True, help="permutations sampled per pair")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
def pipeline(out_dir: str, atlas_path: str | None, pairs: tuple,
             sample: int, seed: int) -> None:
    """Run every stage and leave one artifact set per kernel dimension.

    Classifies the partitions, scans seeded permutation samples over the
    configured class pairs until one code per kernel dimension 5..9 is
    found, then analyzes, types and verifies each find.  Check verdicts
    are recorded, not fatal; only stage errors abort.  Per-kappa files
    an earlier run left in --out-dir for a kappa not found are removed.
    """
    pair_list = pairs or PRIORITY_PAIRS
    atlas = _load_atlas(atlas_path, [(cid, "--pair") for pair in pair_list
                                     for cid in pair])
    os.makedirs(out_dir, exist_ok=True)
    path = lambda name: os.path.join(out_dir, name)
    atlas.save(path("atlas.json"))
    for line in _census_lines(atlas):
        click.echo("[partitions] %s" % line)

    summary: dict = {"seed": seed, "sample": sample,
                     "pairs": [list(p) for p in pair_list], "found": {}}
    lin = atlas.linear_class
    linear, base = code_stage(atlas, lin, lin, IDENTITY8,
                              path("code_linear.json"))
    found = find_representatives(atlas, pairs=pair_list, per_pair=sample,
                                 seed=seed)
    click.echo("[scan] linear baseline kappa=%d, structure check skipped"
               % base.kernel)
    summary["linear"] = {**provenance(linear), "kernelDim": base.kernel}
    missing = sorted(PRESCRIPTIONS.keys() - found.keys())
    names = ("code_k%d.json", "analysis_k%d.json", "sts_k%d.csv",
             "report_k%d.json")  # a kappa's files, written in stage order
    for kap in missing:  # what an earlier run left for this kappa
        for name in names:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path(name % kap))
    if missing:
        click.echo("[scan] no code found for kappa in %s within %d "
                   "permutations per pair" % (missing, sample))

    for kap in sorted(found):
        code = found[kap]
        code_f, analysis_f, sts_f, report_f = (path(n % kap) for n in names)
        click.echo("[scan] kappa=%d from classes (%d,%d) sigma=%s"
                   % (kap, code.left, code.right, sigma_str(code.sigma)))
        save_code(code_f, code)
        analysis = analysis_stage(code, analysis_f)
        click.echo("[analyze] kappa=%d rank=%d cosets=%d"
                   % (kap, analysis["rank"], analysis["cosetCount"]))
        grid = types_stage(code, sts_f)
        click.echo("[sts-types] kappa=%d: %d vertices, %d distinct tuples%s"
                   % (kap, len(grid.rows), grid.distinct,
                      ", %d coordinates untabulated" % grid.unknown
                      if grid.unknown else ""))
        rep = report_stage(code, report_f)
        click.echo("[verify] %s" % rep.summary())
        summary["found"][str(kap)] = {
            **provenance(code), "overall": rep.overall,
            "passed": rep.passed, "untabulatedTypes": grid.unknown}

    write_json(path("summary.json"), summary)
    click.echo("[summary] wrote %s" % path("summary.json"))


if __name__ == "__main__":
    main()
