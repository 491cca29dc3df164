"""The names the benchmark's tracer wraps still exist in the package.

perfbench/tracer.py looks up every (module, function) pair it traces with
getattr and wraps CLI callbacks by name, and the census workload calls
scan.scan_pair with explicit sigmas; a rename in pcl would break the
traced run, so this test reads those tables without changing them.
"""

import importlib.util
import inspect
import pathlib

import pcl.cli
from pcl import scan

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _callbacks(group):
    for cmd in getattr(group, "commands", {}).values():
        yield cmd.callback.__name__ if cmd.callback else None
        yield from _callbacks(cmd)


def test_traced_names_resolve():
    tracer = _tracer()
    for mod, name in tracer.TIMED + tracer.COUNTED:
        fn = getattr(importlib.import_module("pcl." + mod), name, None)
        assert callable(fn), "pcl.%s.%s" % (mod, name)
    assert set(tracer.CLI_COMMANDS) <= set(_callbacks(pcl.cli.main))


def test_scan_pair_accepts_explicit_sigmas():
    assert "sigmas" in inspect.signature(scan.scan_pair).parameters
