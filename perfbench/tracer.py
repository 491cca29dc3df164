"""Spans around the public functions of the pcl layers, recorded from outside.

Every traced function is replaced by a wrapper in every pcl module that
binds it, because cli, scan, sts, fold and structure import kernel_words
and friends by name; patching only the defining module would miss most
calls.  Each thread keeps its own span stack (ioutil.pmap types cosets in
a thread pool), so a span's self time subtracts only the children that
ran on its own thread.  Spans stay in memory and are written out once,
when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

# (module, function) pairs wrapped with a timed span.
TIMED = (
    ("partitions", "enumerate_partitions7"),
    ("partitions", "orbit_classify7"),
    ("partitions", "canonical_form"),
    ("perfect", "enumerate_perfect7"),
    ("canon", "minimal_image7"),
    ("canon", "minimal_image8"),
    ("canon", "minimal_quadset8"),
    ("doubling", "double"),
    ("algebra", "kernel_words"),
    ("algebra", "rank_of"),
    ("algebra", "cosets"),
    ("scan", "scan_pair"),
    ("scan", "find_representatives"),
    ("sts", "pasch_profile"),
    ("sts", "derived_sts"),
    ("sts", "class_type_tuple"),
    ("sts", "fully_tabulated"),
    ("structure", "full_report"),
    ("structure", "verify_intra_links"),
    ("fold", "quotient_graph"),
    ("ioutil", "save_code"),
    ("ioutil", "write_json"),
)

# Called hundreds of thousands of times per atlas; a span each would cost
# more than the call, so only the calls are counted.
COUNTED = (("canon", "relabel_np"),)

# CLI subcommands traced by their callback, as cli.<callback name>.
CLI_COMMANDS = ("partitions_enumerate", "pipeline")

# Return values folded into counters: name -> (counter suffix, value).
OBSERVED = {
    "sts.fully_tabulated": lambda r: ("rejected", int(not r)),
    "scan.find_representatives": lambda r: ("kept", len(r)),
}


class Tracer:
    """Records (name, start, end, parent, thread) spans and call counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # name, start, end, parent, thread, child_s, id
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn):
        observe = OBSERVED.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][6] if stack else None
            rec = [name, 0.0, 0.0, parent, threading.get_ident(), 0.0, 0]
            with self._lock:
                rec[6] = len(self.spans)
                self.spans.append(rec)
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][5] += rec[2] - rec[1]
            if observe is not None:
                key, value = observe(out)
                with self._lock:
                    self.counts["%s.%s" % (name, key)] += value
            return out

        return wrapper

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions wherever a loaded pcl module binds them."""
        import pcl.cli  # noqa: F401  (loads every layer module)

        modules = [m for n, m in sys.modules.items()
                   if (n == "pcl" or n.startswith("pcl.")) and m is not None]
        for kind, table in ((self.timed, TIMED), (self.counted, COUNTED)):
            for mod, fn_name in table:
                orig = getattr(sys.modules["pcl." + mod], fn_name)
                wrapped = kind("%s.%s" % (mod, fn_name), orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapped)
        for cmd in _commands(pcl.cli.main):
            if cmd.callback is not None and cmd.callback.__name__ in CLI_COMMANDS:
                cmd.callback = self.timed("cli." + cmd.callback.__name__,
                                          cmd.callback)

    def summary(self) -> dict:
        """Per-function calls, self and total seconds, plus counters."""
        out: dict = {}
        for name, start, end, _, _, child, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "self_s": 0.0,
                                        "total_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child
        return {"functions": out, "counts": dict(self.counts)}

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, thread, _, idx in self.spans:
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "thread": thread}) + "\n")


def _commands(group):
    for cmd in getattr(group, "commands", {}).values():
        yield cmd
        yield from _commands(cmd)
