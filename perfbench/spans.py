"""In-memory span recorder for timing a program layer by layer.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it began (its parent). Spans are appended to compact
arrays while the program runs and written to a file once, at exit, so the
recorder adds no I/O to the timed work. Self time is a span's duration
minus the durations of its child spans.

Single-threaded use only: the open-span stack is one per recorder.
"""

import functools
import importlib
import json
import sys
import time
from array import array

_ARRAYS = (("name_ids", "H"), ("parents", "q"), ("starts", "q"), ("ends", "q"))


class Recorder:
    """Collects spans (clock in nanoseconds) and named counters."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names = []
        self.counters = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._name_index = {}
        self._open = []

    def name_id(self, name):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def wrap(self, fn, name):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self.name_id(name)
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends)
        open_spans, clock = self._open, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0)
            open_spans.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()

        return traced

    def add(self, counter, amount):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def dump(self, path):
        """Write names, counters and all spans: one JSON line, then raw arrays."""
        header = {"names": self.names, "counters": self.counters,
                  "spans": len(self.starts)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(fh)


def load(path):
    """Read a file written by ``Recorder.dump`` back into a Recorder."""
    rec = Recorder()
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        for attr, code in _ARRAYS:
            arr = array(code)
            arr.fromfile(fh, header["spans"])
            setattr(rec, attr, arr)
    for name in header["names"]:
        rec.name_id(name)
    rec.counters = header["counters"]
    return rec


def summarize(rec):
    """Map each span name to (calls, self seconds)."""
    starts, ends, parents = rec.starts, rec.ends, rec.parents
    own = array("q", (e - s for s, e in zip(starts, ends)))
    for i, p in enumerate(parents):
        if p >= 0:
            own[p] -= ends[i] - starts[i]
    calls = [0] * len(rec.names)
    self_ns = [0] * len(rec.names)
    for nid, t in zip(rec.name_ids, own):
        calls[nid] += 1
        self_ns[nid] += t
    return {name: (calls[i], self_ns[i] / 1e9) for i, name in enumerate(rec.names)}


def span_name(target):
    """Span name of an ``install`` target: its module and function name."""
    module, *path = target.split(".")
    return f"{module}.{path[-1]}"


def install(rec, package, targets):
    """Wrap ``package`` functions at every binding inside the package.

    ``targets`` are dotted paths below the package, such as
    ``"filters.lms_step"`` or ``"prng.RandomStream.next_gaussian"``. A span
    is named ``module.function``. Modules that import a function by name
    hold their own binding, so each module attribute that is the original
    function object is replaced too. A target that no longer exists is
    skipped: it reports zero calls instead of failing.
    """
    owners = [importlib.import_module(f"{package}.{t.split('.')[0]}")
              for t in targets]
    modules = [m for n, m in list(sys.modules.items())
               if n == package or n.startswith(package + ".")]
    for target, owner in zip(targets, owners):
        _, *path = target.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if not callable(original):
            continue
        traced = rec.wrap(original, span_name(target))
        setattr(owner, path[-1], traced)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
