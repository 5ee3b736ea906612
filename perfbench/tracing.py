"""Outside-in layer tracing of mlrfit.

While a ``Tracer`` is entered, every public module-level function of the
traced mlrfit modules is replaced by a wrapper that records a span: name,
parent span, start, end, and optionally a value taken from the result.
The solvers call each other through module attributes (``lad.dual_lp``,
``scoring.log_likelihood``, ``admm.responsibilities``, ...), so the
wrappers see every call across a layer boundary without any change to the
package. Leaving the context restores the original functions.

Spans stay in memory; ``dump`` writes them out once the run ends.
"""

import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager

# Called once per serialized float; a span there would dwarf the work.
UNTRACED = {"io.fmt"}
# Names a module binds to a function defined elsewhere, traced under the
# binding module's name because that is the attribute its callers use.
ALIASES = {"admm": ("responsibilities",)}
# Result -> recorded value, for functions whose result carries a count.
VALUES = {"lad.irls": lambda result: int(result[1])}


def traced_functions(modules):
    """(module, attribute, span name) for every function the tracer wraps."""
    found = []
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            own = value.__module__ == module.__name__
            if (own or attr in ALIASES.get(short, ())) and f"{short}.{attr}" not in UNTRACED:
                found.append((module, attr, f"{short}.{attr}"))
    return found


class Tracer:
    def __init__(self, modules):
        self.targets = traced_functions(modules)
        # [name, parent index or -1, start, end, value]
        self.spans = []
        self._stack = []
        self._originals = []

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code, e.g. one paired cell."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name):
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        return record

    def _close(self, record):
        record[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        value_of = VALUES.get(name)

        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if value_of is not None:
                record[4] = value_of(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for module, attr, name in self.targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    def totals(self):
        """name -> {"calls", "seconds", "self_seconds", "values"} over all spans.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the benchmark is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "values": []})
        for index, (name, _, start, end, value) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["seconds"] += end - start
            entry["self_seconds"] += end - start - child[index]
            if value is not None:
                entry["values"].append(value)
        return dict(out)

    def dump(self, path):
        """Write every span as [id, parent, name, start_s, end_s, value]."""
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [i, parent, name, round(start - origin, 9), round(end - origin, 9), value]
            for i, (name, parent, start, end, value) in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"fields": ["id", "parent", "name", "start_s", "end_s", "value"],
                       "spans": rows}, handle)
