"""Spans recorded from outside the program, and the per-layer arithmetic.

The tracer wraps public functions and methods of `speechslu` in place:
every module attribute that binds a wrapped function is replaced (for
example `render_chat` is bound in `prompts`, `model` and `training`), and
methods are replaced on their class. `uninstall()` restores the originals.

A span is (name, start_ns, end_ns, parent index, request id). Spans live
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapped__"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[object] = []
        self.request: object = None
        self.counters: dict[tuple[object, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.request, name)] += value

    def spans(self):
        return zip(self.names, self.starts, self.ends, self.parents, self.requests)

    # -- installing wrappers -------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """A traced stand-in for `fn`; `observe(tracer, args, result)` records counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if observe is not None:
                observe(tracer, args, result)
            return result

        setattr(traced, MARK, name)
        return traced

    def patch_function(self, module, attr: str, name: str, observe=None) -> None:
        """Replace `module.attr` in every speechslu module that binds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, observe)
        for mod in _speechslu_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(self, cls, attr: str, name: str, observe=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, observe))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path) -> int:
        """Write spans as gzip'd JSON lines: [name, start_ns, end_ns, parent, request]."""
        n = 0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
                n += 1
        return n


def _speechslu_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "speechslu" or name.startswith("speechslu."))]


def installed_wrappers() -> list[str]:
    """Names of span wrappers currently bound anywhere in speechslu."""
    found = []
    for mod in _speechslu_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found.extend(f"{mod.__name__}.{value.__name__}.{attr}"
                             for attr, member in vars(value).items()
                             if hasattr(member, MARK))
    return sorted(found)


# ---------------------------------------------------------------------------
# arithmetic over a span list
# ---------------------------------------------------------------------------

def covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of [lo, hi) covered by the union of `intervals`."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times_ns(spans) -> list[int]:
    """Each span's duration minus the part of it covered by its child spans."""
    spans = list(spans)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        out.append(end - start - covered_ns(start, end, children.get(i, ())))
    return out


def ancestor_names(spans, i: int):
    """Names of the spans enclosing span i, innermost first."""
    parent = spans[i][3]
    while parent >= 0:
        yield spans[parent][0]
        parent = spans[parent][3]


def cache_hit_ratio(spans, lookup: str, miss_child: str, requests=None) -> tuple[int, int]:
    """(hits, lookups): a lookup span with no `miss_child` span directly under
    it hit. With `requests`, only lookups of those request ids count."""
    lookups = {i for i, s in enumerate(spans)
               if s[0] == lookup and (requests is None or s[4] in requests)}
    missed = {s[3] for s in spans if s[0] == miss_child and s[3] in lookups}
    return len(lookups) - len(missed), len(lookups)
