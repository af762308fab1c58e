"""Spans around the library's public functions, installed from outside.

`Tracer.installed()` wraps every public module-level function of the traced
delpezzo modules and patches each place that holds it: its own module, the
package namespace and every module that re-imported it (for example
`delpezzo.lct.resolve_germ`).  Leaving the block restores the original
objects, so the untraced call path never runs through a wrapper.

A span records (id, parent id, item id, name, start, end) in memory.  Self
time is a span's duration minus the durations of its direct children.  No
layer of the library queues or waits for another, so spans carry no wait
time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from functools import wraps

# Counters read off public return values at the layer boundary.
def _count_resolution(counts, res):
    counts["resolution.blowups"] += res.blowups
    counts["resolution.extension_nodes"] += sum(
        "at root of" in node.site for node in res.nodes)


def _count_scan(counts, verdict):
    counts["lemma_verify.candidates"] += len(verdict.records)
    counts["lemma_verify.survivors"] += len(verdict.survivors)


def _count_newton(counts, report):
    counts["lct.newton_exact"] += bool(report.exact)


RESULT_COUNTERS = {
    "resolution.resolve_germ": _count_resolution,
    "lemma_verify.lemma31_scan": _count_scan,
    "lemma_verify.lemma51_scan": _count_scan,
    "lct.newton_lct": _count_newton,
}
COUNTER_NAMES = ("resolution.blowups", "resolution.extension_nodes",
                 "lemma_verify.candidates", "lemma_verify.survivors",
                 "lct.newton_exact")


def public_functions(module) -> dict:
    """Public functions defined in `module` itself (not re-imported ones)."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


PACKAGE = "delpezzo"


def _package_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)
        self._stack: list[list] = []     # [span id, start, child time]
        self._item = None      # spans are recorded only inside an item
        self._patches: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _enter(self):
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append([sid, time.perf_counter(), 0.0])
        return sid

    def _exit(self, name: str):
        end = time.perf_counter()
        sid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][2] += dur
        self.spans[sid] = (sid, parent, self._item, name, start, end)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child

    @contextmanager
    def item(self, item_id: int, name: str):
        """Root span for one benchmark item; layer spans nest under it."""
        self._item = item_id
        self._enter()
        try:
            yield
        finally:
            self._exit(name)
            self._item = None

    def _wrap(self, name: str, fn):
        count = RESULT_COUNTERS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            if self._item is None:
                return fn(*args, **kwargs)
            self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name)
            if count is not None:
                count(self.counts, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ----------------------------------------------------------

    @contextmanager
    def installed(self):
        wrappers = {}
        for layer in self.layers:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        try:
            for module in _package_modules():
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrappers[value])
            yield self
        finally:
            while self._patches:
                module, attr, value = self._patches.pop()
                setattr(module, attr, value)

    def write(self, path) -> None:
        """Spans as JSON lines: id, parent, item, name, start_s, end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")


def wrapped_attributes() -> list[str]:
    """Module attributes that are currently tracer wrappers (should be none)."""
    return [f"{module.__name__}.{attr}" for module in _package_modules()
            for attr, value in vars(module).items()
            if getattr(value, "__wrapped_by_tracer__", False)]
