"""In-memory span tracer that wraps gausstomo's public functions from outside.

Modules bind functions with ``from .x import f``, so a function is reachable
through several module globals (``derive_seed`` through ``tomography`` and
``experiments``, ``evolve`` through ``device``). :func:`install` therefore
replaces every global across ``gausstomo.*`` that *is* a public function
object, not only the one in its home module. ``GaussianState`` is counted by
wrapping its ``__post_init__`` and ``SimulatedDevice.probe_and_measure`` is
wrapped on the class.

Spans carry name, start, end, parent span and run id; they stay in memory and
are written out by :meth:`Tracer.write` when the run ends. A span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("core", "randgen", "device", "tomography", "experiments", "cli")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self._stack = [-1]
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn, before=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: number of calls and self seconds."""
        child_time: dict[int, float] = defaultdict(float)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, parent, name, start, end in self.spans:  # children end before parents
            duration = end - start
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += duration - child_time.pop(sid, 0.0)
            child_time[parent] += duration
        return dict(out)

    def write(self, path: str) -> None:
        """A header line with the run id and field names, then one JSON
        array per span: id, parent (-1 for none), name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run": self.run_id,
                                 "fields": ["id", "parent", "name", "start", "end"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def _public_functions(module) -> dict:
    short = module.__name__.rsplit(".", 1)[-1]
    return {
        obj: f"{short}.{name}"
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


def install(tracer: Tracer, before: dict | None = None):
    """Wrap gausstomo's public functions; returns a callable that undoes it.

    ``before`` maps a span name to a callable run with the same arguments
    just before the wrapped call (for per-call accounting).
    """
    from gausstomo import core, device

    before = before or {}
    targets = {}
    for layer in LAYERS:
        targets.update(_public_functions(sys.modules[f"gausstomo.{layer}"]))
    wrappers = {fn: tracer.wrap(name, fn, before.get(name)) for fn, name in targets.items()}

    undo = []
    modules = [m for key, m in sys.modules.items() if key == "gausstomo" or key.startswith("gausstomo.")]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
                undo.append((module, name, obj))
    for cls, attr, name in ((core.GaussianState, "__post_init__", "core.GaussianState"),
                            (device.SimulatedDevice, "probe_and_measure", "device.probe_and_measure")):
        original = cls.__dict__[attr]
        setattr(cls, attr, tracer.wrap(name, original, before.get(name)))
        undo.append((cls, attr, original))

    def uninstall():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall
