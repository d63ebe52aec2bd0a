"""Per-layer spans and counts for the benchmark's traced pass.

``Tracer`` replaces, by name and only inside its ``with`` block, the public
functions that ``agentsim.cli`` and ``agentsim.engine`` call, and puts the
originals back on exit. It changes no file of the program and nothing
outside the block, so the untimed and timed passes run the program as a
user would.

- Timed names become spans: name, start, end and the span that caused it.
  Every span of one cell shares the cell's identifier.
- Counted names (the contention rate functions the engine and the replay
  audit call) are counted under the innermost open span, so the engine's
  rate evaluations and the audit's are told apart. Counting costs about a
  microsecond per call, several times the call itself, so it is done only
  when an engine module is given, in a pass whose times are not reported.
- The arguments and results of the timed calls are kept per cell, so the
  benchmark can check and replay them once the block has closed.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

# cli-level name -> layer span name
TIMED = {
    "load_profile": "profiles.load",
    "load_models": "profiles.load",
    "build_workload": "workload.build",
    "simulate": "engine.simulate",
    "replay_check": "engine.replay",
    "summarize": "metrics.summarize",
    "serialize_trace": "engine.serialize",
}
# engine-level names counted, not timed: calling the clock around each of
# millions of calls would cost more than the calls
COUNTED = ("cpu_rate", "gpu_rate", "thread_pool_rate")


class Tracer:
    """Spans, and counts if ``engine_module`` is given, for the cells run
    inside one ``with`` block."""

    def __init__(self, cli_module, engine_module=None):
        self._targets = [(cli_module, name) for name in TIMED]
        if engine_module is not None:
            self._targets += [(engine_module, name) for name in COUNTED]
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[dict] = []
        self._cell = None
        self._layer = None  # name of the innermost open span
        self.spans: list[dict] = []
        self.rate_calls: Counter = Counter()  # (cell, enclosing span name) -> calls
        # cell -> cli name -> (args, kwargs, result) of its last call
        self.captured: dict[str, dict[str, tuple]] = {}

    def __enter__(self):
        for module, name in self._targets:
            if not hasattr(module, name):  # a layer renamed away is not traced
                continue
            original = getattr(module, name)
            self._saved.append((module, name, original))
            if name in TIMED:
                wrapper = self._timed(TIMED[name], name, original)
            else:
                wrapper = self._counted(original)
            setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()
        return False

    @contextlib.contextmanager
    def cell(self, cell_id: str):
        """Open the root span ``cli.run`` for one cell."""
        self._cell = cell_id
        self.captured[cell_id] = {}
        try:
            with self._span("cli.run"):
                yield
        finally:
            self._cell = None

    @contextlib.contextmanager
    def _span(self, name: str):
        span = {
            "id": len(self.spans),
            "cell": self._cell,
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        self._layer = name
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self._layer = self._stack[-1]["name"] if self._stack else None

    def _timed(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._span(layer):
                result = fn(*args, **kwargs)
            self.captured[self._cell][name] = (args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn):
        calls = self.rate_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[self._cell, self._layer] += 1
            return fn(*args, **kwargs)

        return wrapper
