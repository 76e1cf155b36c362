"""Span recorder and the hooks that feed it.

A hook wraps one public function of an nrpos module from outside the
package. nrpos modules import functions by name (``simulate`` holds its
own reference to ``channel.realize_budget_link``), so installing a hook
rebinds the target in its defining module and in every loaded ``nrpos``
module that holds it. Methods are rebound on their class.

Spans stay in memory while the run is timed and are written out after it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    request: int  # drop index; -1 outside a drop
    failed: bool = False
    extra: int = 0  # hook-specific count: transform points, solver iterations


@dataclass(frozen=True)
class Hook:
    name: str  # span name
    module: str  # module that defines the target
    attr: str  # attribute path in that module, e.g. "Simulator.run_drop"
    caller: str | None = None  # record only calls made from this module
    request_arg: int | None = None  # position of the drop index among the arguments
    failed: Callable[[object], bool] | None = None  # result -> failed, besides raising
    extra: Callable[[object], int] | None = None  # result -> count summed into Span.extra


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def call(self, hook: Hook, target, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        if hook.request_arg is not None:
            request = int(args[hook.request_arg])
        else:
            request = self.spans[parent].request if parent >= 0 else -1
        span = Span(hook.name, time.perf_counter(), 0.0, parent, request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = target(*args, **kwargs)
        except Exception:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if hook.failed is not None:
            span.failed = bool(hook.failed(result))
        if hook.extra is not None:
            span.extra = int(hook.extra(result))
        return result

    def install(self, hook: Hook) -> bool:
        """Wrap the hook's target; False if the target no longer exists."""
        try:
            owner = importlib.import_module(hook.module)
        except ImportError:
            return False
        *path, last = hook.attr.split(".")
        try:
            for part in path:
                owner = getattr(owner, part)
            target = getattr(owner, last)
        except AttributeError:
            return False

        @functools.wraps(target)
        def wrapper(*args, **kwargs):
            if hook.caller is not None and \
                    sys._getframe(1).f_globals.get("__name__") != hook.caller:
                return target(*args, **kwargs)
            return self.call(hook, target, args, kwargs)

        if path:
            setattr(owner, last, wrapper)
            return True
        modules = [owner] + [
            m for name, m in list(sys.modules.items())
            if name == "nrpos" or name.startswith("nrpos.")
        ]
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is target:
                    setattr(module, key, wrapper)
        return True

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, failed calls, summed extra, inclusive and
        self seconds. Self time is a span's duration minus the part of it
        covered by its direct children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            t = out.setdefault(s.name, {"calls": 0, "fail": 0, "extra": 0,
                                        "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["fail"] += int(s.failed)
            t["extra"] += s.extra
            t["s"] += s.end - s.start
            t["self_s"] += s.end - s.start - covered
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")
