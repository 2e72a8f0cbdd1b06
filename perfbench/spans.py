"""Call tracing for the traced run.

The tracer wraps public functions of the program where their callers
bind them (every module attribute that holds the original function), so
the traced run executes the same call graph as the untraced one.  Each
call is a span with a name, a start, an end and a parent span; spans are
folded as they close into per-(tag, name, parent) aggregates, so traced
memory stays flat over millions of calls.  A span's self time is its
duration minus the time covered by its child spans.

Nothing under ``src/`` is modified: wrappers are installed on the loaded
modules and removed again by ``uninstall``.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One traced function: metric name ``module.function``, the module
    that defines it, and the attribute path inside that module."""

    name: str
    module: str
    attr: str
    sized: bool = False  # first argument is a forest; record its vertex count


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    vertices: int = 0


class Tracer:
    """Stack of open spans plus the aggregates of closed ones."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = True
        self.tag = None
        self.spans: dict[tuple, Aggregate] = {}
        self.events: Counter = Counter()
        self.missing: set[str] = set()
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def leave(self, vertices: int = 0) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.tag, name, parent[0] if parent is not None else None)
        agg = self.spans.get(key)
        if agg is None:
            agg = self.spans[key] = Aggregate()
        agg.calls += 1
        agg.total_s += duration
        agg.self_s += duration - child_s
        agg.vertices += vertices

    def take(self) -> dict:
        """Hand over the aggregates recorded so far and start afresh; the
        branch events stay with the tracer."""
        spans, self.spans = self.spans, {}
        return spans

    @contextmanager
    def paused(self):
        """Run the block untraced (the benchmark's own checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, target: Target, fn, observe=None):
        """A stand-in for fn that records one span per call (one per
        resumption for generator functions)."""
        tracer = self
        name = target.name
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not tracer.enabled:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                    else:
                        tracer.enter(name)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer.leave()
                    yield item
            return traced_gen

        sized = target.sized

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(getattr(args[0], "n", 0) if sized and args else 0)
            if observe is not None:
                observe(tracer, result)
            return result
        return traced

    def install(self, targets, package: str, observers=None) -> None:
        """Wrap every target at each binding inside `package`'s loaded
        modules.  A target that no longer exists is recorded in
        ``missing`` and reports zero calls."""
        observers = observers or {}
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for target in targets:
            module = sys.modules.get(target.module)
            owner_path, _, attr = target.attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, attr, None) if owner is not None else None
            if raw is None:
                self.missing.add(target.name)
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(target, raw.__func__,
                                                observers.get(target.name)))
                setattr(owner, attr, wrapped)
                self._restore.append((owner, attr, raw))
                continue
            wrapped = self.wrap(target, raw, observers.get(target.name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()
