"""Spans around the program's layers, installed from the benchmark's files.

``Tracer.install`` replaces each traced function wherever the package (or
scipy, for the calls the package makes into it) binds it, and
``Tracer.remove`` puts the originals back, so untimed and untraced code
paths carry no wrapper.  A span's self time is its duration minus the time
its child spans cover.  Spans are aggregated in memory: calls and self time
per name, plus the durations of the few spans whose medians are reported.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.durations = defaultdict(list)  # (name, key) -> [seconds]
        self.case_class = ""
        self._stack = []  # [start, child seconds] per open span
        self._patches = []

    def wrap(self, name, fn, key=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = [perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - frame[0]
                tracer._stack.pop()
                tracer.calls[name] += 1
                tracer.self_s[name] += duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                if key is not None:
                    tracer.durations[name, key(tracer, args, kwargs)].append(duration)

        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets, scopes):
        """``targets``: (span name, owner, attribute, key or None).

        The function found at ``owner.attribute`` is replaced there and in
        every loaded module whose name starts with one of ``scopes`` and
        that holds the same object.
        """
        for name, owner, attr, key in targets:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, key)
            holders = [owner] + [m for mod_name, m in list(sys.modules.items())
                                 if mod_name.startswith(scopes)
                                 and m is not owner
                                 and getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def remove(self):
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def median(self, name, key, scale):
        values = self.durations.get((name, key), [])
        return statistics.median(values) * scale if values else 0.0
