"""Spans recorded from the benchmark around calls into numsgp.

A span is (name, start_ns, end_ns, parent, root): parent and root are
indices into the span list, -1 for none, and every span caused by one
top-level call shares that call's root.  Spans stay in memory and are
written out when the run ends.  The layer of a span is the first
component of its name (cli, core, maxgen, campaign); its self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._muted = 0

    def call(self, name: str, fn, *args, mute: bool = False):
        """fn(*args) inside a span; with mute, no spans nest inside it."""
        if self._muted:
            return fn(*args)
        spans = self.spans
        stack = self._stack
        parent = stack[-1] if stack else -1
        root = spans[parent][4] if stack else len(spans)
        index = len(spans)
        spans.append((name, 0, 0, parent, root))
        stack.append(index)
        if mute:
            self._muted += 1
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            if mute:
                self._muted -= 1
            stack.pop()
            spans[index] = (name, start, end, parent, root)

    def wrap(self, name: str, fn, mute: bool = False):
        def traced(*args):
            return self.call(name, fn, *args, mute=mute)
        return traced

    @contextmanager
    def patched(self, targets):
        """Wrap each (owner, attribute, span name, mute) for the duration."""
        saved = []
        try:
            for owner, attr, name, mute in targets:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, mute))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def self_times(self) -> dict:
        """{span name: [self time in ns, number of spans]}."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, [0, 0])
            entry[0] += end - start - child[i]
            entry[1] += 1
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "root"]
        doc["spans"] = self.spans
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


def span_cost_ns(rounds: int = 20000) -> float:
    """Median cost of recording one span around a call that does nothing."""
    samples = []
    for _ in range(5):
        tracer = Tracer()
        noop = tracer.wrap("bench.noop", int)
        start = perf_counter_ns()
        for _ in range(rounds):
            noop()
        traced = perf_counter_ns() - start
        start = perf_counter_ns()
        for _ in range(rounds):
            int()
        bare = perf_counter_ns() - start
        samples.append((traced - bare) / rounds)
    samples.sort()
    return samples[len(samples) // 2]
