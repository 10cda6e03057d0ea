"""Spans and counters recorded around calls into the program's layers.

The benchmark never edits the program. In a traced run it replaces the
module attributes through which one layer calls the next (for example
``mixedcorr.estimator.weight_matrix``) with timing wrappers, and puts the
originals back when the run ends. Each wrapper records one span per call:
its duration, and its self time (duration minus the time of the spans it
caused). Spans are aggregated in memory by name.
"""

from __future__ import annotations

import functools
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span and counter store; with ``enabled=False`` every hook is a no-op."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.durations = defaultdict(list)
        self.self_time = Counter()
        self.counts = Counter()
        self.values = defaultdict(list)  # observed results, by name
        self._child_time = []  # one accumulator per open span

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` timed as span ``name``.

        ``observe(result, seconds)`` sees each result with its span duration.
        """
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += elapsed
                self.durations[name].append(elapsed)
                self.self_time[name] += elapsed - children
            if observe is not None:
                observe(result, elapsed)
            return result

        return traced

    def counted(self, name, fn):
        """Return ``fn`` with a call counter and no span."""
        if not self.enabled:
            return fn

        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextmanager
    def installed(self, patches):
        """Swap in wrappers for ``(owner, attribute, wrapper)`` triples."""
        saved = []
        try:
            if self.enabled:
                for owner, attr, wrapper in patches:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def calls(self, name):
        return len(self.durations[name])

    def median(self, name):
        values = self.durations[name]
        return statistics.median(values) if values else 0.0

    def events(self):
        """Spans and counted calls recorded so far."""
        return sum(map(len, self.durations.values())) + sum(self.counts.values())

    def mean_self(self, name):
        n = self.calls(name)
        return self.self_time[name] / n if n else 0.0


def wrapper_cost(calls=20000, repeats=5):
    """Seconds one traced call adds to a direct call (best of ``repeats``)."""
    probe = Tracer(enabled=True)

    def noop():
        return None

    traced = probe.wrap("probe", noop)

    def loop(fn):
        start = perf_counter()
        for _ in range(calls):
            fn()
        return perf_counter() - start

    direct = min(loop(noop) for _ in range(repeats))
    wrapped = min(loop(traced) for _ in range(repeats))
    return max(wrapped - direct, 0.0) / calls
