"""Span tracer wrapped around the program's layer boundaries from outside.

`Tracer.patched()` replaces the functions listed in `boundaries()` with
wrappers, at every binding the calling layer uses, and restores the
originals on exit.  A wrapper records nothing unless an operation is open
(`begin`/`end`), so the benchmark's own checks are never traced.

Per operation kind and span name it keeps calls, total time and self time
(the span minus the time its child spans cover), computed online from a
stack.  Spans themselves (name, start, end, parent, instance id) are kept
in memory up to MAX_SPANS and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

MAX_SPANS = 50_000  # spans kept for the dump; statistics count every span


def boundaries():
    """(owner, attribute, span name) for every wrapped binding.

    Leaf layers are wrapped where a calling layer imported them, so calls
    inside a layer stay part of its self time.
    """
    import scipy.optimize

    from spincollapse import automaton, pfn, solver

    targets = [
        (solver, "solve_collapse", "solver.solve_collapse"),
        (solver, "solve_collapse_closed_form", "solver.solve_collapse_closed_form"),
        (solver, "trace_level_sets", "solver.trace_level_sets"),
        (pfn, "outcome_probability", "pfn.outcome_probability"),
        (automaton.ObserverAutomaton, "run", "automaton.run"),
        (automaton.ObserverAutomaton, "step", "automaton.step"),
        (automaton.RunResult, "to_jsonl", "automaton.to_jsonl"),
    ]
    for caller in (solver, automaton):
        for attr, value in sorted(vars(caller).items()):
            if value is scipy.optimize.brentq:
                targets.append((caller, attr, "scipy.brentq"))
            elif (inspect.isfunction(value) and value.__module__.startswith("spincollapse.")
                  and value.__module__ != caller.__name__):
                targets.append((caller, attr, f"{value.__module__.split('.')[-1]}.{attr}"))
    return targets


class Tracer:
    def __init__(self):
        # op kind -> span name -> [calls, total ns, self ns]
        self.stats: dict[str, dict[str, list[int]]] = {}
        self.spans: list[tuple] = []
        self.span_count = 0
        self.instance: str | None = None
        self._kind_stats: dict[str, list[int]] = {}
        self._stack: list[list] = []  # [span id, child ns, start ns]

    def _enter(self) -> list:
        frame = [self.span_count, 0, time.perf_counter_ns()]
        self.span_count += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = time.perf_counter_ns()
        stack = self._stack
        stack.pop()
        span_id, child_ns, start = frame
        duration = end - start
        entry = self._kind_stats.get(name)
        if entry is None:
            entry = self._kind_stats[name] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_ns
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end,
                               parent[0] if parent else None, self.instance))

    def begin(self, instance: str, kind: str) -> None:
        """Open the root span of one operation."""
        self.instance = instance
        self._kind_stats = self.stats.setdefault(kind, {})
        self._root = self._enter()

    def end(self) -> None:
        self._exit("bench.op", self._root)
        self.instance = None

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.instance is None:
                return fn(*args, **kwargs)
            frame = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame)
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name in boundaries():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, instance in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                     "end_ns": end, "parent": parent,
                                     "instance": instance}) + "\n")
