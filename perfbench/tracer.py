"""In-memory spans around conceptscope's layer functions.

``Tracer.install`` replaces each target function with a timing wrapper
in every loaded ``conceptscope`` module namespace that holds it, which
is where callers look it up (``conceptscope.report.symmetric_measure``,
``conceptscope.cli.load_dataset`` and so on); no package file changes.
A span is ``(id, parent, name, start, end, op, thread)``. Spans opened
on a worker thread with no open span of their own take the innermost
open span of the op's thread as parent, and every span carries the id
of the op that was running, so fan-out work stays attributed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows(dataset) -> dict[str, float]:
    return {"rows": len(dataset)}


def _cells(cells) -> dict[str, float]:
    return {"cells": len(cells), "na_cells": sum(1 for c in cells if c.value is None)}


# Layer functions that get spans, as "<module>.<function>".
TARGETS = [
    "dataset.load_dataset", "dataset.with_ground_truth_predictions",
    "measures.symmetric_measure", "measures.class_conditioned_measure",
    "measures.concept_conditioned_measure",
    "report.compute_measure_table", "report.render_csv", "report.render_json",
    "report.render_svg",
    "completeness.completeness_closed_form", "completeness.completeness_brute_force",
    "verify.run_axioms_suite", "verify.run_theorem1_suite", "verify.run_theorem2_suite",
    "synthetic.generate_dataset", "synthetic.split_example", "synthetic.theorem2_trial",
    "synthetic.sample_spherical_cap",
    "prompts.classify", "prompts.edit_prompt", "prompts.evaluate",
    "embeddings.load_vector_file", "tcav.class_conditioned_from_embeddings",
    "votes.load_votes_csv", "votes.metrics_at_k",
]
# Counts taken from a target's result, and targets whose spans also
# record process CPU time (the suites fan out over worker threads).
COUNTS = {"dataset.load_dataset": _rows, "report.compute_measure_table": _cells}
CPU = {"verify.run_axioms_suite", "verify.run_theorem1_suite", "verify.run_theorem2_suite"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.cpu: dict[int, float] = {}
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op_id: int | None = None
        self._op_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> tuple[list[int], int | None, int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._op_stack[-1] if self._op_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, parent, sid

    def _exit(self, stack: list[int], parent: int | None, sid: int, name: str,
              start: float) -> None:
        end = time.perf_counter()
        stack.pop()
        self.spans.append((sid, parent, name, start, end, self._op_id, threading.get_ident()))

    @contextmanager
    def op(self, op_id: int, name: str):
        """Root span of one op; the calling thread's stack is the op's stack."""
        self._op_id = op_id
        self._op_stack = self._stack()
        stack, parent, sid = self._enter()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(stack, parent, sid, f"op.{name}", start)
            self._op_id = None
            self._op_stack = []

    def _wrap(self, name: str, fn, count, cpu: bool):
        # Plain try/finally rather than a context manager: some targets
        # run tens of thousands of times per op.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, parent, sid = self._enter()
            cpu_start = time.process_time() if cpu else 0.0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                if cpu:
                    self.cpu[sid] = time.process_time() - cpu_start
                self._exit(stack, parent, sid, name, start)
            if count is not None:
                with self._lock:
                    for key, amount in count(result).items():
                        self.counts[f"{name}.{key}"] += amount
            return result

        return traced

    def install(self) -> None:
        for name in TARGETS:
            module, function = name.split(".")
            original = getattr(importlib.import_module(f"conceptscope.{module}"), function)
            wrapper = self._wrap(name, original, COUNTS.get(name), name in CPU)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "conceptscope" and not mod_name.startswith("conceptscope."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds, calls and CPU seconds.

        Self time is a span's duration minus the union of its children's
        intervals, so overlapping children on worker threads count once.
        """
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"s": 0.0, "self_s": 0.0, "calls": 0, "cpu_s": 0.0}
        )
        for sid, _, name, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            entry = out[name]
            entry["s"] += end - start
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
            entry["cpu_s"] += self.cpu.get(sid, 0.0)
        return dict(out)

    def write(self, path) -> None:
        """Write every span as one JSON line; called once, at the end."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, op, thread in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end, "op": op,
                                      "thread": thread}))
                out.write("\n")
