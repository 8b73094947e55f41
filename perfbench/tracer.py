"""In-memory span tracer that wraps public names of the ratecost modules.

A target names an attribute the way its caller looks it up: a module
global such as ``ratecost.cli.synthesize`` (what ``cli.cmd_synth`` calls)
or a class attribute such as ``ratecost.coder.ContextCodebook.encode``.
Installing a tracer replaces every target that exists with a timing
wrapper; leaving the ``installed()`` block puts each original object back,
also when the block raises.  A target whose name no longer exists is
recorded in ``missing`` and never invented.

Each call of a wrapped name becomes a span ``(id, name, start, end,
parent id, operation id)`` kept in memory, except for targets marked
``spans=False`` (per-symbol hot paths), which are only counted and timed.
Every call, spanned or not, adds its duration to its caller's child time,
so self time is exact along the stack.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable

WRAPPER_FLAG = "__perfbench_wrapper__"


@dataclass(frozen=True)
class Target:
    path: str
    name: str
    spans: bool = True
    keep_result: bool = False
    size: Callable | None = None     # result -> number summed into the stat
    note: Callable | None = None     # (args, kwargs) -> value stored on the span


def _arg(index: int, name: str):
    """Note the argument at ``index`` (or keyword ``name``) on each span."""
    def note(args, kwargs):
        return args[index] if len(args) > index else kwargs.get(name)
    return note


TARGETS: tuple[Target, ...] = (
    Target("ratecost.cli.main", "cli.main"),
    Target("ratecost.cli.load_spec", "specio.load"),
    Target("ratecost.specio.load_spec", "specio.load"),
    Target("ratecost.cli.synthesize", "scheme.synthesize", keep_result=True),
    Target("ratecost.cli.run_trials", "scheme.run_trials",
           note=_arg(1, "num_trials")),
    Target("ratecost.scheme.run_trials", "scheme.run_trials",
           note=_arg(1, "num_trials")),
    Target("ratecost.cli.verify_sandwich", "scheme.verify_sandwich"),
    Target("ratecost.scheme.synthesize", "scheme.synthesize", keep_result=True),
    Target("ratecost.scheme.solve_rate_cost", "solver.rate_cost"),
    Target("ratecost.solver.solve_rate_cost", "solver.rate_cost"),
    Target("ratecost.solver.sweep_curve", "solver.sweep"),
    Target("ratecost.solver.solve_lagrangian", "solver.lagrangian", note=_arg(1, "mu")),
    Target("ratecost.solver._cost_dp", "solver.cost_dp"),
    Target("ratecost.solver._Enumeration.gradients", "solver.gradients",
           spans=False),
    Target("ratecost.solver.evaluate_joint", "system.evaluate_joint"),
    Target("ratecost.scheme.evaluate_joint", "system.evaluate_joint"),
    Target("ratecost.timeshare.evaluate_joint", "system.evaluate_joint"),
    Target("ratecost.instances.evaluate_joint", "system.evaluate_joint"),
    Target("ratecost.solver.directed_information", "system.directed_information"),
    Target("ratecost.scheme.realize", "scheme.realize"),
    Target("ratecost.scheme.build_stage", "sfrl.build_stage"),
    Target("ratecost.scheme.stage_maps", "sfrl.stage_maps"),
    Target("ratecost.scheme.caratheodory_reduce", "timeshare.reduce"),
    Target("ratecost.scheme.build_codebooks", "coder.build"),
    Target("ratecost.coder.ContextCodebook.encode", "coder.encode", spans=False,
           size=len),
    Target("ratecost.coder.ContextCodebook.decode", "coder.decode", spans=False),
)


def _resolve(path: str):
    """(owner, attribute, original) for a dotted path, or None if absent."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        attr = parts[-1]
        if isinstance(owner, type):
            original = vars(owner).get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original
    return None


class Tracer:
    """Spans and per-(operation, name) statistics of one traced run."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.spans: list[tuple] = []
        # (op, name) -> [calls, total seconds, self seconds, summed size]
        self.stats: dict[tuple, list] = {}
        self.results: dict[str, object] = {}
        self.missing: list[str] = []
        self.op = "setup"
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    def _call(self, target: Target, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][1] += dur
            stat = self.stats.setdefault((self.op, target.name), [0, 0.0, 0.0, 0])
            stat[0] += 1
            stat[1] += dur
            stat[2] += dur - frame[1]
            if target.spans:
                note = target.note(args, kwargs) if target.note else None
                self.spans.append((span_id, target.name, start, end, parent,
                                   self.op, note))
        if target.size is not None:
            stat[3] += target.size(result)
        if target.keep_result:
            self.results[target.name] = result
        return result

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(target, fn, args, kwargs)

        setattr(wrapper, WRAPPER_FLAG, True)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every existing target; restore all originals on exit."""
        try:
            for target in self.targets:
                found = _resolve(target.path)
                if found is None:
                    self.missing.append(target.path)
                    continue
                owner, attr, original = found
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def total(self, name: str, ops, field: int = 1) -> float:
        """Sum of one stat field of ``name`` over the given operations."""
        return sum(v[field] for (op, n), v in self.stats.items()
                   if n == name and op in ops)

    def durations(self, name: str, ops) -> list[float]:
        return [end - start for _, n, start, end, _, op, _ in self.spans
                if n == name and op in ops]

    def notes(self, name: str, ops) -> list:
        return [note for _, n, _, _, _, op, note in self.spans
                if n == name and op in ops]

    def dump(self, path: str) -> None:
        """Write the spans and statistics as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "op", "note"],
            "spans": self.spans,
            "stats": [[op, name, *vals] for (op, name), vals in self.stats.items()],
            "missing": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
