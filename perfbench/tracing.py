"""In-memory span recorder that times pdeeplearn's layers from outside.

A wrapper replaces a function in every pdeeplearn module that binds it,
so a call is timed where its caller looks the name up: ``pipeline``
binds ``train_folds`` at import, ``scoring`` binds ``train`` and
``accuracy``, ``pruning`` binds ``solves_unitary``. Spans are kept in
memory as (name, start, end, parent, op) and written out at the end of
the run; counters are kept per op next to them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

# Adam's elementwise work per parameter, counted from lstm.adam_step:
# m (3), v (4), the two bias corrections (2), sqrt, +eps, lr*, / and -.
ADAM_FLOPS_PER_PARAM = 14


def _train_step_counts(a, result) -> dict:
    """Forward ~ 2(d+h)4h + 2hn flops per step; BPTT ~ 2x forward."""
    params, steps = a["params"], a["seq"].valid_steps
    d, h, n = params.input_dim, params.hidden, params.output_dim
    forward = 2 * (d + h) * 4 * h + 2 * h * n
    return {"lstm.train.steps": steps, "lstm.train.gflop": 3 * forward * steps / 1e9}


def _adam_counts(a, result) -> dict:
    size = sum(v.size for v in a["params"].arrays().values())
    return {"lstm.train.gflop": ADAM_FLOPS_PER_PARAM * size / 1e9}


def _accuracy_counts(a, result) -> dict:
    return {"lstm.accuracy.steps": sum(s.valid_steps for s in a["dataset"] if s.target_steps)}


def _encode_counts(a, result) -> dict:
    return {"encoding.encode_corpus.calls": 1,
            "encoding.rows": sum(t.action_count for t in a["traces"])}


def _prune_counts(a, result) -> dict:
    stats = result.stats
    return {"pruning.pair_evaluations": stats.pair_evaluations,
            "pruning.kept": stats.final_total, "pruning.initial": stats.initial_total}


def _plan_counts(a, result) -> dict:
    return {"tracegen.plan.calls": 1, "tracegen.plan.expansions": result.expansions}


def _screen_counts(a, result) -> dict:
    return {"pruning.screen_calls": 1, "pruning.screen_passed": int(bool(result))}


@dataclass(frozen=True)
class Wrap:
    """One traced function, named "module.function" after where pdeeplearn
    defines it (also its span name), with what it counts and whether it
    calls no other traced function (a leaf)."""

    span: str
    count: Optional[Callable[[dict, object], dict]] = None
    leaf: bool = False


WRAPS = (
    Wrap("pipeline.run_pipeline"),
    Wrap("tracegen.generate_traces"),
    Wrap("tracegen.plan", _plan_counts, leaf=True),
    Wrap("pddl.serialize_traces", leaf=True),
    Wrap("candidates.build_space", lambda a, r: {"candidates.entries": r.total_candidates()},
         leaf=True),
    Wrap("candidates.write_candidates",
         lambda a, r: {"candidates.write_candidates.bytes": len(r.encode())}, leaf=True),
    Wrap("mining.stability_scan", leaf=True),
    Wrap("mining.frequent_pairs", lambda a, r: {"mining.frequent_pairs": len(r)}, leaf=True),
    Wrap("pruning.prune_candidates", _prune_counts, leaf=True),
    Wrap("pruning.sample_models"),
    Wrap("tracegen.solves_unitary", _screen_counts),
    Wrap("scoring.train_folds"),
    Wrap("lstm.train"),
    Wrap("lstm.loss_and_gradients", _train_step_counts, leaf=True),
    Wrap("lstm.adam_step", _adam_counts, leaf=True),
    Wrap("scoring.score_models", lambda a, r: {"scoring.models_scored": len(r[0])}),
    Wrap("encoding.encode_corpus", _encode_counts, leaf=True),
    Wrap("lstm.accuracy", _accuracy_counts, leaf=True),
    Wrap("evaluate.reconstruction_error", leaf=True),
    Wrap("evaluate.render_report", leaf=True),
)

LEAF_SPANS = frozenset(w.span for w in WRAPS if w.leaf)
OP_SPAN = "op"


class Tracer:
    """Records spans as [name, start, end, parent index, op id] rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[object, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._op: object = None

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """The root span of one op; every span opened inside shares its id."""
        self._op = op_id
        index = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def _wrapper(self, wrap: Wrap, fn: Callable) -> Callable:
        names = list(inspect.signature(fn).parameters)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(wrap.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if wrap.count is not None:
                named = dict(zip(names, args), **kwargs)
                self.counts[self._op].update(wrap.count(named, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Replace every binding of each traced function in the loaded
        pdeeplearn modules, and put the originals back on exit."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "pdeeplearn" or name.startswith("pdeeplearn.")]
        patched = []
        try:
            for wrap in WRAPS:
                module_name, attr = wrap.span.rsplit(".", 1)
                original = getattr(importlib.import_module(f"pdeeplearn.{module_name}"), attr)
                traced = self._wrapper(wrap, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            patched.append((module, attr, original))
            yield
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)


# -- analysis -------------------------------------------------------------------


def nesting_problems(spans: list[list]) -> list[str]:
    """Each child must lie inside its parent's interval and share its op id."""
    problems = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        if end < start:
            problems.append(f"span {index} ({name}) ends before it starts")
        if parent < 0:
            continue
        p_name, p_start, p_end, _, p_op = spans[parent]
        if not (p_start <= start and end <= p_end):
            problems.append(f"span {index} ({name}) lies outside its parent {p_name}")
        if p_op != op:
            problems.append(f"span {index} ({name}) has op {op!r}, its parent {p_op!r}")
    return problems


def children_of(spans: list[list]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for index, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(index)
    return children


def self_times(spans: list[list]) -> list[float]:
    """A span's duration minus the time its direct children cover (calls
    are sequential, so children never overlap)."""
    children = children_of(spans)
    return [(end - start) - sum(spans[c][2] - spans[c][1] for c in children.get(i, ()))
            for i, (_, start, end, _, _) in enumerate(spans)]


def outermost_share(spans: list[list], root: int, selected: Callable[[str], bool]) -> float:
    """Share of the root span's time inside selected spans, counting a
    selected span only when no selected span encloses it."""
    children = children_of(spans)
    covered = 0.0
    pending = list(children.get(root, ()))
    while pending:
        index = pending.pop()
        name, start, end, _, _ = spans[index]
        if selected(name):
            covered += end - start
        else:
            pending.extend(children.get(index, ()))
    duration = spans[root][2] - spans[root][1]
    return covered / duration if duration > 0 else 0.0


def op_roots(spans: list[list], ops: Iterable) -> list[int]:
    wanted = set(ops)
    return [i for i, row in enumerate(spans) if row[0] == OP_SPAN and row[4] in wanted]
