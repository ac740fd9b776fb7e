"""Training-data generation: a forward state-space planner over ground
actions, random solvable problems, and state-action interleaved traces.

Plans are found by breadth-first search (shortest) or greedy search on the
number of unsatisfied goal atoms, over the (action, pre, add, del) rows of
compile_actions, the one place that grounds a model. States are plain
frozensets of ground atoms (core.State). generate_traces compiles each
object set of its corpus once; the goal walk and the search both read
that table, and each trace is the search's own path: its actions and the
states it reached, with no second execution. Random problems come from a
per-domain configuration sampler plus a seeded random walk that picks a
reachable goal, so generation never stalls on unsolvable instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import (
    ActionModel,
    DomainSchema,
    GroundAction,
    PlanTrace,
    State,
    ground_entry,
)
from .domains import Sampler
from .pddl import ProblemSpec
from .util import stream_rng

STRATEGIES = ("breadth-first", "greedy-by-goal-count")
# Problems sample_problem may draw for one trace index before
# generate_traces gives up on it.
MAX_RETRIES = 20
# Inclusive bounds on the length of the goal walk.
WALK_RANGE = (3, 12)


class GenerationError(RuntimeError):
    """Trace generation exhausted its retry budget for some problem index."""


@dataclass(frozen=True)
class PlannerConfig:
    strategy: str = "breadth-first"
    max_expansions: int = 100_000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.max_expansions <= 0:
            raise ValueError("max_expansions must be positive")


@dataclass(frozen=True)
class PlanResult:
    """A search's outcome. When a plan is found, states holds the
    len(actions) + 1 states it passes through, init first."""

    actions: Optional[tuple[GroundAction, ...]]
    expansions: int
    exhausted: bool
    states: tuple[State, ...] = ()

    @property
    def found(self) -> bool:
        return self.actions is not None


@dataclass(frozen=True)
class GenerationSpec:
    """How many traces to produce and from what object populations.

    trace_targets is the doubling schedule used later by the stability
    scan; its maximum never exceeds problem_count. A positive
    catalog_size cycles the problem stream through that many distinct
    configurations, so the corpus repeats each instance roughly
    problem_count / catalog_size times and every cross-validation fold
    sees the same instance mix.
    """

    problem_count: int
    object_count_ranges: Mapping[str, tuple[int, int]]
    trace_targets: tuple[int, ...] = ()
    rng_seed: int = 0
    catalog_size: int = 0

    def __post_init__(self) -> None:
        if self.problem_count <= 0:
            raise ValueError("problem_count must be positive")
        for t, (lo, hi) in self.object_count_ranges.items():
            if lo <= 0 or hi < lo:
                raise ValueError(f"bad object count range for {t}: ({lo}, {hi})")
        if self.trace_targets and max(self.trace_targets) > self.problem_count:
            raise ValueError("trace_targets exceed problem_count")
        if self.catalog_size < 0:
            raise ValueError("catalog_size must be non-negative")


def doubling_schedule(count: int, start: int = 10) -> tuple[int, ...]:
    """10, 20, 40, ... capped with the final count itself."""
    if count <= start:
        return (count,)
    points = []
    value = start
    while value < count:
        points.append(value)
        value *= 2
    points.append(count)
    return tuple(points)


def ground_actions(schema: DomainSchema, objects: Mapping[str, str]) -> tuple[GroundAction, ...]:
    """All well-typed ground instantiations, in a fixed sorted order."""
    by_type: dict[str, list[str]] = {}
    for name in sorted(objects):
        by_type.setdefault(objects[name], []).append(name)
    out = []
    for sig in schema.actions:
        pools = [by_type.get(t, []) for t in sig.param_types]
        for combo in itertools.product(*pools):
            out.append(GroundAction(sig.name, combo))
    return tuple(out)


CompiledAction = tuple[GroundAction, State, State, State]


def compile_actions(model: ActionModel, objects: Mapping[str, str]) -> tuple[CompiledAction, ...]:
    """One (ground action, pre, add, del) row per ground action, in
    ground_actions order, each grounded once.

    Searches run over frozensets of atoms with this table: a row fires in
    s iff pre <= s, and its successor is (s - del) | add, which is what
    core.is_applicable and core.apply decide for the same action.
    """
    return tuple((ga, *ground_entry(model.entry(ga.action), ga.args))
                 for ga in ground_actions(model.schema, objects))


def plan(problem: ProblemSpec, table: Sequence[CompiledAction], cfg: PlannerConfig) -> PlanResult:
    """Search table's rows for an action sequence from init to a state
    containing goal; table is compile_actions(model, problem's objects)."""
    init, goal = problem.init, problem.goal
    if goal <= init:
        return PlanResult((), 0, False, (init,))

    # One best-first search: the heap pops by (priority, insertion count),
    # so breadth-first, whose priority is constant, pops in FIFO order.
    # parent maps each reached state to the (state, action) it came from.
    greedy = cfg.strategy == "greedy-by-goal-count"
    counter = itertools.count()
    frontier = [(len(goal - init) if greedy else 0, next(counter), init)]
    parent: dict[State, Optional[tuple[State, GroundAction]]] = {init: None}
    expansions = 0
    while frontier:
        _, _, state = heappop(frontier)
        if expansions >= cfg.max_expansions:
            return PlanResult(None, expansions, True)
        expansions += 1
        for ga, pre, add, dele in table:
            if not pre <= state:
                continue
            successor = (state - dele) | add
            if successor in parent:
                continue
            parent[successor] = (state, ga)
            if goal <= successor:
                return _path_to(successor, parent, expansions)
            heappush(frontier, (len(goal - successor) if greedy else 0, next(counter),
                                successor))
    return PlanResult(None, expansions, False)


def _path_to(state: State, parent: Mapping[State, Optional[tuple[State, GroundAction]]],
             expansions: int) -> PlanResult:
    """The found plan that ends in state, read back through parent."""
    actions, states = [], [state]
    while (link := parent[state]) is not None:
        state, ga = link
        actions.append(ga)
        states.append(state)
    return PlanResult(tuple(reversed(actions)), expansions, False, tuple(reversed(states)))


def solves_unitary(model: ActionModel, problem: ProblemSpec, cfg: PlannerConfig) -> bool:
    """True iff the model can solve the screening problem at all."""
    return plan(problem, compile_actions(model, problem.object_table()), cfg).found


def _random_walk(state: State, table: Sequence[CompiledAction], length: int,
                 rng: np.random.Generator) -> State:
    """Self-avoiding walk: never revisit a state, so steps make progress
    instead of cycling (plain uniform walks mostly pace back and forth)."""
    seen = {state}
    for _ in range(length):
        successors = []
        for _, pre, add, dele in table:
            if pre <= state:
                successor = (state - dele) | add
                if successor not in seen:
                    successors.append(successor)
        if not successors:
            break
        state = successors[int(rng.integers(len(successors)))]
        seen.add(state)
    return state


def sample_problem(index: int, spec: GenerationSpec, model: ActionModel, sampler: Sampler,
                   tables: dict[tuple, tuple[CompiledAction, ...]], attempt: int = 0) -> ProblemSpec:
    """One random problem: sampled objects and init, goal via random walk.

    The goal is the full state reached by a seeded self-avoiding walk of
    WALK_RANGE steps, so a plan always exists and is rarely trivial. The
    walk reads tables[objects], the compile_actions table of the problem's
    ProblemSpec.objects, compiling and storing it first if it is missing.
    """
    if spec.catalog_size:
        index = index % spec.catalog_size
    rng = stream_rng(spec.rng_seed, "problem", index, attempt)
    objects, init = sampler(rng, spec.object_count_ranges)
    length = int(rng.integers(WALK_RANGE[0], WALK_RANGE[1] + 1))
    key = tuple(sorted(objects.items()))
    if key not in tables:
        tables[key] = compile_actions(model, objects)
    return ProblemSpec(
        name=f"generated-{index}",
        domain=model.schema.name,
        objects=key,
        init=init,
        goal=_random_walk(init, tables[key], length, rng),
    )


def generate_traces(
    spec: GenerationSpec,
    model: ActionModel,
    cfg: PlannerConfig,
    sampler: Sampler,
) -> list[PlanTrace]:
    """problem_count traces, each validated against the generating model.

    The i-th trace depends only on (rng_seed, i), so shorter runs are
    exact prefixes of longer ones and reruns are byte-identical. Each
    distinct object set is compiled once, on first use, and its table
    serves the walk and the search of every problem over it; a trace
    interleaves the states and actions of the plan the search found.
    """
    traces = []
    tables: dict[tuple, tuple[CompiledAction, ...]] = {}
    for index in range(spec.problem_count):
        trace = None
        for attempt in range(MAX_RETRIES):
            problem = sample_problem(index, spec, model, sampler, tables, attempt)
            if problem.goal <= problem.init:
                continue
            result = plan(problem, tables[problem.objects], cfg)
            if result.actions:
                steps: list = [None] * (2 * len(result.actions) + 1)
                steps[::2], steps[1::2] = result.states, result.actions
                trace = PlanTrace(problem.objects, tuple(steps))
                break
        if trace is None:
            raise GenerationError(
                f"no solvable problem with a nonempty plan for index {index} "
                f"after {MAX_RETRIES} attempts"
            )
        traces.append(trace)
    return traces
