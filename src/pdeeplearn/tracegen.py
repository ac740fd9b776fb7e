"""Training-data generation: a forward state-space planner over ground
actions, random solvable problems, and state-action interleaved traces.

Plans are found by breadth-first search (shortest) or greedy search on the
number of unsatisfied goal atoms, over the (action, pre, add, del) rows of
compile_actions, the one place that grounds a model. generate_traces
compiles each object set of its corpus once; the goal walk, the search and
replay all read that table. Random problems come from a per-domain
configuration sampler plus a seeded random walk that picks a reachable
goal, so generation never stalls on unsolvable instances.
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
    GroundAtom,
    PlanTrace,
    PreconditionViolation,
    State,
    ground_entry,
)
from .domains import Sampler
from .pddl import ProblemSpec
from .util import stream_rng

STRATEGIES = ("breadth-first", "greedy-by-goal-count")


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
    actions: Optional[tuple[GroundAction, ...]]
    expansions: int
    exhausted: bool

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


Atoms = frozenset[GroundAtom]
CompiledAction = tuple[GroundAction, Atoms, Atoms, Atoms]


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
    init, goal = problem.init.atoms, problem.goal
    if goal <= init:
        return PlanResult((), 0, False)

    # One best-first search: the heap pops by (priority, insertion count),
    # so breadth-first, whose priority is constant, pops in FIFO order.
    greedy = cfg.strategy == "greedy-by-goal-count"
    counter = itertools.count()
    frontier = [(len(goal - init) if greedy else 0, next(counter), init, ())]
    seen = {init}
    expansions = 0
    while frontier:
        _, _, state, path = heappop(frontier)
        if expansions >= cfg.max_expansions:
            return PlanResult(None, expansions, True)
        expansions += 1
        for ga, pre, add, dele in table:
            if not pre <= state:
                continue
            successor = (state - dele) | add
            if successor in seen:
                continue
            seen.add(successor)
            new_path = path + (ga,)
            if goal <= successor:
                return PlanResult(new_path, expansions, False)
            heappush(frontier, (len(goal - successor) if greedy else 0, next(counter),
                                successor, new_path))
    return PlanResult(None, expansions, False)


def solves_unitary(model: ActionModel, problem: ProblemSpec, cfg: PlannerConfig) -> bool:
    """True iff the model can solve the screening problem at all."""
    return plan(problem, compile_actions(model, problem.object_table()), cfg).found


def replay(init: State, actions: Sequence[GroundAction], table: Sequence[CompiledAction],
           objects: Mapping[str, str]) -> PlanTrace:
    """Record the interleaved trace of executing actions from init, one
    table row per step. An action whose pre does not hold, or that has no
    row, raises PreconditionViolation with core.apply's message."""
    rows = {row[0]: row for row in table}
    steps: list = [init]
    atoms = init.atoms
    for ga in actions:
        row = rows.get(ga)
        if row is None or not row[1] <= atoms:
            raise PreconditionViolation(f"{ga.pretty()} is not applicable")
        atoms = (atoms - row[3]) | row[2]
        steps.extend([ga, State(atoms)])
    return PlanTrace(tuple(sorted(objects.items())), tuple(steps))


def _random_walk(state: Atoms, table: Sequence[CompiledAction], length: int,
                 rng: np.random.Generator) -> Atoms:
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
                   tables: dict[tuple, tuple[CompiledAction, ...]], attempt: int = 0,
                   walk_range: tuple[int, int] = (3, 12)) -> ProblemSpec:
    """One random problem: sampled objects and init, goal via random walk.

    The goal is the full state reached by a seeded self-avoiding walk of
    3..12 steps, so a plan always exists and is rarely trivial. The walk
    reads tables[objects], the compile_actions table of the problem's
    ProblemSpec.objects, compiling and storing it first if it is missing.
    """
    if spec.catalog_size:
        index = index % spec.catalog_size
    rng = stream_rng(spec.rng_seed, "problem", index, attempt)
    objects, init = sampler(rng, spec.object_count_ranges)
    length = int(rng.integers(walk_range[0], walk_range[1] + 1))
    key = tuple(sorted(objects.items()))
    if key not in tables:
        tables[key] = compile_actions(model, objects)
    return ProblemSpec(
        name=f"generated-{index}",
        domain=model.schema.name,
        objects=key,
        init=init,
        goal=_random_walk(init.atoms, tables[key], length, rng),
    )


def generate_traces(
    spec: GenerationSpec,
    model: ActionModel,
    cfg: PlannerConfig,
    sampler: Sampler,
    max_retries: int = 20,
) -> list[PlanTrace]:
    """problem_count traces, each validated against the generating model.

    The i-th trace depends only on (rng_seed, i), so shorter runs are
    exact prefixes of longer ones and reruns are byte-identical. Each
    distinct object set is compiled once, on first use, and its table
    serves the walk, the search and the replay of every problem over it.
    """
    traces = []
    tables: dict[tuple, tuple[CompiledAction, ...]] = {}
    for index in range(spec.problem_count):
        trace = None
        for attempt in range(max_retries):
            problem = sample_problem(index, spec, model, sampler, tables, attempt)
            if problem.goal <= problem.init.atoms:
                continue
            table = tables[problem.objects]
            result = plan(problem, table, cfg)
            if result.actions:
                trace = replay(problem.init, result.actions, table, problem.object_table())
                break
        if trace is None:
            raise GenerationError(
                f"no solvable problem with a nonempty plan for index {index} "
                f"after {max_retries} attempts"
            )
        traces.append(trace)
    return traces
