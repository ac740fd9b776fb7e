"""Constraint-based elimination over frequent action pairs, then planner
screening of models sampled from the reduced space.

For a frequent pair (first, second) a candidate pairing satisfies:

  C1  a shared precondition (same predicate, judged on unifiable refs)
      that the first action does not delete,
  C2  a predicate added by the first and required by the second,
  C3  a predicate deleted by the first and added back by the second.

An entry is retained when it participates in at least one satisfying
pairing with some candidate of some paired partner; actions outside all
frequent pairs keep their full candidate sets. Each constraint asks a
set of the candidate to meet a set of the partner, and some partner
meets X iff the union over all partners does. Every candidate's
predicate-name sets are bitmasks here, one bit per name, so the union
over a partner's unpruned candidates is a bitwise OR and C1..C3 are
three AND tests per candidate: one pass over each side of a pair instead
of all m x n pairings.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .candidates import CandidateModelSpace
from .core import ActionModel, ActionModelEntry, LiftedPredicateRef
from .pddl import ProblemSpec
from .tracegen import PlannerConfig, solves_unitary
from .util import stream_rng


class PruningEmptiedAction(RuntimeError):
    def __init__(self, action: str):
        super().__init__(f"pruning removed every candidate for action {action!r}")
        self.action = action


class NoViableModels(RuntimeError):
    """Planner screening rejected every drawn model."""


@dataclass(frozen=True)
class PruneStats:
    pair_evaluations: int
    initial_counts: dict[str, int]
    final_counts: dict[str, int]

    @property
    def initial_total(self) -> int:
        return sum(self.initial_counts.values())

    @property
    def final_total(self) -> int:
        return sum(self.final_counts.values())

    @property
    def percent_reduction(self) -> float:
        if self.initial_total == 0:
            return 0.0
        return 100.0 * (self.initial_total - self.final_total) / self.initial_total


@dataclass(frozen=True)
class PruneResult:
    space: CandidateModelSpace
    stats: PruneStats


def prune_candidates(
    space: CandidateModelSpace,
    pairs: Sequence[tuple[str, str]],
) -> PruneResult:
    """Keep the candidates that satisfy C1..C3 against the union of the
    partner's unpruned set, exactly those with a satisfying partner (see
    the module docstring). pair_evaluations is the number of pairings this
    decides without testing them, the sum of |CAS_i| x |CAS_j|.

    Raises PruningEmptiedAction if any action would end up with an empty
    candidate set (the generating model's own entries always survive on
    traces that model produced, so an empty set signals a real defect).
    """
    names = sorted({r.predicate for cas in space.per_action for r in cas.refs})
    bit = {name: 1 << i for i, name in enumerate(names)}
    rows = {cas.action: cas.masks([bit[r.predicate] for r in cas.refs])
            for cas in space.per_action}
    retained: dict[str, np.ndarray] = {}
    evaluations = 0
    for first, second in pairs:
        (_, add, dele, kept), (pre_second, add_second, _, _) = rows[first], rows[second]
        evaluations += len(kept) * len(pre_second)
        any_kept, any_add, any_del, any_add_second, any_pre_second = (
            np.bitwise_or.reduce(m) for m in (kept, add, dele, add_second, pre_second))
        keep_first = (kept | add) & any_pre_second | dele & any_add_second
        keep_second = (any_kept | any_add) & pre_second | any_del & add_second
        retained[first] = retained.get(first, False) | (keep_first != 0)
        retained[second] = retained.get(second, False) | (keep_second != 0)

    reduced_sets = []
    for cas in space.per_action:
        if cas.action in retained:
            if not retained[cas.action].any():
                raise PruningEmptiedAction(cas.action)
            cas = replace(cas, codes=cas.codes[retained[cas.action]])
        reduced_sets.append(cas)
    reduced = CandidateModelSpace(space.schema, tuple(reduced_sets))
    return PruneResult(reduced, PruneStats(evaluations, space.counts(), reduced.counts()))


# -- sampling -----------------------------------------------------------------


@dataclass(frozen=True)
class SampledModel:
    model_id: str
    model: ActionModel
    candidate_indices: tuple[int, ...]
    is_reference: bool


@dataclass(frozen=True)
class SampledModelSet:
    """Models drawn from the reduced space that pass the unitary screen."""

    models: tuple[SampledModel, ...]

    def __len__(self) -> int:
        return len(self.models)

    def by_id(self, model_id: str) -> SampledModel:
        for m in self.models:
            if m.model_id == model_id:
                return m
        raise KeyError(model_id)


def _assemble(space: CandidateModelSpace, indices: tuple[int, ...]) -> ActionModel:
    entries = tuple(cas.entry(i) for cas, i in zip(space.per_action, indices))
    return ActionModel(space.schema, entries)


def _reference_indices(space: CandidateModelSpace, reference: ActionModel) -> tuple[int, ...]:
    try:
        return tuple(cas.index_of(reference.entry(cas.action)) for cas in space.per_action)
    except KeyError:
        raise ValueError("the reference model is not inside the candidate space") from None


def sample_models(
    space: CandidateModelSpace,
    unitary: ProblemSpec,
    cfg: PlannerConfig,
    budget: int,
    rng_seed: int,
    include_reference: bool = False,
    reference: Optional[ActionModel] = None,
) -> SampledModelSet:
    """Up to budget distinct models, each solving the unitary problem.

    When the reduced cross product has at most budget models the whole
    product is screened exhaustively; otherwise index tuples are drawn
    uniformly with a seeded stream, stopping after budget survivors or
    100 x budget draws. With include_reference the reference model is
    screened first and always present.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    sizes = [len(cas) for cas in space.per_action]
    seen: set[tuple[int, ...]] = set()
    survivors: list[tuple[tuple[int, ...], ActionModel]] = []
    reference_tuple: Optional[tuple[int, ...]] = None
    if include_reference:
        if reference is None:
            raise ValueError("include_reference requires the reference model")
        reference_tuple = _reference_indices(space, reference)
        if not solves_unitary(reference, unitary, cfg):
            raise NoViableModels("the reference model itself fails the unitary problem")
        seen.add(reference_tuple)
        survivors.append((reference_tuple, reference))

    if math.prod(sizes) <= budget:
        for indices in itertools.product(*(range(s) for s in sizes)):
            if indices in seen:
                continue
            model = _assemble(space, indices)
            if solves_unitary(model, unitary, cfg):
                survivors.append((indices, model))
        if not survivors:
            raise NoViableModels("no model in the reduced space solves the unitary problem")
    else:
        rng = stream_rng(rng_seed, "sample-models")
        draws = 0
        max_draws = 100 * budget
        while len(survivors) < budget and draws < max_draws:
            draws += 1
            indices = tuple(int(rng.integers(s)) for s in sizes)
            if indices in seen:
                continue
            seen.add(indices)
            model = _assemble(space, indices)
            if solves_unitary(model, unitary, cfg):
                survivors.append((indices, model))
        if not survivors:
            raise NoViableModels(
                f"no model solved the unitary problem within {max_draws} draws")

    models = tuple(
        SampledModel(
            model_id=f"m{k:04d}",
            model=model,
            candidate_indices=indices,
            is_reference=indices == reference_tuple,
        )
        for k, (indices, model) in enumerate(survivors)
    )
    return SampledModelSet(models)


def manifest_load(text: str, schema) -> SampledModelSet:
    """Rebuild a sampled model set from its JSON manifest."""
    payload = json.loads(text)
    models = []
    for m in payload["models"]:
        entries = tuple(
            ActionModelEntry(action, *(frozenset(LiftedPredicateRef(name, tuple(binding))
                                                 for name, binding in lists[key])
                                       for key in ("pre", "add", "del")))
            for action, lists in m["entries"].items())
        models.append(SampledModel(
            model_id=m["id"],
            model=ActionModel(schema, entries),
            candidate_indices=tuple(m["candidate_indices"]),
            is_reference=m["is_reference"],
        ))
    return SampledModelSet(tuple(models))


def manifest_json(sampled: SampledModelSet, space: CandidateModelSpace) -> str:
    payload = {
        "schema_version": 2,
        "domain": space.schema.name,
        "actions": list(space.action_names()),
        "models": [
            {
                "id": m.model_id,
                "candidate_indices": list(m.candidate_indices),
                "is_reference": m.is_reference,
                "entries": {
                    e.action: {key: [[r.predicate, list(r.binding)] for r in sorted(refs)]
                               for key, refs in (("pre", e.pre), ("add", e.add),
                                                 ("del", e.delete))}
                    for e in m.model.entries
                },
            }
            for m in sampled.models
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
