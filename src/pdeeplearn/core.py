"""Lifted and ground STRIPS objects plus their execution semantics.

Everything here is an immutable value: states are frozensets of ground
atoms (closed world, positive atoms only), action models are per-action
(pre, add, del) triples of lifted predicate references, and the three
operations (applicability test, state transition, trace validation) are
pure functions over these values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Union


class SchemaMismatchError(ValueError):
    """A ground object refers to something the schema does not declare."""


class PreconditionViolation(ValueError):
    """apply() was called with an action whose preconditions do not hold."""


IDENT_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def _check_ident(name: str, what: str) -> None:
    if not name or not set(name.lower()) <= IDENT_OK or name[0] in "-0123456789":
        raise ValueError(f"invalid {what} identifier: {name!r}")


@dataclass(frozen=True, order=True)
class PredicateSchema:
    """A named predicate with an ordered list of parameter types."""

    name: str
    param_types: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_ident(self.name, "predicate")

    @property
    def arity(self) -> int:
        return len(self.param_types)


@dataclass(frozen=True, order=True)
class ActionSignature:
    """A named action with an ordered list of parameter types."""

    name: str
    param_types: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_ident(self.name, "action")

    @property
    def arity(self) -> int:
        return len(self.param_types)


@dataclass(frozen=True)
class DomainSchema:
    """Type, predicate, and action declarations for one planning domain.

    Predicates and actions are stored sorted by name; predicate_table and
    action_table map each name to its declaration.
    """

    name: str
    types: frozenset[str]
    predicates: tuple[PredicateSchema, ...]
    actions: tuple[ActionSignature, ...]
    predicate_table: Mapping[str, PredicateSchema] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    action_table: Mapping[str, ActionSignature] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        _check_ident(self.name, "domain")
        for t in self.types:
            _check_ident(t, "type")
        preds = tuple(sorted(self.predicates))
        acts = tuple(sorted(self.actions))
        object.__setattr__(self, "predicates", preds)
        object.__setattr__(self, "actions", acts)
        pred_index: dict[str, PredicateSchema] = {}
        for p in preds:
            if p.name in pred_index:
                raise ValueError(f"duplicate predicate name: {p.name}")
            for t in p.param_types:
                if t not in self.types:
                    raise ValueError(f"predicate {p.name} uses undeclared type {t}")
            pred_index[p.name] = p
        action_index: dict[str, ActionSignature] = {}
        for a in acts:
            if a.name in action_index:
                raise ValueError(f"duplicate action name: {a.name}")
            for t in a.param_types:
                if t not in self.types:
                    raise ValueError(f"action {a.name} uses undeclared type {t}")
            action_index[a.name] = a
        object.__setattr__(self, "predicate_table", pred_index)
        object.__setattr__(self, "action_table", action_index)

    def predicate(self, name: str) -> PredicateSchema:
        try:
            return self.predicate_table[name]
        except KeyError:
            raise SchemaMismatchError(f"unknown predicate: {name}") from None

    def action(self, name: str) -> ActionSignature:
        try:
            return self.action_table[name]
        except KeyError:
            raise SchemaMismatchError(f"unknown action: {name}") from None


@dataclass(frozen=True, order=True)
class LiftedPredicateRef:
    """A predicate applied to positions of an owning action's parameter list.

    Two refs to the same predicate with different bindings are distinct;
    e.g. for move(?r - robot ?from - room ?to - room) the predicate
    at-robby(robot, room) yields the two refs (at-robby 0 1) and
    (at-robby 0 2).
    """

    predicate: str
    binding: tuple[int, ...]

    def ground(self, args: tuple[str, ...]) -> "GroundAtom":
        return GroundAtom(self.predicate, tuple(args[i] for i in self.binding))

    def pretty(self) -> str:
        return "(%s)" % " ".join([self.predicate] + [str(i) for i in self.binding])


def check_ref(ref: LiftedPredicateRef, action: ActionSignature, schema: DomainSchema) -> None:
    """Reject a ref that is not a relevant, well-typed binding for the action."""
    pred = schema.predicate(ref.predicate)
    if len(ref.binding) != pred.arity:
        raise ValueError(f"{ref.pretty()} binding length != arity of {pred.name}")
    if len(set(ref.binding)) != len(ref.binding):
        raise ValueError(f"{ref.pretty()} binds an action parameter twice")
    for slot, pos in enumerate(ref.binding):
        if not 0 <= pos < action.arity:
            raise ValueError(f"{ref.pretty()} binds position {pos} outside {action.name}")
        if action.param_types[pos] != pred.param_types[slot]:
            raise ValueError(
                f"{ref.pretty()} type mismatch at slot {slot}: "
                f"{action.param_types[pos]} vs {pred.param_types[slot]}"
            )


@dataclass(frozen=True)
class ActionModelEntry:
    """The (pre, add, del) lists of one action, over lifted refs.

    The constructor enforces the two STRIPS semantic constraints:
    add and del are disjoint, and add and pre are disjoint.
    """

    action: str
    pre: frozenset[LiftedPredicateRef]
    add: frozenset[LiftedPredicateRef]
    delete: frozenset[LiftedPredicateRef]

    def __post_init__(self) -> None:
        if self.add & self.delete:
            raise ValueError(f"{self.action}: add and del lists intersect")
        if self.add & self.pre:
            raise ValueError(f"{self.action}: add and pre lists intersect")

    @property
    def total_predicates(self) -> int:
        return len(self.pre) + len(self.add) + len(self.delete)

    def refs(self) -> frozenset[LiftedPredicateRef]:
        return self.pre | self.add | self.delete


def make_entry(
    action: str,
    pre: Iterable[LiftedPredicateRef] = (),
    add: Iterable[LiftedPredicateRef] = (),
    delete: Iterable[LiftedPredicateRef] = (),
) -> ActionModelEntry:
    return ActionModelEntry(action, frozenset(pre), frozenset(add), frozenset(delete))


@dataclass(frozen=True)
class ActionModel:
    """One ActionModelEntry per action of the owning schema."""

    schema: DomainSchema
    entries: tuple[ActionModelEntry, ...]
    _index: Mapping[str, ActionModelEntry] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.entries, key=lambda e: e.action))
        object.__setattr__(self, "entries", ordered)
        index = {e.action: e for e in ordered}
        if len(index) != len(ordered):
            raise ValueError("duplicate action model entries")
        names = {a.name for a in self.schema.actions}
        if set(index) != names:
            raise ValueError(
                f"model entries {sorted(index)} do not cover schema actions {sorted(names)}"
            )
        for entry in ordered:
            sig = self.schema.action(entry.action)
            for ref in entry.refs():
                check_ref(ref, sig, self.schema)
        object.__setattr__(self, "_index", index)

    def entry(self, action: str) -> ActionModelEntry:
        try:
            return self._index[action]
        except KeyError:
            raise SchemaMismatchError(f"model has no entry for action: {action}") from None

    def replace_entry(self, entry: ActionModelEntry) -> "ActionModel":
        rest = tuple(e for e in self.entries if e.action != entry.action)
        return ActionModel(self.schema, rest + (entry,))

    @property
    def total_predicates(self) -> int:
        return sum(e.total_predicates for e in self.entries)


@dataclass(frozen=True, order=True)
class GroundAtom:
    predicate: str
    args: tuple[str, ...]

    def pretty(self) -> str:
        return "(%s)" % " ".join((self.predicate,) + self.args)


# A set of ground positive atoms under the closed-world assumption.
State = frozenset[GroundAtom]


@dataclass(frozen=True, order=True)
class GroundAction:
    action: str
    args: tuple[str, ...]

    def pretty(self) -> str:
        return "(%s)" % " ".join((self.action,) + self.args)


Step = Union[State, GroundAction]


@dataclass(frozen=True)
class PlanTrace:
    """Alternating ground states and actions: [s0, a1, s1, ..., an, g].

    objects maps each object identifier to its type. The final state plays
    the role of the goal g and is always recorded in full.
    """

    objects: tuple[tuple[str, str], ...]
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.objects))
        object.__setattr__(self, "objects", ordered)
        if len(dict(ordered)) != len(ordered):
            raise ValueError("duplicate object names in trace")
        if len(self.steps) < 3 or len(self.steps) % 2 == 0:
            raise ValueError("trace must alternate s0, a1, ..., an, g with >= 1 action")
        for i, step in enumerate(self.steps):
            want_state = i % 2 == 0
            if want_state and not isinstance(step, frozenset):
                raise ValueError(f"trace step {i} must be a state")
            if not want_state and not isinstance(step, GroundAction):
                raise ValueError(f"trace step {i} must be an action")

    @property
    def initial_state(self) -> State:
        return self.steps[0]  # type: ignore[return-value]

    @property
    def goal_state(self) -> State:
        return self.steps[-1]  # type: ignore[return-value]

    def actions(self) -> tuple[GroundAction, ...]:
        return tuple(self.steps[i] for i in range(1, len(self.steps), 2))  # type: ignore[misc]

    def transitions(self) -> Iterator[tuple[State, GroundAction, State]]:
        for i in range(1, len(self.steps), 2):
            yield self.steps[i - 1], self.steps[i], self.steps[i + 1]  # type: ignore[misc]

    @property
    def action_count(self) -> int:
        return len(self.steps) // 2

    def action_names(self) -> tuple[str, ...]:
        return tuple(a.action for a in self.actions())


def ground_entry(
    entry: ActionModelEntry, args: tuple[str, ...]
) -> tuple[frozenset[GroundAtom], frozenset[GroundAtom], frozenset[GroundAtom]]:
    """Instantiate an entry's pre/add/del refs with one action's arguments."""
    pre = frozenset(r.ground(args) for r in entry.pre)
    add = frozenset(r.ground(args) for r in entry.add)
    dele = frozenset(r.ground(args) for r in entry.delete)
    return pre, add, dele


def is_applicable(state: State, ga: GroundAction, model: ActionModel) -> bool:
    """True iff every grounded precondition of ga under model holds in state."""
    entry = model.entry(ga.action)
    return all(r.ground(ga.args) in state for r in entry.pre)


def apply(state: State, ga: GroundAction, model: ActionModel) -> State:
    """Successor state (state minus grounded del) union grounded add.

    Raises PreconditionViolation when the action is not applicable; the
    input state is never modified.
    """
    pre, add, dele = ground_entry(model.entry(ga.action), ga.args)
    if not pre <= state:
        raise PreconditionViolation(f"{ga.pretty()} is not applicable")
    return (state - dele) | add


def first_mismatch(trace: PlanTrace, model: ActionModel) -> Optional[str]:
    """First point where the trace disagrees with the model, or None."""
    for i, (before, ga, after) in enumerate(trace.transitions()):
        try:
            successor = apply(before, ga, model)
        except PreconditionViolation:
            return f"step {i}: {ga.pretty()} not applicable"
        if successor != after:
            extra = sorted(a.pretty() for a in after - successor)
            missing = sorted(a.pretty() for a in successor - after)
            return f"step {i}: successor mismatch (extra={extra}, missing={missing})"
    return None


def validate_trace(trace: PlanTrace, model: ActionModel) -> bool:
    """True iff every recorded transition matches is_applicable and apply."""
    return first_mismatch(trace, model) is None
