"""Candidate model space: relevant predicates, per-action (pre, add, del)
triples under the STRIPS semantic constraints, and an implicit cross
product that is counted but never materialized.

For k relevant refs every candidate assigns each ref one of five states:
absent, del-only, add-only, pre-only, or pre-and-del (add together with
pre or del is forbidden), so a full candidate action set has 5^k entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .core import (
    ActionModel,
    ActionModelEntry,
    ActionSignature,
    DomainSchema,
    LiftedPredicateRef,
    PredicateSchema,
)
from .pddl import (
    SExpr,
    check_domain,
    expect_atom,
    fail,
    read_form,
    read_name,
    read_term,
    split_form,
)


class TooManyRelevantPredicates(ValueError):
    """|relevant refs| exceeded the enumeration cap for some action."""


def relevant_predicates(
    action: ActionSignature, predicates: Iterable[PredicateSchema]
) -> tuple[LiftedPredicateRef, ...]:
    """All injective type-compatible bindings of each predicate onto the
    action's parameter positions, sorted canonically.

    A predicate with any parameter type absent from the action's types
    contributes nothing. Note that this includes every type-sharing
    predicate, even ones the hand-written model never mentions.
    """
    refs = []
    for pred in sorted(predicates):
        pools = []
        for ptype in pred.param_types:
            positions = [i for i, t in enumerate(action.param_types) if t == ptype]
            pools.append(positions)
        for combo in itertools.product(*pools):
            if len(set(combo)) != len(combo):
                continue
            refs.append(LiftedPredicateRef(pred.name, combo))
    return tuple(sorted(refs))


# Per-ref membership states (in_pre, in_add, in_del) allowed by the two
# semantic constraints add&del = 0 and add&pre = 0.
_REF_STATES = (
    (False, False, False),
    (False, False, True),
    (False, True, False),
    (True, False, False),
    (True, False, True),
)


@dataclass(frozen=True)
class CandidateActionSet:
    """All admissible (pre, add, del) triples for one action."""

    action: str
    refs: tuple[LiftedPredicateRef, ...]
    candidates: tuple[ActionModelEntry, ...]
    _member_index: Mapping[ActionModelEntry, int] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_member_index", {entry: i for i, entry in enumerate(self.candidates)}
        )

    def __len__(self) -> int:
        return len(self.candidates)

    def __contains__(self, entry: ActionModelEntry) -> bool:
        return entry in self._member_index

    def index_of(self, entry: ActionModelEntry) -> int:
        return self._member_index[entry]


def enumerate_candidates(
    action: ActionSignature,
    refs: Sequence[LiftedPredicateRef],
    strict_del: bool = False,
    max_relevant: int = 16,
) -> CandidateActionSet:
    """Every admissible triple over the given refs.

    strict_del additionally requires del to be a subset of pre (an action
    only deletes what it required); by default the literal two semantic
    constraints apply.
    """
    if len(refs) > max_relevant:
        raise TooManyRelevantPredicates(
            f"action {action.name} has {len(refs)} relevant refs (cap {max_relevant})"
        )
    states = tuple(s for s in _REF_STATES if not (strict_del and s == (False, False, True)))
    entries = []
    for assignment in itertools.product(states, repeat=len(refs)):
        pre, add, dele = [], [], []
        for ref, (in_pre, in_add, in_del) in zip(refs, assignment):
            if in_pre:
                pre.append(ref)
            if in_add:
                add.append(ref)
            if in_del:
                dele.append(ref)
        entries.append(ActionModelEntry(action.name, frozenset(pre), frozenset(add),
                                        frozenset(dele)))
    return CandidateActionSet(action.name, tuple(refs), tuple(entries))


@dataclass(frozen=True)
class CandidateModelSpace:
    """One CandidateActionSet per action; the model space is their cross
    product and is only ever represented implicitly."""

    schema: DomainSchema
    per_action: tuple[CandidateActionSet, ...]
    _index: Mapping[str, CandidateActionSet] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.per_action, key=lambda c: c.action))
        object.__setattr__(self, "per_action", ordered)
        object.__setattr__(self, "_index", {c.action: c for c in ordered})
        names = {a.name for a in self.schema.actions}
        if set(self._index) != names:
            raise ValueError("candidate sets do not cover the schema's actions")

    def for_action(self, action: str) -> CandidateActionSet:
        return self._index[action]

    def action_names(self) -> tuple[str, ...]:
        return tuple(c.action for c in self.per_action)

    def counts(self) -> dict[str, int]:
        return {c.action: len(c) for c in self.per_action}

    def total_candidates(self) -> int:
        return sum(len(c) for c in self.per_action)


def build_space(schema: DomainSchema, strict_del: bool = False,
                max_relevant: int = 16) -> CandidateModelSpace:
    sets = []
    for sig in schema.actions:
        refs = relevant_predicates(sig, schema.predicates)
        sets.append(enumerate_candidates(sig, refs, strict_del, max_relevant))
    return CandidateModelSpace(schema, tuple(sets))


def space_size(space: CandidateModelSpace) -> int:
    """Exact number of full models in the implicit cross product."""
    size = 1
    for cas in space.per_action:
        size *= len(cas)
    return size


def contains_reference(space: CandidateModelSpace, model: ActionModel) -> bool:
    """Ground-truth membership: every reference entry is in its action's set."""
    return all(model.entry(cas.action) in cas for cas in space.per_action)


# -- candidate-set files ------------------------------------------------------


def _format_entry(entry: ActionModelEntry, names: Mapping[LiftedPredicateRef, str]) -> str:
    def refs(lst: frozenset[LiftedPredicateRef]) -> str:
        return " ".join(names[r] for r in sorted(lst))

    return "(:candidate (:pre %s) (:add %s) (:del %s))" % (
        refs(entry.pre), refs(entry.add), refs(entry.delete))


def write_candidates(space: CandidateModelSpace) -> str:
    lines = ["(candidate-sets", f"  (:domain {space.schema.name})"]
    for cas in space.per_action:
        names = {r: r.pretty() for r in cas.refs}
        lines.append(f"  (:action {cas.action}")
        lines.append("    (:relevant %s)" % " ".join(names[r] for r in cas.refs))
        lines.append(f"    (:count {len(cas)})")
        for entry in cas.candidates:
            lines.append("    " + _format_entry(entry, names))
        lines.append("  )")
    lines.append(")")
    return "\n".join(lines) + "\n"


def _read_ref(node: SExpr, schema: DomainSchema, positions: Mapping[str, tuple[int, str]],
              allowed: Mapping[tuple, LiftedPredicateRef], where: str) -> LiftedPredicateRef:
    """The ref in allowed that a (PREDICATE POSITION...) term names."""
    term = read_term(node, schema.predicate_table, "predicate", positions, "position")
    if term not in allowed:
        raise fail(node, f"{LiftedPredicateRef(*term).pretty()} is not {where}")
    return allowed[term]


def read_candidates(text: str, schema: DomainSchema) -> CandidateModelSpace:
    """Parse a candidate-set file written by write_candidates for schema.

    The file must name the schema's domain and hold one section per
    action. Each :relevant ref must be a relevant ref of its action, each
    candidate ref must be listed in :relevant, each candidate has at most
    one :pre, :add and :del list, and :count must equal the number of
    candidates. Any violation raises a located ParseError.
    """
    root, sections = read_form(text, "candidate-sets", "candidate file")
    if not sections:
        raise fail(root, "missing (:domain NAME)")
    check_domain(sections[0], schema, "candidate file")
    sets: dict[str, CandidateActionSet] = {}
    for section in sections[1:]:
        head, parts = split_form(section, "an (:action ...) section")
        if head != ":action" or len(parts) < 3:
            raise fail(section, "expected (:action NAME (:relevant ...) (:count N) ...)")
        name = expect_atom(parts[0], "action name").text
        if name in sets:
            raise fail(section, f"duplicate action: {name}")
        sig = schema.action_table.get(name)
        if sig is None:
            raise fail(parts[0], f"unknown action: {name}")
        positions = {str(i): (i, t) for i, t in enumerate(sig.param_types)}
        relevant = {(r.predicate, r.binding): r for r in relevant_predicates(sig, schema.predicates)}
        key, items = split_form(parts[1], "(:relevant ...)")
        if key != ":relevant":
            raise fail(parts[1], "expected (:relevant ...)")
        listed: dict[tuple, LiftedPredicateRef] = {}
        for node in items:
            ref = _read_ref(node, schema, positions, relevant, f"relevant to {name}")
            if (ref.predicate, ref.binding) in listed:
                raise fail(node, f"repeated ref: {ref.pretty()}")
            listed[ref.predicate, ref.binding] = ref
        unlisted = f"in the :relevant list of {name}"
        entries = []
        for part in parts[3:]:
            key, items = split_form(part, "(:candidate ...)")
            if key != ":candidate":
                raise fail(part, "expected (:candidate (:pre ...) (:add ...) (:del ...))")
            lists: dict[str, frozenset[LiftedPredicateRef]] = {}
            for node in items:
                key, refs = split_form(node, "a (:pre ...), (:add ...) or (:del ...) list")
                if key not in (":pre", ":add", ":del"):
                    raise fail(node, f"unknown candidate list: {key}")
                if key in lists:
                    raise fail(node, f"repeated candidate list: {key}")
                lists[key] = frozenset(_read_ref(r, schema, positions, listed, unlisted)
                                       for r in refs)
            try:
                entries.append(ActionModelEntry(name, *(lists.get(k, frozenset())
                                                       for k in (":pre", ":add", ":del"))))
            except ValueError as exc:
                raise fail(part, str(exc)) from None
        count = read_name(parts[2], ":count", "count")
        if count != str(len(entries)):
            raise fail(parts[2], f"(:count {count}) but {name} has {len(entries)} candidates")
        sets[name] = CandidateActionSet(name, tuple(listed.values()), tuple(entries))
    try:
        return CandidateModelSpace(schema, tuple(sets.values()))
    except ValueError as exc:
        raise fail(root, str(exc)) from None
