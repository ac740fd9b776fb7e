"""Candidate model space: relevant predicates, per-action (pre, add, del)
triples under the STRIPS semantic constraints, and their cross product,
which is counted but never materialized.

For k relevant refs every candidate assigns each ref one of five states:
absent, del-only, add-only, pre-only, or pre-and-del (add together with
pre or del is forbidden), so a full candidate action set has 5^k entries.
A set holds each candidate as a code whose base-5 digits, first ref most
significant, are the refs' states: the full set is arange(5^k), in
itertools.product order, and entries are built only on demand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

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


@dataclass(frozen=True, eq=False)
class CandidateActionSet:
    """Admissible (pre, add, del) triples of one action, as state codes.

    Digit j of a code, in base len(states) with refs[0] the most
    significant digit, is the index in states of refs[j]'s state. codes
    lists the set's candidates in order; entry(i) builds the i-th one.
    """

    action: str
    refs: tuple[LiftedPredicateRef, ...]
    states: tuple[tuple[bool, bool, bool], ...]
    codes: np.ndarray

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, CandidateActionSet)
                and (self.action, self.refs, self.states) == (other.action, other.refs,
                                                              other.states)
                and np.array_equal(self.codes, other.codes))

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[ActionModelEntry]:
        return (self.entry(i) for i in range(len(self)))

    def __contains__(self, entry: ActionModelEntry) -> bool:
        return bool((self.codes == self._code(entry)).any())

    def entry(self, i: int) -> ActionModelEntry:
        code, lists = int(self.codes[i]), ([], [], [])
        for ref in reversed(self.refs):
            code, digit = divmod(code, len(self.states))
            for members, member in zip(lists, self.states[digit]):
                if member:
                    members.append(ref)
        return ActionModelEntry(self.action, *map(frozenset, lists))

    def _code(self, entry: ActionModelEntry) -> Optional[int]:
        """The code of entry, None if this action's refs and states cannot hold it."""
        if entry.action != self.action or not entry.refs() <= set(self.refs):
            return None
        code = 0
        for ref in self.refs:
            state = (ref in entry.pre, ref in entry.add, ref in entry.delete)
            if state not in self.states:
                return None
            code = code * len(self.states) + self.states.index(state)
        return code

    def index_of(self, entry: ActionModelEntry) -> int:
        hits = np.flatnonzero(self.codes == self._code(entry))
        if not len(hits):
            raise KeyError(entry)
        return int(hits[0])

    def listing(self, entries: Iterable[ActionModelEntry]) -> CandidateActionSet:
        """The set over the same refs and states that lists entries in order."""
        return replace(self, codes=np.array([self._code(e) for e in entries], dtype=np.int64))

    def masks(self, bits: Sequence[int]) -> np.ndarray:
        """Rows pre, add, del and pre - del: for every candidate, the OR of
        bits[j] over the refs j in that list, all digits decoded at once."""
        width = len(self.states)
        places = width ** np.arange(len(self.refs) - 1, -1, -1, dtype=np.int64)
        states = np.array(self.states, dtype=bool)
        lists = np.column_stack([states, states[:, 0] & ~states[:, 2]])
        column = np.array(bits, dtype=np.int64 if max(bits, default=0) >> 62 == 0 else object)
        hits = lists[self.codes // places[:, None] % width]  # (ref, candidate, list)
        return np.bitwise_or.reduce(np.where(hits, column[:, None, None], 0), axis=0).T


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
            f"action {action.name} has {len(refs)} relevant refs (cap {max_relevant})")
    states = tuple(s for s in _REF_STATES if not (strict_del and s == (False, False, True)))
    return CandidateActionSet(action.name, tuple(refs), states,
                              np.arange(len(states) ** len(refs), dtype=np.int64))


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
    return math.prod(len(cas) for cas in space.per_action)


def contains_reference(space: CandidateModelSpace, model: ActionModel) -> bool:
    """Ground-truth membership: every reference entry is in its action's set."""
    return all(model.entry(cas.action) in cas for cas in space.per_action)


# -- candidate-set files ------------------------------------------------------


def _joined_subsets(names: Sequence[str]) -> list[str]:
    """The space-joined names of every subset of names, indexed by bitmask."""
    texts = [""]
    for name in names:
        texts += [f"{text} {name}" if text else name for text in texts]
    return texts


def write_candidates(space: CandidateModelSpace) -> str:
    lines = ["(candidate-sets", f"  (:domain {space.schema.name})"]
    for cas in space.per_action:
        order = sorted(range(len(cas.refs)), key=cas.refs.__getitem__)
        texts = _joined_subsets([cas.refs[j].pretty() for j in order])
        lists = cas.masks([1 << order.index(j) for j in range(len(cas.refs))])[:3]
        lines.append(f"  (:action {cas.action}")
        lines.append("    (:relevant %s)" % " ".join(r.pretty() for r in cas.refs))
        lines.append(f"    (:count {len(cas)})")
        lines.extend(f"    (:candidate (:pre {texts[p]}) (:add {texts[a]}) (:del {texts[d]}))"
                     for p, a, d in zip(*(m.tolist() for m in lists)))
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
    one :pre, :add and :del list, no candidate is repeated, and :count
    must equal the number of candidates. Any violation raises a located
    ParseError.
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
        entries: dict[ActionModelEntry, None] = {}
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
                entry = ActionModelEntry(name, *(lists.get(k, frozenset())
                                                 for k in (":pre", ":add", ":del")))
            except ValueError as exc:
                raise fail(part, str(exc)) from None
            if entry in entries:
                raise fail(part, "repeated candidate")
            entries[entry] = None
        count = read_name(parts[2], ":count", "count")
        if count != str(len(entries)):
            raise fail(parts[2], f"(:count {count}) but {name} has {len(entries)} candidates")
        sets[name] = CandidateActionSet(name, tuple(listed.values()), _REF_STATES,
                                        np.array([])).listing(entries)
    try:
        return CandidateModelSpace(schema, tuple(sets.values()))
    except ValueError as exc:
        raise fail(root, str(exc)) from None
