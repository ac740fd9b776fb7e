"""Binary vector encodings of traces for the sequence labeler.

An input row has one slot per action (exactly one set) followed by one
block per action holding a slot for each of that action's relevant refs;
only the current action's block may be nonzero. The input dimension is
therefore n + sum over actions of the relevant-ref count. Target rows
one-hot the successor action; the last action of a trace has no target.
Shorter traces are padded with all-zero rows up to the corpus-wide
maximum action count.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .candidates import relevant_predicates
from .core import ActionModel, DomainSchema, LiftedPredicateRef, PlanTrace


class EncodingError(ValueError):
    """A trace mentions an action missing from the layout or model."""


@dataclass(frozen=True)
class EncodingLayout:
    """Deterministic slot assignment for one schema.

    Actions are ordered alphabetically; each block lists its refs in
    canonical sorted order. input_dim is the action count plus the total
    number of relevant refs.
    """

    actions: tuple[str, ...]
    blocks: tuple[tuple[LiftedPredicateRef, ...], ...]
    _action_pos: Mapping[str, int] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )
    _block_offset: tuple[int, ...] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if len(self.actions) != len(self.blocks):
            raise ValueError("one block per action required")
        object.__setattr__(self, "_action_pos", {a: i for i, a in enumerate(self.actions)})
        offsets = []
        offset = len(self.actions)
        for block in self.blocks:
            offsets.append(offset)
            offset += len(block)
        object.__setattr__(self, "_block_offset", tuple(offsets))

    @property
    def output_dim(self) -> int:
        return len(self.actions)

    @property
    def input_dim(self) -> int:
        return len(self.actions) + sum(len(b) for b in self.blocks)

    def action_slot(self, action: str) -> int:
        try:
            return self._action_pos[action]
        except KeyError:
            raise EncodingError(f"action {action!r} is not in the layout") from None

    def block(self, action: str) -> tuple[LiftedPredicateRef, ...]:
        return self.blocks[self.action_slot(action)]

    def block_offset(self, action: str) -> int:
        return self._block_offset[self.action_slot(action)]

    def relevant_count(self, action: str) -> int:
        return len(self.blocks[self.action_slot(action)])

    def layout_hash(self) -> str:
        text = ";".join(
            f"{a}:" + ",".join(r.pretty() for r in block)
            for a, block in zip(self.actions, self.blocks)
        )
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_layout(schema: DomainSchema) -> EncodingLayout:
    actions = tuple(a.name for a in schema.actions)
    blocks = tuple(relevant_predicates(schema.action(a), schema.predicates) for a in actions)
    return EncodingLayout(actions, blocks)


def max_action_count(traces: Iterable[PlanTrace]) -> int:
    """Corpus-wide padding length (the longest trace's action count)."""
    return max(t.action_count for t in traces)


@dataclass(frozen=True)
class EncodedSequence:
    """Padded input/target matrices for one trace.

    Rows [0, valid_steps) of inputs are real; rows [0, valid_steps - 1) of
    targets are real (the final action has no successor); everything after
    is zero padding.
    """

    inputs: np.ndarray
    targets: np.ndarray
    valid_steps: int

    def __post_init__(self) -> None:
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ValueError("inputs and targets must share the padded length")
        if not 1 <= self.valid_steps <= self.inputs.shape[0]:
            raise ValueError("valid_steps out of range")

    @property
    def target_steps(self) -> int:
        return self.valid_steps - 1


def action_slots(trace: PlanTrace, layout: EncodingLayout) -> list[int]:
    """The layout slot of each action of trace, in order."""
    return [layout.action_slot(action) for action in trace.action_names()]


def encode_rows(rows: np.ndarray, slots: Sequence[int], layout: EncodingLayout,
                pad_len: Optional[int] = None) -> EncodedSequence:
    """The real input rows of a trace whose actions sit at slots, padded
    with zero rows to pad_len (to their own length by default); each
    target row one-hots the next action's slot."""
    count = len(slots)
    pad = count if pad_len is None else pad_len
    if pad < count:
        raise ValueError(f"pad length {pad} shorter than trace ({count} actions)")
    inputs = np.zeros((pad, layout.input_dim))
    inputs[:count] = rows
    targets = np.zeros((pad, layout.output_dim))
    targets[np.arange(count - 1), slots[1:]] = 1.0
    return EncodedSequence(inputs, targets, count)


def encode_training(
    trace: PlanTrace, layout: EncodingLayout, pad_len: Optional[int] = None
) -> EncodedSequence:
    """Observed encoding: slots for relevant refs that hold in the state
    before the action (potential preconditions) and for refs newly made
    true by it (potential effects)."""
    slots = action_slots(trace, layout)
    rows = np.zeros((len(slots), layout.input_dim))
    for t, (before, ga, after) in enumerate(trace.transitions()):
        rows[t, slots[t]] = 1.0
        offset = layout.block_offset(ga.action)
        introduced = after - before
        for k, ref in enumerate(layout.block(ga.action)):
            atom = ref.ground(ga.args)
            if atom in before or atom in introduced:
                rows[t, offset + k] = 1.0
    return encode_rows(rows, slots, layout, pad_len)


def validation_table(layout: EncodingLayout, model: ActionModel) -> np.ndarray:
    """Model encoding as an (actions x input_dim) table. Row a holds action
    a's slot and a slot for every ref in the candidate's pre, add, or del
    list for that action (negation maps to the same slot). The states never
    enter, so a trace's input rows are the table's rows at its slots."""
    listed = {entry.action: entry.refs() for entry in model.entries}
    table = np.zeros((layout.output_dim, layout.input_dim))
    for a, (action, block) in enumerate(zip(layout.actions, layout.blocks)):
        if action not in listed:
            raise EncodingError(f"model has no entry for action {action!r}")
        table[a, a] = 1.0
        offset = layout.block_offset(action)
        for k, ref in enumerate(block):
            if ref in listed[action]:
                table[a, offset + k] = 1.0
    return table


def encode_validation(trace: PlanTrace, layout: EncodingLayout, model: ActionModel,
                      pad_len: Optional[int] = None) -> EncodedSequence:
    """The trace's rows of validation_table(layout, model)."""
    slots = action_slots(trace, layout)
    return encode_rows(validation_table(layout, model)[slots], slots, layout, pad_len)


def encode_corpus(traces: Sequence[PlanTrace], layout: EncodingLayout,
                  pad_len: Optional[int] = None) -> list[EncodedSequence]:
    """Observed encodings of every trace at a common padded length
    (computed over the whole corpus unless given, so folds share shapes)."""
    if pad_len is None:
        pad_len = max_action_count(traces)
    return [encode_training(t, layout, pad_len) for t in traces]
