"""Encoding tests: the dimension law, slot semantics, padding contract."""

import numpy as np
import pytest

from pdeeplearn.core import (
    ActionSignature,
    DomainSchema,
    PredicateSchema,
    make_entry,
)
from pdeeplearn.domains import get_domain
from pdeeplearn.encoding import (
    EncodingError,
    build_layout,
    encode_training,
    encode_validation,
    max_action_count,
)
from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, generate_traces
from pdeeplearn.util import stream_rng


@pytest.fixture(scope="module")
def gripper():
    info = get_domain("gripper")
    schema, model, _ = info.load()
    spec = GenerationSpec(problem_count=12, object_count_ranges=info.default_ranges,
                          rng_seed=3)
    traces = generate_traces(spec, model, PlannerConfig(rng_seed=3), info.sampler)
    return schema, model, traces


def _random_schema(rng):
    n_types = int(rng.integers(1, 4))
    types = [f"t{i}" for i in range(n_types)]
    preds = []
    for p in range(int(rng.integers(0, 5))):
        width = int(rng.integers(1, 3))
        preds.append(PredicateSchema(
            f"p{p}", tuple(types[int(rng.integers(n_types))] for _ in range(width))))
    actions = []
    for a in range(int(rng.integers(1, 5))):
        arity = int(rng.integers(0, 4))
        actions.append(ActionSignature(
            f"a{a}", tuple(types[int(rng.integers(n_types))] for _ in range(arity))))
    return DomainSchema("random", frozenset(types), tuple(preds), tuple(actions))


def test_dimension_law_on_randomized_schemas():
    # input_dim must equal action count plus an independently summed
    # relevant-ref total, across 50 random schemas.
    from pdeeplearn.candidates import relevant_predicates

    rng = stream_rng(19, "dimension-law")
    for _ in range(50):
        schema = _random_schema(rng)
        layout = build_layout(schema)
        independent = len(schema.actions) + sum(
            len(relevant_predicates(a, schema.predicates)) for a in schema.actions)
        assert layout.input_dim == independent
        assert layout.output_dim == len(schema.actions)


def test_dimension_law_degenerate_no_relevant_predicates():
    schema = DomainSchema(
        "bare", frozenset(["t"]), (),
        (ActionSignature("a0", ("t",)), ActionSignature("a1", ())))
    layout = build_layout(schema)
    assert layout.input_dim == 2


def test_gripper_layout_golden_dimension(gripper):
    schema, _, _ = gripper
    layout = build_layout(schema)
    # 3 actions + block sizes 4 (drop), 2 (move), 4 (pick).
    assert layout.input_dim == 13
    assert [len(b) for b in layout.blocks] == [4, 2, 4]
    assert layout.actions == ("drop", "move", "pick")


def test_training_rows_are_one_hot_in_action_section(gripper):
    schema, _, traces = gripper
    layout = build_layout(schema)
    pad = max_action_count(traces)
    n = layout.output_dim
    for trace in traces:
        seq = encode_training(trace, layout, pad)
        for t in range(seq.valid_steps):
            assert seq.inputs[t, :n].sum() == 1.0
        for t in range(seq.target_steps):
            assert seq.targets[t].sum() == 1.0
        assert not seq.inputs[seq.valid_steps:].any()
        assert not seq.targets[seq.target_steps:].any()


def test_training_sets_prestate_and_introduced_slots(gripper):
    schema, model, traces = gripper
    layout = build_layout(schema)
    trace = traces[0]
    seq = encode_training(trace, layout)
    for t, (before, ga, after) in enumerate(trace.transitions()):
        offset = layout.block_offset(ga.action)
        block = layout.block(ga.action)
        for k, ref in enumerate(block):
            atom = ref.ground(ga.args)
            expected = 1.0 if (atom in before or atom in after - before) else 0.0
            assert seq.inputs[t, offset + k] == expected
        # other action blocks stay zero
        for other in layout.actions:
            if other == ga.action:
                continue
            o = layout.block_offset(other)
            assert not seq.inputs[t, o:o + layout.relevant_count(other)].any()


def test_validation_sets_model_list_slots(gripper):
    schema, model, traces = gripper
    layout = build_layout(schema)
    seq = encode_validation(traces[0], layout, model)
    for t, (before, ga, after) in enumerate(traces[0].transitions()):
        offset = layout.block_offset(ga.action)
        listed = model.entry(ga.action).refs()
        for k, ref in enumerate(layout.block(ga.action)):
            assert seq.inputs[t, offset + k] == (1.0 if ref in listed else 0.0)


def test_reference_validation_equals_training_on_generated_traces():
    # Regression: for every shipped domain the reference lists coincide
    # with the observed pre-state and delta refs, so the two encodings
    # produce identical matrices on traces the reference generated.
    for name in ("gripper", "kiln", "battery"):
        info = get_domain(name)
        schema, model, _ = info.load()
        layout = build_layout(schema)
        spec = GenerationSpec(problem_count=15, object_count_ranges=info.default_ranges,
                              rng_seed=21)
        traces = generate_traces(spec, model, PlannerConfig(rng_seed=21), info.sampler)
        pad = max_action_count(traces)
        for trace in traces:
            a = encode_training(trace, layout, pad)
            b = encode_validation(trace, layout, model, pad)
            assert np.array_equal(a.inputs, b.inputs), name
            assert np.array_equal(a.targets, b.targets), name


def test_all_empty_model_sets_only_action_section(gripper):
    schema, model, traces = gripper
    layout = build_layout(schema)
    empty = type(model)(schema, tuple(make_entry(e.action) for e in model.entries))
    seq = encode_validation(traces[0], layout, empty)
    n = layout.output_dim
    assert not seq.inputs[:, n:].any()
    assert seq.inputs[:seq.valid_steps, :n].sum() == seq.valid_steps


def test_single_action_trace_has_no_target_rows(gripper):
    schema, model, traces = gripper
    layout = build_layout(schema)
    one = next(t for t in traces if t.action_count == 1)
    seq = encode_training(one, layout)
    assert seq.valid_steps == 1
    assert seq.target_steps == 0
    assert not seq.targets.any()


def test_padding_to_corpus_length(gripper):
    schema, _, traces = gripper
    layout = build_layout(schema)
    pad = max_action_count(traces)
    short = min(traces, key=lambda t: t.action_count)
    seq = encode_training(short, layout, pad)
    assert seq.inputs.shape == (pad, layout.input_dim)
    assert not seq.inputs[short.action_count:].any()


def test_pad_shorter_than_trace_is_an_error(gripper):
    schema, _, traces = gripper
    layout = build_layout(schema)
    long = max(traces, key=lambda t: t.action_count)
    with pytest.raises(ValueError):
        encode_training(long, layout, pad_len=long.action_count - 1)


def test_action_missing_from_layout_is_an_encoding_error(gripper):
    schema, _, traces = gripper
    layout = build_layout(schema)
    with pytest.raises(EncodingError):
        layout.action_slot("teleport")


def test_layout_hash_tracks_content(gripper):
    schema, _, _ = gripper
    a = build_layout(schema)
    b = build_layout(schema)
    assert a.layout_hash() == b.layout_hash()
    kiln_schema, _, _ = get_domain("kiln").load()
    assert build_layout(kiln_schema).layout_hash() != a.layout_hash()
