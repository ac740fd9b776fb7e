"""Execution-semantics tests: applicability, transition, trace validation."""

import pytest

from pdeeplearn.core import (
    ActionModel,
    GroundAction,
    GroundAtom,
    PlanTrace,
    PreconditionViolation,
    SchemaMismatchError,
    apply,
    first_mismatch,
    is_applicable,
    make_entry,
    validate_trace,
)
from pdeeplearn.domains import get_domain
from pdeeplearn.core import LiftedPredicateRef as Ref


@pytest.fixture(scope="module")
def gripper():
    schema, model, unitary = get_domain("gripper").load()
    return schema, model


def _pick_state():
    return frozenset([
        GroundAtom("at", ("b1", "r1")),
        GroundAtom("at-robby", ("rob1", "r1")),
        GroundAtom("free", ("rob1", "g1")),
    ])


def test_pick_applicable_in_reference_state(gripper):
    # Hand evaluation: all three pick preconditions hold in this state.
    _, model = gripper
    ga = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    assert is_applicable(_pick_state(), ga, model)


def test_empty_pre_list_is_vacuously_applicable(gripper):
    schema, model = gripper
    move_any = model.replace_entry(make_entry("move"))
    ga = GroundAction("move", ("rob1", "r1", "r2"))
    assert is_applicable(frozenset(), ga, move_any)


def test_pick_not_applicable_without_ball_at_room(gripper):
    _, model = gripper
    state = frozenset([
        GroundAtom("at-robby", ("rob1", "r1")),
        GroundAtom("free", ("rob1", "g1")),
    ])
    ga = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    assert not is_applicable(state, ga, model)


def test_unknown_action_raises_schema_mismatch(gripper):
    _, model = gripper
    with pytest.raises(SchemaMismatchError):
        is_applicable(_pick_state(), GroundAction("teleport", ()), model)


def test_apply_pick_adds_carry_and_deletes_at_and_free(gripper):
    _, model = gripper
    ga = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    result = apply(_pick_state(), ga, model)
    assert result == frozenset([
        GroundAtom("at-robby", ("rob1", "r1")),
        GroundAtom("carry", ("rob1", "g1", "b1")),
    ])


def test_apply_leaves_input_state_unmodified(gripper):
    _, model = gripper
    state = _pick_state()
    before = set(state)
    apply(state, GroundAction("pick", ("rob1", "b1", "r1", "g1")), model)
    assert state == before


def test_apply_on_inapplicable_action_raises(gripper):
    _, model = gripper
    with pytest.raises(PreconditionViolation):
        apply(frozenset(), GroundAction("pick", ("rob1", "b1", "r1", "g1")), model)


def test_empty_effects_leave_state_unchanged(gripper):
    _, model = gripper
    noop = model.replace_entry(make_entry("move", pre=[Ref("at-robby", (0, 1))]))
    state = _pick_state()
    ga = GroundAction("move", ("rob1", "r1", "r2"))
    assert apply(state, ga, noop) == state


def test_add_of_present_atom_keeps_set_semantics(gripper):
    # move with from == to re-adds the deleted atom; no duplicates appear.
    _, model = gripper
    state = _pick_state()
    result = apply(state, GroundAction("move", ("rob1", "r1", "r1")), model)
    assert result == state


def test_apply_is_deterministic(gripper):
    _, model = gripper
    ga = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    assert apply(_pick_state(), ga, model) == apply(_pick_state(), ga, model)


def test_frame_property_untouched_atoms_preserved(gripper):
    _, model = gripper
    bystander = GroundAtom("at", ("b2", "r2"))
    state = frozenset(list(_pick_state()) + [bystander])
    result = apply(state, GroundAction("pick", ("rob1", "b1", "r1", "g1")), model)
    assert bystander in result


def _tiny_trace(model):
    s0 = _pick_state()
    a1 = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    s1 = apply(s0, a1, model)
    objects = (("b1", "ball"), ("g1", "gripper"), ("r1", "room"), ("rob1", "robot"))
    return PlanTrace(objects, (s0, a1, s1))


def test_validate_trace_accepts_replayed_transitions(gripper):
    _, model = gripper
    assert validate_trace(_tiny_trace(model), model)


def test_validate_trace_rejects_leftover_deleted_atom(gripper):
    _, model = gripper
    trace = _tiny_trace(model)
    bad_final = trace.goal_state | {GroundAtom("at", ("b1", "r1"))}
    bad = PlanTrace(trace.objects, trace.steps[:-1] + (bad_final,))
    assert not validate_trace(bad, model)
    assert "mismatch" in first_mismatch(bad, model)


def test_trace_without_actions_is_rejected(gripper):
    with pytest.raises(ValueError):
        PlanTrace((("b1", "ball"),), (_pick_state(),))


def test_trace_alternation_enforced(gripper):
    _, model = gripper
    a = GroundAction("pick", ("rob1", "b1", "r1", "g1"))
    with pytest.raises(ValueError):
        PlanTrace((("b1", "ball"),), (_pick_state(), a, a))


def test_entry_constructor_rejects_add_del_overlap():
    ref = Ref("at", (1, 2))
    with pytest.raises(ValueError):
        make_entry("pick", add=[ref], delete=[ref])


def test_entry_constructor_rejects_add_pre_overlap():
    ref = Ref("at", (1, 2))
    with pytest.raises(ValueError):
        make_entry("pick", pre=[ref], add=[ref])


def test_model_requires_entry_per_action(gripper):
    schema, _ = gripper
    with pytest.raises(ValueError):
        ActionModel(schema, (make_entry("pick"),))


def test_model_rejects_irrelevant_ref(gripper):
    schema, model = gripper
    # carry cannot bind the same action position twice.
    bad = make_entry("move", pre=[Ref("at-robby", (0, 0))])
    with pytest.raises(ValueError):
        model.replace_entry(bad)
