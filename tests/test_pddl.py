"""Parser and serializer tests: located errors, round trips, trace grammar."""

import random
import re

import pytest

from pdeeplearn.candidates import read_candidates
from pdeeplearn.core import GroundAction, GroundAtom
from pdeeplearn.domains import get_domain
from pdeeplearn.pddl import (
    ParseError,
    parse_domain,
    parse_problem,
    parse_traces,
    serialize_model,
    serialize_problem,
    serialize_traces,
    trace_domain,
)
from pdeeplearn.util import stream_rng


@pytest.fixture(scope="module")
def gripper():
    info = get_domain("gripper")
    schema, model = parse_domain(info.domain_text())
    return info, schema, model


def test_gripper_has_three_actions_and_four_predicates(gripper):
    _, schema, _ = gripper
    assert [a.name for a in schema.actions] == ["drop", "move", "pick"]
    assert [p.name for p in schema.predicates] == ["at", "at-robby", "carry", "free"]


def test_empty_domain_body_parses_to_empty_schema():
    schema, model = parse_domain("(define (domain void))")
    assert not schema.actions and not schema.predicates
    assert model.entries == ()


def test_wrong_arity_in_effect_is_a_located_error():
    text = """(define (domain broken)
  (:types ball room)
  (:predicates (at ?b - ball ?r - room))
  (:action lose
    :parameters (?b - ball ?r - room)
    :precondition (and (at ?b ?r))
    :effect (and (not (at ?b)))))"""
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert "expects 2 arguments" in str(err.value)
    assert err.value.line == 7


def test_unknown_type_is_rejected():
    text = """(define (domain broken)
  (:types room)
  (:predicates (at ?b - ball ?r - room)))"""
    with pytest.raises(ParseError):
        parse_domain(text)


def test_unclosed_paren_reports_position():
    with pytest.raises(ParseError) as err:
        parse_domain("(define (domain x)\n  (:types a b")
    assert err.value.line == 2


def _readers():
    schema, _ = parse_domain(get_domain("gripper").domain_text())
    return {
        "domain": ("(define (domain d)\n", parse_domain),
        "problem": ("(define (problem p) (:domain gripper)\n",
                    lambda text: parse_problem(text, schema)),
        "traces": ("(trace (:domain gripper)\n", lambda text: parse_traces(text, schema)),
        "candidates": ("(candidate-sets (:domain gripper)\n",
                       lambda text: read_candidates(text, schema)),
    }


@pytest.mark.parametrize("reader", ["domain", "problem", "traces", "candidates"])
def test_parser_survives_arbitrary_text(reader):
    # A valid header first, so that the random body reaches the section code.
    header, parse = _readers()[reader]
    rng = stream_rng(7, "fuzz")
    alphabet = "()abc ?-:\n;01"
    for _ in range(300):
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=40))
        try:
            parse(header + text + "\n)")
        except ParseError:
            pass


def _canonical_texts():
    from pdeeplearn.candidates import (CandidateModelSpace, enumerate_candidates,
                                       relevant_predicates, write_candidates)
    from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, generate_traces

    info = get_domain("gripper")
    schema, model = parse_domain(info.domain_text())
    spec = GenerationSpec(problem_count=2, object_count_ranges=info.default_ranges, rng_seed=1)
    traces = generate_traces(spec, model, PlannerConfig(rng_seed=1), info.sampler)
    space = CandidateModelSpace(schema, tuple(
        enumerate_candidates(sig, relevant_predicates(sig, schema.predicates)[:2])
        for sig in schema.actions))
    return {
        "domain": info.domain_text(),
        "problem": info.unitary_text(),
        "traces": serialize_traces(traces, schema.name),
        "candidates": write_candidates(space),
    }


@pytest.mark.parametrize("reader", ["domain", "problem", "traces", "candidates"])
def test_mutated_files_raise_only_parse_errors(reader):
    # Delete, replace, insert or swap one to three tokens of a valid file.
    _, parse = _readers()[reader]
    tokens = re.findall(r"[()]|[^\s()]+", _canonical_texts()[reader])
    vocab = ["(", ")", "0", "1", "3", "-", "at", "free", "pick", "b1", "ball", "?x0",
             "and", "not", ":pre", ":add", ":del", ":count", ":domain", ":objects", "kiln"]
    rng = random.Random(5)
    for _ in range(300):
        body = list(tokens)
        for _ in range(rng.randint(1, 3)):
            i, op = rng.randrange(len(body)), rng.randrange(4)
            if op == 0:
                del body[i]
            elif op == 1:
                body[i] = rng.choice(vocab)
            elif op == 2:
                body.insert(i, rng.choice(vocab))
            else:
                j = rng.randrange(len(body))
                body[i], body[j] = body[j], body[i]
        try:
            parse(" ".join(body))
        except ParseError:
            pass


def test_model_round_trips_through_canonical_text(gripper):
    _, schema, model = gripper
    text = serialize_model(model)
    schema2, model2 = parse_domain(text)
    assert schema2 == schema
    assert model2 == model
    assert serialize_model(model2) == text


def test_problem_round_trip(gripper):
    info, schema, _ = gripper
    problem = parse_problem(info.unitary_text(), schema)
    assert problem.goal == {GroundAtom("at", ("b1", "r2"))}
    again = parse_problem(serialize_problem(problem), schema)
    assert again == problem


def test_listing_style_trace_parses_to_action_then_state(gripper):
    _, schema, _ = gripper
    text = """(trace
  (:domain gripper)
  (:objects ball5 - ball room1 room2 - room robot3 - robot rgripper3 - gripper)
  (:init (at ball5 room1) (at-robby robot3 room1) (free robot3 rgripper3))
  (action (pick robot3 ball5 room1 rgripper3))
  (:goal (at-robby robot3 room1) (carry robot3 rgripper3 ball5)))"""
    traces = parse_traces(text, schema)
    assert len(traces) == 1
    trace = traces[0]
    assert trace.actions() == (GroundAction("pick", ("robot3", "ball5", "room1", "rgripper3")),)
    assert GroundAtom("at", ("ball5", "room1")) in trace.initial_state


def test_empty_trace_file_gives_empty_list(gripper):
    _, schema, _ = gripper
    assert parse_traces("", schema) == []


def test_two_actions_without_state_is_alternation_error(gripper):
    _, schema, _ = gripper
    text = """(trace (:domain gripper)
  (:objects b - ball r1 r2 - room rob - robot g - gripper)
  (:init (at b r1) (at-robby rob r1) (free rob g))
  (action (pick rob b r1 g))
  (action (move rob r1 r2))
  (:goal (at-robby rob r2)))"""
    with pytest.raises(ParseError) as err:
        parse_traces(text, schema)
    assert "no state between" in str(err.value)


def test_unknown_object_in_trace_is_rejected(gripper):
    _, schema, _ = gripper
    text = """(trace (:domain gripper)
  (:objects b - ball r1 - room rob - robot g - gripper)
  (:init (at b r2))
  (action (move rob r1 r1))
  (:goal (at b r2)))"""
    with pytest.raises(ParseError) as err:
        parse_traces(text, schema)
    assert "unknown object" in str(err.value)


def test_traces_round_trip_byte_identically(gripper):
    info, schema, model = gripper
    from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, generate_traces

    spec = GenerationSpec(problem_count=5, object_count_ranges=info.default_ranges,
                          rng_seed=11)
    traces = generate_traces(spec, model, PlannerConfig(rng_seed=11), info.sampler)
    text = serialize_traces(traces, schema.name)
    parsed = parse_traces(text, schema)
    assert parsed == traces
    assert serialize_traces(parsed, schema.name) == text


def test_model_with_empty_del_serializes_without_negations(gripper):
    from pdeeplearn.core import ActionModel, make_entry

    _, schema, model = gripper
    entries = tuple(make_entry(e.action, pre=e.pre, add=e.add) for e in model.entries)
    text = serialize_model(ActionModel(schema, entries))
    assert "(not " not in text
    schema2, model2 = parse_domain(text)
    assert all(not e.delete for e in model2.entries)


def test_serialized_model_orders_actions_and_predicates(gripper):
    _, _, model = gripper
    text = serialize_model(model)
    drop = text.index("(:action drop")
    move = text.index("(:action move")
    pick = text.index("(:action pick")
    assert drop < move < pick
    pick_block = text[pick:]
    # pre list sorted: at before at-robby before free
    assert pick_block.index("(at ") < pick_block.index("(at-robby ") < pick_block.index("(free ")


def test_duplicate_object_in_trace_header_is_rejected(gripper):
    _, schema, _ = gripper
    text = """(trace (:domain gripper)
  (:objects b1 - ball b1 - room rob - robot g - gripper)
  (:init (at-robby rob b1))
  (action (move rob b1 b1))
  (:goal (at-robby rob b1)))"""
    with pytest.raises(ParseError, match="duplicate object: b1") as err:
        parse_traces(text, schema)
    assert (err.value.line, err.value.col) == (2, 3)


def test_trace_domain_reads_the_first_header(gripper):
    assert trace_domain("(trace (:objects) (:domain kiln))\n(trace (:domain gripper))") == "kiln"
    with pytest.raises(ParseError, match="no \\(:domain NAME\\) header"):
        trace_domain("(trace (:objects b - ball))")
    with pytest.raises(ParseError) as err:
        trace_domain("(trace\n  (:domain))")
    assert err.value.line == 2
