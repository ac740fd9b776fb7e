"""Planner and trace-generation tests: shortest plans, determinism,
prefix property, unitary screening."""

import hashlib
import itertools
import random

import pytest

from pdeeplearn import candidates as cand
from pdeeplearn import tracegen
from pdeeplearn.core import ActionModel, GroundAtom, apply, is_applicable, make_entry, validate_trace
from pdeeplearn.core import LiftedPredicateRef as Ref
from pdeeplearn.domains import get_domain, load_domain
from pdeeplearn.mining import frequent_pairs
from pdeeplearn.pddl import ProblemSpec, serialize_traces
from pdeeplearn.pipeline import generate, load, mine, sample
from pdeeplearn.pruning import prune_candidates
from pdeeplearn.tracegen import (
    GenerationSpec,
    PlannerConfig,
    compile_actions,
    doubling_schedule,
    generate_traces,
    ground_actions,
    plan,
    solves_unitary,
)


@pytest.fixture(scope="module")
def gripper():
    info = get_domain("gripper")
    schema, model, unitary = info.load()
    return info, schema, model, unitary


def _table(problem, model):
    return compile_actions(model, problem.object_table())


def test_unitary_plan_is_pick_move_drop(gripper):
    _, _, model, unitary = gripper
    result = plan(unitary, _table(unitary, model), PlannerConfig())
    assert result.found
    assert [a.action for a in result.actions] == ["pick", "move", "drop"]


def test_goal_inside_init_gives_empty_plan(gripper):
    _, schema, model, unitary = gripper
    problem = ProblemSpec(unitary.name, schema.name, unitary.objects, unitary.init,
                          frozenset([GroundAtom("at", ("b1", "r1"))]))
    result = plan(problem, _table(problem, model), PlannerConfig())
    assert result.actions == ()


def test_unreachable_goal_returns_none(gripper):
    # A pick that requires already carrying can never fire from the
    # unitary init, so the ball can never move.
    _, schema, model, unitary = gripper
    broken = model.replace_entry(make_entry(
        "pick",
        pre=[Ref("carry", (0, 3, 1))],
        add=[Ref("at-robby", (0, 2))],
    ))
    result = plan(unitary, _table(unitary, broken), PlannerConfig())
    assert result.actions is None and not result.exhausted


def test_budget_exhaustion_is_flagged_not_raised(gripper):
    _, _, model, unitary = gripper
    result = plan(unitary, _table(unitary, model), PlannerConfig(max_expansions=1))
    assert result.actions is None
    assert result.exhausted


def _exhaustive_shortest(problem, model, limit=6):
    actions = ground_actions(model.schema, problem.object_table())
    for length in range(limit + 1):
        for seq in itertools.product(actions, repeat=length):
            state = problem.init
            ok = True
            for ga in seq:
                if not is_applicable(state, ga, model):
                    ok = False
                    break
                state = apply(state, ga, model)
            if ok and problem.goal <= state:
                return length
    return None


def test_breadth_first_plans_are_shortest(gripper):
    _, schema, model, unitary = gripper
    oracle = _exhaustive_shortest(unitary, model)
    result = plan(unitary, _table(unitary, model), PlannerConfig())
    assert oracle == len(result.actions) == 3


def test_greedy_strategy_still_reaches_the_goal(gripper):
    _, _, model, unitary = gripper
    result = plan(unitary, _table(unitary, model), PlannerConfig(strategy="greedy-by-goal-count"))
    assert result.found
    state = unitary.init
    for ga in result.actions:
        state = apply(state, ga, model)
    assert unitary.goal <= state


def test_plan_replays_through_apply():
    # The states plan returns are the ones core.apply reaches from init.
    for name, strategy in itertools.product(("gripper", "kiln", "battery"), tracegen.STRATEGIES):
        _, model, unitary = get_domain(name).load()
        result = plan(unitary, _table(unitary, model), PlannerConfig(strategy=strategy))
        assert result.found, (name, strategy)
        states = [unitary.init]
        for ga in result.actions:
            assert is_applicable(states[-1], ga, model)
            states.append(apply(states[-1], ga, model))
        assert result.states == tuple(states), (name, strategy)
        assert unitary.goal <= states[-1]


# Distinct object sets the shipped configs sample at their pinned seeds,
# problems that were redrawn included.
GOLDEN_OBJECT_SETS = {"gripper": 12, "kiln": 3, "battery": 6}


@pytest.mark.parametrize("name", sorted(GOLDEN_OBJECT_SETS))
def test_generation_compiles_each_object_set_once(name, monkeypatch, shipped_config):
    config = shipped_config(name)
    domain = load(config)
    plain = generate(config, domain)
    seen = []

    def spy(model, objects):
        seen.append(tuple(sorted(objects.items())))
        return compile_actions(model, objects)

    monkeypatch.setattr(tracegen, "compile_actions", spy)
    assert generate(config, domain) == plain
    assert len(seen) == len(set(seen)) == GOLDEN_OBJECT_SETS[name]
    assert {t.objects for t in plain} <= set(seen)


@pytest.mark.parametrize("name", ["kiln", "battery"])
def test_catalog_corpora_repeat_the_first_catalog_traces(name, shipped_config):
    # Problem i of a catalog corpus is problem i % catalog, so past the
    # catalog every trace is one generated before it.
    config = shipped_config(name)
    traces = generate(config, load(config))
    assert 0 < config.catalog < len(traces)
    assert all(trace == traces[i % config.catalog] for i, trace in enumerate(traces))


# Planner work of the shipped configs at their pinned seeds:
# (calls, expansions) of plan during generate, then during sample.
GOLDEN_PLANNER_WORK = {
    "gripper": ((100, 2573), (38, 162)),
    "kiln": ((100, 1485), (74, 98)),
    "battery": ((100, 516), (44, 64)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANNER_WORK))
def test_planner_work_is_pinned(name, monkeypatch, shipped_config):
    config = shipped_config(name)
    domain = load(config)
    expansions = []

    def spy(problem, table, cfg):
        result = plan(problem, table, cfg)
        expansions.append(result.expansions)
        return result

    monkeypatch.setattr(tracegen, "plan", spy)
    traces = generate(config, domain)
    generated = len(expansions), sum(expansions)
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    pruned = prune_candidates(space, frequent_pairs(mine(config, traces))).space
    expansions.clear()
    sample(config, domain, pruned)
    assert (generated, (len(expansions), sum(expansions))) == GOLDEN_PLANNER_WORK[name]


def test_solves_unitary_true_for_reference_all_domains():
    for name in ("gripper", "kiln", "battery"):
        _, model, unitary = get_domain(name).load()
        assert solves_unitary(model, unitary, PlannerConfig()), name


def test_model_without_effects_fails_unitary(gripper):
    _, schema, model, unitary = gripper
    inert_entries = tuple(make_entry(e.action, pre=e.pre) for e in model.entries)
    inert = type(model)(schema, inert_entries)
    assert not solves_unitary(inert, unitary, PlannerConfig())


def test_del_to_add_mutation_outcome_pinned(gripper):
    # Golden value from the exhaustive planner: moving free from pick's
    # pre and del lists into add keeps the unitary problem solvable.
    _, _, model, unitary = gripper
    mutated = model.replace_entry(make_entry(
        "pick",
        pre=[Ref("at", (1, 2)), Ref("at-robby", (0, 2))],
        add=[Ref("carry", (0, 3, 1)), Ref("free", (0, 3))],
        delete=[Ref("at", (1, 2))],
    ))
    assert solves_unitary(mutated, unitary, PlannerConfig())


def _spec(info, count, seed):
    return GenerationSpec(problem_count=count, object_count_ranges=info.default_ranges,
                          trace_targets=doubling_schedule(count), rng_seed=seed)


def test_generate_traces_count_and_validity(gripper):
    info, _, model, _ = gripper
    traces = generate_traces(_spec(info, 10, 5), model, PlannerConfig(rng_seed=5),
                             info.sampler)
    assert len(traces) == 10
    assert all(validate_trace(t, model) for t in traces)
    assert all(t.action_count >= 1 for t in traces)


def test_generation_prefix_property(gripper):
    info, _, model, _ = gripper
    cfg = PlannerConfig(rng_seed=5)
    short = generate_traces(_spec(info, 6, 5), model, cfg, info.sampler)
    longer = generate_traces(_spec(info, 12, 5), model, cfg, info.sampler)
    assert longer[:6] == short


def test_generation_is_deterministic(gripper):
    info, schema, model, _ = gripper
    cfg = PlannerConfig(rng_seed=9)
    a = generate_traces(_spec(info, 8, 9), model, cfg, info.sampler)
    b = generate_traces(_spec(info, 8, 9), model, cfg, info.sampler)
    assert serialize_traces(a, schema.name) == serialize_traces(b, schema.name)


def test_doubling_schedule_shape():
    assert doubling_schedule(700) == (10, 20, 40, 80, 160, 320, 640, 700)
    assert doubling_schedule(100) == (10, 20, 40, 80, 100)
    assert doubling_schedule(7) == (7,)
    assert doubling_schedule(10) == (10,)


def test_generation_spec_validation():
    with pytest.raises(ValueError):
        GenerationSpec(problem_count=0, object_count_ranges={})
    with pytest.raises(ValueError):
        GenerationSpec(problem_count=5, object_count_ranges={"room": (2, 1)})
    with pytest.raises(ValueError):
        GenerationSpec(problem_count=5, object_count_ranges={}, trace_targets=(10,))


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(strategy="depth-first")
    with pytest.raises(ValueError):
        PlannerConfig(max_expansions=0)


@pytest.mark.parametrize("name", ["gripper", "kiln", "battery"])
def test_compiled_table_matches_is_applicable_and_apply(name):
    # The reference plus 20 random models from the full space, so that
    # del-only and pre+del refs occur; every row must agree with the
    # core oracle in every state of a few traces.
    info = get_domain(name)
    schema, reference, _ = info.load()
    space = cand.build_space(schema)
    rng = random.Random(11)
    models = [reference] + [
        ActionModel(schema, tuple(rng.choice(list(cas)) for cas in space.per_action))
        for _ in range(20)
    ]
    traces = generate_traces(_spec(info, 3, 4), reference, PlannerConfig(rng_seed=4),
                             info.sampler)
    fired = 0
    for trace in traces:
        objects = dict(trace.objects)
        states = trace.steps[::2]
        for model in models:
            table = compile_actions(model, objects)
            assert [row[0] for row in table] == list(ground_actions(schema, objects))
            for state in states:
                for ga, pre, add, dele in table:
                    applicable = is_applicable(state, ga, model)
                    assert (pre <= state) == applicable
                    if applicable:
                        fired += 1
                        assert (state - dele) | add == apply(state, ga, model)
    assert fired > 0


# sha256 of serialize_traces(generate_traces(...)) for each shipped config,
# its seed shifted by 0 and 1000, under both strategies. Pinned before the
# planner searched over the compiled table: any change in successor order
# or heap tie-break changes them.
GOLDEN_TRACE_DIGESTS = {
    ("gripper", 0, "breadth-first"):
        "c8e755bafca5fd1693832981b11f31b058dbf6ef07f38b6fc37983be67c6518f",
    ("gripper", 0, "greedy-by-goal-count"):
        "dcc6375155ef41dd8a12de1e1e4926e249a701a02cfe31bb6992849d153cabd7",
    ("gripper", 1000, "breadth-first"):
        "19352b6e297d5e4cd69e32b35c7aa90ba1f65bcd7536a8bff70ad9fdbf371e4a",
    ("gripper", 1000, "greedy-by-goal-count"):
        "bac3fc7ebdf96c2b3f5fe5c19a4cbcca043d3cc14e280966f3a0b4efe6100f90",
    ("kiln", 0, "breadth-first"):
        "b42366c15380bac5cc954b2ade95b7dc89f1b734de5d1b4759c60547e2aad0f6",
    ("kiln", 0, "greedy-by-goal-count"):
        "bf18c636103042e439d597d51e83242fed118259e7b5911fafc47d44bc14d84b",
    ("kiln", 1000, "breadth-first"):
        "6124bb265784f2ff61869393b521db9c259a5ddfdb6cdc1c7b015c333f75019f",
    ("kiln", 1000, "greedy-by-goal-count"):
        "a0ae700a3bad19399634b126dfef7aa2250228f802bbaf0dbad9a5c101b23883",
    ("battery", 0, "breadth-first"):
        "2fef17e3b1f95212b29c0b79be332cebb4817837061e9b2120f93ae366172246",
    ("battery", 0, "greedy-by-goal-count"):
        "2d3e877e46093f65749eb1b7f7ebce07bc0a6d38deee4c6f0c938da414475320",
    ("battery", 1000, "breadth-first"):
        "ece31391f96a1543d7562c98552b93bdfe68f5773e23966cca89f8ea82ddec3a",
    ("battery", 1000, "greedy-by-goal-count"):
        "4e046cec94e5bf9c03e073d109db42c6ccc14a4fd40c499a5df687ca724c92c9",
}


@pytest.mark.parametrize("name,shift,strategy", sorted(GOLDEN_TRACE_DIGESTS))
def test_shipped_traces_match_golden_digests(name, shift, strategy, shipped_config):
    config = shipped_config(name)
    seed = config.seed + shift
    domain = load_domain(config.domain)
    spec = GenerationSpec(config.trace_count, domain.ranges,
                          doubling_schedule(config.trace_count), seed, config.catalog)
    traces = generate_traces(spec, domain.reference,
                             PlannerConfig(strategy, config.max_expansions, seed), domain.sampler)
    text = serialize_traces(traces, domain.schema.name)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_TRACE_DIGESTS[(name, shift, strategy)]
