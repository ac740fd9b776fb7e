"""Pair-constraint and sampling tests, including the worked C3 example
and reference survival on every shipped domain."""

import hashlib
import json
import random
from dataclasses import replace

import pytest

from pdeeplearn import candidates as cand
from pdeeplearn.core import ActionSignature, DomainSchema, PredicateSchema, make_entry
from pdeeplearn.core import LiftedPredicateRef as Ref
from pdeeplearn.domains import get_domain, load_domain
from pdeeplearn.mining import SequenceDatabase, frequent_pairs, stability_scan
from pdeeplearn.pruning import (
    NoViableModels,
    PruneStats,
    PruningEmptiedAction,
    manifest_json,
    manifest_load,
    prune_candidates,
    sample_models,
)
from pdeeplearn.pipeline import generate, load, mine, sample
from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, doubling_schedule, generate_traces


@pytest.fixture(scope="module")
def gripper():
    info = get_domain("gripper")
    schema, model, unitary = info.load()
    return info, schema, model, unitary


# Two actions over one type and one binary predicate: each action's refs
# are (at 0 1) and (at 1 0).
TOY = DomainSchema("toy", frozenset({"t"}), (PredicateSchema("at", ("t", "t")),),
                   (ActionSignature("a", ("t", "t")), ActionSignature("b", ("t", "t"))))


def _pairing_kept(schema, first, second):
    """Prune the pair (first.action, second.action) in the space where each
    of the two entries is its action's only candidate: True when both
    survive, False when the pairing satisfies none of C1..C3 and pruning
    empties an action."""
    only = {first.action: first, second.action: second}
    space = cand.build_space(schema)
    space = cand.CandidateModelSpace(schema, tuple(
        cas.listing([only[cas.action]]) if cas.action in only else cas
        for cas in space.per_action))
    try:
        result = prune_candidates(space, [(first.action, second.action)])
    except PruningEmptiedAction:
        return False
    assert result.space == space
    return True


def test_worked_move_pick_pair_satisfies_only_c3(gripper):
    # move: ((at-robby), (), (not at-robby)); pick: ((carry), (at-robby),
    # (not at)) satisfy exactly the deleted-readded constraint.
    _, schema, _, _ = gripper
    move_entry = make_entry("move", pre=[Ref("at-robby", (0, 1))],
                            delete=[Ref("at-robby", (0, 1))])
    pick_entry = make_entry("pick", pre=[Ref("carry", (0, 3, 1))],
                            add=[Ref("at-robby", (0, 2))],
                            delete=[Ref("at", (1, 2))])
    assert _pairing_kept(schema, move_entry, pick_entry)
    # Without pick adding at-robby back, C3 fails and nothing else holds.
    pick_keeps_robby = make_entry("pick", pre=[Ref("carry", (0, 3, 1))],
                                  delete=[Ref("at", (1, 2))])
    assert not _pairing_kept(schema, move_entry, pick_keeps_robby)


def test_add_feeding_pre_is_c2():
    first = make_entry("a", add=[Ref("at", (0, 1))])
    second = make_entry("b", pre=[Ref("at", (0, 1))])
    assert _pairing_kept(TOY, first, second)


def test_empty_entries_satisfy_nothing():
    assert not _pairing_kept(TOY, make_entry("a"), make_entry("b"))


def test_shared_precondition_requires_survival_of_del():
    shared = Ref("at", (0, 1))
    first = make_entry("a", pre=[shared], delete=[shared])
    second = make_entry("b", pre=[shared])
    # The shared ref is deleted by the first action, so C1 fails; C3
    # would need the second action to add it back.
    assert not _pairing_kept(TOY, first, second)
    first_softer = make_entry("a", pre=[shared])
    assert _pairing_kept(TOY, first_softer, second)


def test_unifiable_means_same_predicate_name_any_binding():
    first = make_entry("a", add=[Ref("at", (0, 1))])
    second = make_entry("b", pre=[Ref("at", (1, 0))])
    assert _pairing_kept(TOY, first, second)


def test_empty_pair_list_is_a_no_op(gripper):
    _, schema, _, _ = gripper
    space = cand.build_space(schema)
    result = prune_candidates(space, [])
    assert result.stats.final_counts == result.stats.initial_counts
    assert result.stats.pair_evaluations == 0
    for before, after in zip(space.per_action, result.space.per_action):
        assert list(before) == list(after)


def test_pair_evaluation_count_is_exactly_m_times_n(gripper):
    _, schema, _, _ = gripper
    space = cand.build_space(schema)
    pairs = [("pick", "move"), ("drop", "move")]
    result = prune_candidates(space, pairs)
    expected = len(space.for_action("pick")) * len(space.for_action("move")) \
        + len(space.for_action("drop")) * len(space.for_action("move"))
    assert result.stats.pair_evaluations == expected == 625 * 25 * 2


def test_pruning_is_monotone_and_preserves_reference(gripper):
    _, schema, model, _ = gripper
    space = cand.build_space(schema)
    result = prune_candidates(space, [("pick", "move"), ("drop", "move")])
    for before, after in zip(space.per_action, result.space.per_action):
        assert set(after) <= set(before)
    assert cand.contains_reference(result.space, model)
    # golden counts for the shipped gripper encoding
    assert result.stats.final_counts == {"drop": 500, "move": 21, "pick": 500}
    assert result.stats.percent_reduction == pytest.approx(19.92, abs=0.01)


def test_untouched_actions_pass_through(gripper):
    _, schema, _, _ = gripper
    space = cand.build_space(schema)
    result = prune_candidates(space, [("pick", "move")])
    assert list(result.space.for_action("drop")) == list(space.for_action("drop"))


def test_reference_survives_pruning_on_generated_traces_all_domains():
    for name in ("gripper", "kiln", "battery"):
        info = get_domain(name)
        schema, model, _ = info.load()
        spec = GenerationSpec(problem_count=40, object_count_ranges=info.default_ranges,
                              rng_seed=31)
        traces = generate_traces(spec, model, PlannerConfig(rng_seed=31), info.sampler)
        db = SequenceDatabase.from_traces(traces)
        report = stability_scan([db.prefix(10), db.prefix(20), db.prefix(40)],
                                "0.2", "0.4", "0.4")
        pairs = frequent_pairs(report)
        assert pairs, name
        if name == "gripper":
            # golden stable rule on generated gripper traces
            assert ("pick", "move") in pairs
        space = cand.build_space(schema)
        result = prune_candidates(space, pairs)
        assert cand.contains_reference(result.space, model), name


def test_pruning_that_empties_an_action_raises():
    # A pair whose actions share no predicate names empties both sides.
    schema, _, _ = get_domain("kiln").load()
    space = cand.build_space(schema)
    impossible = space.for_action("glaze").listing([make_entry("glaze")])
    crippled = cand.CandidateModelSpace(
        schema, tuple(impossible if c.action == "glaze" else c for c in space.per_action))
    with pytest.raises(PruningEmptiedAction) as err:
        prune_candidates(crippled, [("glaze", "glaze")])
    assert err.value.action == "glaze"


def test_budget_one_with_reference_gives_reference_only(gripper):
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    sampled = sample_models(space, unitary, PlannerConfig(), budget=1, rng_seed=0,
                            include_reference=True, reference=model)
    assert len(sampled) == 1
    assert sampled.models[0].is_reference
    assert sampled.models[0].model.entries == model.entries


def test_exhaustive_mode_screens_the_whole_product(gripper):
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    # Restrict each action to a handful of candidates containing the
    # reference entry so the cross product is below the budget.
    small_sets = []
    for cas in space.per_action:
        ref_entry = model.entry(cas.action)
        keep = [ref_entry] + [e for e in map(cas.entry, range(3)) if e != ref_entry]
        small_sets.append(cas.listing(keep))
    small = cand.CandidateModelSpace(schema, tuple(small_sets))
    assert cand.space_size(small) <= 64
    sampled = sample_models(small, unitary, PlannerConfig(), budget=64, rng_seed=0,
                            include_reference=True, reference=model)
    # every sampled model solves the unitary problem
    from pdeeplearn.tracegen import solves_unitary

    for m in sampled.models:
        assert solves_unitary(m.model, unitary, PlannerConfig())
    indices = {m.candidate_indices for m in sampled.models}
    assert len(indices) == len(sampled.models)


def test_unviable_models_are_excluded(gripper):
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    inert_sets = []
    for cas in space.per_action:
        inert_sets.append(cas.listing([make_entry(cas.action)]))
    inert = cand.CandidateModelSpace(schema, tuple(inert_sets))
    with pytest.raises(NoViableModels):
        sample_models(inert, unitary, PlannerConfig(), budget=5, rng_seed=0)


def test_sampling_is_deterministic(gripper):
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    a = sample_models(space, unitary, PlannerConfig(), budget=6, rng_seed=77,
                      include_reference=True, reference=model)
    b = sample_models(space, unitary, PlannerConfig(), budget=6, rng_seed=77,
                      include_reference=True, reference=model)
    assert [m.candidate_indices for m in a.models] == [m.candidate_indices for m in b.models]


def test_manifest_round_trip(gripper):
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    sampled = sample_models(space, unitary, PlannerConfig(), budget=4, rng_seed=3,
                            include_reference=True, reference=model)
    text = manifest_json(sampled, space)
    back = manifest_load(text, schema)
    assert len(back) == len(sampled)
    for original, loaded in zip(sampled.models, back.models):
        assert loaded.model_id == original.model_id
        assert loaded.model.entries == original.model.entries
        assert loaded.is_reference == original.is_reference


def test_manifest_loads_a_version_1_manifest(gripper):
    # Version 1 manifests carried a "solves_unitary" flag that was always
    # true; older run directories must still load.
    _, schema, model, unitary = gripper
    space = cand.build_space(schema)
    sampled = sample_models(space, unitary, PlannerConfig(), budget=4, rng_seed=3,
                            include_reference=True, reference=model)
    payload = json.loads(manifest_json(sampled, space))
    assert payload["schema_version"] == 2
    assert all("solves_unitary" not in m for m in payload["models"])
    payload["schema_version"] = 1
    for m in payload["models"]:
        m["solves_unitary"] = True
    back = manifest_load(json.dumps(payload, indent=2, sort_keys=True), schema)
    assert [m.model_id for m in back.models] == [m.model_id for m in sampled.models]
    assert [m.model.entries for m in back.models] == [m.model.entries for m in sampled.models]
    assert [m.is_reference for m in back.models] == [m.is_reference for m in sampled.models]


# -- the set rule against the m x n loop it replaced --------------------------


def _oracle_prune(space, pairs):
    """The nested retention loop: every |CAS_i| x |CAS_j| pairing of every
    pair is tested, and both of its candidates are kept when it satisfies
    C1, C2 or C3. Returns (space, stats) or raises PruningEmptiedAction."""
    def names(refs):
        return frozenset(r.predicate for r in refs)

    rows = {cas.action: [(names(e.pre - e.delete), names(e.add), names(e.delete), names(e.pre))
                         for e in cas]
            for cas in space.per_action}
    retained, evaluations = {}, 0
    for first_action, second_action in pairs:
        keep_first = retained.setdefault(first_action, set())
        keep_second = retained.setdefault(second_action, set())
        for i, (pre_kept, add_first, del_first, _) in enumerate(rows[first_action]):
            for j, (_, add_second, _, pre_second) in enumerate(rows[second_action]):
                evaluations += 1
                if pre_kept & pre_second or add_first & pre_second or del_first & add_second:
                    keep_first.add(i)
                    keep_second.add(j)
    reduced = []
    for cas in space.per_action:
        if cas.action in retained:
            if not retained[cas.action]:
                raise PruningEmptiedAction(cas.action)
            cas = cas.listing(cas.entry(i) for i in sorted(retained[cas.action]))
        reduced.append(cas)
    stats = PruneStats(evaluations, space.counts(), {c.action: len(c) for c in reduced})
    return cand.CandidateModelSpace(space.schema, tuple(reduced)), stats


def _set_rule_prune(space, pairs):
    result = prune_candidates(space, pairs)
    return result.space, result.stats


def _outcome(prune, space, pairs):
    """(space, stats) of one pruning, or the action it emptied."""
    try:
        return prune(space, pairs)
    except PruningEmptiedAction as err:
        return "emptied", err.action


def _assert_matches_oracle(space, pairs):
    """Same space, stats or emptied action as the oracle; True when kept."""
    got = _outcome(_set_rule_prune, space, pairs)
    assert got == _outcome(_oracle_prune, space, pairs)
    return got[0] != "emptied"


@pytest.fixture(scope="module")
def shipped_spaces():
    """Every shipped domain's full space, with and without strict_del."""
    spaces = {}
    for name in ("gripper", "kiln", "battery"):
        schema = get_domain(name).load()[0]
        for strict_del in (False, True):
            spaces[name, strict_del] = cand.build_space(schema, strict_del)
    return spaces


def _random_subspace(rng, space):
    sets = []
    for cas in space.per_action:
        size = rng.choice((0, 1, 2, 3, 8, 30, 80))
        picked = rng.sample(list(cas), min(size, len(cas)))
        sets.append(cas.listing(picked))
    return cand.CandidateModelSpace(space.schema, tuple(sets))


def _random_pairs(rng, actions):
    pairs = [(rng.choice(actions), rng.choice(actions)) for _ in range(rng.randrange(5))]
    if pairs and rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    if rng.random() < 0.5:
        pairs.append((rng.choice(actions),) * 2)
    rng.shuffle(pairs)
    return pairs


def test_set_rule_matches_the_pairwise_oracle_on_random_subspaces(shipped_spaces):
    rng = random.Random(5)
    kept, emptied = 0, 0
    for (name, strict_del), space in sorted(shipped_spaces.items()):
        actions = list(space.action_names())
        for _ in range(40):
            subspace = _random_subspace(rng, space)
            if _assert_matches_oracle(subspace, _random_pairs(rng, actions)):
                kept += 1
            else:
                emptied += 1
    # Both outcomes were exercised: pruned spaces and the emptied-action error.
    assert kept > 40 and emptied > 40


def test_set_rule_matches_the_pairwise_oracle_on_full_spaces(shipped_spaces):
    rng = random.Random(11)
    for (name, strict_del), space in sorted(shipped_spaces.items()):
        actions = list(space.action_names())
        pairs = [(rng.choice(actions), rng.choice(actions)) for _ in range(2)]
        pairs += [(actions[0], actions[0]), pairs[0]]
        assert _assert_matches_oracle(space, pairs), (name, strict_del)


def _pinned_space_and_pairs(config):
    """The enumerated space and mined pairs of a shipped config, built as
    run_pipeline builds them."""
    domain = load_domain(config.domain)
    schedule = doubling_schedule(config.trace_count)
    spec = GenerationSpec(config.trace_count, domain.ranges, schedule, config.seed,
                          config.catalog)
    planner = PlannerConfig(config.strategy, config.max_expansions, config.seed)
    db = SequenceDatabase.from_traces(
        generate_traces(spec, domain.reference, planner, domain.sampler))
    stability = stability_scan([db.prefix(p) for p in schedule], config.min_support,
                               config.min_confidence, config.stability_tolerance)
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    return space, frequent_pairs(stability)


@pytest.mark.parametrize("name", ["gripper", "kiln", "battery"])
def test_set_rule_matches_the_pairwise_oracle_on_pinned_configs(name, shipped_config):
    space, pairs = _pinned_space_and_pairs(shipped_config(name))
    assert pairs
    assert _assert_matches_oracle(space, pairs)


# sha256 of candidates.sexp, pruned.sexp and models.json as run_pipeline
# writes them for each shipped config, its seed and sample_seed shifted by
# 0 and 1000. Pinned while candidate sets were still materialized entries:
# any change in candidate order, file text or sampling changes them.
GOLDEN_FRONTEND_DIGESTS = {
    ("gripper", 0): (
        "3543c96f0bc3ed96865d725a6ef73c65910ae1b2024d01d8fd6e6dffe5f0b0c6",
        "3d7a95d31d3f0347c03266de7a25513ac822d11361b7bd2cc5154e9be6c3e48b",
        "0ea512a0cc61252926436cdc484973131f1a2267176471586adcbc0a7b8d2588",
    ),
    ("gripper", 1000): (
        "3543c96f0bc3ed96865d725a6ef73c65910ae1b2024d01d8fd6e6dffe5f0b0c6",
        "9c3c32c35a42f872f33e5b513a680c1fb25bcacd6a3e8e30a44c0514f1dd6d9f",
        "50a67fc9241335818f401e8c808a7c0f1f8d3c212b45988476ebbe87c023e65b",
    ),
    ("kiln", 0): (
        "7c13c3b6a9163a08baf6e6f9641735a977639d98ff23d0d33ada53acd55aa002",
        "5aa42a318d3cbd6631d1faafa1b38e4bb64a1d294e9e125668c1a085c8e5fed4",
        "7288605cc01dc47803b215fa20b3e4bcdfdd191055d10925e98b96fe91a461db",
    ),
    ("kiln", 1000): (
        "7c13c3b6a9163a08baf6e6f9641735a977639d98ff23d0d33ada53acd55aa002",
        "5aa42a318d3cbd6631d1faafa1b38e4bb64a1d294e9e125668c1a085c8e5fed4",
        "b166c44ad413ef120f999957bc2d07761f56b7895a8b156ebc954b2af3593eff",
    ),
    ("battery", 0): (
        "944be5f77155eeee01888ca03e5a9a2e4ef984cf1066f5b79bdcc05eadd73ed7",
        "fac3e670f151d6cc8691b7da60ca2ad869ecf047336f0a0f22173535f784f5e0",
        "c5774bceb447e6aa327b654baf3344ab32746c0137f0739df34685b2f006b78c",
    ),
    ("battery", 1000): (
        "944be5f77155eeee01888ca03e5a9a2e4ef984cf1066f5b79bdcc05eadd73ed7",
        "fac3e670f151d6cc8691b7da60ca2ad869ecf047336f0a0f22173535f784f5e0",
        "5a07fb0448e6d5accf721a703dbb01be630b07fb145f653bcc6108d0c3e961e1",
    ),
}


@pytest.mark.parametrize("name,shift", sorted(GOLDEN_FRONTEND_DIGESTS))
def test_shipped_frontend_artifacts_match_golden_digests(name, shift, shipped_config):
    config = shipped_config(name)
    config = replace(config, seed=config.seed + shift, sample_seed=config.sample_seed + shift)
    domain = load(config)
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    pruned = prune_candidates(space, frequent_pairs(mine(config, generate(config, domain)))).space
    texts = (cand.write_candidates(space), cand.write_candidates(pruned),
             manifest_json(sample(config, domain, pruned), pruned))
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in texts)
    assert digests == GOLDEN_FRONTEND_DIGESTS[name, shift]
