"""Candidate-space tests: relevance bindings, the count law, membership."""

import itertools

import pytest

from pdeeplearn import candidates as cand
from pdeeplearn.core import (
    ActionSignature,
    DomainSchema,
    LiftedPredicateRef as Ref,
    PredicateSchema,
    make_entry,
)
from pdeeplearn.domains import get_domain
from pdeeplearn.pddl import ParseError
from pdeeplearn.util import stream_rng


@pytest.fixture(scope="module")
def gripper():
    schema, model, _ = get_domain("gripper").load()
    return schema, model


def test_pick_relevance_includes_all_type_sharing_predicates(gripper):
    schema, _ = gripper
    refs = cand.relevant_predicates(schema.action("pick"), schema.predicates)
    names = sorted({r.predicate for r in refs})
    # free(robot, gripper) shares pick's types, so it is relevant even
    # though informal descriptions of this domain often omit it.
    assert names == ["at", "at-robby", "carry", "free"]
    assert len(refs) == 4


def test_zero_parameter_action_has_no_unary_relevant_predicates():
    preds = [PredicateSchema("on", ("block",))]
    refs = cand.relevant_predicates(ActionSignature("noop", ()), preds)
    assert refs == ()


def test_move_gets_two_bindings_for_at_robby(gripper):
    schema, _ = gripper
    refs = cand.relevant_predicates(schema.action("move"), schema.predicates)
    # Hand enumeration of injective bindings: the robot slot is forced,
    # the room slot can bind either room parameter.
    assert refs == (Ref("at-robby", (0, 1)), Ref("at-robby", (0, 2)))


def test_predicate_with_absent_type_is_excluded(gripper):
    schema, _ = gripper
    refs = cand.relevant_predicates(schema.action("move"), schema.predicates)
    assert all(r.predicate == "at-robby" for r in refs)


def _brute_force_count(k: int, strict_del: bool = False)-> int:
    # Independent oracle: filter all 2^k x 2^k x 2^k subset triples
    # encoded as bitmasks.
    count = 0
    for pre in range(1 << k):
        for add in range(1 << k):
            if pre & add:
                continue
            for dele in range(1 << k):
                if add & dele:
                    continue
                if strict_del and (dele & ~pre):
                    continue
                count += 1
    return count


@pytest.mark.parametrize("k", range(7))
def test_count_law_matches_brute_force(k):
    action = ActionSignature("act", tuple(f"t{i}" for i in range(k)))
    preds = [PredicateSchema(f"p{i}", (f"t{i}",)) for i in range(k)]
    refs = cand.relevant_predicates(action, preds)
    assert len(refs) == k
    cas = cand.enumerate_candidates(action, refs)
    assert len(cas) == _brute_force_count(k)
    assert len(cas) == 5 ** k
    assert len(set(cas)) == len(cas)


def test_single_ref_yields_exactly_the_five_triples():
    action = ActionSignature("act", ("t",))
    refs = (Ref("p", (0,)),)
    cas = cand.enumerate_candidates(action, refs)
    expected = {
        make_entry("act"),
        make_entry("act", delete=refs),
        make_entry("act", add=refs),
        make_entry("act", pre=refs),
        make_entry("act", pre=refs, delete=refs),
    }
    assert set(cas) == expected


def test_zero_refs_yield_single_empty_candidate():
    cas = cand.enumerate_candidates(ActionSignature("act", ()), ())
    assert len(cas) == 1
    assert cas.entry(0).total_predicates == 0


@pytest.mark.parametrize("strict_del", [False, True])
def test_codes_list_candidates_in_product_order(strict_del):
    # Oracle: the per-entry loop over itertools.product that codes replaced.
    action = ActionSignature("act", ("t0", "t1", "t2"))
    refs = (Ref("p", (0,)), Ref("p", (2,)), Ref("q", (1,)))
    states = [s for s in cand._REF_STATES if not (strict_del and s == (False, False, True))]
    expected = [make_entry("act", *([r for r, s in zip(refs, assignment) if s[k]]
                                    for k in range(3)))
                for assignment in itertools.product(states, repeat=len(refs))]
    cas = cand.enumerate_candidates(action, refs, strict_del)
    assert list(cas) == expected
    assert [cas.index_of(e) for e in expected] == list(range(len(expected)))
    assert cas.listing(reversed(expected)).codes.tolist() == list(range(len(cas)))[::-1]
    if strict_del:
        assert make_entry("act", delete=refs[:1]) not in cas


def test_masks_hold_bits_beyond_int64():
    refs = (Ref("p", (0,)), Ref("q", (1,)))
    cas = cand.enumerate_candidates(ActionSignature("act", ("t0", "t1")), refs)
    bits = dict(zip(refs, (1 << 70, 1 << 3)))
    expected = [[sum(bits[r] for r in lst) for lst in (e.pre, e.add, e.delete, e.pre - e.delete)]
                for e in cas]
    assert cas.masks(list(bits.values())).T.tolist() == expected


def test_strict_del_count_law():
    action = ActionSignature("act", ("t0", "t1"))
    preds = [PredicateSchema("p0", ("t0",)), PredicateSchema("p1", ("t1",))]
    refs = cand.relevant_predicates(action, preds)
    cas = cand.enumerate_candidates(action, refs, strict_del=True)
    assert len(cas) == _brute_force_count(2, strict_del=True) == 16


def test_listing_style_pick_triple_is_a_member(gripper):
    schema, _ = gripper
    refs = cand.relevant_predicates(schema.action("pick"), schema.predicates)
    cas = cand.enumerate_candidates(schema.action("pick"), refs)
    triple = make_entry("pick", pre=[Ref("at", (1, 2))], add=[Ref("carry", (0, 3, 1))],
                        delete=[Ref("at-robby", (0, 2))])
    assert triple in cas


def test_monotonicity_adding_a_ref_never_shrinks_the_set():
    action = ActionSignature("act", ("t0", "t1", "t2"))
    preds = [PredicateSchema(f"p{i}", (f"t{i}",)) for i in range(3)]
    sizes = []
    for upto in range(1, 4):
        refs = cand.relevant_predicates(action, preds[:upto])
        sizes.append(len(cand.enumerate_candidates(action, refs)))
    assert sizes == sorted(sizes)


def test_relevance_cap_raises_instead_of_truncating():
    action = ActionSignature("act", tuple(f"t{i}" for i in range(3)))
    preds = [PredicateSchema(f"p{i}", (f"t{i % 3}",)) for i in range(20)]
    refs = cand.relevant_predicates(action, preds)
    with pytest.raises(cand.TooManyRelevantPredicates):
        cand.enumerate_candidates(action, refs, max_relevant=16)


def test_reference_models_are_members_for_all_shipped_domains():
    for name in ("gripper", "kiln", "battery"):
        schema, model, _ = get_domain(name).load()
        space = cand.build_space(schema)
        assert cand.contains_reference(space, model), name


def test_space_size_is_exact_product(gripper):
    schema, _ = gripper
    space = cand.build_space(schema)
    assert cand.space_size(space) == 625 * 25 * 625
    assert space.counts() == {"drop": 625, "move": 25, "pick": 625}


def test_space_size_single_ref_action():
    action = ActionSignature("act", ("t",))
    preds = [PredicateSchema("p", ("t",))]
    schema_like = cand.enumerate_candidates(action, cand.relevant_predicates(action, preds))
    assert len(schema_like) == 5


def test_candidate_file_round_trip(gripper):
    schema, _ = gripper
    space = cand.build_space(schema)
    text = cand.write_candidates(space)
    back = cand.read_candidates(text, schema)
    assert back.counts() == space.counts()
    for cas, cas2 in zip(space.per_action, back.per_action):
        assert list(cas) == list(cas2)
        assert cas.refs == cas2.refs


def test_random_schemas_count_law():
    rng = stream_rng(3, "count-law")
    for _ in range(20):
        arity = int(rng.integers(0, 4))
        action = ActionSignature("act", tuple(f"t{i}" for i in range(arity)))
        preds = []
        for p in range(int(rng.integers(0, 4))):
            width = int(rng.integers(1, 3))
            types = tuple(f"t{int(rng.integers(0, max(arity, 1)))}" for _ in range(width))
            preds.append(PredicateSchema(f"p{p}", types))
        refs = cand.relevant_predicates(action, preds)
        if len(refs) > 6:
            continue
        cas = cand.enumerate_candidates(action, refs)
        assert len(cas) == 5 ** len(refs)


@pytest.fixture(scope="module")
def gripper_file(gripper):
    schema, _ = gripper
    return cand.write_candidates(cand.build_space(schema))


@pytest.mark.parametrize("line, old, new, message", [
    (2, "(:domain gripper)", "(:domain kiln)", "candidate file is for domain kiln"),
    (3, "(:action drop", "(:action throw", "unknown action: throw"),
    (4, "(at 1 2)", "(at 0 2)", "position 0 has type robot, predicate at needs ball"),
    (4, "(at 1 2)", "(at 1 7)", "unknown position: 7"),
    (4, "(at 1 2)", "(on 1 2)", "unknown predicate: on"),
    (4, "(at 1 2)", "(at 1 2) (at 1 2)", "repeated ref: (at 1 2)"),
    (4, " (free 0 3)", "", "(free 0 3) is not in the :relevant list of drop"),
    (5, "(:count 625)", "(:count 624)", "(:count 624) but drop has 625 candidates"),
    (6, "(:pre )", "(:prec )", "unknown candidate list: :prec"),
    (6, "(:del )", "(:add )", "repeated candidate list: :add"),
    (6, "(:add ) (:del )", "(:add (free 0 3)) (:del (free 0 3))", "add and del lists intersect"),
    (6, "(:candidate", "(:candidates", "expected (:candidate"),
    # The :count stays right: move's second candidate becomes its first.
    (636, "(:del (at-robby 0 2))", "(:del )", "repeated candidate"),
])
def test_candidate_file_rule_violations_are_located(gripper, gripper_file, line, old, new,
                                                    message):
    schema, _ = gripper
    lines = gripper_file.splitlines()
    # A ref dropped from :relevant is first used on line 7.
    at = 7 if new == "" else line
    assert old in lines[line - 1]
    lines[line - 1] = lines[line - 1].replace(old, new, 1)
    with pytest.raises(ParseError) as err:
        cand.read_candidates("\n".join(lines), schema)
    assert message in str(err.value)
    assert err.value.line == at


def test_candidate_file_needs_every_action_once(gripper, gripper_file):
    schema, _ = gripper
    drop = gripper_file.index("  (:action drop")
    move = gripper_file.index("  (:action move")
    with pytest.raises(ParseError, match="do not cover") as err:
        cand.read_candidates(gripper_file[:drop] + gripper_file[move:], schema)
    assert err.value.line == 1
    repeated = gripper_file[:move] + gripper_file[drop:move] + gripper_file[move:]
    with pytest.raises(ParseError, match="duplicate action: drop"):
        cand.read_candidates(repeated, schema)


def test_candidate_ref_must_be_a_relevant_binding():
    # (adj 0 0) is well typed but binds one parameter twice.
    schema = DomainSchema("rooms", frozenset({"room"}), (PredicateSchema("adj", ("room", "room")),),
                          (ActionSignature("go", ("room", "room")),))
    text = cand.write_candidates(cand.build_space(schema)).replace("(adj 0 1)", "(adj 0 0)", 1)
    with pytest.raises(ParseError, match=r"\(adj 0 0\) is not relevant to go") as err:
        cand.read_candidates(text, schema)
    assert err.value.line == 4
