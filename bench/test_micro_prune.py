"""Micro-benchmark of constraint pruning, in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_prune.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, the candidate space is enumerated and the
frequent pairs are mined as the pipeline does it (same traces, schedule
and thresholds); one round is one prune_candidates call on them.
extra_info holds the pairs and pair_evaluations, the number of candidate
pairings the call decides.
"""

import pytest

from pdeeplearn import candidates as cand
from pdeeplearn.domains import load_domain
from pdeeplearn.mining import SequenceDatabase, frequent_pairs, stability_scan
from pdeeplearn.pipeline import shipped_config
from pdeeplearn.pruning import prune_candidates
from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, doubling_schedule, generate_traces


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    domain = load_domain(config.domain)
    schedule = doubling_schedule(config.trace_count)
    spec = GenerationSpec(problem_count=config.trace_count, object_count_ranges=domain.ranges,
                          trace_targets=schedule, rng_seed=config.seed,
                          catalog_size=config.catalog)
    planner = PlannerConfig(strategy=config.strategy, max_expansions=config.max_expansions,
                            rng_seed=config.seed)
    db = SequenceDatabase.from_traces(
        generate_traces(spec, domain.reference, planner, domain.sampler))
    stability = stability_scan([db.prefix(p) for p in schedule], config.min_support,
                               config.min_confidence, config.stability_tolerance)
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    return space, frequent_pairs(stability)


def test_prune_candidates(benchmark, pinned):
    space, pairs = pinned
    result = benchmark(prune_candidates, space, pairs)
    benchmark.extra_info["pairs"] = [list(p) for p in pairs]
    benchmark.extra_info["pair_evaluations"] = result.stats.pair_evaluations
