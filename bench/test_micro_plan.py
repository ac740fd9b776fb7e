"""Micro-benchmark of the forward planner and trace generation, in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_plan.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, one round of test_generate_traces is the
pipeline's generate_traces call (same spec, planner config and sampler),
and one round of test_plan_unitary is one plan call on the domain's
unitary problem, the screen sample_models runs once per drawn model.
extra_info holds the trace count and the planner expansions.
"""

import pytest

from pdeeplearn.domains import load_domain
from pdeeplearn.pipeline import shipped_config
from pdeeplearn.tracegen import (GenerationSpec, PlannerConfig, doubling_schedule,
                                 generate_traces, plan)


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    domain = load_domain(config.domain)
    spec = GenerationSpec(problem_count=config.trace_count, object_count_ranges=domain.ranges,
                          trace_targets=doubling_schedule(config.trace_count),
                          rng_seed=config.seed, catalog_size=config.catalog)
    planner = PlannerConfig(strategy=config.strategy, max_expansions=config.max_expansions,
                            rng_seed=config.seed)
    return domain, spec, planner


def test_generate_traces(benchmark, pinned):
    domain, spec, planner = pinned
    traces = benchmark(generate_traces, spec, domain.reference, planner, domain.sampler)
    benchmark.extra_info["traces"] = len(traces)


def test_plan_unitary(benchmark, pinned):
    domain, _, planner = pinned
    result = benchmark(plan, domain.unitary, domain.reference, planner)
    assert result.found
    benchmark.extra_info["expansions"] = result.expansions
