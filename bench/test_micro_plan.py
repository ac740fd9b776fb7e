"""Micro-benchmark of the forward planner and trace generation, in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_plan.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, one round of test_generate_traces is the
pipeline's generate phase (pipeline.generate, one generate_traces call),
and one round of test_plan_unitary is one plan call on the domain's
unitary problem, the screen sample_models runs once per drawn model.
extra_info holds the trace count and the planner expansions.
"""

import pytest

from pdeeplearn.pipeline import generate, load, shipped_config
from pdeeplearn.tracegen import plan


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    return config, load(config)


def test_generate_traces(benchmark, pinned):
    traces = benchmark(generate, *pinned)
    benchmark.extra_info["traces"] = len(traces)


def test_plan_unitary(benchmark, pinned):
    config, domain = pinned
    result = benchmark(plan, domain.unitary, domain.reference, config.planner())
    assert result.found
    benchmark.extra_info["expansions"] = result.expansions
