"""Micro-benchmark of the forward planner and trace generation, in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_plan.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, one round of test_generate_traces is the
pipeline's generate phase (pipeline.generate, one generate_traces call).
One round of test_compile_actions grounds the reference over the domain's
unitary problem, and one round of test_plan_unitary searches that
compiled table: the two halves of the screen sample_models runs once per
drawn model. extra_info holds the trace count, the table rows and the
planner expansions.
"""

import pytest

from pdeeplearn.pipeline import generate, load
from pdeeplearn.tracegen import compile_actions, plan
from sweep import shipped_config


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    return config, load(config)


def test_generate_traces(benchmark, pinned):
    traces = benchmark(generate, *pinned)
    benchmark.extra_info["traces"] = len(traces)


def test_compile_actions(benchmark, pinned):
    _, domain = pinned
    table = benchmark(compile_actions, domain.reference, domain.unitary.object_table())
    assert table
    benchmark.extra_info["rows"] = len(table)


def test_plan_unitary(benchmark, pinned):
    config, domain = pinned
    table = compile_actions(domain.reference, domain.unitary.object_table())
    result = benchmark(plan, domain.unitary, table, config.planner())
    assert result.found
    benchmark.extra_info["expansions"] = result.expansions
