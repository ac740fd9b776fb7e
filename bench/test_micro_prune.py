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
from pdeeplearn.mining import frequent_pairs
from pdeeplearn.pipeline import generate, load, mine, shipped_config
from pdeeplearn.pruning import prune_candidates


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    domain = load(config)
    stability = mine(config, generate(config, domain))
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    return space, frequent_pairs(stability)


def test_prune_candidates(benchmark, pinned):
    space, pairs = pinned
    result = benchmark(prune_candidates, space, pairs)
    benchmark.extra_info["pairs"] = [list(p) for p in pairs]
    benchmark.extra_info["pair_evaluations"] = result.stats.pair_evaluations
