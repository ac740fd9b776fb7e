"""Micro-benchmarks of enumeration, candidate-file writing and
constraint pruning, in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_prune.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, the candidate space is enumerated and the
frequent pairs are mined as the pipeline does it (same traces, schedule
and thresholds). One round is one build_space call on the config's
schema, one write_candidates call on the full space, or one
prune_candidates call on the space and pairs. extra_info holds the
candidate count, the bytes written, or the pairs and pair_evaluations
(the number of candidate pairings the call decides).
"""

import pytest

from pdeeplearn import candidates as cand
from pdeeplearn.mining import frequent_pairs
from pdeeplearn.pipeline import generate, load, mine
from pdeeplearn.pruning import prune_candidates
from sweep import shipped_config


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def pinned(request):
    config = shipped_config(request.param)
    domain = load(config)
    stability = mine(config, generate(config, domain))
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    return config, domain.schema, space, frequent_pairs(stability)


def test_build_space(benchmark, pinned):
    config, schema, _, _ = pinned
    space = benchmark(cand.build_space, schema, config.strict_del, config.max_relevant)
    benchmark.extra_info["entries"] = space.total_candidates()


def test_write_candidates(benchmark, pinned):
    _, _, space, _ = pinned
    text = benchmark(cand.write_candidates, space)
    benchmark.extra_info["bytes"] = len(text.encode())


def test_prune_candidates(benchmark, pinned):
    _, _, space, pairs = pinned
    result = benchmark(prune_candidates, space, pairs)
    benchmark.extra_info["pairs"] = [list(p) for p in pairs]
    benchmark.extra_info["pair_evaluations"] = result.stats.pair_evaluations
