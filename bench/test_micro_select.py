"""Micro-benchmark of model selection (score_models), in this process.

    PYTHONPATH=src python -m pytest bench/test_micro_select.py
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config the traces, the pruned space and the sampled
models are built as the pipeline builds them (sweep.prepare). The folds
are trained for one epoch instead of the shipped count: a forward pass
costs the same whatever the parameter values, so selection's work does
not depend on how long the folds trained. One round is one score_models call.
extra_info holds the number of models scored, of validation sequences
encoded (models x traces) and of sequences that went through a forward
pass, counted in one untimed call.
"""

import pytest

from pdeeplearn import scoring
from pdeeplearn.pipeline import sample
from pdeeplearn.scoring import score_models
from sweep import prepare


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def selection(request):
    config, domain, pruned, traces, layout, folds = prepare(request.param, epochs=1)
    return folds, traces, sample(config, domain, pruned), layout


def test_score_models(benchmark, selection, monkeypatch):
    folds, traces, sampled, layout = selection
    forwards = []

    def counted(params, dataset):
        forwards.append(len(dataset))
        return accuracy(params, dataset)

    accuracy = scoring.accuracy
    with monkeypatch.context() as patch:
        patch.setattr(scoring, "accuracy", counted)
        score_models(folds, traces, sampled, layout)
    benchmark.extra_info["models"] = len(sampled)
    benchmark.extra_info["sequences"] = len(sampled) * len(traces)
    benchmark.extra_info["forward_passes"] = sum(forwards)
    benchmark(score_models, folds, traces, sampled, layout)
