"""Micro-benchmarks of the LSTM training hot path, in this process.

    PYTHONPATH=src python -m pytest bench
    PYTHONPATH=src python -m pytest bench --benchmark-disable   # run each once

For every shipped config, the fold-0 training split is encoded as the
pipeline encodes it (same traces, padding and initial parameters), and
one round is a pass over that split calling one function per sequence:
loss_and_gradients into one reused gradient buffer as train calls it,
adam_step with a gradient, adam_step without one (the zero-gradient form
that train takes for a sequence with no target step), or lstm_forward.
extra_info["sequences"] holds the split size; a round's time divided by
it is the per-sequence time. extra_info["steps"] holds the recurrence
steps of one round: target steps for training, every real step for
lstm_forward. test_train times the whole fold instead: one round is one
train call, every epoch of it, as a fold worker runs it; its extra_info
counts the fold's Adam steps of each form ("adam_full_steps",
"adam_zero_steps"). The pipeline trains its folds in worker processes,
where perfbench's tracer cannot see these calls, so they are timed here.
"""

from dataclasses import dataclass
from typing import Callable

import pytest

from pdeeplearn.encoding import EncodedSequence, build_layout, encode_corpus
from pdeeplearn.lstm import (
    AdamState,
    LstmParameters,
    TrainConfig,
    adam_step,
    init_parameters,
    loss_and_gradients,
    lstm_forward,
    train,
    zero_like,
)
from pdeeplearn.pipeline import generate, load
from pdeeplearn.scoring import fold_split
from pdeeplearn.util import stream_rng
from sweep import shipped_config


@dataclass
class Fold0:
    dataset: list[EncodedSequence]
    cfg: TrainConfig
    fresh_params: Callable[[], LstmParameters]


@pytest.fixture(scope="module", params=("gripper", "kiln", "battery"))
def fold0(request) -> Fold0:
    config = shipped_config(request.param)
    domain = load(config)
    traces = generate(config, domain)
    held_out = set(fold_split(len(traces), config.folds)[0])
    encoded = encode_corpus(traces, build_layout(domain.schema))
    dataset = [seq for i, seq in enumerate(encoded) if i not in held_out]
    cfg = config.training()
    # The shipped configs train without dropout, so no masks are drawn.
    assert cfg.dropout_rate == 0.0

    def fresh_params() -> LstmParameters:
        d, n = dataset[0].inputs.shape[1], dataset[0].targets.shape[1]
        return init_parameters(d, cfg.hidden_units, n,
                               stream_rng(cfg.rng_seed, "init", "fold", 0), cfg.init_gain)

    return Fold0(dataset, cfg, fresh_params)


def test_loss_and_gradients(benchmark, fold0):
    params = fold0.fresh_params()
    grads = zero_like(params)

    def one_pass():
        for seq in fold0.dataset:
            loss_and_gradients(params, seq, out=grads)

    benchmark.extra_info["sequences"] = len(fold0.dataset)
    benchmark.extra_info["steps"] = sum(seq.target_steps for seq in fold0.dataset)
    benchmark(one_pass)


def test_adam_step(benchmark, fold0):
    params = fold0.fresh_params()
    _, _, grads = loss_and_gradients(params, fold0.dataset[0])
    state = AdamState.for_params(params)

    def one_pass():
        for _ in fold0.dataset:
            adam_step(params, grads, state, fold0.cfg)

    benchmark.extra_info["sequences"] = len(fold0.dataset)
    benchmark(one_pass)


def test_adam_step_zero_gradient(benchmark, fold0):
    params = fold0.fresh_params()
    state = AdamState.for_params(params)

    def one_pass():
        for _ in fold0.dataset:
            adam_step(params, None, state, fold0.cfg)

    benchmark.extra_info["sequences"] = len(fold0.dataset)
    benchmark(one_pass)


def test_lstm_forward(benchmark, fold0):
    params = fold0.fresh_params()

    def one_pass():
        for seq in fold0.dataset:
            lstm_forward(params, seq)

    benchmark.extra_info["sequences"] = len(fold0.dataset)
    benchmark.extra_info["steps"] = sum(seq.valid_steps for seq in fold0.dataset)
    benchmark(one_pass)


def test_train(benchmark, fold0):
    benchmark.extra_info["sequences"] = len(fold0.dataset)
    benchmark.extra_info["epochs"] = fold0.cfg.epochs
    benchmark.extra_info["steps"] = fold0.cfg.epochs * sum(seq.target_steps
                                                          for seq in fold0.dataset)
    no_target = sum(seq.target_steps == 0 for seq in fold0.dataset)
    benchmark.extra_info["adam_zero_steps"] = fold0.cfg.epochs * no_target
    benchmark.extra_info["adam_full_steps"] = fold0.cfg.epochs * (len(fold0.dataset)
                                                                 - no_target)
    benchmark.pedantic(train, args=(fold0.dataset, fold0.cfg, ("fold", 0)), rounds=3)
