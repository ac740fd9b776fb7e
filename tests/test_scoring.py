"""Fold-harness and selection tests."""

import multiprocessing
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pdeeplearn import scoring
from pdeeplearn.domains import get_domain
from pdeeplearn.encoding import (EncodedSequence, build_layout, encode_corpus, encode_training,
                                 encode_validation, max_action_count)
from pdeeplearn.lstm import (PARAM_ORDER, TrainConfig, TrainingDivergence, accuracy,
                             lstm_forward, train)
from pdeeplearn.pipeline import run_pipeline
from pdeeplearn.pruning import SampledModel, SampledModelSet, sample_models
from pdeeplearn.scoring import ModelScore, fold_split, ranked, score_models, train_folds
from pdeeplearn.tracegen import GenerationSpec, PlannerConfig, generate_traces
from pdeeplearn import candidates as cand


def test_fold_split_is_a_disjoint_cover():
    folds = fold_split(23, 5)
    seen = sorted(i for fold in folds for i in fold)
    assert seen == list(range(23))
    assert len(folds) == 5


def test_fold_split_requires_enough_traces():
    with pytest.raises(ValueError):
        fold_split(3, 5)


def _score(mean_num, mean_den, preds, model_id):
    # build a ModelScore with two folds hitting the given totals
    return ModelScore(model_id, (mean_num, mean_num), (mean_den, mean_den), preds)


def test_selection_tie_breaks_by_size_then_id():
    high = _score(9, 10, 8, "m0002")
    tied_small = _score(9, 10, 5, "m0003")
    low = _score(5, 10, 1, "m0001")
    order = ranked([high, tied_small, low])
    assert [s.model_id for s in order] == ["m0003", "m0002", "m0001"]
    same_size_a = _score(9, 10, 5, "m0009")
    order2 = ranked([tied_small, same_size_a])
    assert [s.model_id for s in order2] == ["m0003", "m0009"]


def test_mean_accuracy_is_exact_fraction():
    score = ModelScore("m0001", (3, 4), (6, 8), 7)
    assert score.fold_accuracies == (Fraction(1, 2), Fraction(1, 2))
    assert score.mean_accuracy == Fraction(1, 2)
    uneven = ModelScore("m0002", (1, 4), (2, 4), 7)
    assert uneven.mean_accuracy == Fraction(3, 4)


@pytest.fixture(scope="module")
def kiln_setup():
    info = get_domain("kiln")
    schema, model, unitary = info.load()
    spec = GenerationSpec(problem_count=20, object_count_ranges=info.default_ranges,
                          rng_seed=8)
    traces = generate_traces(spec, model, PlannerConfig(rng_seed=8), info.sampler)
    layout = build_layout(schema)
    cfg = TrainConfig(hidden_units=12, dropout_rate=0.0, epochs=3, folds=5, rng_seed=8)
    folds = train_folds(traces, layout, cfg)
    return schema, model, unitary, traces, layout, folds


def test_train_folds_shapes_and_determinism(kiln_setup):
    schema, model, unitary, traces, layout, folds = kiln_setup
    assert len(folds) == 5
    covered = sorted(i for f in folds for i in f.validation_indices)
    assert covered == list(range(len(traces)))
    for fold in folds:
        assert set(fold.train_indices).isdisjoint(fold.validation_indices)
        assert len(fold.loss_history) == 3


def test_singleton_model_set_selects_it(kiln_setup):
    schema, model, unitary, traces, layout, folds = kiln_setup
    only = SampledModelSet((SampledModel("m0000", model, (0, 0, 0), True),))
    scores, selected = score_models(folds, traces, only, layout)
    assert selected == "m0000"
    assert len(scores) == 1
    for c, t in zip(scores[0].fold_correct, scores[0].fold_total):
        assert 0 <= c <= t


def test_score_models_scores_every_model(kiln_setup):
    schema, model, unitary, traces, layout, folds = kiln_setup
    space = cand.build_space(schema)
    sampled = sample_models(space, unitary, PlannerConfig(), budget=5, rng_seed=2,
                            include_reference=True, reference=model)
    scores, selected = score_models(folds, traces, sampled, layout)
    assert len(scores) == len(sampled)
    assert selected in {s.model_id for s in scores}
    best = ranked(scores)[0]
    assert best.model_id == selected


def test_a_duplicated_model_scores_as_it_does_alone(kiln_setup):
    # Models that encode a trace alike share one forward pass per fold;
    # the shared counts must be the ones each model gets on its own.
    schema, model, unitary, traces, layout, folds = kiln_setup
    space = cand.build_space(schema)
    sampled = sample_models(space, unitary, PlannerConfig(), budget=4, rng_seed=3,
                            include_reference=True, reference=model)
    first = sampled.models[0]
    doubled = SampledModelSet(sampled.models + (replace(first, model_id="m9999"),))
    scores, _ = score_models(folds, traces, doubled, layout)
    alone = [score_models(folds, traces, SampledModelSet((m,)), layout)[0][0]
             for m in doubled.models]
    assert scores == alone
    assert (scores[-1].fold_correct, scores[-1].fold_total) == (
        scores[0].fold_correct, scores[0].fold_total)


def _per_ref_validation_rows(trace, layout, model):
    # The per-ref loop that encoded validation rows before the row table,
    # kept as its oracle.
    rows = np.zeros((trace.action_count, layout.input_dim))
    for t, (_, ga, _) in enumerate(trace.transitions()):
        rows[t, layout.action_slot(ga.action)] = 1.0
        offset = layout.block_offset(ga.action)
        refs = model.entry(ga.action).refs()
        for k, ref in enumerate(layout.block(ga.action)):
            if ref in refs:
                rows[t, offset + k] = 1.0
    return rows


def test_validation_rows_match_the_per_ref_loop_and_score_as_it_did(kiln_setup):
    schema, model, unitary, traces, layout, folds = kiln_setup
    sampled = sample_models(cand.build_space(schema), unitary, PlannerConfig(), budget=12,
                            rng_seed=4, include_reference=True, reference=model)
    pad = max_action_count(traces)
    oracle = {}
    for candidate in sampled.models:
        for i, trace in enumerate(traces):
            rows = _per_ref_validation_rows(trace, layout, candidate.model)
            seq = encode_validation(trace, layout, candidate.model, pad)
            assert seq.inputs[:seq.valid_steps].tobytes() == rows.tobytes()
            assert not seq.inputs[seq.valid_steps:].any()
            targets = encode_training(trace, layout, pad).targets
            assert seq.targets.tobytes() == targets.tobytes()
            oracle[candidate.model_id, i] = EncodedSequence(rows, targets[:len(rows)], len(rows))
    # Every fold's counts are those of a forward pass over each oracle row
    # block, one-action traces included.
    scores, _ = score_models(folds, traces, sampled, layout)
    for score in scores:
        for k, fold in enumerate(folds):
            seqs = [oracle[score.model_id, i] for i in fold.validation_indices]
            assert accuracy(fold.params, seqs) == (score.fold_correct[k], score.fold_total[k])


def test_traces_that_differ_only_in_their_last_action_are_scored_apart(kiln_setup):
    # The final input row fixes the last target, so the cache key keeps it.
    schema, model, unitary, traces, layout, folds = kiln_setup
    trace = max(traces, key=lambda t: t.action_count)
    n = trace.action_count
    probs = lstm_forward(folds[0].params, encode_validation(trace, layout, model))
    predicted = int(probs[n - 2].argmax())
    by_slot = {layout.action_slot(a.action): a for t in traces for a in t.actions()}
    other = next(slot for slot in by_slot if slot != predicted)
    twins = [replace(trace, steps=trace.steps[:-2] + (by_slot[slot], trace.steps[-1]))
             for slot in (predicted, other)]
    want = [accuracy(folds[0].params, [encode_validation(t, layout, model)]) for t in twins]
    assert want[0][0] == want[1][0] + 1
    only = SampledModelSet((SampledModel("m0000", model, (0, 0, 0), True),))
    fold = replace(folds[0], validation_indices=(0, 1))
    scores, _ = score_models([fold], twins, only, layout)
    assert (scores[0].fold_correct, scores[0].fold_total) == (
        (want[0][0] + want[1][0],), (want[0][1] + want[1][1],))


def assert_no_child_process():
    # Every process a pool started has exited and been reaped.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """Pretend the given number of CPUs is usable, so that both the
    in-process and the worker-pool path run on any machine."""
    def use(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
    return use


@pytest.mark.parametrize("dropout", [0.0, 0.5])
@pytest.mark.parametrize("count", [1, 2])
def test_train_folds_is_bit_identical_to_serial_training(kiln_setup, cpus, dropout, count):
    schema, model, unitary, traces, layout, _ = kiln_setup
    cpus(count)
    cfg = TrainConfig(hidden_units=10, dropout_rate=dropout, epochs=2, folds=3, rng_seed=5)
    folds = train_folds(traces, layout, cfg)
    assert_no_child_process()
    assert [f.fold_index for f in folds] == [0, 1, 2]
    pad_len = max_action_count(traces)
    for k, fold in enumerate(folds):
        dataset = encode_corpus([traces[i] for i in fold.train_indices], layout,
                                pad_len=pad_len)
        params, history = train(dataset, cfg, seed_key=("fold", k))
        assert fold.loss_history == tuple(history)
        for name in PARAM_ORDER:
            assert np.array_equal(getattr(fold.params, name), getattr(params, name))


def test_worker_exception_reaches_the_caller_unchanged(kiln_setup, cpus, monkeypatch):
    schema, model, unitary, traces, layout, _ = kiln_setup
    cpus(2)

    def diverge(dataset, cfg, seed_key=()):
        # The epoch carries the id of the process that raised.
        raise TrainingDivergence(os.getpid())

    # Forked workers inherit the patched binding.
    monkeypatch.setattr(scoring, "train", diverge)
    cfg = TrainConfig(hidden_units=4, dropout_rate=0.0, epochs=1, folds=2)
    with pytest.raises(TrainingDivergence) as caught:
        train_folds(traces, layout, cfg)
    assert type(caught.value) is TrainingDivergence
    assert caught.value.epoch != os.getpid()
    assert str(caught.value) == f"training loss became non-finite at epoch {caught.value.epoch}"
    assert_no_child_process()


def test_no_process_outlives_run_pipeline(tmp_path, cpus, shipped_config):
    cpus(2)
    config = replace(shipped_config("kiln"), trace_count=20, hidden_units=8, epochs=1,
                     folds=2)
    run = run_pipeline(config, tmp_path)
    assert run.report is not None
    assert_no_child_process()


def test_each_fold_trains_in_its_own_worker(kiln_setup, cpus, monkeypatch):
    schema, model, unitary, traces, layout, _ = kiln_setup
    cpus(2)
    # Each call waits until three calls run at once, so fewer than three
    # workers break the barrier instead of sharing the folds.
    barrier = multiprocessing.get_context("fork").Barrier(3, timeout=60)

    def record(dataset, cfg, seed_key=()):
        barrier.wait()
        return None, [os.getpid()]

    # Forked workers inherit the patched binding.
    monkeypatch.setattr(scoring, "train", record)
    cfg = TrainConfig(hidden_units=4, dropout_rate=0.0, epochs=1, folds=3)
    pids = [fold.loss_history[0] for fold in train_folds(traces, layout, cfg)]
    assert len(set(pids)) == 3
    assert os.getpid() not in pids
    assert_no_child_process()


def test_fold_workers_are_one_per_fold_and_at_most_four_per_cpu(cpus):
    cpus(1)
    assert [scoring._fold_workers(f) for f in (2, 5, 500)] == [1, 1, 1]
    cpus(2)
    assert [scoring._fold_workers(f) for f in (2, 3, 5, 8, 9, 500)] == [2, 3, 5, 8, 8, 8]
    cpus(16)
    assert [scoring._fold_workers(f) for f in (5, 64, 65, 1000)] == [5, 64, 64, 64]
