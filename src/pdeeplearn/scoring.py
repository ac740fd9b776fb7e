"""Fold harness and model selection.

Each fold trains one network on the observed encodings of its training
split; every sampled model is then scored by re-encoding the held-out
traces with that model's own lists and measuring argmax accuracy per real
target step. The speculated ideal model is the accuracy argmax, with ties
broken by fewest total predicates and then by model id.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import Sequence

from .core import PlanTrace
from .encoding import (EncodingLayout, action_slots, encode_corpus, encode_rows,
                       validation_table)
from .lstm import LstmParameters, TrainConfig, accuracy, train
from .pruning import SampledModelSet


def fold_split(count: int, folds: int) -> list[list[int]]:
    """Deterministic disjoint cover: trace i goes to fold i mod folds."""
    if count < folds:
        raise ValueError(f"cannot split {count} traces into {folds} folds")
    return [list(range(k, count, folds)) for k in range(folds)]


@dataclass(frozen=True)
class TrainedFold:
    fold_index: int
    params: LstmParameters
    train_indices: tuple[int, ...]
    validation_indices: tuple[int, ...]
    loss_history: tuple[float, ...]


def _fold_workers(folds: int) -> int:
    """One worker per fold when more than one CPU is usable, but at most 4
    per CPU, so that hundreds of folds cannot fork hundreds of processes."""
    cpus = len(os.sched_getaffinity(0))
    return 1 if cpus == 1 else min(folds, 4 * cpus)


def _train_fold(dataset, cfg: TrainConfig, k: int):
    # train is looked up here at call time, so a forked worker runs
    # whatever this module binds it to in the parent.
    return train(dataset, cfg, seed_key=("fold", k))


def train_folds(
    traces: Sequence[PlanTrace], layout: EncodingLayout, cfg: TrainConfig
) -> list[TrainedFold]:
    """One trained network per fold, all sharing the corpus padding.

    The corpus is encoded once here and each training split indexes it.
    The folds then train in _fold_workers(folds) forked processes, or in
    this process when that is one: five equal folds end on two cores after
    2.5 fold-times, where two workers would take three rounds. Fold k is
    seeded only by ("fold", k), so the results are byte-identical to
    training the folds one after another. The pool lives only inside this
    call: its workers have exited and been joined before it returns or
    raises.
    """
    encoded = encode_corpus(traces, layout)
    folds = fold_split(len(traces), cfg.folds)
    splits = [sorted(set(range(len(traces))) - set(validation)) for validation in folds]
    datasets = [[encoded[i] for i in train_idx] for train_idx in splits]
    workers = _fold_workers(len(folds))
    if workers == 1:
        results = list(map(_train_fold, datasets, repeat(cfg), range(len(folds))))
    else:
        # Imported here so that importing pdeeplearn does not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork starts no resource tracker or fork server that could
        # outlive the pool, unlike spawn and forkserver.
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            results = list(pool.map(_train_fold, datasets, repeat(cfg), range(len(folds))))
    return [TrainedFold(k, params, tuple(splits[k]), tuple(folds[k]), tuple(history))
            for k, (params, history) in enumerate(results)]


@dataclass(frozen=True)
class ModelScore:
    model_id: str
    fold_correct: tuple[int, ...]
    fold_total: tuple[int, ...]
    total_predicates: int

    @property
    def fold_accuracies(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, t) for c, t in zip(self.fold_correct, self.fold_total))

    @property
    def mean_accuracy(self) -> Fraction:
        accs = self.fold_accuracies
        return sum(accs, Fraction(0)) / len(accs)


def score_models(
    folds: Sequence[TrainedFold],
    traces: Sequence[PlanTrace],
    sampled: SampledModelSet,
    layout: EncodingLayout,
) -> tuple[list[ModelScore], str]:
    """Validation accuracy of every sampled model plus the selected id.

    Each model's rows come from its validation_table, gathered by each
    trace's action slots; they fix the targets too, so a fold scores each
    distinct row block once. One-action traces have no target."""
    tables = [validation_table(layout, candidate.model) for candidate in sampled.models]
    slots = [action_slots(trace, layout) for trace in traces]
    correct = [[] for _ in sampled.models]
    total = [[] for _ in sampled.models]
    for fold in folds:
        val_slots = [slots[i] for i in fold.validation_indices if len(slots[i]) > 1]
        counts: dict[bytes, tuple[int, int]] = {}
        for k, table in enumerate(tables):
            c = t = 0
            for trace_slots in val_slots:
                rows = table[trace_slots]
                key = rows.tobytes()
                if key not in counts:
                    counts[key] = accuracy(fold.params, [encode_rows(rows, trace_slots, layout)])
                c += counts[key][0]
                t += counts[key][1]
            if t == 0:
                raise ValueError(f"fold {fold.fold_index} has no target steps")
            correct[k].append(c)
            total[k].append(t)
    scores = [ModelScore(m.model_id, tuple(c), tuple(t), m.model.total_predicates)
              for m, c, t in zip(sampled.models, correct, total)]
    return scores, ranked(scores)[0].model_id


def ranked(scores: Sequence[ModelScore]) -> list[ModelScore]:
    return sorted(scores, key=lambda s: (-s.mean_accuracy, s.total_predicates, s.model_id))


def scores_json(scores: Sequence[ModelScore], selected: str) -> str:
    payload = {
        "schema_version": 1,
        "selected": selected,
        "models": [
            {
                "id": s.model_id,
                "fold_correct": list(s.fold_correct),
                "fold_total": list(s.fold_total),
                "fold_accuracy": [str(a) for a in s.fold_accuracies],
                "mean_accuracy": str(s.mean_accuracy),
                "total_predicates": s.total_predicates,
            }
            for s in ranked(scores)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
