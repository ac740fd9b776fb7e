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
from .encoding import EncodingLayout, encode_corpus, max_action_count
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


def _train_fold(dataset, cfg: TrainConfig, k: int):
    # train is looked up here at call time, so a forked worker runs
    # whatever this module binds it to in the parent.
    return train(dataset, cfg, seed_key=("fold", k))


def train_folds(
    traces: Sequence[PlanTrace], layout: EncodingLayout, cfg: TrainConfig
) -> list[TrainedFold]:
    """One trained network per fold, all sharing the corpus padding.

    The corpus is encoded once here and each training split indexes it.
    The folds then train in min(folds, usable CPUs) forked worker
    processes, or in this process when that is one. Fold k is seeded only
    by ("fold", k), so the results are byte-identical to training the
    folds one after another. The pool lives only inside this call: its
    workers have exited and been joined before it returns or raises.
    """
    encoded = encode_corpus(traces, layout)
    folds = fold_split(len(traces), cfg.folds)
    splits = [sorted(set(range(len(traces))) - set(validation)) for validation in folds]
    datasets = [[encoded[i] for i in train_idx] for train_idx in splits]
    workers = min(len(folds), len(os.sched_getaffinity(0)))
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

    A validation encoding ignores the states, so its real input rows fix
    its targets too; a fold scores each distinct row block once."""
    pad_len = max_action_count(traces)
    correct = [[] for _ in sampled.models]
    total = [[] for _ in sampled.models]
    for fold in folds:
        val_traces = [traces[i] for i in fold.validation_indices]
        counts: dict[bytes, tuple[int, int]] = {}
        for k, candidate in enumerate(sampled.models):
            c = t = 0
            for seq in encode_corpus(val_traces, layout, model=candidate.model,
                                     pad_len=pad_len):
                key = seq.inputs[:seq.valid_steps].tobytes()
                if key not in counts:
                    counts[key] = accuracy(fold.params, [seq])
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
