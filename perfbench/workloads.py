"""The benchmark's workloads, driven through pdeeplearn's public functions.

Each workload stresses a different layer, so that every optimisation on
the roadmap has a workload where it should show and one where it should
not:

* ``shipped-pipeline``: one op is ``run_pipeline`` on the gripper, kiln
  and battery configs in turn. LSTM training is ~90 % of it.
* ``frontend``: one op is the non-learning phases (generate, enumerate,
  mine, prune, sample) for the three configs. Pruning and the planner
  dominate; training is absent.
* ``seed-sweep``: the pinned gripper config's traces, pruning and fold
  training happen once in set-up; one op is one sampler seed (sample,
  score, error). Forward passes, validation encoding and scoring
  dominate; BPTT is absent. It is not in BENCHMARK.json: its set-up
  trains five folds in every run, which the time for all runs cannot
  afford next to two workloads of 50 s runs. It measures the roadmap's
  selection sweep (recovery over sampler seeds 1000-1039 at seed 0).

A run cycles through a fixed set of ``distinct`` inputs, op i taking
input slot i mod ``distinct``, so that every input repeats and each
repeat of one input must give byte-identical outputs. The workload seed
N shifts the seeds of slot j by ``SEED_STRIDE * N + j``: the seeds of
every shipped config for ``frontend`` and ``shipped-pipeline``, the
sampler seeds for ``seed-sweep``. Seed 0, slot 0 reproduces the pinned
configs, where the golden values below must hold.
"""

from __future__ import annotations

import hashlib
import shutil
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from pdeeplearn import (candidates, domains, evaluate, mining, pddl, pipeline, pruning,
                        scoring, tracegen, validate_trace)
from pdeeplearn.encoding import build_layout
from pdeeplearn.lstm import TrainConfig

SHIPPED = ("gripper", "kiln", "battery")
SEED_STRIDE = 1000
SWEEP_FIRST_SAMPLE_SEED = 1000

# Golden pruning outcomes of the pinned configs (seed 0), as in the
# acceptance tests, plus the m x n pair evaluations that produce them.
GOLDEN_PRUNED = {
    "gripper": {"drop": 500, "move": 21, "pick": 500},
    "kiln": {"fire": 624, "glaze": 609, "shape": 624},
    "battery": {"charge": 624, "dock": 624, "undock": 609},
}
GOLDEN_PAIR_EVALUATIONS = {"gripper": 31_250, "kiln": 781_250, "battery": 781_250}

# Smoke mode: small enough that every workload finishes in seconds.
SMOKE = dict(trace_count=20, epochs=1, folds=2)


def shipped_config(root: Path, name: str, shift: int, smoke: bool) -> pipeline.PipelineConfig:
    cfg = pipeline.parse_config((root / "configs" / f"{name}.cfg").read_text())
    cfg = replace(cfg, seed=cfg.seed + shift, sample_seed=cfg.effective_sample_seed + shift)
    return replace(cfg, **SMOKE) if smoke else cfg


@dataclass(frozen=True)
class PhaseInputs:
    """What the phases of one config need, built as the pipeline builds it."""

    config: pipeline.PipelineConfig
    schema: object
    reference: object
    unitary: object
    sampler: object
    schedule: tuple[int, ...]
    generation: tracegen.GenerationSpec
    planner: tracegen.PlannerConfig

    @classmethod
    def load(cls, cfg: pipeline.PipelineConfig) -> "PhaseInputs":
        info = domains.get_domain(cfg.domain)
        schema, reference, unitary = info.load()
        ranges = dict(info.default_ranges)
        ranges.update({name: (lo, hi) for name, lo, hi in cfg.object_ranges})
        schedule = cfg.schedule or tracegen.doubling_schedule(cfg.trace_count)
        generation = tracegen.GenerationSpec(cfg.trace_count, ranges, tuple(schedule),
                                             cfg.seed, cfg.catalog)
        planner = tracegen.PlannerConfig(cfg.strategy, cfg.max_expansions, cfg.seed)
        return cls(cfg, schema, reference, unitary, info.sampler, tuple(schedule),
                   generation, planner)

    def generate(self):
        return tracegen.generate_traces(self.generation, self.reference, self.planner,
                                        self.sampler)

    def prune(self, space, traces):
        cfg = self.config
        db = mining.SequenceDatabase.from_traces(traces)
        scan = mining.stability_scan([db.prefix(p) for p in self.schedule], cfg.min_support,
                                     cfg.min_confidence, cfg.stability_tolerance)
        return pruning.prune_candidates(space, mining.frequent_pairs(scan))

    def sample(self, space, sample_seed: int):
        cfg = self.config
        return pruning.sample_models(space, self.unitary, self.planner, cfg.budget,
                                     rng_seed=sample_seed,
                                     include_reference=cfg.include_reference,
                                     reference=self.reference)


@dataclass
class Checked:
    """The untimed verdict on one op: problems found, a digest of its
    deterministic outputs, and the reconstruction error of each selection."""

    problems: list[str]
    digest: str
    errors: list[Fraction]


def _trace_problems(name: str, traces, inputs: PhaseInputs) -> list[str]:
    problems = []
    if len(traces) != inputs.config.trace_count:
        problems.append(f"{name}: {len(traces)} traces, wanted {inputs.config.trace_count}")
    invalid = sum(not validate_trace(t, inputs.reference) for t in traces)
    if invalid:
        problems.append(f"{name}: {invalid} traces fail validate_trace")
    return problems


def _prune_problems(name: str, space, pair_evaluations: int, inputs: PhaseInputs,
                    pinned: bool) -> list[str]:
    problems = []
    if not candidates.contains_reference(space, inputs.reference):
        problems.append(f"{name}: pruning removed a reference entry")
    if pinned and space.counts() != GOLDEN_PRUNED[name]:
        problems.append(f"{name}: pruned counts {space.counts()} != {GOLDEN_PRUNED[name]}")
    if pinned and pair_evaluations != GOLDEN_PAIR_EVALUATIONS[name]:
        problems.append(f"{name}: {pair_evaluations} pair evaluations != "
                        f"{GOLDEN_PAIR_EVALUATIONS[name]}")
    return problems


class Workload:
    """One named workload: load() is the import-time set-up a fresh
    interpreter pays, prepare() the workload's own set-up, run_op() the
    timed op and check_op() its untimed verification."""

    name = ""
    # Input slots a run cycles through (see the module docstring).
    distinct = 1
    # Repeats of a slot must give byte-identical outputs. A workload whose
    # untraced run may end before slot 0 repeats runs op 0 again, untimed,
    # to check that.
    repeat_first_op = False

    def __init__(self, root: Path, seed: int, smoke: bool, work_dir: Path) -> None:
        self.root, self.seed, self.smoke, self.work_dir = root, seed, smoke, work_dir
        if smoke:
            self.distinct = min(self.distinct, 2)
        # Config inputs per slot, one PhaseInputs per domain.
        self.slots: list[list[PhaseInputs]] = []

    def shift(self, slot: int) -> int:
        return SEED_STRIDE * self.seed + slot

    def pinned(self, slot: int) -> bool:
        """Whether the slot's configs are the shipped ones, with golden outcomes."""
        return self.shift(slot) == 0 and not self.smoke

    def load(self) -> None:
        self.slots = [[PhaseInputs.load(shipped_config(self.root, name, self.shift(slot),
                                                       self.smoke))
                       for name in self.domains()] for slot in range(self.distinct)]

    def domains(self) -> tuple[str, ...]:
        return SHIPPED

    def prepare(self) -> None:
        pass

    def input_key(self, index: int) -> int:
        return index % self.distinct

    def run_op(self, index: int):
        raise NotImplementedError

    def check_op(self, index: int, output) -> Checked:
        raise NotImplementedError

    def describe(self) -> str:
        return "; ".join(", ".join(f"{i.config.domain} seed {i.config.seed}/"
                                   f"{i.config.effective_sample_seed}" for i in slot)
                         for slot in self.slots)


class ShippedPipeline(Workload):
    name = "shipped-pipeline"

    def run_op(self, index: int):
        out_root = self.work_dir / f"op{index}"
        return [pipeline.run_pipeline(i.config, out_root) for i in self.slots[0]]

    def check_op(self, index: int, runs) -> Checked:
        problems, errors = [], []
        digest = hashlib.sha256()
        for inputs, run in zip(self.slots[0], runs):
            name, report = inputs.config.domain, run.report
            traces = pddl.parse_traces((run.run_dir / "traces.traces").read_text(),
                                       inputs.schema)
            problems += _trace_problems(name, traces, inputs)
            pruned = candidates.read_candidates((run.run_dir / "pruned.sexp").read_text(),
                                                inputs.schema)
            problems += _prune_problems(name, pruned, report.prune_stats.pair_evaluations,
                                        inputs, self.pinned(0))
            exact = report.error == 0 and report.selected_is_reference_identical
            if self.pinned(0) and not exact:
                problems.append(f"{name}: pinned config selected E = {report.error}")
            errors.append(report.error)
            for artifact in ("report.txt", "report.json", "scores.json", "models.json",
                             "pruned.sexp", "traces.traces"):
                digest.update((run.run_dir / artifact).read_bytes())
        shutil.rmtree(self.work_dir / f"op{index}")
        return Checked(problems, digest.hexdigest(), errors)


class SeedSweep(Workload):
    """The traces and folds are the pinned gripper config's at every
    workload seed, which shifts only the sampler seeds, as in the
    roadmap's sweep. The work of an op follows the corpus's total action
    count, which moves by +-10 % between trace seeds."""

    name = "seed-sweep"
    distinct = 40
    repeat_first_op = True

    def load(self) -> None:
        self.slots = [[PhaseInputs.load(shipped_config(self.root, "gripper", 0, self.smoke))]]

    def prepare(self) -> None:
        inputs = self.slots[0][0]
        cfg = inputs.config
        self.traces = inputs.generate()
        space = candidates.build_space(inputs.schema, cfg.strict_del, cfg.max_relevant)
        self.pruned = inputs.prune(space, self.traces)
        self.layout = build_layout(inputs.schema)
        self.folds = scoring.train_folds(self.traces, self.layout, TrainConfig(
            hidden_units=cfg.hidden_units, dropout_rate=cfg.dropout, epochs=cfg.epochs,
            folds=cfg.folds, learning_rate=cfg.learning_rate, init_gain=cfg.init_gain,
            rng_seed=cfg.seed))
        problems = _trace_problems(cfg.domain, self.traces, inputs) + _prune_problems(
            cfg.domain, self.pruned.space, self.pruned.stats.pair_evaluations, inputs,
            not self.smoke)
        if problems:
            raise RuntimeError("seed-sweep set-up failed its checks: " + "; ".join(problems))

    def sample_seed(self, index: int) -> int:
        """At seed 0 the slots draw with sampler seeds 1000-1039, the
        roadmap's sweep; other workload seeds shift the window."""
        return SWEEP_FIRST_SAMPLE_SEED + self.shift(self.input_key(index))

    def run_op(self, index: int):
        inputs = self.slots[0][0]
        sampled = inputs.sample(self.pruned.space, self.sample_seed(index))
        scores, selected = scoring.score_models(self.folds, self.traces, sampled, self.layout)
        error, _ = evaluate.reconstruction_error(sampled.by_id(selected).model,
                                                 inputs.reference, self.layout)
        return sampled, scores, selected, error

    def check_op(self, index: int, output) -> Checked:
        sampled, scores, selected, error = output
        problems = []
        if not any(m.is_reference for m in sampled.models):
            problems.append("the reference model is missing from the sampled set")
        if selected != scoring.ranked(scores)[0].model_id:
            problems.append(f"selected {selected} is not the top-ranked model")
        # Each of the three lists can differ in at most every relevant ref.
        if not 0 <= error <= 3:
            problems.append(f"reconstruction error {error} out of range")
        text = scoring.scores_json(scores, selected) + pruning.manifest_json(
            sampled, self.pruned.space)
        return Checked(problems, hashlib.sha256(text.encode()).hexdigest(), [error])

    def describe(self) -> str:
        cfg = self.slots[0][0].config
        return (f"gripper seed {cfg.seed}, sampler seeds {self.sample_seed(0)}-"
                f"{self.sample_seed(self.distinct - 1)}")


@dataclass
class FrontendResult:
    traces: list
    traces_text: str
    space_text: str
    pruned: pruning.PruneResult
    sampled: pruning.SampledModelSet


class Frontend(Workload):
    name = "frontend"
    distinct = 4
    repeat_first_op = True

    def run_op(self, index: int):
        results = []
        for inputs in self.slots[self.input_key(index)]:
            cfg = inputs.config
            traces = inputs.generate()
            traces_text = pddl.serialize_traces(traces, inputs.schema.name)
            space = candidates.build_space(inputs.schema, cfg.strict_del, cfg.max_relevant)
            space_text = candidates.write_candidates(space)
            pruned = inputs.prune(space, traces)
            sampled = inputs.sample(pruned.space, cfg.effective_sample_seed)
            results.append(FrontendResult(traces, traces_text, space_text, pruned, sampled))
        return results

    def check_op(self, index: int, results) -> Checked:
        problems = []
        digest = hashlib.sha256()
        slot = self.input_key(index)
        for inputs, result in zip(self.slots[slot], results):
            name = inputs.config.domain
            problems += _trace_problems(name, result.traces, inputs)
            problems += _prune_problems(name, result.pruned.space,
                                        result.pruned.stats.pair_evaluations, inputs,
                                        self.pinned(slot))
            if not any(m.is_reference for m in result.sampled.models):
                problems.append(f"{name}: the reference model is missing from the sample")
            for text in (result.traces_text, result.space_text,
                         candidates.write_candidates(result.pruned.space),
                         pruning.manifest_json(result.sampled, result.pruned.space)):
                digest.update(text.encode())
        return Checked(problems, digest.hexdigest(), [])


WORKLOADS = {w.name: w for w in (ShippedPipeline, SeedSweep, Frontend)}
