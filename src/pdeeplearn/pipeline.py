"""End-to-end orchestration: generate, enumerate, mine, prune, sample,
train, select, evaluate, as one reproducible command.

All artifacts land in a run directory named by the config hash and seed.
Reports and serialized parameters are byte-identical across reruns of the
same config; wall-clock timings go to a separate timings.json sidecar so
they never perturb the deterministic outputs.

It is also the one place that turns a PipelineConfig into a phase's
inputs (load, generate, mine, sample, save_folds and the config's
trace_schedule, planner() and training()); the CLI subcommands call the same.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

from . import candidates as cand
from .core import PlanTrace
from .domains import LoadedDomain, load_domain
from .encoding import EncodingLayout, build_layout
from .evaluate import (
    EvaluationReport,
    reconstruction_error,
    reference_identical,
    render_report,
)
from .lstm import TrainConfig, save_params
from .mining import (
    SequenceDatabase,
    StabilityReport,
    frequent_pairs,
    render_rules_text,
    rules_report_json,
    stability_scan,
)
from .pddl import serialize_traces
from .pruning import SampledModelSet, manifest_json, prune_candidates, sample_models
from .scoring import TrainedFold, score_models, scores_json, train_folds
from .tracegen import (
    GenerationSpec,
    PlannerConfig,
    doubling_schedule,
    generate_traces,
)

PHASE_EXIT_CODES = {
    "config": 1,
    "generate": 2,
    "enumerate": 3,
    "mine": 4,
    "prune": 5,
    "sample": 6,
    "train": 7,
    "select": 8,
    "evaluate": 9,
}


class PhaseError(RuntimeError):
    def __init__(self, phase: str, cause: Exception):
        super().__init__(f"phase {phase!r} failed: {cause}")
        self.phase = phase
        self.exit_code = PHASE_EXIT_CODES.get(phase, 1)
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    domain: str = "gripper"
    unitary: str = ""
    trace_count: int = 100
    catalog: int = 0
    seed: int = 42
    # The sampler draws with its own stream so competitor sets can be
    # varied without regenerating traces; defaults to the master seed.
    sample_seed: int = -1
    strategy: str = "breadth-first"
    max_expansions: int = 100_000
    schedule: tuple[int, ...] = ()
    min_support: str = "0.4"
    min_confidence: str = "0.6"
    stability_tolerance: str = "0.1"
    strict_del: bool = False
    max_relevant: int = 16
    budget: int = 50
    include_reference: bool = True
    skip_mining: bool = False
    hidden_units: int = 128
    dropout: float = 0.8
    epochs: int = 10
    folds: int = 5
    learning_rate: float = 1e-3
    init_gain: float = 1.0
    object_ranges: tuple[tuple[str, int, int], ...] = ()

    @property
    def effective_sample_seed(self) -> int:
        return self.seed if self.sample_seed < 0 else self.sample_seed

    @property
    def trace_schedule(self) -> tuple[int, ...]:
        """The trace counts the stability scan mines at."""
        schedule = self.schedule or doubling_schedule(self.trace_count)
        if max(schedule) > self.trace_count:
            raise ValueError("schedule exceeds trace_count")
        return schedule

    def planner(self) -> PlannerConfig:
        return PlannerConfig(strategy=self.strategy, max_expansions=self.max_expansions,
                             rng_seed=self.seed)

    def training(self) -> TrainConfig:
        return TrainConfig(hidden_units=self.hidden_units, dropout_rate=self.dropout,
                           epochs=self.epochs, folds=self.folds,
                           learning_rate=self.learning_rate, init_gain=self.init_gain,
                           rng_seed=self.seed)

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            value = getattr(self, f.name)
            if f.name == "schedule":
                value = ",".join(str(v) for v in value)
            elif f.name == "object_ranges":
                value = ",".join(f"{t}:{lo}-{hi}" for t, lo, hi in value)
            elif isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()[:12]


def parse_config(text: str) -> PipelineConfig:
    """Flat key = value file; '#' and ';' start comments. A bad line, key
    or value, or a repeated key, raises a ValueError naming the line."""
    values: dict = {}
    defaults = {f.name: f.default for f in fields(PipelineConfig)}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in defaults:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        kind = type(defaults[key])
        try:
            if kind is bool:
                if value.lower() not in ("true", "false", "yes", "no", "1", "0"):
                    raise ValueError(f"bad boolean {value!r}")
                values[key] = value.lower() in ("true", "yes", "1")
            elif kind in (int, float):
                values[key] = kind(value)
            elif key == "schedule":
                values[key] = tuple(int(v) for v in value.split(",") if v.strip()) if value else ()
            elif key == "object_ranges":
                ranges = []
                if value:
                    for part in value.split(","):
                        name, _, span = part.strip().partition(":")
                        lo, _, hi = span.partition("-")
                        ranges.append((name.strip(), int(lo), int(hi or lo)))
                values[key] = tuple(ranges)
            else:
                values[key] = value
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key}: {exc}") from None
    return PipelineConfig(**values)


@dataclass
class PipelineRun:
    config: PipelineConfig
    run_dir: Path
    report: Optional[EvaluationReport] = None
    timings: dict = field(default_factory=dict)


def load(config: PipelineConfig) -> LoadedDomain:
    """The config's domain, with its object_ranges over the default ranges.
    A range for a type the domain does not declare is a ValueError."""
    domain = load_domain(config.domain, config.unitary)
    ranges = {name: (lo, hi) for name, lo, hi in config.object_ranges}
    undeclared = sorted(ranges.keys() - domain.schema.types)
    if undeclared:
        raise ValueError(f"object_ranges names undeclared types {undeclared}; "
                         f"{domain.schema.name} declares {sorted(domain.schema.types)}")
    return replace(domain, ranges={**domain.ranges, **ranges})


def generate(config: PipelineConfig, domain: LoadedDomain) -> list[PlanTrace]:
    spec = GenerationSpec(problem_count=config.trace_count, object_count_ranges=domain.ranges,
                          trace_targets=config.trace_schedule, rng_seed=config.seed,
                          catalog_size=config.catalog)
    return generate_traces(spec, domain.reference, config.planner(), domain.sampler)


def mine(config: PipelineConfig, traces: Sequence[PlanTrace]) -> StabilityReport:
    db = SequenceDatabase.from_traces(traces)
    return stability_scan([db.prefix(point) for point in config.trace_schedule],
                          config.min_support, config.min_confidence,
                          config.stability_tolerance)


def sample(config: PipelineConfig, domain: LoadedDomain, space) -> SampledModelSet:
    return sample_models(space, domain.unitary, config.planner(), config.budget,
                         rng_seed=config.effective_sample_seed,
                         include_reference=config.include_reference,
                         reference=domain.reference)


def save_folds(config: PipelineConfig, layout: EncodingLayout,
               folds: Sequence[TrainedFold], out_dir: Path) -> None:
    """One params-fold<k>.bin per fold; the header names the layout, fold and seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for fold in folds:
        save_params(out_dir / f"params-fold{fold.fold_index}.bin", fold.params,
                    layout_hash=layout.layout_hash(),
                    extra={"fold": fold.fold_index, "seed": config.seed})


def run_pipeline(config: PipelineConfig, out_root: Path) -> PipelineRun:
    run_dir = Path(out_root) / f"{config.config_hash()}-s{config.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.cfg").write_text(config.canonical_text())
    run = PipelineRun(config, run_dir)

    @contextmanager
    def phase(name: str):
        """Time the block into run.timings; wrap what it raises in PhaseError."""
        start = time.perf_counter()
        try:
            yield
        except PhaseError:
            raise
        except BaseException as exc:
            raise PhaseError(name, exc) from exc
        finally:
            run.timings[name] = time.perf_counter() - start

    with phase("config"):
        domain = load(config)
        if domain.unitary is None:
            raise ValueError("unregistered domains need a 'unitary' problem path")
        schema, reference = domain.schema, domain.reference
        schedule = config.trace_schedule

    with phase("generate"):
        traces = generate(config, domain)
        (run_dir / "traces.traces").write_text(serialize_traces(traces, schema.name))

    with phase("enumerate"):
        space = cand.build_space(schema, config.strict_del, config.max_relevant)
        (run_dir / "candidates.sexp").write_text(cand.write_candidates(space))
        initial_space_size = cand.space_size(space)

    pairs: tuple[tuple[str, str], ...] = ()
    if not config.skip_mining:
        with phase("mine"):
            stability = mine(config, traces)
            pairs = frequent_pairs(stability)
            (run_dir / "rules.txt").write_text(render_rules_text(stability))
            (run_dir / "rules.json").write_text(rules_report_json(stability))

        with phase("prune"):
            prune_result = prune_candidates(space, pairs)
            reduced = prune_result.space
            prune_stats = prune_result.stats
            (run_dir / "pruned.sexp").write_text(cand.write_candidates(reduced))
    else:
        reduced = space
        prune_stats = None

    with phase("sample"):
        sampled = sample(config, domain, reduced)
        (run_dir / "models.json").write_text(manifest_json(sampled, reduced))

    with phase("train"):
        layout = build_layout(schema)
        folds = train_folds(traces, layout, config.training())
        save_folds(config, layout, folds, run_dir)
        (run_dir / "losses.json").write_text(json.dumps(
            {f"fold{f.fold_index}": list(f.loss_history) for f in folds},
            indent=2, sort_keys=True) + "\n")

    with phase("select"):
        scores, selected_id = score_models(folds, traces, sampled, layout)
        (run_dir / "scores.json").write_text(scores_json(scores, selected_id))

    with phase("evaluate"):
        selected_model = sampled.by_id(selected_id).model
        error, diffs = reconstruction_error(selected_model, reference, layout)
        report = EvaluationReport(
            domain=schema.name,
            schedule=tuple(schedule),
            frequent_pairs=pairs,
            prune_stats=prune_stats,
            sampled_count=len(sampled),
            space_size_initial=initial_space_size,
            space_size_final=cand.space_size(reduced),
            scores=tuple(scores),
            selected_id=selected_id,
            selected_is_reference_identical=reference_identical(
                sampled, selected_id, reference),
            error=error,
            diffs=diffs,
            config_echo=_config_dict(config),
        )
        (run_dir / "report.txt").write_text(render_report(report, "text"))
        (run_dir / "report.json").write_text(render_report(report, "json"))
        run.report = report

    (run_dir / "timings.json").write_text(json.dumps(
        {k: round(v, 3) for k, v in run.timings.items()}, indent=2, sort_keys=True) + "\n")
    return run


def _config_dict(config: PipelineConfig) -> dict:
    out = {}
    for line in config.canonical_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out
