"""Command-line front end: per-phase subcommands plus the full pipeline.

Exit codes: 0 on success; the pipeline command exits with a distinct code
per failing phase (see pipeline.PHASE_EXIT_CODES); other commands exit 1
on any error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import candidates as cand
from .domains import LoadedDomain, load_domain
from .encoding import build_layout
from .mining import frequent_pairs, render_rules_text, rules_report_json
from .pddl import parse_traces, serialize_traces, trace_domain
from .pipeline import (PhaseError, PipelineConfig, generate, load, mine, parse_config,
                       run_pipeline, sample, save_folds)
from .pruning import manifest_json, manifest_load, prune_candidates
from .scoring import score_models, scores_json, train_folds
from .tracegen import STRATEGIES


class CliError(RuntimeError):
    """A usage problem reported as a one-line error with exit code 1."""


def _load(config: PipelineConfig) -> LoadedDomain:
    domain = load(config)
    if domain.unitary is None:
        raise CliError("unregistered domains need --unitary")
    return domain


def _domain_and_traces(args) -> tuple[LoadedDomain, list]:
    """The domain named by --domain or else by the trace file header, and
    the traces parsed against it."""
    text = Path(args.traces).read_text()
    domain = load_domain(args.domain or trace_domain(text))
    return domain, parse_traces(text, domain.schema)


def _cmd_generate(args) -> int:
    config = PipelineConfig(domain=args.domain, unitary=args.unitary, trace_count=args.count,
                            catalog=args.catalog, seed=args.seed, strategy=args.strategy,
                            max_expansions=args.max_expansions)
    domain = _load(config)
    traces = generate(config, domain)
    Path(args.out).write_text(serialize_traces(traces, domain.schema.name))
    print(f"wrote {len(traces)} traces to {args.out}")
    return 0


def _cmd_enumerate(args) -> int:
    space = cand.build_space(load_domain(args.domain).schema, args.strict_del, args.max_rel)
    Path(args.out).write_text(cand.write_candidates(space))
    for action, count in sorted(space.counts().items()):
        print(f"{action}: {count} candidates")
    print(f"total: {space.total_candidates()} candidate actions; "
          f"model space size {cand.space_size(space)}")
    return 0


def _cmd_mine(args) -> int:
    _, traces = _domain_and_traces(args)
    schedule = tuple(int(s) for s in args.schedule.split(",")) if args.schedule else ()
    config = PipelineConfig(trace_count=len(traces), schedule=schedule,
                            min_support=args.min_support, min_confidence=args.min_confidence,
                            stability_tolerance=args.tolerance)
    report = mine(config, traces)
    text = render_rules_text(report)
    Path(args.out).write_text(rules_report_json(report))
    if args.out_text:
        Path(args.out_text).write_text(text)
    print(text, end="")
    print("frequent pairs: " + ", ".join(f"{a}->{b}" for a, b in frequent_pairs(report)))
    return 0


def _cmd_prune(args) -> int:
    schema = load_domain(args.domain).schema
    space = cand.read_candidates(Path(args.candidates).read_text(), schema)
    rules = json.loads(Path(args.rules).read_text())
    pairs = [tuple(p) for p in rules["frequent_pairs"]]
    result = prune_candidates(space, pairs)
    Path(args.out).write_text(cand.write_candidates(result.space))
    stats = result.stats
    for action in sorted(stats.initial_counts):
        print(f"{action}: {stats.initial_counts[action]} -> {stats.final_counts[action]}")
    print(f"total: {stats.initial_total} -> {stats.final_total} "
          f"({stats.percent_reduction:.2f}% reduction, "
          f"{stats.pair_evaluations} pair evaluations)")
    return 0


def _cmd_sample(args) -> int:
    config = PipelineConfig(domain=args.domain, unitary=args.unitary, budget=args.budget,
                            seed=args.seed, include_reference=args.include_reference,
                            strategy=args.strategy, max_expansions=args.max_expansions)
    domain = _load(config)
    space = cand.read_candidates(Path(args.candidates).read_text(), domain.schema)
    sampled = sample(config, domain, space)
    Path(args.out).write_text(manifest_json(sampled, space))
    print(f"sampled {len(sampled)} viable models to {args.out}")
    return 0


def _train_config(args) -> PipelineConfig:
    return PipelineConfig(hidden_units=args.hidden, dropout=args.dropout, epochs=args.epochs,
                          folds=args.folds, learning_rate=args.lr, init_gain=args.init_gain,
                          seed=args.seed)


def _cmd_train(args) -> int:
    domain, traces = _domain_and_traces(args)
    config = _train_config(args)
    layout = build_layout(domain.schema)
    folds = train_folds(traces, layout, config.training())
    save_folds(config, layout, folds, Path(args.out_dir))
    for fold in folds:
        print(f"fold {fold.fold_index}: loss {fold.loss_history[0]:.4f} -> "
              f"{fold.loss_history[-1]:.4f}")
    return 0


def _cmd_select(args) -> int:
    domain, traces = _domain_and_traces(args)
    layout = build_layout(domain.schema)
    sampled = manifest_load(Path(args.models).read_text(), domain.schema)
    folds = train_folds(traces, layout, _train_config(args).training())
    scores, selected = score_models(folds, traces, sampled, layout)
    Path(args.out).write_text(scores_json(scores, selected))
    best = next(s for s in scores if s.model_id == selected)
    print(f"selected {selected} with mean accuracy "
          f"{float(best.mean_accuracy) * 100.0:.2f}%")
    return 0


def _cmd_pipeline(args) -> int:
    config = parse_config(Path(args.config).read_text())
    try:
        run = run_pipeline(config, Path(args.out_root))
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    report = run.report
    print((run.run_dir / "report.txt").read_text(), end="")
    print(f"artifacts in {run.run_dir}")
    return 0 if report is not None else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdeeplearn",
        description="Learn STRIPS action models from state-action plan traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate traces with the reference model")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=PipelineConfig.trace_count)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--catalog", type=int, default=0, help="cycle through N distinct problems")
    p.add_argument("--strategy", default=PipelineConfig.strategy, choices=STRATEGIES)
    p.add_argument("--max-expansions", type=int, default=PipelineConfig.max_expansions)
    p.add_argument("--unitary", default="")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("enumerate", help="enumerate candidate action sets")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--strict-del", action="store_true")
    p.add_argument("--max-rel", type=int, default=PipelineConfig.max_relevant)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("mine", help="mine sequential rules and stability")
    p.add_argument("--traces", required=True)
    p.add_argument("--domain", default="")
    p.add_argument("--min-support", default=PipelineConfig.min_support)
    p.add_argument("--min-confidence", default=PipelineConfig.min_confidence)
    p.add_argument("--schedule", default="")
    p.add_argument("--tolerance", default=PipelineConfig.stability_tolerance)
    p.add_argument("--out", required=True, help="rules JSON output")
    p.add_argument("--out-text", default="")
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("prune", help="filter candidates by pair constraints")
    p.add_argument("--candidates", required=True)
    p.add_argument("--rules", required=True, help="rules JSON from 'mine'")
    p.add_argument("--domain", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("sample", help="sample planner-viable models")
    p.add_argument("--candidates", required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--unitary", default="")
    p.add_argument("--budget", type=int, default=PipelineConfig.budget)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--include-reference", action="store_true")
    p.add_argument("--strategy", default=PipelineConfig.strategy, choices=STRATEGIES)
    p.add_argument("--max-expansions", type=int, default=PipelineConfig.max_expansions)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    for name, help_text in (("train", "train the fold networks"),
                            ("select", "train folds and score sampled models")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--traces", required=True)
        p.add_argument("--domain", default="")
        p.add_argument("--hidden", type=int, default=PipelineConfig.hidden_units)
        p.add_argument("--dropout", type=float, default=PipelineConfig.dropout)
        p.add_argument("--epochs", type=int, default=PipelineConfig.epochs)
        p.add_argument("--folds", type=int, default=PipelineConfig.folds)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--lr", type=float, default=PipelineConfig.learning_rate)
        p.add_argument("--init-gain", type=float, default=PipelineConfig.init_gain)
        if name == "train":
            p.add_argument("--out-dir", required=True)
            p.set_defaults(func=_cmd_train)
        else:
            p.add_argument("--models", required=True)
            p.add_argument("--out", required=True)
            p.set_defaults(func=_cmd_select)

    p = sub.add_parser("pipeline", help="run every phase end to end")
    p.add_argument("--config", required=True)
    p.add_argument("--out-root", default="runs")
    p.set_defaults(func=_cmd_pipeline)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # located parse errors, bad inputs, ...
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
