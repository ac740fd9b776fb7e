"""Recovery sweep: how often selection recovers the reference model when
only the sampler seed changes.

    PYTHONPATH=src python bench/sweep.py --label change --into SWEEP.json

For each shipped domain the pinned traces are generated, pruned and
trained into folds once (prepare), through the phase functions that
run_pipeline calls, so every config key acts here as it does there. Then,
for every sampler seed in 1000..1039, the models are sampled, scored and
the selected one's reconstruction error E taken against the reference. A
domain's record holds the recovery count (seeds with E = 0) and, per seed,
the selected id, E, the margin of the top mean accuracy over the
runner-up, how many models tie at the top, and the sha256 of scores_json.

Only public pdeeplearn functions are called and the pinned configs are
read from the configs/ beside bench/, so the same file measures any
checkout that has pipeline.load and whose src/ is on PYTHONPATH. --into adds the run under
--label to a JSON file (replacing a run of that label); once the file
holds two or more runs, its "agreement" block says, per domain, whether
they recover equally often and score every seed to the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from pdeeplearn import candidates as cand
from pdeeplearn import pipeline
from pdeeplearn.encoding import build_layout
from pdeeplearn.evaluate import reconstruction_error
from pdeeplearn.mining import frequent_pairs
from pdeeplearn.pruning import prune_candidates
from pdeeplearn.scoring import ranked, score_models, scores_json, train_folds

SHIPPED = ("gripper", "kiln", "battery")
FIRST_SEED, STOP_SEED = 1000, 1040
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def shipped_config(name: str) -> pipeline.PipelineConfig:
    """The pinned config of a shipped domain, as configs/<name>.cfg holds it."""
    return pipeline.parse_config((CONFIGS / f"{name}.cfg").read_text())


def prepare(name: str, **overrides):
    """One shipped domain up to its trained folds, as run_pipeline runs it;
    overrides replace fields of its shipped PipelineConfig.
    Returns (config, domain, pruned, traces, layout, folds)."""
    config = replace(shipped_config(name), **overrides)
    domain = pipeline.load(config)
    traces = pipeline.generate(config, domain)
    space = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    if not config.skip_mining:
        space = prune_candidates(space, frequent_pairs(pipeline.mine(config, traces))).space
    layout = build_layout(domain.schema)
    folds = train_folds(traces, layout, config.training())
    return config, domain, space, traces, layout, folds


def sweep_domain(name: str, sample_seeds, **overrides) -> dict:
    """The recovery record of one shipped domain over the sampler seeds;
    overrides go to prepare."""
    start = time.perf_counter()
    config, domain, pruned, traces, layout, folds = prepare(name, **overrides)
    trained = time.perf_counter()
    seeds = []
    for sample_seed in sample_seeds:
        sampled = pipeline.sample(replace(config, sample_seed=sample_seed), domain, pruned)
        scores, selected = score_models(folds, traces, sampled, layout)
        error, _ = reconstruction_error(sampled.by_id(selected).model, domain.reference, layout)
        order = ranked(scores)
        top = order[0].mean_accuracy
        margin = top - order[1].mean_accuracy if len(order) > 1 else Fraction(0)
        seeds.append({
            "sample_seed": sample_seed,
            "selected": selected,
            "error": str(error),
            "margin": str(margin),
            "margin_points": round(100 * float(margin), 4),
            "tied_at_top": sum(s.mean_accuracy == top for s in order),
            "models": len(order),
            "scores_sha256": hashlib.sha256(
                scores_json(scores, selected).encode("utf-8")).hexdigest(),
        })
    return {
        "seed": config.seed,
        "sample_seeds": [min(sample_seeds), max(sample_seeds)],
        "recovered": sum(s["error"] == "0" for s in seeds),
        "of": len(seeds),
        "setup_s": round(trained - start, 2),
        "sweep_s": round(time.perf_counter() - trained, 2),
        "seeds": seeds,
    }


def agreement(runs: dict) -> dict:
    """Per domain: the recovery count of each run, and whether every run
    recovers equally often and gives each seed the same scores digest."""
    out = {}
    domains = set.intersection(*(set(run["domains"]) for run in runs.values()))
    for name in sorted(domains):
        records = [run["domains"][name] for run in runs.values()]
        digests = [[s["scores_sha256"] for s in r["seeds"]] for r in records]
        out[name] = {
            "recovered": {label: run["domains"][name]["recovered"]
                          for label, run in runs.items()},
            "same_recovery": len({r["recovered"] for r in records}) == 1,
            "same_scores_digests": all(d == digests[0] for d in digests),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="name of this run in the output file")
    parser.add_argument("--into", type=Path, required=True, help="JSON file to add the run to")
    args = parser.parse_args(argv)
    seeds = range(FIRST_SEED, STOP_SEED)
    run = {
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "platform": platform.platform()},
        "domains": {},
    }
    for name in SHIPPED:
        record = sweep_domain(name, seeds)
        run["domains"][name] = record
        print(f"{args.label} {name}: {record['recovered']}/{record['of']} recovered "
              f"(setup {record['setup_s']} s, sweep {record['sweep_s']} s)", flush=True)
    doc = json.loads(args.into.read_text()) if args.into.exists() else {}
    doc.setdefault("runs", {})[args.label] = run
    doc["agreement"] = agreement(doc["runs"]) if len(doc["runs"]) > 1 else {}
    args.into.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
