"""Benchmark for pdeeplearn.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see workloads.py) against the pdeeplearn sources of
the checkout this file sits in, checks every op's outputs, and prints a
human-readable summary followed, as the last line, by one JSON object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1``
each op is run twice, untraced then traced, and the metrics are the
per-layer ones. Results, the run manifest and the spans of a traced run
are written under perfbench/out/.

Ops run one after another in this one process (a closed loop with one
client), cycling through the workload's input slots. The run ends with
the whole cycle whose end brings the summed op wall time nearest to
``--seconds``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Fresh interpreters timed per run for setup_s; set-up beyond import and
# domain load (the seed-sweep's trace generation and fold training) is
# too long to repeat and is timed once, in this process.
SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=0,
                        help="0 reproduces the pinned configs; others shift every seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="summed op wall time to measure (at least one op runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="20 traces, 1 epoch, 2 folds, 1 set-up probe: a quick self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Import pdeeplearn from this checkout's src/, never from elsewhere."""
    package = ROOT / "src" / "pdeeplearn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import pdeeplearn

    if Path(pdeeplearn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported pdeeplearn from {pdeeplearn.__file__}, not {package}")


def git_commit() -> Optional[str]:
    """HEAD of the checkout read from .git, or None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_manifest() -> dict:
    """The machine and library settings as found; none is changed."""
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


@dataclass
class OpRecord:
    seq: int
    index: int
    traced: bool
    measured: bool
    wall_s: float = 0.0
    cpu_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    errors: list[Fraction] = field(default_factory=list)


def run_one(wl, seq: int, index: int, tracer, measured: bool, digests: dict) -> OpRecord:
    record = OpRecord(seq, index, tracer is not None, measured)
    gc.collect()  # so that no op pays for collecting an earlier op's garbage
    output = None
    with tracer.installed() if tracer else nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            with tracer.op(seq) if tracer else nullcontext():
                output = wl.run_op(index)
        except Exception as exc:  # an op that raises is counted as failed
            traceback.print_exc()
            record.problems.append(f"op raised {type(exc).__name__}: {exc}")
        record.wall_s = time.perf_counter() - t0
        record.cpu_s = time.process_time() - cpu0
    if record.problems:
        return record
    try:
        checked = wl.check_op(index, output)
    except Exception as exc:  # so is one whose outputs cannot be checked
        traceback.print_exc()
        record.problems.append(f"check raised {type(exc).__name__}: {exc}")
        return record
    record.problems += checked.problems
    record.errors = checked.errors
    if digests.setdefault(wl.input_key(index), checked.digest) != checked.digest:
        record.problems.append("outputs differ from an earlier op with the same inputs")
    return record


def measure(wl, seconds: float, tracer) -> list[OpRecord]:
    """Whole cycles of ops, at least one, until one more cycle would take
    the summed op wall time further from seconds than stopping. In a
    traced run each op index runs untraced, then traced, on the same
    inputs."""
    records: list[OpRecord] = []
    digests: dict = {}
    busy = 0.0
    index = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            record = run_one(wl, len(records), index, tracer if traced else None, True, digests)
            records.append(record)
            busy += record.wall_s
        index += 1
        cycles, partial = divmod(index, wl.distinct)
        if not partial and busy + busy / cycles / 2 >= seconds:
            break
    if wl.repeat_first_op and not tracer and index <= wl.distinct:
        records.append(run_one(wl, len(records), 0, None, False, digests))
    return records


def probe_setup(args) -> float:
    """Wall time from starting a fresh interpreter to its having imported
    pdeeplearn and loaded the workload's domains. The child reports the
    moment it is ready on the system-wide monotonic clock; waiting for
    its exit instead would add interpreter teardown and the 50 ms polling
    of a wait with a timeout."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True)
    return float(done.stdout) - start


def tail(values: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples above it. Fewer
    than 20 samples support none above the median, so the median stands
    in for it (a maximum of a few samples only measures the machine's
    hiccups)."""
    n = len(values)
    if n < 20:
        return statistics.median(values), f"median of {n}"
    return sorted(values)[n - 11], f"p{100 * (n - 10) // n} of {n}"


def quality(wl, records: list[OpRecord]) -> dict:
    """Selection quality over the run's distinct inputs."""
    firsts: dict = {}
    for r in records:
        firsts.setdefault(wl.input_key(r.index), r)
    errors = [e for r in firsts.values() for e in r.errors]
    if not errors:
        return {}
    return {
        "recovery_rate": sum(e == 0 for e in errors) / len(errors),
        "E_mean": float(sum(errors, Fraction(0)) / len(errors)),
        "selections": len(errors),
    }


def end_to_end(records: list[OpRecord], setup_s: float) -> tuple[dict, str]:
    """wall_s is the mean op time over the whole run, whose ops cover
    each input slot equally often. The host's vCPUs slow down by up to
    2x for seconds to minutes at a time; a mean over the run moves with
    the share of the run that was slow, where a median or a minimum
    jumps between the fast and the slow state."""
    walls = [r.wall_s for r in records if r.measured]
    tail_value, tail_label = tail(walls)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.fmean(walls),
        "wall_s_median": statistics.median(walls),
        "wall_s_tail": tail_value,
        "peak_rss_mb": rss_kb / 1024,
    }, tail_label


def per_layer(tracer, records: list[OpRecord]) -> tuple[dict, dict]:
    """Per-op layer figures over the traced ops, and each module's share
    of the op time."""
    traced = [r for r in records if r.traced]
    ids = {r.seq for r in traced}
    n = len(traced)
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    total, self_total = Counter(), Counter()
    for row, own in zip(spans, selfs):
        if row[4] in ids:
            total[row[0]] += row[2] - row[1]
            self_total[row[0]] += own
    counts = sum((tracer.counts[i] for i in ids), Counter())

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values = {f"{w.span}.s": total[w.span] / n for w in tracing.WRAPS}
    values.update({name: value / n for name, value in counts.items()})
    for name in ("lstm.train.steps", "lstm.train.gflop", "lstm.accuracy.steps",
                 "encoding.encode_corpus.calls", "encoding.rows", "scoring.models_scored",
                 "pruning.pair_evaluations", "tracegen.plan.calls", "tracegen.plan.expansions",
                 "pruning.screen_calls", "candidates.entries",
                 "candidates.write_candidates.bytes", "mining.frequent_pairs"):
        values.setdefault(name, 0.0)
    roots = tracing.op_roots(spans, ids)
    untraced = {r.index: r.wall_s for r in records if not r.traced}
    values.update({
        "lstm.train.gflops": ratio(counts["lstm.train.gflop"], total["lstm.train"]),
        "pruning.kept_ratio": ratio(counts["pruning.kept"], counts["pruning.initial"]),
        "tracegen.plan.us_per_expansion": 1e6 * ratio(total["tracegen.plan"],
                                                      counts["tracegen.plan.expansions"]),
        "pruning.screen_pass_ratio": ratio(counts["pruning.screen_passed"],
                                           counts["pruning.screen_calls"]),
        "pipeline.run_pipeline.self_s": self_total["pipeline.run_pipeline"] / n,
        "pipeline.cpu_util": ratio(sum(r.cpu_s for r in traced), sum(r.wall_s for r in traced)),
        "trace.overhead_s": statistics.median(r.wall_s - untraced[r.index] for r in traced),
        "trace.coverage": statistics.median(
            tracing.outermost_share(spans, root, tracing.LEAF_SPANS.__contains__)
            for root in roots),
    })
    groups = {name.split(".")[0] for name in total if name != tracing.OP_SPAN}
    prefixes = {g: (g + ".",) for g in sorted(groups)}
    prefixes["lstm+scoring.train_folds"] = ("lstm.", "scoring.train_folds")
    prefixes["pruning+tracegen"] = ("pruning.", "tracegen.")
    shares = {label: statistics.median(
        tracing.outermost_share(spans, root, lambda name, p=p: name.startswith(p))
        for root in roots) for label, p in prefixes.items()}
    return values, shares


def setup_breakdown(tracer) -> dict:
    """Seconds of each top-level call made while the workload was prepared."""
    spans = tracer.spans
    roots = {i for i, row in enumerate(spans) if row[4] == "setup" and row[3] < 0}
    out = Counter()
    for row in spans:
        if row[3] in roots:
            out[row[0]] += row[2] - row[1]
    return dict(out)


def run(args, wl) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer"] if args.trace else declared["end_to_end"]
    manifest = run_manifest()
    probes = [] if args.trace else [probe_setup(args)
                                    for _ in range(1 if args.smoke else SETUP_PROBES)]
    wl.load()
    tracer = tracing.Tracer() if args.trace else None
    t0 = time.perf_counter()
    if tracer:
        with tracer.installed(), tracer.op("setup"):
            wl.prepare()
    else:
        wl.prepare()
    prepare_s = time.perf_counter() - t0
    records = measure(wl, args.seconds, tracer)

    failed = [r for r in records if r.problems]
    problems = [f"op {r.seq}: {p}" for r in failed for p in r.problems]
    extra: dict = {"quality": quality(wl, records)}
    if tracer:
        problems += tracing.nesting_problems(tracer.spans)
        values, extra["shares"] = per_layer(tracer, records)
        extra["setup_breakdown_s"] = setup_breakdown(tracer)
    else:
        values, extra["tail"] = end_to_end(records, statistics.median(probes) + prepare_s)
        extra["setup_probes_s"] = probes
        extra["prepare_s"] = prepare_s
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems, "attempted": len(records), "failed": len(failed),
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps({
        "args": vars(args), "manifest": manifest, "workload": wl.describe(),
        "result": result, "problems": problems, **extra,
        "ops": [{"seq": r.seq, "index": r.index, "traced": r.traced, "measured": r.measured,
                 "wall_s": r.wall_s, "cpu_s": r.cpu_s, "problems": r.problems,
                 "errors": [str(e) for e in r.errors]} for r in records],
    }, indent=1, default=str) + "\n")
    if tracer:
        with open(OUT_DIR / f"spans-{stem}.jsonl", "w") as fh:
            for row in tracer.spans:
                fh.write(json.dumps(row) + "\n")

    print(f"workload {args.workload} (seed {args.seed}): {wl.describe()}")
    print("manifest " + json.dumps(manifest, sort_keys=True))
    lines = [(name, m["value"], m["unit"], "") for name, m in metrics.items()]
    if not tracer:
        lines.append(("wall_s_median", values["wall_s_median"], "s", "median op"))
        lines.append(("wall_s_tail", values["wall_s_tail"], "s", f"the {extra['tail']} ops"))
    q = extra["quality"]
    if q:
        lines.append(("recovery_rate", q["recovery_rate"], "share",
                      f"of {q['selections']} selections with E = 0"))
        lines.append(("E_mean", q["E_mean"], "E", "mean reconstruction error"))
    lines.append(("failed_ops", len(failed) / len(records), "share", f"of {len(records)} ops"))
    for name, value, unit, note in lines:
        print(f"  {name:34s} {value:<14.6g} {unit:8s} {note}".rstrip())
    if not tracer:
        print(f"  (wall_s is the mean of {sum(r.measured for r in records)} ops over "
              f"{wl.distinct} inputs; setup_s the median of {len(probes)} fresh "
              f"interpreters plus {prepare_s:.3f} s prepare)")
    if tracer:
        print("  share of op time: " + ", ".join(
            f"{k} {v:.3f}" for k, v in extra["shares"].items()))
        if extra["setup_breakdown_s"]:
            print("  set-up: " + ", ".join(
                f"{k} {v:.3f} s" for k, v in extra["setup_breakdown_s"].items()))
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    import_program()
    import workloads

    args = parse_args(argv, list(workloads.WORKLOADS))

    work_dir = OUT_DIR / "work" / f"{args.workload}-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.smoke, work_dir)
    if args.setup_probe:
        wl.load()
        print(time.clock_gettime(time.CLOCK_MONOTONIC))
        return 0
    try:
        return run(args, wl)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
