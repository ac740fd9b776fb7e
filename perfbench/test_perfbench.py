"""Self-tests of the benchmark, in smoke mode (a few seconds each):

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
RUN = BENCH / "run.py"
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402


def run_bench(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", ["0", "1"])
# seed-sweep is not in BENCHMARK.json but is runnable; smoke it too.
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]] + ["seed-sweep"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", trace,
                     "--smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    for m in wanted:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in lines[:-1]), m["name"]
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out"))
    done = subprocess.run([sys.executable, str(tmp_path / BENCH.name / RUN.name), "--workload",
                           "frontend", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_nesting_check_and_self_times():
    spans = [["op", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1], ["b", 2.0, 3.0, 1, 1],
             ["c", 5.0, 9.0, 0, 1]]
    assert tracing.nesting_problems(spans) == []
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracing.outermost_share(spans, 0, lambda n: n in ("b", "c")) == 0.5
    spans[2] = ["b", 2.0, 5.0, 1, 2]
    assert len(tracing.nesting_problems(spans)) == 2
