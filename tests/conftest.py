"""Shared fixtures: the pinned configs, and the shipped pipeline runs,
executed once per session and reused by the acceptance criteria."""

from pathlib import Path

import pytest

from pdeeplearn.pipeline import parse_config, run_pipeline

DOMAINS = ("gripper", "kiln", "battery")
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="session")
def shipped_config():
    """shipped_config(name) is the pinned config that configs/<name>.cfg holds."""
    return lambda name: parse_config((CONFIGS / f"{name}.cfg").read_text())


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory, shipped_config):
    root = tmp_path_factory.mktemp("runs")
    return {name: run_pipeline(shipped_config(name), root) for name in DOMAINS}


@pytest.fixture(scope="session")
def gripper_rerun(tmp_path_factory, shipped_config):
    root = tmp_path_factory.mktemp("runs-again")
    return run_pipeline(shipped_config("gripper"), root)
