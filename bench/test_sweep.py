"""Smoke case of the recovery sweep (bench/sweep.py): gripper, 20 traces,
one epoch, two folds, two sampler seeds; and checks that prepare follows
the config keys that run_pipeline follows.

    PYTHONPATH=src python -m pytest bench/test_sweep.py
"""

import json

from pdeeplearn import candidates as cand
from sweep import agreement, main, prepare, sweep_domain


def test_sweep_smoke():
    record = sweep_domain("gripper", range(1000, 1002), trace_count=20, epochs=1, folds=2)
    assert record["of"] == 2 and len(record["seeds"]) == 2
    assert record["recovered"] == sum(s["error"] == "0" for s in record["seeds"])
    for seed in record["seeds"]:
        assert 1 <= seed["tied_at_top"] <= seed["models"]
        assert (seed["margin"] == "0") == (seed["tied_at_top"] > 1)
        assert len(seed["scores_sha256"]) == 64
    # The same inputs score to the same bytes, so two runs agree.
    runs = {label: {"domains": {"gripper": record}} for label in ("a", "b")}
    assert agreement(runs) == {"gripper": {"recovered": {"a": record["recovered"],
                                                         "b": record["recovered"]},
                                           "same_recovery": True,
                                           "same_scores_digests": True}}


def test_sweep_cli_adds_runs_to_one_file(tmp_path, monkeypatch):
    import sweep

    monkeypatch.setattr(sweep, "sweep_domain", lambda name, seeds: {
        "recovered": 1, "of": len(seeds), "setup_s": 0, "sweep_s": 0,
        "seeds": [{"scores_sha256": str(s)} for s in seeds]})
    out = tmp_path / "sweep.json"
    for label in ("parent", "change"):
        assert main(["--label", label, "--into", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["runs"]) == ["change", "parent"]
    assert sorted(doc["runs"]["change"]["domains"]) == sorted(sweep.SHIPPED)
    assert all(a["same_scores_digests"] for a in doc["agreement"].values())


def test_prepare_follows_object_ranges_and_skip_mining():
    small = dict(trace_count=10, epochs=1, folds=2, hidden_units=4)
    _, _, pruned, traces, _, _ = prepare("gripper", object_ranges=(("ball", 1, 1),), **small)
    assert [sum(kind == "ball" for _, kind in t.objects) for t in traces] == [1] * 10
    config, domain, space, _, _, _ = prepare("gripper", skip_mining=True, **small)
    full = cand.build_space(domain.schema, config.strict_del, config.max_relevant)
    assert cand.write_candidates(space) == cand.write_candidates(full)
    assert cand.space_size(pruned) < cand.space_size(full)
