"""CLI and config-file tests: subcommand flows over temp artifacts."""

import json

import pytest

from pdeeplearn.cli import main
from pdeeplearn.pipeline import PhaseError, PipelineConfig, load, parse_config, run_pipeline


def test_generate_writes_trace_file(tmp_path, capsys):
    out = tmp_path / "t.traces"
    code = main(["generate", "--domain", "kiln", "--out", str(out),
                 "--count", "6", "--seed", "3"])
    assert code == 0
    assert "wrote 6 traces" in capsys.readouterr().out
    text = out.read_text()
    assert text.count("(trace") == 6


def test_generate_catalog_writes_the_traces_of_the_pipeline(tmp_path, shipped_config):
    from dataclasses import replace

    from pdeeplearn.domains import load_domain
    from pdeeplearn.pddl import serialize_traces
    from pdeeplearn.tracegen import (GenerationSpec, PlannerConfig, doubling_schedule,
                                     generate_traces)

    # More traces than the catalog holds, so the problem stream wraps.
    config = replace(shipped_config("kiln"), trace_count=40)
    assert (config.catalog, config.seed) == (31, 42)
    domain = load_domain(config.domain)
    spec = GenerationSpec(problem_count=config.trace_count, object_count_ranges=domain.ranges,
                          trace_targets=doubling_schedule(config.trace_count),
                          rng_seed=config.seed, catalog_size=config.catalog)
    planner = PlannerConfig(strategy=config.strategy, max_expansions=config.max_expansions,
                            rng_seed=config.seed)
    want = serialize_traces(generate_traces(spec, domain.reference, planner, domain.sampler),
                            domain.schema.name)
    generate = ["generate", "--domain", "kiln", "--count", "40", "--seed", "42"]
    assert main(generate + ["--catalog", "31", "--out", str(tmp_path / "c31")]) == 0
    assert main(generate + ["--out", str(tmp_path / "c0")]) == 0
    assert (tmp_path / "c31").read_bytes() == want.encode()
    assert (tmp_path / "c0").read_bytes() != want.encode()


def test_generate_unknown_domain_fails(tmp_path):
    code = main(["generate", "--domain", "nonesuch", "--out",
                 str(tmp_path / "x"), "--count", "1"])
    assert code == 1


def test_enumerate_prints_counts(tmp_path, capsys):
    out = tmp_path / "cands.sexp"
    code = main(["enumerate", "--domain", "kiln", "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fire: 625 candidates" in printed
    assert "model space size" in printed
    assert out.exists()


def test_mine_prune_sample_flow(tmp_path, capsys):
    traces = tmp_path / "t.traces"
    cands = tmp_path / "c.sexp"
    rules = tmp_path / "rules.json"
    pruned = tmp_path / "pruned.sexp"
    models = tmp_path / "models.json"
    assert main(["generate", "--domain", "kiln", "--out", str(traces),
                 "--count", "40", "--seed", "5"]) == 0
    assert main(["enumerate", "--domain", "kiln", "--out", str(cands)]) == 0
    # domain resolved from the trace file header when --domain is omitted
    assert main(["mine", "--traces", str(traces), "--min-support", "0.2",
                 "--min-confidence", "0.4", "--tolerance", "0.4",
                 "--out", str(rules)]) == 0
    payload = json.loads(rules.read_text())
    assert payload["frequent_pairs"]
    assert main(["prune", "--candidates", str(cands), "--rules", str(rules),
                 "--domain", "kiln", "--out", str(pruned)]) == 0
    assert main(["sample", "--candidates", str(pruned), "--domain", "kiln",
                 "--budget", "3", "--seed", "5", "--include-reference",
                 "--out", str(models)]) == 0
    manifest = json.loads(models.read_text())
    assert any(m["is_reference"] for m in manifest["models"])


def test_train_and_select_flow(tmp_path, capsys):
    traces = tmp_path / "t.traces"
    cands = tmp_path / "c.sexp"
    models = tmp_path / "models.json"
    scores = tmp_path / "scores.json"
    params_dir = tmp_path / "params"
    assert main(["generate", "--domain", "kiln", "--out", str(traces),
                 "--count", "15", "--seed", "6"]) == 0
    assert main(["enumerate", "--domain", "kiln", "--out", str(cands)]) == 0
    assert main(["sample", "--candidates", str(cands), "--domain", "kiln",
                 "--budget", "2", "--seed", "6", "--include-reference",
                 "--out", str(models)]) == 0
    assert main(["train", "--traces", str(traces), "--hidden", "8",
                 "--epochs", "2", "--dropout", "0", "--seed", "6",
                 "--out-dir", str(params_dir)]) == 0
    assert sorted(p.name for p in params_dir.iterdir()) == [
        f"params-fold{k}.bin" for k in range(5)]
    assert main(["select", "--traces", str(traces), "--models", str(models),
                 "--hidden", "8", "--epochs", "2", "--dropout", "0",
                 "--seed", "6", "--out", str(scores)]) == 0
    payload = json.loads(scores.read_text())
    assert payload["selected"]
    assert len(payload["models"]) >= 1


def test_config_parsing_round_trip():
    config = parse_config("""
# comment line
domain = kiln
trace_count = 30
seed = 9
budget = 4
include_reference = true
dropout = 0.1
schedule = 10,20,30
object_ranges = piece:2-3
""")
    assert config.domain == "kiln"
    assert config.trace_count == 30
    assert config.schedule == (10, 20, 30)
    assert config.object_ranges == (("piece", 2, 3),)
    again = parse_config(config.canonical_text())
    assert again == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        parse_config("no_such_key = 1")
    with pytest.raises(ValueError):
        parse_config("domain")
    with pytest.raises(ValueError):
        parse_config("include_reference = maybe")
    for text in ("trace_count = abc", "schedule = 10,x", "object_ranges = room",
                 "object_ranges = room:x-3", "seed = 1\nseed = 2"):
        with pytest.raises(ValueError, match="config line"):
            parse_config(text)


def test_config_hash_changes_with_content():
    a = PipelineConfig(seed=1)
    b = PipelineConfig(seed=2)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == PipelineConfig(seed=1).config_hash()


def test_pipeline_cli_runs_and_prints_report(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("""
domain = kiln
trace_count = 20
catalog = 7
seed = 3
budget = 2
include_reference = true
hidden_units = 8
epochs = 2
dropout = 0.0
min_support = 0.2
min_confidence = 0.4
stability_tolerance = 0.4
""")
    code = main(["pipeline", "--config", str(config), "--out-root",
                 str(tmp_path / "runs")])
    assert code == 0
    printed = capsys.readouterr().out
    assert "evaluation report: kiln" in printed
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    names = {p.name for p in run_dirs[0].iterdir()}
    assert {"traces.traces", "candidates.sexp", "rules.json", "pruned.sexp",
            "models.json", "scores.json", "report.txt", "report.json",
            "timings.json"} <= names


def test_pipeline_skip_mining_flag(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("""
domain = kiln
trace_count = 12
seed = 3
budget = 2
include_reference = true
hidden_units = 8
epochs = 2
dropout = 0.0
skip_mining = true
""")
    code = main(["pipeline", "--config", str(config), "--out-root",
                 str(tmp_path / "runs")])
    assert code == 0
    run_dir = next((tmp_path / "runs").iterdir())
    names = {p.name for p in run_dir.iterdir()}
    assert "rules.json" not in names
    report = json.loads((run_dir / "report.json").read_text())
    assert report["pruning"] is None
    assert report["space_size_initial"] == report["space_size_final"]


def test_pipeline_bad_config_exit_code(tmp_path):
    config = tmp_path / "bad.cfg"
    config.write_text("domain = not-a-domain\n")
    code = main(["pipeline", "--config", str(config), "--out-root",
                 str(tmp_path / "runs")])
    assert code == 1  # config phase failure


def test_object_ranges_must_name_declared_types(tmp_path, capsys):
    for ranges, undeclared in (("rooom:2-3", "['rooom']"), (":2-3", "['']")):
        text = f"domain = kiln\nobject_ranges = {ranges}\n"
        message = f"object_ranges names undeclared types {undeclared}; kiln declares ['piece']"
        with pytest.raises(ValueError) as caught:
            load(parse_config(text))
        assert str(caught.value) == message
        config = tmp_path / "ranges.cfg"
        config.write_text(text)
        assert main(["pipeline", "--config", str(config), "--out-root",
                     str(tmp_path / "runs")]) == 1
        assert capsys.readouterr().err == f"error: phase 'config' failed: {message}\n"


def test_a_schedule_point_above_the_trace_count_is_an_error(tmp_path, capsys):
    config = PipelineConfig(domain="kiln", trace_count=30, schedule=(10, 20, 40))
    with pytest.raises(PhaseError) as caught:
        run_pipeline(config, tmp_path / "runs")
    assert caught.value.exit_code == 1
    assert str(caught.value) == "phase 'config' failed: schedule exceeds trace_count"
    traces = tmp_path / "t.traces"
    assert main(["generate", "--domain", "kiln", "--count", "30", "--out", str(traces)]) == 0
    capsys.readouterr()
    rules = tmp_path / "rules.json"
    assert main(["mine", "--traces", str(traces), "--schedule", "10,20,40",
                 "--out", str(rules)]) == 1
    assert capsys.readouterr().err == "error: schedule exceeds trace_count\n"
    assert not rules.exists()


def test_train_init_gain_writes_the_params_of_train_folds(tmp_path):
    from pdeeplearn.domains import get_domain
    from pdeeplearn.encoding import build_layout
    from pdeeplearn.lstm import TrainConfig, save_params
    from pdeeplearn.pddl import parse_traces
    from pdeeplearn.scoring import train_folds

    traces = tmp_path / "t.traces"
    assert main(["generate", "--domain", "kiln", "--out", str(traces),
                 "--count", "10", "--seed", "6"]) == 0
    train = ["train", "--traces", str(traces), "--hidden", "8", "--epochs", "2",
             "--dropout", "0", "--seed", "6"]
    assert main(train + ["--init-gain", "3", "--out-dir", str(tmp_path / "gain3")]) == 0
    assert main(train + ["--out-dir", str(tmp_path / "gain1")]) == 0
    schema, _, _ = get_domain("kiln").load()
    layout = build_layout(schema)
    cfg = TrainConfig(hidden_units=8, dropout_rate=0.0, epochs=2, init_gain=3.0, rng_seed=6)
    for fold in train_folds(parse_traces(traces.read_text(), schema), layout, cfg):
        name = f"params-fold{fold.fold_index}.bin"
        save_params(tmp_path / name, fold.params, layout_hash=layout.layout_hash(),
                    extra={"fold": fold.fold_index, "seed": 6})
        want = (tmp_path / name).read_bytes()
        assert (tmp_path / "gain3" / name).read_bytes() == want
        assert (tmp_path / "gain1" / name).read_bytes() != want


def test_domain_files_load_by_path_and_need_a_unitary_problem(tmp_path, capsys):
    from pdeeplearn.domains import get_domain

    info = get_domain("kiln")
    domain = tmp_path / "kiln.pddl"
    domain.write_text(info.domain_text())
    unitary = tmp_path / "unitary.pddl"
    unitary.write_text(info.unitary_text())
    traces = tmp_path / "t.traces"
    cands = tmp_path / "c.sexp"
    models = tmp_path / "models.json"

    assert main(["generate", "--domain", str(tmp_path / "missing.pddl"),
                 "--out", str(traces)]) == 1
    assert "is neither registered nor a file" in capsys.readouterr().err
    assert main(["generate", "--domain", str(domain), "--out", str(traces),
                 "--count", "3"]) == 1
    assert "unregistered domains need --unitary" in capsys.readouterr().err
    assert main(["generate", "--domain", str(domain), "--unitary", str(unitary),
                 "--out", str(traces), "--count", "3"]) == 0
    assert traces.read_text().count("(trace") == 3
    assert main(["enumerate", "--domain", str(domain), "--out", str(cands)]) == 0
    sample = ["sample", "--candidates", str(cands), "--domain", str(domain),
              "--budget", "2", "--include-reference", "--out", str(models)]
    assert main(sample) == 1
    assert "unregistered domains need --unitary" in capsys.readouterr().err
    assert main(sample + ["--unitary", str(unitary)]) == 0

    config = tmp_path / "run.cfg"
    config.write_text(f"domain = {domain}\n")
    assert main(["pipeline", "--config", str(config), "--out-root",
                 str(tmp_path / "runs")]) == 1
    assert "unregistered domains need a 'unitary' problem path" in capsys.readouterr().err


def test_prune_rejects_a_candidate_file_of_another_domain(tmp_path, capsys):
    cands = tmp_path / "c.sexp"
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"frequent_pairs": []}))
    assert main(["enumerate", "--domain", "kiln", "--out", str(cands)]) == 0
    capsys.readouterr()
    code = main(["prune", "--candidates", str(cands), "--rules", str(rules),
                 "--domain", "gripper", "--out", str(tmp_path / "pruned.sexp")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 2, column 3: candidate file is for domain kiln, schema is gripper" in err
    assert not (tmp_path / "pruned.sexp").exists()


def test_config_value_types_follow_the_field_defaults():
    from dataclasses import fields

    config = parse_config(PipelineConfig().canonical_text())
    assert config == PipelineConfig()
    for f in fields(PipelineConfig):
        assert type(getattr(config, f.name)) is type(f.default), f.name
    with pytest.raises(ValueError, match="bad boolean"):
        parse_config("skip_mining = 2")
    with pytest.raises(ValueError):
        parse_config("budget = 1.5")


def test_the_subcommand_chain_writes_what_the_pipeline_writes(tmp_path, shipped_config):
    from dataclasses import replace

    from pdeeplearn.pipeline import run_pipeline

    config = replace(shipped_config("kiln"), trace_count=40, folds=2, epochs=1, hidden_units=4)
    run_dir = run_pipeline(config, tmp_path / "runs").run_dir
    chain = tmp_path / "chain"
    chain.mkdir()
    files = {name: str(chain / name) for name in (
        "traces.traces", "candidates.sexp", "rules.json", "rules.txt", "pruned.sexp",
        "models.json", "scores.json")}
    training = ["--traces", files["traces.traces"], "--hidden", "4", "--dropout", "0",
                "--epochs", "1", "--folds", "2", "--lr", "0.001", "--init-gain", "3",
                "--seed", "42"]
    for argv in (
        ["generate", "--domain", "kiln", "--count", "40", "--seed", "42", "--catalog", "31",
         "--out", files["traces.traces"]],
        ["enumerate", "--domain", "kiln", "--out", files["candidates.sexp"]],
        ["mine", "--traces", files["traces.traces"], "--min-support", "0.2",
         "--min-confidence", "0.4", "--tolerance", "0.4", "--out", files["rules.json"],
         "--out-text", files["rules.txt"]],
        ["prune", "--candidates", files["candidates.sexp"], "--rules", files["rules.json"],
         "--domain", "kiln", "--out", files["pruned.sexp"]],
        ["sample", "--candidates", files["pruned.sexp"], "--domain", "kiln", "--budget", "20",
         "--seed", "1000", "--include-reference", "--out", files["models.json"]],
        ["train", *training, "--out-dir", str(chain)],
        ["select", *training, "--models", files["models.json"], "--out", files["scores.json"]],
    ):
        assert main(argv) == 0, argv
    for name in [*files, "params-fold0.bin", "params-fold1.bin"]:
        assert (chain / name).read_bytes() == (run_dir / name).read_bytes(), name
