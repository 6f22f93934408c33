import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import mergeforge
from conftest import mean_fold_merge
from mergeforge.benchmark import BenchmarkConfig, load_instance, make_instance, score
from mergeforge.cli import main
from mergeforge.config import RunConfig, load_config
from mergeforge.core import apply_merged
from mergeforge.driver import TASK_ARITHMETIC_GRID
from mergeforge.pipeline import CATEGORIES


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    code = main([
        "make-instance", "--seed", "5", "--d", "24", "--k", "3",
        "--dev", "20", "--test", "30", "--out", str(path),
    ])
    assert code == 0
    return path


def test_make_instance_round_trip(instance_file):
    instance = load_instance(instance_file)
    assert instance.config.d == 24 and instance.config.k == 3


@pytest.mark.parametrize("split", ["dev", "test"])
def test_eval_matches_library(instance_file, tmp_path, capsys, split):
    program_path = tmp_path / "prog.merge"
    program_path.write_text(
        "# reference fold\n"
        "merge(models) = fold(tail(models), models[0], "
        "(acc, x) -> scale(0.5, add(acc, ones(mean_elem(x)))))\n"
    )
    argv = ["eval", "--program", str(program_path), "--instance", str(instance_file)]
    code = main([*argv, "--probes", split])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)

    instance = load_instance(instance_file)
    merged = apply_merged(instance.seed_model, mean_fold_merge(instance.task_vectors()))
    probes = getattr(instance, f"{split}_probes")
    want = score(merged, probes, getattr(instance, f"{split}_baseline_mse"))
    assert payload["score"] == pytest.approx(want, abs=1e-12)
    assert payload["probes"] == split


def test_baseline_task_arithmetic(instance_file, capsys):
    code = main([
        "baseline", "task-arithmetic",
        "--grid", "0.2,0.4,0.6", "--instance", str(instance_file),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluations"] == 27
    assert len(payload["lambdas"]) == 3
    assert set(payload["lambdas"]) <= {0.2, 0.4, 0.6}


def test_run_and_report(tmp_path, capsys):
    config = {
        "seed": 2,
        "iterations": 2,
        "candidates_per_iteration": 25,
        "benchmark": {"d": 16, "k": 3, "n_dev": 20, "n_test": 20},
        "output_dir": str(tmp_path / "run"),
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    assert main(["run", "--config", str(config_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["s_best"] is not None

    run_dir = Path(config["output_dir"])
    assert (run_dir / "result.json").exists()
    categories_csv = run_dir / "report" / "filter_categories.csv"
    header = categories_csv.read_text().splitlines()[0]
    assert header == "iteration," + ",".join(CATEGORIES)

    # regenerating the reports from the logs alone gives the run's own bytes
    report_dir = run_dir / "report"
    before = {p.name: p.read_bytes() for p in report_dir.glob("*.csv")}
    assert len(before) == 3
    assert main(["report", "--run", str(run_dir)]) == 0
    assert {p.name: p.read_bytes() for p in report_dir.glob("*.csv")} == before


def test_run_output_dir_override(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 2, "iterations": 1, "candidates_per_iteration": 5,
        "benchmark": {"d": 16, "k": 3, "n_dev": 10, "n_test": 10},
        "output_dir": str(tmp_path / "ignored"),
    }))
    override = tmp_path / "actual"
    assert main(["run", "--config", str(config_path), "--output-dir", str(override)]) == 0
    capsys.readouterr()
    assert (override / "result.json").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("flags, shown", [([], False), (["-v"], True)])
def test_verbose_flag_shows_the_interpreter_memo_line(tmp_path, flags, shown):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "seed": 2, "iterations": 1, "candidates_per_iteration": 10,
        "benchmark": {"d": 16, "k": 3, "n_dev": 10, "n_test": 10},
        "output_dir": str(tmp_path / "run"),
    }))
    src = str(Path(mergeforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mergeforge.cli", *flags, "run", "--config", str(config_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert ("INFO mergeforge.pipeline: interpreter memo: " in proc.stderr) == shown


def test_usage_error_exit_code():
    assert main(["run"]) == 1  # missing --config
    assert main(["no-such-command"]) == 1
    assert main([]) == 1


@pytest.mark.parametrize("budget", ["0", "-3", "ten"])
def test_eval_budget_must_be_a_positive_int(instance_file, tmp_path, capsys, budget):
    program_path = tmp_path / "prog.merge"
    program_path.write_text("merge(models) = mean_stack(models)\n")
    argv = ["eval", "--program", str(program_path), "--instance", str(instance_file)]
    assert main(argv + ["--budget", budget]) == 1
    assert "--budget: expected a positive integer" in capsys.readouterr().err
    assert main(argv + ["--budget", "1000"]) == 0


def test_runtime_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["report", "--run", str(tmp_path)]) == 2
    assert main(["eval", "--program", str(missing), "--instance", str(missing)]) == 2


def test_program_file_that_is_not_utf8_is_named(instance_file, tmp_path, capsys):
    program = tmp_path / "prog.merge"
    program.write_bytes(b"merge(models) = models[0]  # \xff\n")
    assert main(["eval", "--program", str(program), "--instance", str(instance_file)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {program}: 'utf-8' codec can't decode byte 0xff")


def test_program_file_with_a_utf8_bom_scores_as_without(instance_file, tmp_path, capsys):
    text = "merge(models) = fold(tail(models), models[0], (acc, x) -> scale(0.5, add(acc, x)))\n"
    scores = []
    for name, data in (("plain.merge", text.encode()), ("bom.merge", b"\xef\xbb\xbf" + text.encode())):
        (tmp_path / name).write_bytes(data)
        assert main(["eval", "--program", str(tmp_path / name), "--instance", str(instance_file)]) == 0
        scores.append(json.loads(capsys.readouterr().out))
    assert scores[0] == scores[1]


def _eval_on_instance(tmp_path, text: str | bytes) -> tuple[int, Path]:
    path = tmp_path / "bad_instance.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    program = tmp_path / "prog.merge"
    program.write_text("merge(models) = models[0]\n")
    return main(["eval", "--program", str(program), "--instance", str(path)]), path


def test_instance_file_that_is_not_json_is_named(tmp_path, capsys):
    code, path = _eval_on_instance(tmp_path, '{"format": ')
    assert code == 2
    assert f"error: {path}: invalid JSON (" in capsys.readouterr().err


# a byte that is not UTF-8, nesting past the recursion limit, an int past the digit limit
_UNREADABLE_JSON = [b'{"format": "\xff"}', b"[" * 200_000, b'{"d": ' + b"1" * 5000 + b"}"]
_UNREADABLE_IDS = ["not_utf8", "too_deep", "too_many_digits"]


@pytest.mark.parametrize("data", _UNREADABLE_JSON, ids=_UNREADABLE_IDS)
def test_instance_file_that_is_not_readable_json_is_named(tmp_path, capsys, data):
    code, path = _eval_on_instance(tmp_path, data)
    assert code == 2
    assert f"error: {path}: invalid JSON (" in capsys.readouterr().err


def test_instance_file_must_hold_an_object(tmp_path, capsys):
    code, path = _eval_on_instance(tmp_path, json.dumps([1, 2, 3]))
    assert code == 2
    assert f"error: {path}: an instance file must hold a JSON object" in capsys.readouterr().err


def test_instance_file_missing_field_is_named(instance_file, tmp_path, capsys):
    payload = json.loads(instance_file.read_text())
    del payload["rng_seed"]
    code, path = _eval_on_instance(tmp_path, json.dumps(payload))
    assert code == 2
    assert f"error: {path}: instance is missing the field 'rng_seed'" in capsys.readouterr().err


@pytest.mark.parametrize("name,value,kind", [
    ("n_dev", "100", "an integer"),
    ("n_dev", 100.0, "an integer"),
    ("rng_seed", True, "an integer"),
    ("d", None, "an integer"),
    ("overlap", "0.25", "a number"),
    pytest.param("component_noise", 10**400, "a number", id="huge_component_noise"),  # no float holds it
])
def test_instance_file_field_of_the_wrong_kind_is_named(instance_file, tmp_path, capsys, name, value, kind):
    payload = json.loads(instance_file.read_text())
    payload[name] = value
    code, path = _eval_on_instance(tmp_path, json.dumps(payload))
    assert code == 2
    assert f"error: {path}: {name} must be {kind}, got {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("name,value", [
    ("d", 1), ("overlap", -1), ("rng_seed", -1), ("d", 10**15), ("d", 10**20), ("n_test", 10**15),
])
def test_instance_file_out_of_range_is_named(instance_file, tmp_path, capsys, name, value):
    payload = json.loads(instance_file.read_text())
    payload[name] = value
    code, path = _eval_on_instance(tmp_path, json.dumps(payload))
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_eval_timeout_names_the_budget(instance_file, tmp_path, capsys):
    program = tmp_path / "grow.merge"
    program.write_text("merge(models) = fold(models, models[0], (acc, x) -> add(acc, add(acc, acc)))\n")
    argv = ["eval", "--program", str(program), "--instance", str(instance_file), "--budget", "5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: evaluation exceeded its budget of 5 steps\n"


def test_report_on_a_record_that_is_not_an_object_names_its_line(tmp_path, capsys):
    (tmp_path / "candidates.jsonl").write_text("[1, 2]\n")
    (tmp_path / "iterations.jsonl").write_text("")
    assert main(["report", "--run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: corrupt log file {tmp_path / 'candidates.jsonl'} at line 1: a record must be a JSON object\n"


@pytest.mark.parametrize("data", _UNREADABLE_JSON, ids=_UNREADABLE_IDS)
def test_config_that_is_not_readable_json_is_named(tmp_path, capsys, data):
    config_path = tmp_path / "config.json"
    config_path.write_bytes(data)
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {config_path}: invalid JSON (")


def test_bad_config_is_usage_error(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"iterations": 0}))
    assert main(["run", "--config", str(config_path)]) == 1
    config_path.write_text(json.dumps({"refine": {"p_w": 0.0}}))
    assert main(["run", "--config", str(config_path)]) == 1
    config_path.write_text(json.dumps({"unknown_field": 1}))
    assert main(["run", "--config", str(config_path)]) == 1
    config_path.write_text("{not json")
    assert main(["run", "--config", str(config_path)]) == 1


@pytest.mark.parametrize("bad", [
    {"t1": 0},
    {"t1": -1.0},
    {"t1": float("nan")},
    {"beta": -0.1},
    {"max_depth": 0},
    {"max_depth": 128},  # a derivation that deep nests past the parser's 128-level bound
    {"refine": {"eta": float("nan")}},
    {"benchmark": {"d": 16, "k": 3, "component_noise": -0.1}},
    {"benchmark": {"d": 16, "k": 3, "overlap": float("nan")}},
    {"benchmark": {"d": 16, "k": 3, "overlap": float("inf")}},
    {"benchmark": {"d": 16, "k": 3, "overlap": float("-inf")}},
    {"benchmark": {"d": 16, "k": 3, "overlap": -3}},
    # counts must be JSON integers, booleans excluded
    {"iterations": 2.5},
    {"candidates_per_iteration": 3.5},
    {"seed": 1.5},
    {"budget_steps": 10.5},
    {"max_depth": 2.5},
    {"top_n_for_test": 1.5},
    {"top_n_for_test": True},
    {"refine": {"s": 1.5}},
    {"refine": {"k": 1.5}},
    {"benchmark": {"d": 16.5, "k": 3}},
    {"benchmark": {"d": 16, "k": 2.5}},
    {"benchmark": {"d": 16, "k": 3, "n_dev": 10.5}},
    {"seed": -1},
    # numbers must be JSON numbers and strings JSON strings, booleans excluded
    {"t1": True},
    {"beta": False},
    {"refine": {"eta": True}},
    {"benchmark": {"d": 16, "k": 3, "overlap": True}},
    {"output_dir": 5},
    *({"generator_mode": "remote", "remote": {"url": "http://127.0.0.1:9", "model": "m", **endpoint}}
      for endpoint in ({"timeout_s": 0}, {"timeout_s": -1.0}, {"timeout_s": float("nan")},
                  {"timeout_s": float("inf")}, {"backoff_s": -1}, {"backoff_s": float("nan")},
                  {"max_retries": -1}, {"max_retries": 1.5}, {"auth_token_env": 5}, {"url": 5})),
    {"generator_mode": "bogus"},
    {"generator_mode": "remote"},  # no endpoint
    {"budget_steps": 0},
    {"beta": float("inf")},
    {"refine": {"eta": float("inf")}},
    {"benchmark": {"d": 16, "k": 3, "component_noise": float("inf")}},
    {"t1": float("inf")},  # every choice would be uniform
    # the last iteration's temperature underflows to 0
    {"iterations": 2, "t1": 1e-300, "beta": 1e300},
    {"iterations": 2, "t1": 5e-324, "beta": 1.0},
    {"iterations": 10**400},  # no float holds it, so neither does its temperature
])
def test_bad_config_value_fails_before_writing(tmp_path, capsys, bad):
    config = {
        "iterations": 1, "candidates_per_iteration": 5,
        "benchmark": {"d": 16, "k": 3, "n_dev": 10, "n_test": 10},
        "output_dir": str(tmp_path / "run"),
    }
    config.update(bad)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))  # NaN is written as the token NaN
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("bad,message", [
    ({"seed": "a"}, "seed must be an integer, got 'a'"),
    ({"t1": "x"}, "t1 must be a number, got 'x'"),
    ({"benchmark": {"d": "16"}}, "d must be an integer, got '16'"),
    ({"generator_mode": "remote", "remote": {"url": "http://127.0.0.1:9", "model": "m", "timeout_s": "x"}},
     "timeout_s must be a number, got 'x'"),
    ({"refine": []}, "refine must be a JSON object, got []"),
    ({"benchmark": None}, "benchmark must be a JSON object, got None"),
    ({"remote": {}}, "remote is missing the field 'url'"),
    ({"unknown_field": 1}, "config has no field 'unknown_field'"),
    # ints that no float can hold
    pytest.param({"t1": 10**400}, f"t1 must be a number, got {10**400}", id="huge_t1"),
    pytest.param({"beta": -10**400}, f"beta must be a number, got {-10**400}", id="huge_beta"),
    pytest.param({"refine": {"eta": 10**400}}, f"eta must be a number, got {10**400}", id="huge_eta"),
    pytest.param({"benchmark": {"component_noise": 10**400}},
                 f"component_noise must be a number, got {10**400}", id="huge_component_noise"),
    # each candidate of an iteration draws from the PCG64 stream of its uint32 index
    pytest.param({"candidates_per_iteration": 2**32 + 1},
                 "candidates_per_iteration: need 0 <= n <= 2**32 stream indices, got 4294967297",
                 id="more_candidates_than_stream_indices"),
])
def test_bad_config_kind_names_its_field(tmp_path, capsys, bad, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({**bad, "output_dir": str(tmp_path / "run")}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("remote,code,message", [
    (None, 0, ""),  # like a missing key: no endpoint
    ({}, 1, "is missing the field 'url'"),
    ([], 1, "remote must be a JSON object, got []"),
    (0, 1, "remote must be a JSON object, got 0"),
    (False, 1, "remote must be a JSON object, got False"),
    ([1], 1, "remote must be a JSON object, got [1]"),
])
def test_only_a_null_remote_means_no_endpoint(tmp_path, capsys, remote, code, message):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "iterations": 1, "candidates_per_iteration": 5,
        "benchmark": {"d": 16, "k": 3, "n_dev": 10, "n_test": 10},
        "output_dir": str(tmp_path / "run"), "remote": remote,
    }))
    assert main(["run", "--config", str(config_path)]) == code
    err = capsys.readouterr().err
    assert (err.startswith("error: ") and err.endswith(f"{message}\n")) if message else err == ""
    assert (tmp_path / "run").exists() == (code == 0)


def test_non_integer_count_names_its_field(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"benchmark": {"d": 16, "k": 2.5}}))
    assert main(["run", "--config", str(config_path)]) == 1
    assert "k must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["0.2,,0.4", "", ",", "0.2,x", "nan", "0.2,inf"])
def test_malformed_grid_is_usage_error(instance_file, capsys, grid):
    argv = ["baseline", "task-arithmetic", "--grid", grid, "--instance", str(instance_file)]
    assert main(argv) == 1
    assert "--grid: expected comma-separated finite numbers" in capsys.readouterr().err


def test_baseline_default_grid(instance_file, capsys):
    assert main(["baseline", "task-arithmetic", "--instance", str(instance_file)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["evaluations"] == len(TASK_ARITHMETIC_GRID) ** 3
    assert set(payload["lambdas"]) <= set(TASK_ARITHMETIC_GRID)


@pytest.mark.parametrize("sizes", [
    ["--d", "1", "--k", "3"],
    ["--d", "24", "--k", "1"],
    ["--d", "24", "--k", "3", "--dev", "0"],
    ["--d", "24", "--k", "3", "--test", "-1"],
    ["--d", "24", "--k", "3", "--noise", "-0.5"],
    ["--d", "24", "--k", "3", "--overlap", "nan"],
    ["--d", "24", "--k", "3", "--overlap", "inf"],
    ["--d", "24", "--k", "3", "--overlap=-inf"],
    ["--d", "24", "--k", "3", "--overlap", "-3"],
    ["--d", "24", "--k", "3", "--noise", "inf"],
])
def test_bad_instance_sizes_are_usage_errors(tmp_path, capsys, sizes):
    out = tmp_path / "instance.json"
    assert main(["make-instance", "--seed", "5", *sizes, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_negative_make_instance_seed_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert main(["make-instance", "--seed", "-1", "--d", "24", "--k", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: rng_seed must be >= 0\n"
    assert not out.exists()


def test_make_instance_defaults_come_from_benchmark_config(tmp_path, capsys):
    out = tmp_path / "instance.json"
    assert main(["make-instance", "--seed", "5", "--d", "24", "--k", "3", "--out", str(out)]) == 0
    cfg = BenchmarkConfig()
    want = make_instance(5, 24, 3, cfg.component_noise, (cfg.n_dev, cfg.n_test), cfg.overlap)
    assert load_instance(out).content_digest() == want.content_digest()


def test_readme_example_config_is_the_default(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"Example `config\.json`.*?```json\n(.*?)```", readme, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    cfg = load_config(path)  # the README calls these the desk-scale defaults
    assert replace(cfg, seed=0, output_dir=RunConfig.output_dir) == RunConfig()
