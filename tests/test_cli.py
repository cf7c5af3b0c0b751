"""End-to-end command-line behaviour, manifests and reruns."""

import csv
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from fairdial import cli, fairness, randexp
from fairdial.cli import main
from fairdial.errors import InputError
from fairdial.fairness import dispute_records
from fairdial.randexp import TrialConfig, _population, transcript_row, trial_seeds
from test_boatsim import GOLDEN_WORLD

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def framework_file(tmp_path):
    path = tmp_path / "af.txt"
    path.write_text("# two-cycle plus a cheerleader\n3\n0 1\n1 0\n2 1\n",
                    encoding="utf-8")
    return path


def test_af_solve_text_output(capsys, framework_file):
    code, out, _ = run_cli(capsys, "af", "solve", str(framework_file))
    assert code == 0
    assert "1 preferred extension(s)" in out
    assert "{0, 2}" in out


def test_af_solve_json_and_methods(capsys, framework_file):
    for method in ("auto", "solver", "oracle"):
        code, out, _ = run_cli(capsys, "af", "solve", str(framework_file),
                               "--method", method, "--json")
        assert code == 0
        assert json.loads(out) == [[0, 2]]


def test_af_solve_sceptical(capsys, framework_file):
    code, out, _ = run_cli(capsys, "af", "solve", str(framework_file),
                           "--sceptical", "0")
    assert code == 0 and out.strip() == "accepted"
    code, out, _ = run_cli(capsys, "af", "solve", str(framework_file),
                           "--sceptical", "1")
    assert code == 0 and out.strip() == "rejected"


def test_af_echo_round_trip(capsys, framework_file, tmp_path):
    code, out, _ = run_cli(capsys, "af", "echo", str(framework_file))
    assert code == 0
    second = tmp_path / "echoed.txt"
    second.write_text(out, encoding="utf-8")
    code, out2, _ = run_cli(capsys, "af", "echo", str(second))
    assert code == 0 and out2 == out


def test_af_solve_missing_file_is_exit_1(capsys, tmp_path):
    code, _, err = run_cli(capsys, "af", "solve", str(tmp_path / "nope.txt"))
    assert code == 1
    assert "fairdial:" in err


def test_af_solve_malformed_file_is_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n0 7\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "af", "solve", str(bad))
    assert code == 1 and "fairdial:" in err


def test_usage_errors_are_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["af", "solve", "x.txt", "--method", "quantum"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_culture_random_writes_loadable_file(capsys, tmp_path):
    out = tmp_path / "cul" / "culture.json"
    code, stdout, _ = run_cli(
        capsys, "culture", "random", "--args", "6", "--attacks", "9",
        "--seed", "4", "-o", str(out))
    assert code == 0
    assert out.exists()
    assert "culture.json" in stdout
    from fairdial.culture import load_culture
    culture = load_culture(out)
    assert culture.n_args == 6 and len(culture.attacks) == 9
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["command"] == "culture-random"
    assert manifest["config"]["seed"] == 4
    assert manifest["outputs"] == ["culture.json"]


def test_culture_export_boat(capsys, tmp_path):
    out = tmp_path / "boat.json"
    code, _, _ = run_cli(capsys, "culture", "export-boat", "-o", str(out))
    assert code == 0
    from fairdial.culture import builtin_boat_culture, load_culture
    assert load_culture(out) == builtin_boat_culture()


def test_dispute_json_frozen(capsys, tmp_path):
    # the worked three-argument culture with crafted costs
    doc = {
        "arguments": [
            {"id": 0, "label": "motion", "motion": True, "cost": 0, "attacks": []},
            {"id": 1, "label": "age", "motion": False, "cost": 1, "attacks": [0]},
            {"id": 2, "label": "health", "motion": False, "cost": 1, "attacks": [0, 1]},
        ],
        "x_costs": [1, 1, 5, 2, 9, 9, 3, 6, 9, 9],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_cli(
        capsys, "dispute", "--culture", str(path), "--pr", "2,2",
        "--op", "1,2", "--strategy", "min_cost", "--budget", "-1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["winner"] == "pr"
    assert doc["termination"] == "convinced"
    assert doc["spent"] == {"pr": 4, "op": 2}
    assert [m["x_arg"] for m in doc["moves"]] == [0, 3, 6]
    assert doc["moves"][0]["label"] == "motion_H^pr"


def test_dispute_text_output_and_budget(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "dispute", "--boat", "--strategy", "defensive", "--budget", "30",
        "--pr", "1,1,2,1,1,1,1,1,1,1,1,1,1", "--op", "0,0,0,0,0,0,0,0,0,0,0,0,0")
    assert code == 0
    assert "winner:" in out


def test_dispute_requires_a_culture_source(capsys):
    code, _, err = run_cli(capsys, "dispute", "--pr", "1", "--op", "2")
    assert code == 1 and "fairdial:" in err


def test_dispute_rejects_wrong_arity(capsys, tmp_path):
    code, _, err = run_cli(capsys, "dispute", "--boat", "--pr", "1,2",
                           "--op", "3,4")
    assert code == 1 and "13" in err


def test_sweep_writes_outputs_and_manifest(capsys, tmp_path):
    out = tmp_path / "sweeprun"
    code, _, _ = run_cli(
        capsys, "sweep", "--agents", "4", "--args", "5", "--attacks", "7",
        "--budget-max", "20", "--budget-step", "10", "--trials", "2",
        "--seed", "9", "--log-transcripts", "--out", str(out))
    assert code == 0
    for name in ("sweep.csv", "sweep_summary.csv", "plots.gp",
                 "transcripts.csv", "manifest.json"):
        assert (out / name).exists(), name
    with open(out / "sweep.csv", newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0][:3] == ["seed", "strategy", "g"]
    assert len(recs) == 1 + 2 * 4 * 4  # trials x strategies x (grid + unrestricted)
    with open(out / "transcripts.csv", newline="") as fh:
        trecs = list(csv.reader(fh))
    assert trecs[0] == ["trial", "pr_id", "op_id", "strategy", "g", "winner",
                        "termination", "spent_pr", "spent_op", "move_list"]
    assert len(trecs) == 1 + 2 * 4 * 4 * 12  # trials x strats x (grid + unrestricted) x pairs
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert manifest["config"]["budget_grid"] == [0, 10, 20]


def test_transcripts_hold_every_scored_dialogue(capsys, tmp_path):
    out = tmp_path / "sweeprun"
    code, _, _ = run_cli(
        capsys, "sweep", "--agents", "4", "--args", "5", "--attacks", "7",
        "--budget-max", "20", "--budget-step", "10", "--trials", "2",
        "--seed", "9", "--log-transcripts", "--out", str(out))
    assert code == 0
    seeds = [str(s) for s in trial_seeds(9, 2)]
    dialogues, forced = Counter(), Counter()
    with open(out / "transcripts.csv", newline="") as fh:
        for r in csv.DictReader(fh):
            key = (seeds[int(r["trial"])], r["strategy"], r["g"])
            dialogues[key] += 1
            forced[key] += r["termination"] == "budget_forced"
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    pairs = 4 * 3
    assert set(dialogues) == {(r["seed"], r["strategy"], r["g"]) for r in rows}
    for r in rows:  # the unrestricted row included
        key = (r["seed"], r["strategy"], r["g"])
        assert dialogues[key] == pairs
        assert forced[key] == round(float(r["mean_l_SL"]) * pairs)

    # the same rows, in the same order, as fresh disputes one budget at a time
    cfg = TrialConfig(n_agents=4, n_args=5, n_attacks=7, budget_grid=(0, 10, 20))
    fresh = []
    for trial, tseed in enumerate(trial_seeds(9, 2)):
        xc, agents = _population(replace(cfg, seed=tseed))
        for strategy in cfg.strategies:
            for g in cfg.budgets:
                label = xc.total_cost if g is None else g
                for j, k, res in dispute_records(agents, xc, strategy, g, tseed):
                    row = transcript_row(trial, j, k, strategy, label, res)
                    fresh.append([str(v) for v in row])
    with open(out / "transcripts.csv", newline="") as fh:
        assert list(csv.reader(fh))[1:] == fresh


TINY_SWEEP = ("sweep", "--agents", "4", "--args", "5", "--attacks", "7",
              "--budget-max", "20", "--budget-step", "10", "--trials", "2",
              "--seed", "9")


def test_logged_sweep_plays_each_dialogue_once(capsys, tmp_path, monkeypatch):
    calls = []
    play = fairness.run_dispute

    def counted(*args, **kwargs):
        calls[-1] += 1
        return play(*args, **kwargs)

    monkeypatch.setattr(fairness, "run_dispute", counted)
    for log in ((), ("--log-transcripts",)):
        calls.append(0)
        out = tmp_path / f"run{len(log)}"
        code, _, _ = run_cli(capsys, *TINY_SWEEP, *log, "--out", str(out))
        assert code == 0
        assert (out / "transcripts.csv").exists() == bool(log)
    plain, logged = calls
    assert plain > 0 and logged == plain


def test_sweep_failing_mid_run_publishes_nothing(capsys, tmp_path, monkeypatch):
    trial = randexp.run_trial
    started = []

    def second_fails(cfg, log=None):
        started.append(cfg.seed)
        if len(started) == 2:
            raise InputError("trial failed")
        return trial(cfg, log)

    monkeypatch.setattr(randexp, "run_trial", second_fails)
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, *TINY_SWEEP, "--log-transcripts",
                           "--out", str(out))
    assert code == 1 and err.startswith("fairdial:") and "trial failed" in err
    assert len(started) == 2
    assert not out.exists()
    assert list(tmp_path.iterdir()) == []


# full sha256 of the headline-scale sweep and ECDF outputs at seed 11; the
# sweep's must not depend on --jobs, on the transcript log or on a rerun
GOLDEN_SWEEP = {
    "sweep.csv":
        "172d23f9f0b216df0fc17ef73fe4cc9b564e2827a0bf27acac8099bc3a3c5b7a",
    "sweep_summary.csv":
        "8baba60cef9a9fd7aa52decb03b4b6a212b7d62cec05411e5168736c2d93ddff",
    "transcripts.csv":
        "82708d54e2a5cab31ade5b702ac30ec298abaedf892fb7cc3c8da412789a8efb",
}
GOLDEN_ECDF = {
    "ecdf.csv":
        "31fcdd7d12b91b7ae21949072a639d70d9934629485468e48732ec4312e6b4fd",
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_outputs_match_pinned_digests(capsys, tmp_path, jobs):
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", "--trials", "3", "--seed", "11",
                         "--log-transcripts", "--jobs", jobs, "--out", str(out))
    assert code == 0
    assert _digests(out, GOLDEN_SWEEP) == GOLDEN_SWEEP
    replay = tmp_path / "replay"
    code, _, _ = run_cli(capsys, "rerun", str(out / "manifest.json"),
                         "--out", str(replay))
    assert code == 0
    assert _digests(replay, GOLDEN_SWEEP) == GOLDEN_SWEEP


def test_ecdf_output_matches_pinned_digest(capsys, tmp_path):
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "ecdf", "--trials", "3", "--seed", "11",
                         "--out", str(out))
    assert code == 0
    assert _digests(out, GOLDEN_ECDF) == GOLDEN_ECDF


@pytest.mark.parametrize("argv", [
    ["sweep", "--jobs", "0"],
    ["sweep", "--jobs", "-3"],
    ["ecdf", "--jobs", "0"],
    ["boats", "--jobs", "-3"],
    ["sweep", "--budget-step", "0"],
    ["sweep", "--trials", "0"],
    ["ecdf", "--trials", "0"],
    ["boats", "--trials", "-1"],
])
def test_counts_below_one_are_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "never"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_rerun_reproduces_bytes(capsys, tmp_path):
    out = tmp_path / "first"
    code, _, _ = run_cli(
        capsys, "sweep", "--agents", "4", "--args", "5", "--attacks", "7",
        "--budget-max", "10", "--budget-step", "5", "--trials", "1",
        "--seed", "3", "--out", str(out))
    assert code == 0
    replay = tmp_path / "replay"
    code, _, _ = run_cli(capsys, "rerun", str(out / "manifest.json"),
                         "--out", str(replay))
    assert code == 0
    for name in ("sweep.csv", "sweep_summary.csv"):
        assert (out / name).read_bytes() == (replay / name).read_bytes()


def test_rerun_rejects_foreign_manifest(capsys, tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps({"command": "make-coffee", "config": {}}))
    code, _, err = run_cli(capsys, "rerun", str(bad))
    assert code == 1 and "make-coffee" in err


SWEEP_CONFIG = {
    "agents": 4, "args": 5, "attacks": 7, "cost_range": [1, 20],
    "budget_grid": [0, 10], "trials": 1, "seed": 1,
}


@pytest.mark.parametrize("text, reason", [
    ("{", "invalid JSON"),
    ("[1]", "JSON object"),
    (json.dumps({"command": "sweep"}), "config"),
    (json.dumps({"command": "sweep", "config": 5}), "config"),
    (json.dumps({"command": "sweep", "config": {}}), "missing 'agents'"),
    (json.dumps({"command": "sweep", "config": {**SWEEP_CONFIG, "trials": "2"}}),
     "'trials' must be an integer"),
    (json.dumps({"command": "sweep", "config": {**SWEEP_CONFIG, "trials": True}}),
     "'trials' must be an integer"),
    (json.dumps({"command": "sweep",
                 "config": {**SWEEP_CONFIG, "cost_range": [1, 2, 3]}}),
     "'cost_range' must be a pair of integers"),
    (json.dumps({"command": "boats", "config": {
        "strategy": "all", "budget": 30, "trials": 1, "seed": 1, "mode": "all",
        "world": [1]}}), "'world' must be a JSON object"),
    (json.dumps({"command": "boats", "config": {
        "strategy": "all", "budget": 30, "trials": 1, "seed": 1, "mode": "all",
        "world": {"__post_init__": 1}}}), "unknown world config key"),
    (json.dumps({"command": "ecdf", "config": {
        "agents": 4, "args": 5, "attacks": 7, "cost_range": [1, 20],
        "trials": 1, "seed": 1, "jobs": 1.5}}),
     "'jobs' must be an integer"),
    (json.dumps({"command": "sweep", "config": {
        **SWEEP_CONFIG, "jobs": 0, "log_transcripts": True}}),
     "jobs must be at least 1"),
    (json.dumps({"command": "culture-export-boat", "config": {
        "trials_per_round": 3, "seed": "x"}}), "unknown key 'seed'"),
], ids=["invalid-json", "not-an-object", "no-config", "config-not-an-object",
        "missing-key", "string-count", "bool-count", "long-pair",
        "world-not-an-object", "world-class-attribute", "float-jobs",
        "zero-jobs", "unknown-keys"])
def test_rerun_rejects_bad_manifest(capsys, tmp_path, text, reason):
    bad = tmp_path / "manifest.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "never"
    code, _, err = run_cli(capsys, "rerun", str(bad), "--out", str(out))
    assert code == 1 and err.startswith("fairdial:")
    assert reason in err
    assert not out.exists()


def test_failed_run_removes_only_the_directory_it_created(capsys, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "config": {
        "agents": 4, "args": 5, "attacks": 7, "cost_range": [1, 20],
        "budget_grid": [0, 10], "trials": 0, "seed": 1,
    }}), encoding="utf-8")
    out = tmp_path / "new" / "run"
    code, _, err = run_cli(capsys, "rerun", str(manifest), "--out", str(out))
    assert code == 1 and "at least one trial" in err
    assert not out.exists()
    # a directory that was there before the run stays, with its contents
    code, _, _ = run_cli(capsys, "rerun", str(manifest))
    assert code == 1
    assert manifest.exists()
    (tmp_path / "empty").mkdir()
    code, _, _ = run_cli(capsys, "rerun", str(manifest),
                         "--out", str(tmp_path / "empty"))
    assert code == 1 and (tmp_path / "empty").is_dir()


def test_ecdf_command(capsys, tmp_path):
    out = tmp_path / "ecdfrun"
    code, _, _ = run_cli(
        capsys, "ecdf", "--agents", "4", "--args", "5", "--attacks", "7",
        "--trials", "1", "--seed", "2", "--out", str(out))
    assert code == 0
    with open(out / "ecdf.csv", newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0] == ["strategy", "z", "proportion"]
    by_strategy = {}
    for strategy, z, p in recs[1:]:
        by_strategy.setdefault(strategy, []).append(float(p))
    assert set(by_strategy) == {"random", "min_cost", "offensive", "defensive"}
    for props in by_strategy.values():
        assert props[-1] == 0.0
        assert all(b <= a for a, b in zip(props, props[1:]))


def test_boats_single_mode_with_config_override(capsys, tmp_path):
    override = tmp_path / "world.json"
    override.write_text(json.dumps({
        "arena_length": 3000.0, "n_agents": 2, "max_time": 300.0,
        "physics": {"top_speed": 30.0},
    }), encoding="utf-8")
    out = tmp_path / "boatrun"
    code, _, _ = run_cli(
        capsys, "boats", "--strategy", "min_cost", "--mode", "nominal",
        "--trials", "1", "--seed", "7", "--config", str(override),
        "--log-trajectories", "--out", str(out))
    assert code == 0
    assert (out / "boats_encounters.csv").exists()
    assert (out / "trajectories.csv").exists()
    with open(out / "boats_encounters.csv", newline="") as fh:
        recs = list(csv.reader(fh))
    assert recs[0][:4] == ["trial", "strategy", "mode", "first"]
    assert len(recs) == 2  # two boats, one encounter
    assert recs[1][2] == "nominal"


def test_boats_simulation_fault_is_exit_3_and_publishes_nothing(
        capsys, tmp_path, monkeypatch):
    from fairdial.boatsim import world

    step = world.step_arrays

    def poisoned(xs, *args):
        step(xs, *args)
        xs[0] = float("nan")

    monkeypatch.setattr(world, "step_arrays", poisoned)
    override = tmp_path / "world.json"
    override.write_text(json.dumps({
        "arena_length": 3000.0, "n_agents": 2, "max_time": 300.0,
    }), encoding="utf-8")
    out = tmp_path / "boatrun"
    code, _, err = run_cli(
        capsys, "boats", "--trials", "1", "--seed", "7",
        "--config", str(override), "--out", str(out))
    assert code == 3
    assert err.startswith("fairdial:") and "mode objective" in err
    assert not out.exists()


# sha256 of the CSVs of two quick runs on the 6-boat GOLDEN_WORLD (seed 11,
# g=30), whose outputs were checked by hand; a rework of the boat loop,
# its batching or the CLI's trial loop must reproduce them byte for byte
GOLDEN_RUNS = {
    ("--mode", "all", "--trials", "1"): {
        "boats_summary.csv":
            "da89665bb6e568f45176865f5d2a539d84c29acee37818e1778cdf042fde49dd",
        "boats_encounters.csv":
            "7243e692ac1f226ab3e4c4b31bdaab61a2a65172a856b1eb506fd9195b87bada",
    },
    ("--mode", "nominal", "--strategy", "all", "--trials", "1",
     "--log-trajectories"): {
        "boats_encounters.csv":
            "17c12c418ead86e1b7182bdee870aaed46deac5123df8f120983514209a00c34",
        "trajectories.csv":
            "2eac12588ea692aa78d60710d5351e664e48ee5892e3c52a30276308a167a17e",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN_RUNS), ids=["all", "nominal"])
def test_boats_outputs_match_pinned_digests(capsys, tmp_path, argv):
    doc = {"arena_length": 6000.0, "n_agents": 6, "max_time": 600.0}
    assert cli._world_config_from(doc) == GOLDEN_WORLD
    config = tmp_path / "world.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    code, _, _ = run_cli(capsys, "boats", "--config", str(config),
                         "--seed", "11", *argv, "--out", str(out))
    assert code == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_RUNS[argv]}
    assert digests == GOLDEN_RUNS[argv]


def test_single_mode_boats_frees_each_trial(capsys, tmp_path, monkeypatch):
    # No result, and so no recording buffer, outlives its trial: each
    # trial's are gone before the next one sails, also when every result's
    # trajectories are logged.
    override = tmp_path / "world.json"
    override.write_text(json.dumps({
        "arena_length": 3000.0, "n_agents": 2, "max_time": 300.0,
    }), encoding="utf-8")
    sail, trial = cli.sail_variants, cli.run_boat_trial
    for log in ((), ("--log-trajectories",)):
        results, worlds, alive = [], [], []

        def sailed(world, variants):
            gc.collect()
            alive.append(sum(r() is not None for r in results + worlds))
            world = sail(world, variants)
            worlds.append(weakref.ref(world))
            return world

        def served(world, strategy, g, mode):
            res = trial(world, strategy, g, mode)
            results.append(weakref.ref(res))
            return res

        monkeypatch.setattr(cli, "sail_variants", sailed)
        monkeypatch.setattr(cli, "run_boat_trial", served)
        out = tmp_path / f"run{len(log)}"
        code, _, _ = run_cli(
            capsys, "boats", "--mode", "nominal", "--strategy", "all",
            "--trials", "2", "--seed", "7", "--config", str(override),
            *log, "--out", str(out))
        assert code == 0
        gc.collect()
        assert len(results) == 8 and len(worlds) == 2
        assert alive == [0, 0], log
        assert all(r() is None for r in results + worlds)
        assert (out / "trajectories.csv").exists() == bool(log)


def test_boats_buffer_too_large_is_exit_1(capsys, tmp_path, monkeypatch):
    import numpy as np

    empty = np.empty

    def refuse(shape, *args, **kwargs):
        if isinstance(shape, tuple) and len(shape) == 4:  # the recording buffer
            raise MemoryError("Unable to allocate")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse)
    override = tmp_path / "world.json"
    override.write_text(json.dumps({"n_agents": 128, "max_time": 10000.0}),
                        encoding="utf-8")
    out = tmp_path / "boatrun"
    code, _, err = run_cli(
        capsys, "boats", "--strategy", "min_cost", "--mode", "nominal",
        "--trials", "1", "--seed", "7", "--config", str(override),
        "--out", str(out))
    assert code == 1
    assert err == ("fairdial: recording 1 courses of 128 boats over 200001"
                   " ticks needs 0.95 GiB, more than this host could"
                   " allocate\n")
    assert not out.exists()


def test_boats_rejects_unknown_world_key(capsys, tmp_path):
    override = tmp_path / "world.json"
    override.write_text(json.dumps({"arena_len": 100}), encoding="utf-8")
    code, _, err = run_cli(
        capsys, "boats", "--mode", "nominal", "--trials", "1",
        "--config", str(override), "--out", str(tmp_path / "x"))
    assert code == 1 and "arena_len" in err


@pytest.mark.parametrize("text", [
    "[1]", '{"n_agents": "x"}', '{"tick": -1}', '{"physics": 5}', "{",
    '{"__post_init__": 1}', '{"physics": 0}', '{"physics": []}',
    '{"physics": ""}', '{"physics": false}',
])
def test_boats_rejects_bad_config_before_writing(capsys, tmp_path, text):
    override = tmp_path / "world.json"
    override.write_text(text, encoding="utf-8")
    out = tmp_path / "x"
    code, _, err = run_cli(
        capsys, "boats", "--mode", "nominal", "--trials", "1",
        "--config", str(override), "--out", str(out))
    assert code == 1 and err.startswith("fairdial:")
    assert not out.exists()


def test_seed_falls_back_to_environment(capsys, tmp_path, monkeypatch):
    out1 = tmp_path / "a" / "culture.json"
    out2 = tmp_path / "b" / "culture.json"
    monkeypatch.setenv("FAIRDIAL_SEED", "77")
    run_cli(capsys, "culture", "random", "--args", "5", "--attacks", "6",
            "-o", str(out1))
    monkeypatch.delenv("FAIRDIAL_SEED")
    run_cli(capsys, "culture", "random", "--args", "5", "--attacks", "6",
            "--seed", "77", "-o", str(out2))
    assert out1.read_bytes() == out2.read_bytes()


def test_installed_entry_point_runs():
    # the package need not be installed: run it from the source tree
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "fairdial.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip()


def _write_one_then_fail(config, out_dir):
    (out_dir / "sweep.csv").write_text("partial\n", encoding="utf-8")
    raise InputError("disk full")


def test_failed_run_leaves_no_partial_output(capsys, tmp_path, monkeypatch):
    monkeypatch.setitem(cli._EXECUTORS, "sweep", _write_one_then_fail)
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "sweep", "config": SWEEP_CONFIG}),
                        encoding="utf-8")
    out = tmp_path / "new" / "deeper" / "run"
    code, _, err = run_cli(capsys, "rerun", str(manifest), "--out", str(out))
    assert code == 1 and "disk full" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    # into an existing directory: what was there stays as it was
    old = tmp_path / "old"
    old.mkdir()
    (old / "sweep.csv").write_text("previous\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "rerun", str(manifest), "--out", str(old))
    assert code == 1
    assert [p.name for p in old.iterdir()] == ["sweep.csv"]
    assert (old / "sweep.csv").read_text(encoding="utf-8") == "previous\n"


def test_failed_manifest_write_publishes_nothing(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("no space left")

    monkeypatch.setattr(cli, "_write_manifest", fail)
    out = tmp_path / "run"
    with pytest.raises(OSError):
        cli._run_command("culture-export-boat", {}, out)
    assert list(tmp_path.iterdir()) == []


def test_run_publishes_into_new_and_existing_directories(capsys, tmp_path):
    out = tmp_path / "a" / "run"
    assert cli._run_command("culture-export-boat", {}, out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["boat_culture.json",
                                                    "manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a"]
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["run"]
    # rerun into the manifest's own directory replaces files in place
    (out / "boat_culture.json").write_text("stale\n", encoding="utf-8")
    (out / "notes.txt").write_text("mine\n", encoding="utf-8")
    code, _, _ = run_cli(capsys, "rerun", str(out / "manifest.json"))
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "boat_culture.json", "manifest.json", "notes.txt"]
    assert json.loads((out / "boat_culture.json").read_text(encoding="utf-8"))


def test_directory_in_the_way_publishes_nothing(tmp_path):
    out = tmp_path / "run"
    assert cli._run_command("culture-export-boat", {}, out) == 0
    (out / "boat_culture.json").write_text("stale\n", encoding="utf-8")
    (out / "manifest.json").unlink()
    (out / "manifest.json").mkdir()
    with pytest.raises(InputError, match="is not a file"):
        cli._run_command("culture-export-boat", {}, out)
    assert sorted(p.name for p in out.iterdir()) == ["boat_culture.json",
                                                    "manifest.json"]
    assert (out / "boat_culture.json").read_text(encoding="utf-8") == "stale\n"
