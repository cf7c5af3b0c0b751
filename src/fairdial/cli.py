"""Command-line interface.

Every data-producing command writes its outputs plus a ``manifest.json``
capturing the command, the fully resolved configuration and the seed, so
``fairdial rerun manifest.json`` reproduces the run byte for byte.  The
root seed comes from ``--seed``, falling back to the ``FAIRDIAL_SEED``
environment variable, then 0; a non-integer value of either is a usage error.

Exit codes: 0 success, 1 data or runtime error, 2 usage error,
3 violated internal invariant (e.g. non-finite simulation state).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import sys
import time
from collections import deque
from pathlib import Path

from . import __version__
from ._util import csv_writer
from .af import emit_framework, parse_framework, preferred_extensions, sceptically_accepted
from .culture import (
    FeatureDescription,
    builtin_boat_culture,
    expand,
    generate_random_culture,
    load_culture,
    save_culture,
)
from .dialogue import STRATEGIES, run_dispute
from .errors import FairdialError, InputError, SimulationFault
from .fairness import MODES
from .randexp import (
    TrialConfig,
    ecdf_privacy_cost,
    summarise,
    sweep,
    transcript_row,
    write_ecdf_csv,
    write_ecdf_plot_script,
    write_summary_csv,
    write_sweep_csv,
    write_sweep_plot_script,
)

MANIFEST_NAME = "manifest.json"

# fairdial.boatsim, and numpy with it, is imported only once a boat run
# executes; these of its names then become attributes of this module.
_BOATSIM_NAMES = (
    "BoatExperimentConfig", "PhysicsParams", "WorldConfig", "encounter_rows",
    "run_boat_experiment", "run_boat_mode", "write_boat_encounters_csv",
    "write_boat_summary_csv", "write_trajectory_csv",
)


def _load_boatsim():
    """Bind ``_BOATSIM_NAMES`` here, keeping any binding already set."""
    from . import boatsim

    for name in _BOATSIM_NAMES:
        globals().setdefault(name, getattr(boatsim, name))


def __getattr__(name):
    if name in _BOATSIM_NAMES:
        _load_boatsim()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _write_manifest(out_dir: Path, command: str, config: dict, outputs,
                    started: float):
    doc = {
        "tool": "fairdial",
        "version": __version__,
        "command": command,
        "config": config,
        "outputs": sorted(outputs),
        "wall_clock_s": round(time.monotonic() - started, 3),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = out_dir / MANIFEST_NAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------- execute

def _trial_config(config: dict, **extra) -> TrialConfig:
    """The TrialConfig of a sweep or ecdf config."""
    return TrialConfig(
        n_agents=config["agents"],
        n_args=config["args"],
        n_attacks=config["attacks"],
        cost_range=tuple(config["cost_range"]),
        seed=config["seed"],
        **extra,
    )


def _execute_sweep(config: dict, out_dir: Path):
    cfg = _trial_config(config, budget_grid=tuple(config["budget_grid"]))
    logged = config.get("log_transcripts")
    with (open(out_dir / "transcripts.csv", "w", encoding="utf-8", newline="")
          if logged else contextlib.nullcontext()) as transcripts:
        rows = sweep(cfg, config["trials"], jobs=config.get("jobs", 1),
                     transcripts=transcripts)
    write_sweep_csv(rows, out_dir / "sweep.csv")
    write_summary_csv(summarise(rows), out_dir / "sweep_summary.csv")
    write_sweep_plot_script(out_dir / "plots.gp")
    outputs = ["sweep.csv", "sweep_summary.csv", "plots.gp"]
    return outputs + ["transcripts.csv"] if logged else outputs


def _execute_ecdf(config: dict, out_dir: Path):
    tables = ecdf_privacy_cost(
        _trial_config(config), config["trials"], jobs=config.get("jobs", 1)
    )
    write_ecdf_csv(tables, out_dir / "ecdf.csv")
    write_ecdf_plot_script(out_dir / "ecdf_plots.gp")
    return ["ecdf.csv", "ecdf_plots.gp"]


def _world_config_from(doc) -> WorldConfig:
    """The WorldConfig of a boats config.

    Every boat run calls this first, so this is where fairdial.boatsim loads.
    """
    _load_boatsim()
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise InputError("a world config must be a JSON object")
    doc = dict(doc)
    phys = doc.pop("physics", None)
    kwargs = {}
    for key, value in doc.items():
        if key not in WorldConfig.__dataclass_fields__:
            raise InputError(f"unknown world config key {key!r}")
        kwargs[key] = value
    if phys is not None:
        if not isinstance(phys, dict):
            raise InputError("'physics' must be a JSON object")
        unknown = set(phys) - set(PhysicsParams.__dataclass_fields__)
        if unknown:
            raise InputError(f"unknown physics keys {sorted(unknown)}")
        kwargs["physics"] = PhysicsParams(**phys)
    return WorldConfig(**kwargs)


def _execute_boats(config: dict, out_dir: Path):
    world_cfg = _world_config_from(config.get("world"))
    cfg = BoatExperimentConfig(
        seed=config["seed"],
        strategies=(tuple(STRATEGIES) if config["strategy"] == "all"
                    else (config["strategy"],)),
        g=config["budget"],
        n_trials=config["trials"],
        world=world_cfg,
    )
    mode = config["mode"]
    if mode == "all":
        summaries = run_boat_experiment(cfg, jobs=config.get("jobs", 1))
        write_boat_summary_csv(summaries, out_dir / "boats_summary.csv")
        write_boat_encounters_csv(
            encounter_rows(summaries), out_dir / "boats_encounters.csv"
        )
        return ["boats_summary.csv", "boats_encounters.csv"]
    # single-mode run: encounters plus (optionally) trajectories
    rows = []

    def results():
        for trial, res in run_boat_mode(cfg, mode):
            rows.append((trial, res.strategy, mode, res.encounters))
            yield trial, res
            del res  # the trial's recording buffer goes before the next

    outputs = ["boats_encounters.csv"]
    if config.get("log_trajectories"):
        write_trajectory_csv(results(), out_dir / "trajectories.csv")
        outputs.append("trajectories.csv")
    else:
        deque(results(), maxlen=0)  # runs every trial, holding no result
    write_boat_encounters_csv(rows, out_dir / "boats_encounters.csv")
    return outputs


def _execute_culture_random(config: dict, out_dir: Path):
    culture = generate_random_culture(
        config["args"], config["attacks"],
        tuple(config["cost_range"]), config["seed"],
    )
    name = config.get("filename", "culture.json")
    save_culture(culture, out_dir / name)
    load_culture(out_dir / name)  # write must validate on re-read
    return [name]


def _execute_culture_boat(config: dict, out_dir: Path):
    name = config.get("filename", "boat_culture.json")
    save_culture(builtin_boat_culture(), out_dir / name)
    load_culture(out_dir / name)
    return [name]


_EXECUTORS = {
    "sweep": _execute_sweep,
    "ecdf": _execute_ecdf,
    "boats": _execute_boats,
    "culture-random": _execute_culture_random,
    "culture-export-boat": _execute_culture_boat,
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


_INT = "an integer"
_INTS = "a list of integers"
_PAIR = "a pair of integers"
_STR = "a string"
_NAME = f"a plain file name other than {MANIFEST_NAME!r}"
_BOOL = "true or false"
_OBJ = "a JSON object or null"
_KINDS = {
    _INT: _is_int,
    _INTS: _is_int_list,
    _PAIR: lambda v: _is_int_list(v) and len(v) == 2,
    _STR: lambda v: isinstance(v, str),
    _NAME: lambda v: (isinstance(v, str) and v == Path(v).name
                      and v not in ("", ".", "..", MANIFEST_NAME)),
    _BOOL: lambda v: isinstance(v, bool),
    _OBJ: lambda v: v is None or isinstance(v, dict),
}
# per command: the config keys its executor reads and their kinds; a key
# ending in "?" may be absent
_CONFIG_KEYS = {
    "sweep": {
        "agents": _INT, "args": _INT, "attacks": _INT, "cost_range": _PAIR,
        "budget_grid": _INTS, "trials": _INT, "seed": _INT,
        "jobs?": _INT, "log_transcripts?": _BOOL,
    },
    "ecdf": {
        "agents": _INT, "args": _INT, "attacks": _INT, "cost_range": _PAIR,
        "trials": _INT, "seed": _INT, "jobs?": _INT,
    },
    "boats": {
        "strategy": _STR, "budget": _INT, "trials": _INT, "seed": _INT,
        "mode": _STR, "world?": _OBJ, "jobs?": _INT,
        "log_trajectories?": _BOOL,
    },
    "culture-random": {
        "args": _INT, "attacks": _INT, "cost_range": _PAIR, "seed": _INT,
        "filename?": _NAME,
    },
    "culture-export-boat": {"filename?": _NAME},
}


def _check_config(command: str, config: dict):
    """Reject a config with a missing, unknown or wrongly typed key."""
    known = {key.rstrip("?") for key in _CONFIG_KEYS[command]}
    unknown = sorted(set(config) - known)
    if unknown:
        raise InputError(f"{command} config has unknown key {unknown[0]!r}")
    for key, kind in _CONFIG_KEYS[command].items():
        name = key.rstrip("?")
        if name not in config:
            if key.endswith("?"):
                continue
            raise InputError(f"{command} config is missing {name!r}")
        if not _KINDS[kind](config[name]):
            raise InputError(
                f"{command} config {name!r} must be {kind}, got {config[name]!r}"
            )


def _run_command(command: str, config: dict, out_dir) -> int:
    """Run ``command`` and publish its outputs plus manifest into ``out_dir``.

    The executor writes into a fresh hidden directory inside ``out_dir``,
    and the manifest is written there last.  Once every target name is
    known to be absent or a regular file, the files are moved in one by
    one, manifest last, so a run is complete when its manifest appears.  A
    run that fails before the moves removes the staging directory and every
    directory it created, ``out_dir`` included; a ``config`` with a missing,
    unknown or wrongly typed key fails before any directory exists.
    """
    _check_config(command, config)
    out_dir = Path(out_dir)
    created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    staging = out_dir / f".fairdial-{os.getpid()}-{time.monotonic_ns()}"
    staging.mkdir()
    started = time.monotonic()
    try:
        outputs = _EXECUTORS[command](config, staging)
        _write_manifest(staging, command, config, outputs, started)
        names = (*outputs, MANIFEST_NAME)
        for name in names:
            if (out_dir / name).exists() and not (out_dir / name).is_file():
                raise InputError(f"{out_dir / name} exists and is not a file")
        for name in names:
            os.replace(staging / name, out_dir / name)
        staging.rmdir()
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        for path in created:  # deepest first; rmdir refuses a non-empty one
            with contextlib.suppress(OSError):
                path.rmdir()
        raise
    for name in outputs:
        print(f"wrote {out_dir / name}")
    print(f"wrote {out_dir / MANIFEST_NAME}")
    return 0


# ---------------------------------------------------------------- handlers

def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from None


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None


def _cmd_af_solve(args) -> int:
    af = parse_framework(_read_text(args.framework))
    if args.sceptical is not None:
        verdict = sceptically_accepted(args.sceptical, af)
        print("accepted" if verdict else "rejected")
        return 0
    exts = preferred_extensions(af)
    if args.json:
        print(json.dumps([sorted(e) for e in exts]))
    else:
        print(f"{len(exts)} preferred extension(s)")
        for e in exts:
            print("{" + ", ".join(map(str, sorted(e))) + "}")
    return 0


def _cmd_af_echo(args) -> int:
    af = parse_framework(_read_text(args.framework))
    sys.stdout.write(emit_framework(af))
    return 0


def _cmd_culture_random(args) -> int:
    out = Path(args.output)
    config = {
        "args": args.args,
        "attacks": args.attacks,
        "cost_range": [args.cost_min, args.cost_max],
        "seed": args.seed,
        "filename": out.name,
    }
    return _run_command("culture-random", config, out.parent)


def _cmd_culture_export_boat(args) -> int:
    out = Path(args.output)
    return _run_command(
        "culture-export-boat", {"filename": out.name}, out.parent
    )


def _parse_description(text: str, n_features: int) -> FeatureDescription:
    try:
        values = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise InputError(f"descriptions are comma-separated integers, got {text!r}")
    if len(values) != n_features:
        raise InputError(f"expected {n_features} feature values, got {len(values)}")
    return FeatureDescription(values)


def _cmd_dispute(args) -> int:
    if args.boat:
        culture = builtin_boat_culture()
    elif args.culture:
        culture = load_culture(args.culture)
    else:
        raise InputError("pass --culture FILE or --boat")
    xc = expand(culture)
    n_features = len(culture.non_motion_ids)
    d_pr = _parse_description(args.pr, n_features)
    d_op = _parse_description(args.op, n_features)
    rng = random.Random(args.seed)
    g = None if args.budget < 0 else args.budget
    res = run_dispute(d_pr, d_op, xc, args.strategy, g, rng=rng)
    if args.json:
        print(
            json.dumps(
                {
                    "winner": res.winner,
                    "termination": res.termination,
                    "spent": res.spent,
                    "moves": [
                        {
                            "player": m.player,
                            "x_arg": m.x_arg,
                            "label": xc.x_arg(m.x_arg).label,
                            "cost": m.cost_charged,
                        }
                        for m in res.transcript
                    ],
                }
            )
        )
    else:
        csv_writer(sys.stdout).writerow(
            transcript_row(0, "pr", "op", args.strategy,
                           g if g is not None else "inf", res)
        )
        for m in res.transcript:
            print(f"  {m.player}: {xc.x_arg(m.x_arg).label} (cost {m.cost_charged})")
        print(f"winner: {res.winner} ({res.termination})")
    return 0


def _population_config(args) -> dict:
    """The config keys that sweep and ecdf share."""
    return {
        "agents": args.agents,
        "args": args.args,
        "attacks": args.attacks,
        "cost_range": [args.cost_min, args.cost_max],
        "trials": args.trials,
        "seed": args.seed,
        "jobs": args.jobs,
    }


def _cmd_sweep(args) -> int:
    config = _population_config(args)
    config["budget_grid"] = list(range(0, args.budget_max + 1, args.budget_step))
    config["log_transcripts"] = args.log_transcripts
    return _run_command("sweep", config, args.out)


def _cmd_ecdf(args) -> int:
    return _run_command("ecdf", _population_config(args), args.out)


def _cmd_boats(args) -> int:
    config = {
        "strategy": args.strategy,
        "budget": args.budget,
        "trials": args.trials,
        "seed": args.seed,
        "mode": args.mode,
        "world": _read_json(args.config) if args.config else {},
        "jobs": args.jobs,
        "log_trajectories": args.log_trajectories,
    }
    return _run_command("boats", config, args.out)


def _cmd_rerun(args) -> int:
    manifest_path = Path(args.manifest)
    doc = _read_json(manifest_path)
    if not isinstance(doc, dict):
        raise InputError(f"{manifest_path}: a manifest must be a JSON object")
    command = doc.get("command")
    if not isinstance(command, str) or command not in _EXECUTORS:
        raise InputError(f"manifest names unknown command {command!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise InputError(f"{manifest_path}: manifest has no \"config\" object")
    out_dir = Path(args.out) if args.out else manifest_path.parent
    return _run_command(command, config, out_dir)


# ---------------------------------------------------------------- parser

def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairdial",
        description="Privacy-aware argumentation dialogues and fairness experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # the random culture's shape, shared by culture random, sweep and ecdf;
    # sweep and ecdf also draw a population of agents from it
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--args", type=int, default=16)
    shape.add_argument("--attacks", type=int, default=48)
    shape.add_argument("--cost-min", type=int, default=1)
    shape.add_argument("--cost-max", type=int, default=20)
    population = argparse.ArgumentParser(add_help=False)
    population.add_argument("--agents", type=int, default=16)

    p_af = sub.add_parser("af", help="argumentation framework operations")
    af_sub = p_af.add_subparsers(dest="af_command", required=True)
    p_solve = af_sub.add_parser("solve", help="preferred extensions of a framework file")
    p_solve.add_argument("framework", help="framework text file")
    p_solve.add_argument("--sceptical", type=int, default=None, metavar="ARG",
                         help="test sceptical acceptance of one argument")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=_cmd_af_solve)
    p_echo = af_sub.add_parser("echo", help="parse and re-emit a framework file")
    p_echo.add_argument("framework")
    p_echo.set_defaults(func=_cmd_af_echo)

    p_culture = sub.add_parser("culture", help="culture generation and export")
    cul_sub = p_culture.add_subparsers(dest="culture_command", required=True)
    p_rand = cul_sub.add_parser("random", parents=[shape],
                                help="generate a random culture")
    p_rand.add_argument("--seed", type=int, default=None)
    p_rand.add_argument("-o", "--output", required=True)
    p_rand.set_defaults(func=_cmd_culture_random)
    p_boatc = cul_sub.add_parser("export-boat", help="write the built-in boat culture")
    p_boatc.add_argument("-o", "--output", required=True)
    p_boatc.set_defaults(func=_cmd_culture_export_boat)

    p_disp = sub.add_parser("dispute", help="run one dialogue")
    p_disp.add_argument("--culture", help="culture JSON file")
    p_disp.add_argument("--boat", action="store_true", help="use the built-in boat culture")
    p_disp.add_argument("--pr", required=True, help="proponent feature values, comma-separated")
    p_disp.add_argument("--op", required=True, help="opponent feature values, comma-separated")
    p_disp.add_argument("--strategy", choices=STRATEGIES, default="min_cost")
    p_disp.add_argument("--budget", type=int, default=-1,
                        help="per-player budget; negative means unrestricted")
    p_disp.add_argument("--seed", type=int, default=None)
    p_disp.add_argument("--json", action="store_true")
    p_disp.set_defaults(func=_cmd_dispute)

    p_sweep = sub.add_parser("sweep", parents=[population, shape],
                             help="budget sweep over random cultures")
    p_sweep.add_argument("--budget-max", type=int, default=60)
    p_sweep.add_argument("--budget-step", type=_positive_int, default=5)
    p_sweep.add_argument("--trials", type=_positive_int, default=200)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1)
    p_sweep.add_argument("--log-transcripts", action="store_true",
                         help="also write every scored dialogue's transcript"
                              " (large); honours --jobs")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_ecdf = sub.add_parser("ecdf", parents=[population, shape],
                            help="privacy-cost ECDF from unrestricted dialogues")
    p_ecdf.add_argument("--trials", type=_positive_int, default=50)
    p_ecdf.add_argument("--seed", type=int, default=None)
    p_ecdf.add_argument("--jobs", type=_positive_int, default=1)
    p_ecdf.add_argument("--out", required=True)
    p_ecdf.set_defaults(func=_cmd_ecdf)

    p_boats = sub.add_parser("boats", help="boat crossing simulation")
    p_boats.add_argument("--strategy", choices=STRATEGIES + ("all",), default="all")
    p_boats.add_argument("--budget", type=int, default=30,
                         help="per-player dialogue budget")
    p_boats.add_argument("--trials", type=_positive_int, default=10)
    p_boats.add_argument("--seed", type=int, default=None)
    p_boats.add_argument("--mode", choices=MODES + ("all",), default="all")
    p_boats.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes for --mode all; a single-mode"
                              " run ignores it")
    p_boats.add_argument("--config", help="JSON file overriding world parameters")
    p_boats.add_argument("--log-trajectories", action="store_true")
    p_boats.add_argument("--out", required=True)
    p_boats.set_defaults(func=_cmd_boats)

    p_rerun = sub.add_parser("rerun", help="re-execute a run from its manifest")
    p_rerun.add_argument("manifest")
    p_rerun.add_argument("--out", default=None,
                         help="write outputs here instead of the manifest's directory")
    p_rerun.set_defaults(func=_cmd_rerun)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) is None:
        env = os.environ.get("FAIRDIAL_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            parser.error(f"FAIRDIAL_SEED: invalid int value: {env!r}")
    try:
        return args.func(args)
    except SimulationFault as exc:
        print(f"fairdial: invariant violated: {exc}", file=sys.stderr)
        return 3
    except FairdialError as exc:
        print(f"fairdial: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"fairdial: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
