"""Multi-trial boat experiment: all strategies and modes over shared worlds."""

from __future__ import annotations

from dataclasses import dataclass

from .._util import derive_seed, fmt_num, parallel_map, write_csv
from ..dialogue import STRATEGIES
from ..errors import InputError
from .metrics import DEFAULT_STRIDE, comfort_metrics, global_trajectory_losses
from .world import (
    NOMINAL,
    OBJECTIVE,
    SUBJECTIVE,
    WorldConfig,
    init_parade,
    run_boat_trial,
    sail_variants,
)

SUMMARY_COLUMNS = (
    "trial", "strategy", "agent", "omega", "omega_p", "gap",
    "lat_acc_auc", "yaw_rate_auc", "lat_jerk_auc",
)
ENCOUNTER_COLUMNS = (
    "trial", "strategy", "mode", "first", "second", "pr", "op",
    "winner", "termination", "z", "r_act", "t_trigger",
)
TRAJECTORY_COLUMNS = (
    "trial", "mode", "strategy", "agent", "t", "x", "y", "heading",
    "speed", "lat_acc", "yaw_rate", "lat_jerk",
)


@dataclass(frozen=True)
class BoatExperimentConfig:
    seed: int = 0
    strategies: tuple = STRATEGIES
    g: int = 30  # per-player budget; a pair may spend 2g together
    n_trials: int = 10
    world: WorldConfig = WorldConfig()

    def __post_init__(self):
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise InputError(f"unknown strategies {sorted(unknown)}")
        if self.n_trials < 1:
            raise InputError("need at least one trial")
        if self.g < 0:
            raise InputError("budget must be non-negative")


@dataclass(frozen=True)
class BoatTrialSummary:
    trial: int
    strategy: str
    losses: object  # TrajectoryLosses
    comfort: tuple  # per-agent ComfortMetrics from the nominal run
    encounters: dict  # mode -> tuple of Encounter


def _sail_trial(cfg: BoatExperimentConfig, trial: int, variants):
    """Trial ``trial``'s world with ``variants`` sailed as one batch."""
    return sail_variants(
        init_parade(derive_seed(cfg.seed, "world", trial), cfg.world), variants)


def _run_one_trial(args):
    cfg, trial = args
    world = _sail_trial(cfg, trial, [(None, None, OBJECTIVE)] + [
        (strategy, cfg.g, mode)
        for strategy in cfg.strategies for mode in (NOMINAL, SUBJECTIVE)
    ])
    # keep of each result only what the summaries read, so that no
    # result's telemetry outlives its turn
    referee = run_boat_trial(world, None, None, OBJECTIVE)
    objective, refereed = referee.trajectories, referee.encounters
    del referee
    runs, comforts, encounters = [], [], []
    for strategy in cfg.strategies:
        nominal = run_boat_trial(world, strategy, cfg.g, NOMINAL)
        comforts.append(tuple(
            comfort_metrics(tel, traj, top_speed=cfg.world.physics.top_speed)
            for tel, traj in zip(nominal.telemetry, nominal.trajectories)
        ))
        subjective = run_boat_trial(world, strategy, cfg.g, SUBJECTIVE)
        runs.append((nominal.trajectories, subjective.trajectories))
        encounters.append({
            NOMINAL: nominal.encounters,
            SUBJECTIVE: subjective.encounters,
            OBJECTIVE: refereed,
        })
        del nominal, subjective
    losses = global_trajectory_losses(objective, runs)
    return [
        BoatTrialSummary(trial=trial, strategy=strategy, losses=lost,
                         comfort=comfort, encounters=met)
        for strategy, lost, comfort, met
        in zip(cfg.strategies, losses, comforts, encounters)
    ]


def run_boat_experiment(cfg: BoatExperimentConfig, jobs: int = 1):
    """Per-(trial, strategy) summaries, merged in trial order.

    Each trial steps its variants' distinct courses as one batch.
    """
    tasks = [(cfg, t) for t in range(cfg.n_trials)]
    return [s for chunk in parallel_map(_run_one_trial, tasks, jobs) for s in chunk]


def run_boat_mode(cfg: BoatExperimentConfig, mode: str):
    """Yield (trial, BoatTrialResult) for each variant of one mode.

    A trial's variants, one per strategy (one in all for the referee), sail
    as one batch, and its world goes before the next trial sails.
    """
    variants = [(strategy, cfg.g, mode) for strategy in cfg.strategies]
    for trial in range(cfg.n_trials):
        world = _sail_trial(cfg, trial, variants)
        for key in world.sailed:
            yield trial, run_boat_trial(world, *key)
        del world


def write_boat_summary_csv(summaries, path):
    def rows():
        for s in summaries:
            for agent, _ in enumerate(s.comfort):
                yield [
                    s.trial,
                    s.strategy,
                    agent,
                    fmt_num(s.losses.omega[agent]),
                    fmt_num(s.losses.omega_p[agent]),
                    fmt_num(s.losses.gap[agent]),
                    fmt_num(s.comfort[agent].lat_acc_auc),
                    fmt_num(s.comfort[agent].yaw_rate_auc),
                    fmt_num(s.comfort[agent].lat_jerk_auc),
                ]

    write_csv(path, SUMMARY_COLUMNS, rows())


def encounter_rows(summaries):
    """(trial, strategy, mode, encounters) rows of an all-mode experiment."""
    return [
        (s.trial, s.strategy, mode, s.encounters[mode])
        for s in summaries
        for mode in (NOMINAL, SUBJECTIVE, OBJECTIVE)
    ]


def write_boat_encounters_csv(rows, path):
    """One line per encounter of each (trial, strategy, mode, encounters) row.

    A strategy of None (the objective referee) is written as an empty cell.
    """
    write_csv(path, ENCOUNTER_COLUMNS, (
        [
            trial, strategy or "", mode, e.first, e.second,
            e.pr_agent, e.op_agent, e.winner, e.termination,
            e.z, fmt_num(e.r_act), fmt_num(e.t_trigger),
        ]
        for trial, strategy, mode, encounters in rows
        for e in encounters
    ))


def write_trajectory_csv(results, path):
    """Decimated per-tick state of (trial, BoatTrialResult)s, each as it comes."""
    def rows():
        for trial, res in results:
            for agent, (traj, tel) in enumerate(zip(res.trajectories, res.telemetry)):
                for k in range(0, len(traj), DEFAULT_STRIDE):
                    yield [
                        trial,
                        res.mode,
                        res.strategy or "",
                        agent,
                        fmt_num(traj.ts[k]),
                        fmt_num(traj.xs[k]),
                        fmt_num(traj.ys[k]),
                        fmt_num(traj.headings[k]),
                        fmt_num(traj.speeds[k]),
                        fmt_num(tel.lat_acc[k]),
                        fmt_num(tel.yaw_rate[k]),
                        fmt_num(tel.lat_jerk[k]),
                    ]
            del res, traj, tel  # hold no written result while the next is made

    write_csv(path, TRAJECTORY_COLUMNS, rows())
