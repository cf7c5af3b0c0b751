"""Multi-trial boat experiment: all strategies and modes over shared worlds."""

from __future__ import annotations

import csv
from dataclasses import dataclass

from .._util import derive_seed, fmt_num, parallel_map
from ..dialogue import BUDGET_FORCED, STRATEGIES
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
    literal_gap: bool = False

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
    budget_forced: int  # nominal-mode count


def _run_one_trial(args):
    cfg, trial = args
    variants = [(None, None, OBJECTIVE)] + [
        (strategy, cfg.g, mode)
        for strategy in cfg.strategies for mode in (NOMINAL, SUBJECTIVE)
    ]
    world = sail_variants(
        init_parade(derive_seed(cfg.seed, "world", trial), cfg.world), variants)
    objective = run_boat_trial(world, None, None, OBJECTIVE)
    summaries = []
    for strategy in cfg.strategies:
        nominal = run_boat_trial(world, strategy, cfg.g, NOMINAL)
        subjective = run_boat_trial(world, strategy, cfg.g, SUBJECTIVE)
        losses = global_trajectory_losses(nominal, subjective, objective,
                                          literal_gap=cfg.literal_gap)
        comfort = tuple(
            comfort_metrics(nominal.telemetry[i], nominal.trajectories[i],
                            top_speed=cfg.world.physics.top_speed)
            for i in range(cfg.world.n_agents)
        )
        forced = sum(
            1 for e in nominal.encounters if e.termination == BUDGET_FORCED
        )
        summaries.append(
            BoatTrialSummary(
                trial=trial,
                strategy=strategy,
                losses=losses,
                comfort=comfort,
                encounters={
                    NOMINAL: nominal.encounters,
                    SUBJECTIVE: subjective.encounters,
                    OBJECTIVE: objective.encounters,
                },
                budget_forced=forced,
            )
        )
    return summaries


def run_boat_experiment(cfg: BoatExperimentConfig, jobs: int = 1):
    """Per-(trial, strategy) summaries, merged in trial order.

    Each trial steps its variants' distinct courses as one batch.
    """
    tasks = [(cfg, t) for t in range(cfg.n_trials)]
    return [s for chunk in parallel_map(_run_one_trial, tasks, jobs) for s in chunk]


def write_boat_summary_csv(summaries, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SUMMARY_COLUMNS)
        for s in summaries:
            for agent, _ in enumerate(s.comfort):
                writer.writerow(
                    [
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
                )


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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ENCOUNTER_COLUMNS)
        for trial, strategy, mode, encounters in rows:
            for e in encounters:
                writer.writerow(
                    [
                        trial, strategy or "", mode, e.first, e.second,
                        e.pr_agent, e.op_agent, e.winner, e.termination,
                        e.z, fmt_num(e.r_act), fmt_num(e.t_trigger),
                    ]
                )


def write_trajectory_csv(results, path):
    """Decimated per-tick state of (trial, BoatTrialResult)s, each as it comes."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRAJECTORY_COLUMNS)
        for trial, res in results:
            for agent, (traj, tel) in enumerate(zip(res.trajectories, res.telemetry)):
                for k in range(0, len(traj), DEFAULT_STRIDE):
                    writer.writerow(
                        [
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
                    )
            del res, traj, tel  # hold no written result while the next is made
