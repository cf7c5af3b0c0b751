"""Trajectory comparison and ride-comfort measures.

Trajectory distortion compares the same agent's path across simulation
modes with the discrete Fréchet distance on decimated position traces:
against the objective world (how far negotiation bent the path from the
referee's world) and against the subjective world (what refusing to yield
would have changed).  Comfort reduces to areas under absolute lateral
acceleration, yaw rate and lateral jerk, trimmed so the standing-start
acceleration phase and the post-arrival freeze do not pollute the score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .frechet import frechet_pairs
from .world import Telemetry, Trajectory

DEFAULT_STRIDE = 20  # ticks between Fréchet samples: 1 s at the 20 Hz tick
TRIM_FRACTION = 0.95  # share of top speed that opens the comfort window


@dataclass(frozen=True)
class ComfortMetrics:
    lat_acc_auc: float
    yaw_rate_auc: float
    lat_jerk_auc: float


def comfort_metrics(telemetry: Telemetry, trajectory: Trajectory,
                    top_speed: float = 30.0) -> ComfortMetrics:
    """Absolute-value AUCs of the comfort series over the cruise window.

    The window opens once the boat first reaches ``TRIM_FRACTION`` of top
    speed and closes at arrival, so launch acceleration and terminal
    braking stay out of the integral.
    """
    if len(telemetry.ts) != len(trajectory.ts):
        raise InputError("telemetry and trajectory must be aligned")
    cruising = np.nonzero(trajectory.speeds >= TRIM_FRACTION * top_speed)[0]
    start = int(cruising[0]) if len(cruising) else len(trajectory.ts)
    end = min(telemetry.arrival_index, len(telemetry.ts))
    if end - start < 2:
        return ComfortMetrics(0.0, 0.0, 0.0)
    ts = telemetry.ts[start:end]
    return ComfortMetrics(
        lat_acc_auc=float(np.trapezoid(np.abs(telemetry.lat_acc[start:end]), ts)),
        yaw_rate_auc=float(np.trapezoid(np.abs(telemetry.yaw_rate[start:end]), ts)),
        lat_jerk_auc=float(np.trapezoid(np.abs(telemetry.lat_jerk[start:end]), ts)),
    )


def decimate_positions(trajectory: Trajectory):
    """Position samples every ``DEFAULT_STRIDE`` ticks and the last one."""
    last = len(trajectory) - 1
    idx = np.arange(0, last + 1, DEFAULT_STRIDE)
    if idx[-1] != last:
        idx = np.append(idx, last)
    return np.column_stack([trajectory.xs[idx], trajectory.ys[idx]])


@dataclass(frozen=True)
class TrajectoryLosses:
    """Per-agent and mean Fréchet distortions across the three modes."""

    omega: tuple  # nominal vs objective
    omega_p: tuple  # nominal vs subjective
    gap: tuple  # subjective vs objective

    @property
    def mean_omega(self) -> float:
        return float(np.mean(self.omega))

    @property
    def mean_omega_p(self) -> float:
        return float(np.mean(self.omega_p))


def global_trajectory_losses(objective: tuple, runs) -> list:
    """Fréchet distortion per agent across the three worlds of each run.

    ``objective`` is the objective course's trajectory tuple in one sailed
    world, and ``runs`` holds one ``(nominal, subjective)`` pair of its
    trajectory tuples per strategy; one :class:`TrajectoryLosses` comes
    back per run.

    Variants that sailed one course share its tuple.  A course compared with
    itself is 0.0 for every agent and is never swept; every other distinct
    comparison is swept once, all in one :func:`frechet_pairs` call.
    """
    n = len(objective)
    if any(len(nominal) != n or len(subjective) != n for nominal, subjective in runs):
        raise InputError("trials must cover the same agents")
    wanted = [
        ((nominal, objective), (nominal, subjective), (subjective, objective))
        for nominal, subjective in runs
    ]
    # keyed by identity: ``runs`` keeps every tuple alive for this call
    distinct = {(id(a), id(b)): (a, b)
                for comparisons in wanted for a, b in comparisons if a is not b}
    values = frechet_pairs(
        [decimate_positions(tr) for a, _ in distinct.values() for tr in a],
        [decimate_positions(tr) for _, b in distinct.values() for tr in b])
    swept = {key: tuple(values[k * n:(k + 1) * n]) for k, key in enumerate(distinct)}

    def compare(a, b):
        return (0.0,) * n if a is b else swept[id(a), id(b)]

    return [TrajectoryLosses(*(compare(a, b) for a, b in comparisons))
            for comparisons in wanted]
