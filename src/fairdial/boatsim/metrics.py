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
from .world import BoatTrialResult, Telemetry, Trajectory

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
    pos = trajectory.positions
    idx = np.arange(0, len(pos), DEFAULT_STRIDE)
    if idx[-1] != len(pos) - 1:
        idx = np.append(idx, len(pos) - 1)
    return pos[idx]


@dataclass(frozen=True)
class TrajectoryLosses:
    """Per-agent and mean Fréchet distortions across the three modes."""

    omega: tuple  # nominal vs objective
    omega_p: tuple  # nominal vs subjective
    gap: tuple  # subjective vs objective (or nominal vs subjective, literal)

    @property
    def mean_omega(self) -> float:
        return float(np.mean(self.omega))

    @property
    def mean_omega_p(self) -> float:
        return float(np.mean(self.omega_p))


def global_trajectory_losses(nominal: BoatTrialResult,
                             subjective: BoatTrialResult,
                             objective: BoatTrialResult,
                             literal_gap: bool = False) -> TrajectoryLosses:
    """Fréchet distortion per agent across the three worlds of one trial.

    ``literal_gap`` switches the subjectivity gap to the nominal-versus-
    subjective comparison instead of the default subjective-versus-
    objective reading; that comparison is then computed once for both.
    Each comparison is one batched Fréchet sweep over all agents, whose
    traces share a length within a world.
    """
    n = len(nominal.trajectories)
    if not (len(subjective.trajectories) == len(objective.trajectories) == n):
        raise InputError("trials must cover the same agents")
    j_n, j_s, j_o = (
        [decimate_positions(tr) for tr in res.trajectories]
        for res in (nominal, subjective, objective)
    )
    omega = frechet_pairs(j_n, j_o)
    omega_p = frechet_pairs(j_n, j_s)
    gap = omega_p if literal_gap else frechet_pairs(j_s, j_o)
    return TrajectoryLosses(omega=tuple(omega), omega_p=tuple(omega_p),
                            gap=tuple(gap))
