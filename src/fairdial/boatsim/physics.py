"""Planar boat dynamics: quadratic drag, rate-limited first-order yaw.

The hull parameters are tuned so full throttle tops out at exactly the
configured maximum speed (thrust_max = drag * top_speed^2) and a standing
start reaches cruise in a few hundred metres, which leaves room for the
initial-acceleration trim in the comfort metrics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from ..errors import InputError


def is_finite_real(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True)
class PhysicsParams:
    mass: float = 5000.0  # kg
    top_speed: float = 30.0  # m/s
    drag: float = 16.0 + 2.0 / 3.0  # kg/m, quadratic drag coefficient
    yaw_rate_max: float = 0.4  # rad/s
    yaw_tau: float = 0.4  # s, first-order yaw response time

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not is_finite_real(value) or value <= 0:
                raise InputError(f"{f.name} must be a positive number, got {value!r}")

    @property
    def thrust_max(self) -> float:
        return self.drag * self.top_speed**2


def step_arrays(xs, ys, headings, speeds, yaw_rates, throttle, yaw_cmd,
                params: PhysicsParams, dt: float):
    """Advance each boat by ``dt`` under (throttle, yaw_cmd), in place.

    Throttle is a fraction of maximum thrust; the hull approaches the yaw
    command, a yaw rate, with a first-order lag under the rate limit.

    ``np.minimum(hi, np.maximum(lo, a))`` is ``np.clip(a, lo, hi)`` bit for
    bit, signed zeros included (both return ``a`` on a tie), at a fraction
    of ``clip``'s call overhead.
    """
    rate_max = params.yaw_rate_max
    accel = (throttle * params.thrust_max - params.drag * speeds**2) / params.mass
    accel *= dt
    speeds += accel
    np.maximum(0.0, speeds, out=speeds)
    np.minimum(params.top_speed, speeds, out=speeds)
    cmd = np.maximum(-rate_max, yaw_cmd)
    np.minimum(rate_max, cmd, out=cmd)
    cmd -= yaw_rates
    cmd *= dt / params.yaw_tau
    yaw_rates += cmd
    np.maximum(-rate_max, yaw_rates, out=yaw_rates)
    np.minimum(rate_max, yaw_rates, out=yaw_rates)
    headings += yaw_rates * dt
    turn = np.subtract(np.pi, headings)
    np.mod(turn, 2.0 * np.pi, out=turn)
    np.subtract(np.pi, turn, out=headings)
    xs += speeds * np.cos(headings) * dt
    ys += speeds * np.sin(headings) * dt
