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


@dataclass(frozen=True)
class BoatState:
    x: float
    y: float
    heading: float  # radians, mathematical convention
    speed: float  # m/s, along heading
    yaw_rate: float  # rad/s
    t: float  # s


def wrap_angle(a):
    """Wrap angles to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def step_physics(state: BoatState, controls, params: PhysicsParams,
                 dt: float) -> BoatState:
    """Advance one boat by ``dt`` under (throttle, yaw_command) controls.

    Throttle is the fraction of maximum thrust in [0, 1]; the yaw command
    is a desired yaw rate which the hull approaches with a first-order lag,
    clipped to the rate limit.
    """
    if dt <= 0:
        raise InputError("dt must be positive")
    throttle, yaw_cmd = controls
    if not 0.0 <= throttle <= 1.0:
        raise InputError("throttle must lie in [0, 1]")
    thrust = throttle * params.thrust_max
    accel = (thrust - params.drag * state.speed**2) / params.mass
    speed = min(max(state.speed + accel * dt, 0.0), params.top_speed)
    cmd = min(max(yaw_cmd, -params.yaw_rate_max), params.yaw_rate_max)
    yaw_rate = state.yaw_rate + (cmd - state.yaw_rate) * dt / params.yaw_tau
    yaw_rate = min(max(yaw_rate, -params.yaw_rate_max), params.yaw_rate_max)
    heading = wrap_angle(state.heading + yaw_rate * dt)
    return BoatState(
        x=state.x + speed * math.cos(heading) * dt,
        y=state.y + speed * math.sin(heading) * dt,
        heading=heading,
        speed=speed,
        yaw_rate=yaw_rate,
        t=state.t + dt,
    )


def step_arrays(xs, ys, headings, speeds, yaw_rates, throttle, yaw_cmd,
                params: PhysicsParams, dt: float):
    """Vectorised :func:`step_physics` over agent arrays, updated in place.

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
