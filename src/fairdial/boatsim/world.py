"""Two-column boat crossing with dialogue-negotiated right of way.

Two columns of boats steam toward each other through a shared channel.
The first time any pair closes within sensor range they settle precedence:
by a privacy-aware dialogue in the nominal and subjective modes, or by the
full-information referee (at zero privacy cost) in objective mode.  The
loser of a pair yields by treating the winner as a repulsive potential
field; the more privacy the pair spent, the closer the field activates,
so expensive negotiations produce later, sharper evasions.

Mode differences: in subjective mode a loser whose dialogue was cut off by
the budget refuses to yield and sails straight on (the winner keeps only a
short-range collision reflex); objective mode replaces dialogues with the
referee.  All modes share one physical world per trial seed, and variants
whose per-pair rulings agree share one simulation of it.
"""

from __future__ import annotations

import functools
import numbers
import random
from dataclasses import dataclass, fields, replace
from itertools import combinations

import numpy as np

from .._util import derive_seed
from ..culture import (
    FeatureDescription,
    OP,
    PR,
    builtin_boat_culture,
    expand,
    sample_boat_agent,
)
from ..dialogue import BUDGET_FORCED, STRATEGIES, run_dispute
from ..errors import InputError, SimulationFault
from ..fairness import objective_outcome
from .physics import PhysicsParams, is_finite_real, step_arrays

WEST = "west"
EAST = "east"

NOMINAL = "nominal"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"
MODES = (NOMINAL, SUBJECTIVE, OBJECTIVE)

_FINITE_CHECK_EVERY = 400  # ticks between non-finite state sweeps
# A world preallocates a (ticks x 6 x boats) float array, so a config may ask
# for at most this many ticks (max_time / tick); the default is 30,000.
MAX_TICKS = 200_000


@dataclass(frozen=True)
class WorldConfig:
    arena_length: float = 20000.0  # m, along the crossing axis
    arena_width: float = 2000.0  # m
    n_agents: int = 16
    tick: float = 0.05  # s
    r_max: float = 1000.0  # m, sensor/encounter radius
    r_crit: float = 100.0  # m, collision-reflex radius
    physics: PhysicsParams = PhysicsParams()
    k_repulsion: float = 800.0  # field gain against a unit goal pull
    # fraction of the repulsion redirected to the boat's starboard side;
    # head-on approaches are symmetric, so a purely radial field would
    # just stall both boats until the collision reflex
    starboard_bias: float = 0.7
    goal_weight: float = 1.0
    heading_gain: float = 1.2  # yaw command per radian of heading error
    goal_tolerance: float = 60.0  # m, arrival radius
    max_time: float = 1500.0  # s
    min_start_gap: float = 1005.0  # m, longitudinal gap floor within a column
    extra_start_gap: float = 250.0  # m, uniform jitter on top of the floor
    y_band: float = 200.0  # m, start/goal offset band around the centreline
    distance_floor: float = 5.0  # m, clamp for the 1/d field magnitude

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name != "physics" and not is_finite_real(value):
                raise InputError(f"{f.name} must be a finite number, got {value!r}")
        if not isinstance(self.n_agents, numbers.Integral):
            raise InputError(f"n_agents must be an integer, got {self.n_agents!r}")
        if self.n_agents < 2 or self.n_agents % 2:
            raise InputError("n_agents must be even and at least 2")
        for name in _POSITIVE_FIELDS:
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive")
        for name in _NON_NEGATIVE_FIELDS:
            if getattr(self, name) < 0:
                raise InputError(f"{name} must be non-negative")
        if not 0 < self.r_crit < self.r_max:
            raise InputError("need 0 < r_crit < r_max")
        if self.max_time / self.tick > MAX_TICKS:
            raise InputError(
                f"max_time / tick asks for {self.max_time / self.tick:.4g} ticks;"
                f" at most {MAX_TICKS} are allowed"
            )


_POSITIVE_FIELDS = (
    "arena_length", "arena_width", "tick", "goal_tolerance", "max_time",
    "distance_floor",
)
_NON_NEGATIVE_FIELDS = (
    "k_repulsion", "goal_weight", "heading_gain", "min_start_gap",
    "extra_start_gap", "y_band",
)


@dataclass(frozen=True)
class BoatAgent:
    agent_id: int
    side: str
    start: tuple
    goal: tuple
    description: FeatureDescription


@dataclass(frozen=True)
class World:
    config: WorldConfig
    agents: tuple
    seed: int


def init_parade(seed: int, config: WorldConfig | None = None) -> World:
    """Lay out the two columns and draw every agent's private description."""
    cfg = config or WorldConfig()
    rng = random.Random(derive_seed(seed, "parade"))
    half = cfg.n_agents // 2
    mid = cfg.arena_width / 2.0
    agents = []

    def column_positions():
        xs = [0.0]
        for _ in range(half - 1):
            xs.append(xs[-1] + cfg.min_start_gap + rng.uniform(0, cfg.extra_start_gap))
        return xs

    west_xs = column_positions()
    east_xs = [cfg.arena_length - x for x in column_positions()]
    for i in range(cfg.n_agents):
        side = WEST if i < half else EAST
        x = west_xs[i] if side == WEST else east_xs[i - half]
        y = mid + rng.uniform(-cfg.y_band, cfg.y_band)
        goal_x = cfg.arena_length if side == WEST else 0.0
        goal_y = mid + rng.uniform(-cfg.y_band, cfg.y_band)
        agents.append(
            BoatAgent(
                agent_id=i,
                side=side,
                start=(x, y),
                goal=(goal_x, goal_y),
                description=sample_boat_agent(derive_seed(seed, "agent", i)),
            )
        )
    return World(config=cfg, agents=tuple(agents), seed=seed)


def activation_radius(z, g, r_max: float = 1000.0, r_crit: float = 100.0) -> float:
    """Distance at which a pair's repulsive field switches on.

    ``z`` is the pair's combined privacy spend, bounded by the combined
    budget 2g: a free agreement activates at the sensor radius, a
    budget-saturating one only at the collision-reflex radius.
    """
    if z < 0:
        raise InputError("spend cannot be negative")
    if z == 0:
        return r_max
    if g is None or g <= 0 or z > 2 * g:
        raise InputError(f"spend {z} outside [0, 2g] for budget {g}")
    return r_max - (z / (2.0 * g)) * (r_max - r_crit)


@dataclass
class Encounter:
    """One pair's settled precedence and its field parameters."""

    first: int
    second: int
    pr_agent: int
    op_agent: int
    winner: int
    loser: int
    termination: str
    z: int
    r_act: float
    t_trigger: float
    yielding: bool
    t_field_on: float | None = None


@dataclass(frozen=True)
class Trajectory:
    """One agent's sampled kinematic history (parallel arrays)."""

    ts: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    headings: np.ndarray
    speeds: np.ndarray

    def __len__(self):
        return len(self.ts)

    @property
    def positions(self) -> np.ndarray:
        return np.column_stack([self.xs, self.ys])


@dataclass(frozen=True)
class Telemetry:
    """Comfort-relevant series aligned with a Trajectory."""

    ts: np.ndarray
    lat_acc: np.ndarray
    yaw_rate: np.ndarray
    lat_jerk: np.ndarray
    arrival_index: int  # first sample at the goal, len(ts) if never arrived


@dataclass(frozen=True)
class BoatTrialResult:
    mode: str
    strategy: str | None
    g: int | None
    trajectories: tuple
    telemetry: tuple
    encounters: tuple


def _orient_pair(agents, i, j):
    """Proponent is the west-side agent; same-side ties go to the lower id."""
    a, b = agents[i], agents[j]
    if a.side != b.side:
        return (i, j) if a.side == WEST else (j, i)
    return (i, j) if i < j else (j, i)


def resolve_encounter(world: World, i: int, j: int, strategy, g, mode: str,
                      xc, t: float | None = None) -> Encounter:
    """Settle right of way for a pair that comes into sensor range at ``t``.

    The ruling does not depend on ``t``: the referee is deterministic and a
    random dialogue is seeded by (world seed, pair, strategy, g).
    """
    cfg = world.config
    pr_agent, op_agent = _orient_pair(world.agents, i, j)
    d_pr = world.agents[pr_agent].description
    d_op = world.agents[op_agent].description
    if mode == OBJECTIVE:
        winner_role = objective_outcome(d_pr, d_op, xc)
        z = 0
        termination = "objective"
    else:
        rng = None
        if strategy == "random":
            rng = random.Random(
                derive_seed(world.seed, "dlg", pr_agent, op_agent, strategy, g)
            )
        res = run_dispute(d_pr, d_op, xc, strategy, g, rng=rng)
        winner_role = res.winner
        z = res.spent[PR] + res.spent[OP]
        termination = res.termination
    winner = pr_agent if winner_role == PR else op_agent
    loser = op_agent if winner_role == PR else pr_agent
    yielding = not (mode == SUBJECTIVE and termination == BUDGET_FORCED)
    return Encounter(
        first=min(i, j),
        second=max(i, j),
        pr_agent=pr_agent,
        op_agent=op_agent,
        winner=winner,
        loser=loser,
        termination=termination,
        z=z,
        r_act=activation_radius(z, g, cfg.r_max, cfg.r_crit),
        t_trigger=t,
        yielding=yielding,
    )


def run_boat_trial(world: World, strategy, g, mode: str) -> BoatTrialResult:
    """Simulate one full crossing and return per-agent histories.

    Every pair is ruled before the first tick.  The tick loop reads a
    ruling only through its course entry (winner, loser, activation
    radius, yielding), so variants with the same course share one
    simulation, and with it the read-only arrays of their results.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if mode != OBJECTIVE:
        if strategy not in STRATEGIES:
            raise InputError(f"unknown strategy {strategy!r}")
        if g is None or g < 0:
            raise InputError("dialogue modes need a non-negative budget")
    xc = expand(builtin_boat_culture())
    rulings = [
        resolve_encounter(world, i, j, strategy, g, mode, xc)
        for i, j in combinations(range(world.config.n_agents), 2)
    ]
    course = tuple((r.winner, r.loser, r.r_act, r.yielding) for r in rulings)
    try:
        trajectories, telemetry, times = _sail(world, course)
    except SimulationFault as exc:
        raise SimulationFault(f"{exc} (seed {world.seed}, mode {mode})") from None
    return BoatTrialResult(
        mode=mode,
        strategy=None if mode == OBJECTIVE else strategy,
        g=None if mode == OBJECTIVE else g,
        trajectories=trajectories,
        telemetry=telemetry,
        encounters=tuple(
            replace(rulings[k], t_trigger=t_trigger, t_field_on=t_field_on)
            for k, t_trigger, t_field_on in times
        ),
    )


@functools.lru_cache(maxsize=1)
def _sail(world: World, course: tuple):
    """Run the tick loop of one world under per-pair rulings.

    ``course[k]`` is (winner, loser, r_act, yielding) for the k-th pair of
    ``combinations(range(n), 2)``.  Returns the trajectories, the telemetry
    and (k, t_trigger, t_field_on) for every pair that met, in pair order.
    The one cached entry serves the next variant with an equal course; a
    fault is raised, never cached.

    The course becomes ``(n, n)`` pair tables: ``r_on`` (activation radius),
    ``beats[winner, loser]`` and ``yields_to[loser, winner]`` (1.0 where the
    loser yields).  Encounter state is symmetric masks and tick stamps:
    ``met``/``met_tick`` (came into sensor range), ``waiting`` (met, field
    not yet on) and ``on``/``on_tick`` (field on).
    """
    cfg = world.config
    n = cfg.n_agents
    pairs = list(combinations(range(n), 2))
    dt = cfg.tick
    max_ticks = int(round(cfg.max_time / dt)) + 1

    # The state lives in one (6, n) block whose rows are the working
    # arrays, so recording a tick is a single row write.  x and y, and
    # every (x, y) quantity below, share one array so that both components
    # go through each numpy call together.
    state = np.zeros((6, n))
    pos = state[:2]
    xs, ys, headings, speeds, yaw_rates, lat = state
    rec = np.empty((max_ticks, 6, n))
    pos[:] = [[a.start[k] for a in world.agents] for k in (0, 1)]
    goal = np.array([[a.goal[k] for a in world.agents] for k in (0, 1)])
    to_goal = goal - pos
    headings[:] = np.arctan2(to_goal[1], to_goal[0])
    goal_dist = np.hypot(to_goal[0], to_goal[1])
    arrived = np.zeros(n, dtype=bool)
    n_arrived = 0
    moored = np.zeros((n, n), dtype=bool)  # pairs with a moored boat
    throttle = np.ones(n)
    arrival_tick = np.full(n, -1, dtype=int)

    # per-tick work arrays, reused in place
    delta = np.empty((2, n, n))  # [component, agent, other]: agent - other
    d = np.empty((n, n))
    d_diag = d.reshape(-1)[::n + 1]
    far = np.zeros((n, n), dtype=bool)
    was_far = np.zeros((n, n), dtype=bool)
    entered = np.empty((n, n), dtype=bool)
    # unit vector u to (u_x - beta u_y, u_y + beta u_x): the field bends
    # toward starboard
    beta = cfg.starboard_bias
    swirl = np.array([-beta, beta])[:, None, None]

    first, second = np.array(pairs).T
    winner, loser, r_act, yielding = (np.array(c) for c in zip(*course))
    r_on = np.zeros((n, n))
    r_on[first, second] = r_on[second, first] = r_act
    beats = np.zeros((n, n), dtype=bool)
    beats[winner, loser] = True
    yields_to = np.zeros((n, n))
    yields_to[loser, winner] = yielding

    # armed = on & beats: the winner's side of each pair whose field is on
    met, waiting, on, armed = np.zeros((4, n, n), dtype=bool)
    met_tick, on_tick = np.zeros((2, n, n), dtype=int)
    n_waiting = n_on = 0
    # [agent, repulsor]: 1.0 where the agent yields to the repulsor
    avoid_perm = np.zeros((n, n))
    yields = False  # whether avoid_perm holds any pair
    eps = 1e-9
    ticks_done = 0

    for tick in range(max_ticks):
        rec[tick] = state
        ticks_done = tick + 1
        if n_arrived == n:
            break

        np.subtract(pos[:, :, None], pos[:, None, :], out=delta)
        np.hypot(delta[0], delta[1], out=d)
        d_diag[:] = np.inf
        if n_arrived:
            # moored boats neither trigger encounters nor exert fields
            d[moored] = np.inf

        # A pair enters sensor range when it was beyond r_max last tick and
        # is not now.  (A NaN distance reads as in range here, but a NaN
        # state always ends the trial in SimulationFault.)
        np.greater(d, cfg.r_max, out=far)
        np.greater(was_far, far, out=entered)
        was_far, far = far, was_far
        if np.count_nonzero(entered):
            entered &= ~met
            met |= entered
            met_tick[entered] = tick
            waiting |= entered
            n_waiting = np.count_nonzero(waiting)

        if n_waiting:
            hit = (d <= r_on) & waiting
            if np.count_nonzero(hit):
                waiting &= ~hit
                n_waiting = np.count_nonzero(waiting)
                on |= hit
                n_on = np.count_nonzero(on)
                on_tick[hit] = tick
                np.logical_and(on, beats, out=armed)
                avoid_perm[hit] = yields_to[hit]
                yields = bool(avoid_perm.any())

        avoid = avoid_perm
        if n_on:
            # collision reflex: the winner diverts too; a non-yielding
            # loser keeps ignoring its opponent outright
            crit = (d < cfg.r_crit) & armed
            if np.count_nonzero(crit):
                avoid = avoid_perm + crit

        desired = cfg.goal_weight * to_goal
        desired /= np.maximum(goal_dist, eps)
        if yields or avoid is not avoid_perm:
            inv = np.maximum(d, cfg.distance_floor)
            np.divide(1.0, inv, out=inv)
            mag = inv - 1.0 / cfg.r_max
            np.maximum(mag, 0.0, out=mag)
            mag *= cfg.k_repulsion
            mag *= avoid
            unit = delta * inv
            push = unit[::-1] * swirl
            push += unit
            push *= mag
            desired += np.add.reduce(push, axis=2)

        # heading error wrapped to (-pi, pi]; step_arrays clamps the command
        yaw_cmd = np.arctan2(desired[1], desired[0])
        yaw_cmd -= headings
        np.subtract(np.pi, yaw_cmd, out=yaw_cmd)
        np.mod(yaw_cmd, 2.0 * np.pi, out=yaw_cmd)
        np.subtract(np.pi, yaw_cmd, out=yaw_cmd)
        yaw_cmd *= cfg.heading_gain
        if n_arrived:
            yaw_cmd[arrived] = 0.0

        step_arrays(xs, ys, headings, speeds, yaw_rates, throttle, yaw_cmd,
                    cfg.physics, dt)
        if n_arrived:
            speeds[arrived] = 0.0
            yaw_rates[arrived] = 0.0

        np.subtract(goal, pos, out=to_goal)
        np.hypot(to_goal[0], to_goal[1], out=goal_dist)
        newly = np.greater(goal_dist <= cfg.goal_tolerance, arrived)
        if np.count_nonzero(newly):
            arrived |= newly
            n_arrived = np.count_nonzero(arrived)
            np.logical_or(arrived[:, None], arrived, out=moored)
            arrival_tick[newly] = tick + 1
            speeds[newly] = 0.0
            yaw_rates[newly] = 0.0
            throttle[newly] = 0.0
        np.multiply(speeds, yaw_rates, out=lat)

        if tick % _FINITE_CHECK_EVERY == 0 and not np.isfinite(pos).all():
            raise SimulationFault(f"non-finite state at t={tick * dt:.2f}s")

    T = ticks_done
    # (6, n, T): one contiguous series per recorded quantity and agent
    series = rec[:T].transpose(1, 2, 0).copy()
    series.setflags(write=False)  # shared by every variant with this course
    x_s, y_s, heading_s, speed_s, yaw_s, lat_s = series
    if not (np.isfinite(x_s).all() and np.isfinite(y_s).all()):
        raise SimulationFault("non-finite trajectory")
    jerk_s = np.zeros_like(lat_s)
    jerk_s[:, 1:] = np.diff(lat_s, axis=1) / dt
    jerk_s.setflags(write=False)
    ts = np.arange(T) * dt
    ts.setflags(write=False)  # shared by every agent's series
    trajectories = tuple(
        Trajectory(ts=ts, xs=x_s[i], ys=y_s[i], headings=heading_s[i],
                   speeds=speed_s[i])
        for i in range(n)
    )
    telemetry = tuple(
        Telemetry(
            ts=ts,
            lat_acc=lat_s[i],
            yaw_rate=yaw_s[i],
            lat_jerk=jerk_s[i],
            arrival_index=int(arrival_tick[i]) if arrival_tick[i] >= 0 else T,
        )
        for i in range(n)
    )
    times = tuple(
        (k, int(met_tick[i, j]) * dt, int(on_tick[i, j]) * dt if on[i, j] else None)
        for k, (i, j) in enumerate(pairs) if met[i, j]
    )
    return trajectories, telemetry, times
