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
referee.  All modes share one physical world per trial seed; variants
whose per-pair rulings agree share one simulation of it, and the distinct
simulations of a world step together in one fixed batch.  The sailed
variants travel with the world: :func:`sail_variants` returns a copy of it
that carries their rulings and outcomes, and :func:`run_boat_trial` serves
from that copy.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field, fields, replace
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
from ..dialogue import BUDGET_FORCED, STRATEGIES
from ..errors import CapacityError, InputError, SimulationFault
from ..fairness import (MODES, NOMINAL, OBJECTIVE, SUBJECTIVE, budget_records,
                        objective_outcome)
from .physics import PhysicsParams, is_finite_real, step_arrays

WEST = "west"
EAST = "east"

_FINITE_CHECK_EVERY = 400  # ticks between non-finite state sweeps
# A batch of courses preallocates a (ticks x courses x 5 x boats) float array,
# so a config may ask for at most this many ticks (max_time / tick); the
# default is 30,000.
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
    # (strategy, g, mode) -> (rulings, outcome) of each variant sail_variants
    # stepped, in first-seen order; an outcome may be a SimulationFault
    sailed: dict = field(default_factory=dict, compare=False, repr=False)


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


def _variant(strategy, g, mode: str):
    """A variant's key in ``World.sailed``; objective mode drops strategy and g."""
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}")
    if mode == OBJECTIVE:
        return None, None, mode
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    if g is None or g < 0:
        raise InputError("dialogue modes need a non-negative budget")
    return strategy, g, mode


def _rule(world: World, keys) -> dict:
    """Each variant key's rulings, in ``combinations(range(n), 2)`` order.

    The referee rules objective variants.  The disputes of a dialogue
    variant are played once per (strategy, g), in each pair's
    :func:`_orient_pair` orientation, and its nominal and subjective keys
    share them: they differ only in ``yielding``, since a subjective loser
    refuses a budget-forced ruling.  No ruling depends on when its pair
    meets, so ``t_trigger`` is left None for the tick loop to stamp.
    """
    cfg = world.config
    pairs = [_orient_pair(world.agents, i, j)
             for i, j in combinations(range(cfg.n_agents), 2)]
    descs = [a.description for a in world.agents]
    xc = expand(builtin_boat_culture())
    played = {}  # (strategy, g) -> each pair's (winner role, z, termination)
    rulings = {}
    for strategy, g, mode in keys:
        if mode == OBJECTIVE:
            ends = [(objective_outcome(descs[pr], descs[op], xc), 0, "objective")
                    for pr, op in pairs]
        else:
            if (strategy, g) not in played:
                played[strategy, g] = [
                    (res.winner, res.spent[PR] + res.spent[OP], res.termination)
                    for _, _, (res,) in budget_records(
                        descs, xc, strategy, (g,), world.seed, pairs)
                ]
            ends = played[strategy, g]
        rulings[strategy, g, mode] = [
            Encounter(
                first=min(pr, op),
                second=max(pr, op),
                pr_agent=pr,
                op_agent=op,
                winner=pr if role == PR else op,
                loser=op if role == PR else pr,
                termination=termination,
                z=z,
                r_act=activation_radius(z, g, cfg.r_max, cfg.r_crit),
                t_trigger=None,
                yielding=not (mode == SUBJECTIVE and termination == BUDGET_FORCED),
            )
            for (pr, op), (role, z, termination) in zip(pairs, ends)
        ]
    return rulings


def _course(rulings) -> tuple:
    """What the tick loop reads of each ruling."""
    return tuple((r.winner, r.loser, r.r_act, r.yielding) for r in rulings)


def sail_variants(world: World, variants) -> World:
    """Rule ``(strategy, g, mode)`` variants and step their courses together.

    Each distinct course among the variants is sailed once, all of them in
    one lockstep batch.  Returns a copy of ``world`` whose ``sailed`` table
    holds, under each distinct :func:`_variant` key, its rulings and outcome
    (a ``SimulationFault`` for a course whose state turned non-finite);
    :func:`run_boat_trial` serves the variants from it without ruling or
    sailing them again.
    """
    ruled = _rule(world, dict.fromkeys(_variant(*v) for v in variants))
    course = {key: _course(rulings) for key, rulings in ruled.items()}
    courses = list(dict.fromkeys(course.values()))
    outcomes = dict(zip(courses, _sail(world, courses)))
    return replace(world, sailed={
        key: (rulings, outcomes[course[key]]) for key, rulings in ruled.items()
    })


def run_boat_trial(world: World, strategy, g, mode: str) -> BoatTrialResult:
    """Simulate one full crossing and return per-agent histories.

    Every pair is ruled before the first tick.  A variant that ``world``
    carries from :func:`sail_variants` is served from its table; any other
    is sailed here, as a batch of one.  Variants with the same course share
    their read-only trajectories.
    """
    key = _variant(strategy, g, mode)
    if key not in world.sailed:
        world = sail_variants(world, [(strategy, g, mode)])
    rulings, outcome = world.sailed[key]
    if isinstance(outcome, SimulationFault):
        raise SimulationFault(f"{outcome} (seed {world.seed}, mode {mode})")
    trajectories, series, arrival, times = outcome
    return BoatTrialResult(
        mode=mode,
        strategy=key[0],
        g=key[1],
        trajectories=trajectories,
        telemetry=_telemetry(series, trajectories[0].ts, arrival,
                             world.config.tick),
        encounters=tuple(
            replace(rulings[k], t_trigger=t_trigger, t_field_on=t_field_on)
            for k, t_trigger, t_field_on in times
        ),
    )


def _telemetry(series, ts, arrival, dt) -> tuple:
    """Per-agent comfort series of a course's recorded ``series``.

    Lateral acceleration is speed times yaw rate, and lateral jerk its
    finite difference.  They are built for each result rather than
    recorded, so a trial holds them only for the results still in use.
    """
    _, n, T = series.shape
    lat_s = np.empty((n, T))
    np.multiply(series[3], series[4], out=lat_s)
    jerk_s = np.zeros((n, T))
    np.subtract(lat_s[:, 1:], lat_s[:, :-1], out=jerk_s[:, 1:])
    jerk_s[:, 1:] /= dt
    lat_s.setflags(write=False)
    jerk_s.setflags(write=False)
    return tuple(
        Telemetry(ts=ts, lat_acc=lat_s[i], yaw_rate=series[4, i],
                  lat_jerk=jerk_s[i], arrival_index=arrival[i])
        for i in range(n)
    )


def _sail(world: World, courses) -> list:
    """Run the tick loop of one world under a batch of courses in lockstep.

    ``courses[v][k]`` is (winner, loser, r_act, yielding) for the k-th pair
    of ``combinations(range(n), 2)``.  Returns one outcome per course: its
    trajectories, its ``(5, n, T)`` series (x, y, heading, speed, yaw
    rate), each agent's arrival index and (k, t_trigger, t_field_on) for
    every pair that met, in pair order; or a ``SimulationFault`` if its
    state turned non-finite.

    Every per-course array has a leading batch axis, so one numpy call
    steps all courses.  A course becomes ``(n, n)`` pair tables: ``r_on``
    (activation radius), ``beats[winner, loser]`` and
    ``yields_to[loser, winner]`` (1.0 where the loser yields).  Encounter
    state is symmetric masks and tick stamps: ``met``/``met_tick`` (first
    tick within sensor range) and ``on``/``on_tick`` (field on, from the
    first tick within ``r_on``; as ``r_on <= r_max``, only a pair that has
    met can switch on).  A branch taken per course is a mask over the batch;
    the field force, in particular, is added only to the courses whose field
    or reflex acts, because adding another course's +-0 force would turn a
    -0.0 demand into +0.0.

    The batch is fixed: every course keeps its row until the loop ends, at
    the tick cap or once each course has arrived or been found non-finite.
    An arrived course idles with every boat moored, so it meets no one,
    feels no field and does not move.  Every tick is recorded into one
    tick-major ``(max_ticks, V, 5, n)`` buffer.  A course's series is a
    read-only transposed view of its first ``T = min(last arrival tick + 1,
    max_ticks)`` ticks, or of all ``max_ticks`` if a boat never arrived, so
    the results of a batch share that buffer.
    """
    cfg = world.config
    n = cfg.n_agents
    pairs = list(combinations(range(n), 2))
    dt = cfg.tick
    max_ticks = int(round(cfg.max_time / dt)) + 1
    V = len(courses)

    # Every course starts from one (5, n) block whose rows are the working
    # arrays, so recording a tick is a single write.  x and y, and every
    # (x, y) quantity below, share one array so that both components go
    # through each numpy call together.
    start = np.zeros((5, n))
    start[:2] = [[a.start[k] for a in world.agents] for k in (0, 1)]
    goal = np.array([[a.goal[k] for a in world.agents] for k in (0, 1)])
    to_goal = goal - start[:2]
    start[2] = np.arctan2(to_goal[1], to_goal[0])
    goal_dist = np.hypot(to_goal[0], to_goal[1])
    state, to_goal, goal_dist = (
        np.repeat(a[None], V, axis=0) for a in (start, to_goal, goal_dist)
    )
    try:
        rec = np.empty((max_ticks, V, 5, n))
    except MemoryError:
        raise CapacityError(
            f"recording {V} courses of {n} boats over {max_ticks} ticks needs"
            f" {max_ticks * V * 5 * n * 8 / 2**30:.2f} GiB, more than this"
            f" host could allocate"
        ) from None
    arrived = np.zeros((V, n), dtype=bool)
    # pairs with a moored boat, and each boat paired with itself
    moored = np.tile(np.eye(n, dtype=bool), (V, 1, 1))
    throttle = np.ones((V, n))
    arrival_tick = np.full((V, n), -1, dtype=int)
    # unit vector u to (u_x - beta u_y, u_y + beta u_x): the field bends
    # toward starboard
    beta = cfg.starboard_bias
    swirl = np.array([-beta, beta])[:, None, None]

    first, second = np.array(pairs).T
    ruled = np.array(courses, dtype=float)  # (V, pairs, 4)
    winner, loser = ruled[:, :, :2].astype(int).transpose(2, 0, 1)
    r_act, yielding = ruled[:, :, 2], ruled[:, :, 3]
    v = np.arange(V)[:, None]
    r_on = np.zeros((V, n, n))
    r_on[v, first, second] = r_on[v, second, first] = r_act
    beats = np.zeros((V, n, n), dtype=bool)
    beats[v, winner, loser] = True
    yields_to = np.zeros((V, n, n))
    yields_to[v, loser, winner] = yielding

    # armed = on & beats: the winner's side of each pair whose field is on
    met, on, armed = np.zeros((3, V, n, n), dtype=bool)
    met_tick, on_tick = np.zeros((2, V, n, n), dtype=int)
    # [course, agent, repulsor]: 1.0 where the agent yields to the repulsor
    avoid_perm = np.zeros((V, n, n))
    yields = np.zeros(V, dtype=bool)  # whether a course's avoid_perm holds any pair
    eps = 1e-9
    done = np.zeros(V, dtype=bool)  # every boat arrived, or state non-finite
    ended = False  # every course is done
    fault_tick = np.full(V, -1)  # tick whose check found a course non-finite

    pos = state[:, :2]
    xs, ys, headings, speeds, yaw_rates = state.swapaxes(0, 1)
    # [course, component, agent, other]: agent - other
    delta = np.empty((V, 2, n, n))
    d = np.empty((V, n, n))
    near, entered = np.empty((2, V, n, n), dtype=bool)
    n_on = 0
    any_yields = False

    for tick in range(max_ticks):
        rec[tick] = state
        if ended:
            break

        np.subtract(pos[:, :, :, None], pos[:, :, None, :], out=delta)
        np.hypot(delta[:, 0], delta[:, 1], out=d)
        # moored boats neither trigger encounters nor exert fields
        d[moored] = np.inf

        # A pair meets on the first tick it is within sensor range.
        np.less_equal(d, cfg.r_max, out=near)
        np.greater(near, met, out=entered)
        if np.count_nonzero(entered):
            met |= entered
            met_tick[entered] = tick

        hit = (d <= r_on) & ~on
        if np.count_nonzero(hit):
            on |= hit
            n_on = np.count_nonzero(on)
            on_tick[hit] = tick
            np.logical_and(on, beats, out=armed)
            avoid_perm[hit] = yields_to[hit]
            np.any(avoid_perm, axis=(1, 2), out=yields)
            any_yields = bool(yields.any())

        avoid = avoid_perm
        acts = yields  # the courses whose field or reflex acts this tick
        if n_on:
            # collision reflex: the winner diverts too; a non-yielding
            # loser keeps ignoring its opponent outright
            crit = (d < cfg.r_crit) & armed
            if np.count_nonzero(crit):
                avoid = avoid_perm + crit
                acts = yields | crit.any(axis=(1, 2))

        desired = cfg.goal_weight * to_goal
        desired /= np.maximum(goal_dist, eps)[:, None]
        if any_yields or avoid is not avoid_perm:
            inv = np.maximum(d, cfg.distance_floor)
            np.divide(1.0, inv, out=inv)
            mag = inv - 1.0 / cfg.r_max
            np.maximum(mag, 0.0, out=mag)
            mag *= cfg.k_repulsion
            mag *= avoid
            unit = delta * inv[:, None]
            push = unit[:, ::-1] * swirl
            push += unit
            push *= mag[:, None]
            np.add(desired, np.add.reduce(push, axis=3), out=desired,
                   where=acts[:, None, None])

        # heading error wrapped to (-pi, pi]; step_arrays clamps the command
        yaw_cmd = np.arctan2(desired[:, 1], desired[:, 0])
        yaw_cmd -= headings
        np.subtract(np.pi, yaw_cmd, out=yaw_cmd)
        np.mod(yaw_cmd, 2.0 * np.pi, out=yaw_cmd)
        np.subtract(np.pi, yaw_cmd, out=yaw_cmd)
        yaw_cmd *= cfg.heading_gain
        yaw_cmd[arrived] = 0.0

        step_arrays(xs, ys, headings, speeds, yaw_rates, throttle, yaw_cmd,
                    cfg.physics, dt)

        np.subtract(goal, pos, out=to_goal)
        np.hypot(to_goal[:, 0], to_goal[:, 1], out=goal_dist)
        newly = np.greater(goal_dist <= cfg.goal_tolerance, arrived)
        if np.count_nonzero(newly):
            arrived |= newly
            moored |= arrived[:, :, None] | arrived[:, None, :]
            arrival_tick[newly] = tick + 1
            speeds[newly] = 0.0
            yaw_rates[newly] = 0.0
            throttle[newly] = 0.0
            done |= arrived.all(axis=1)
            ended = bool(done.all())

        if tick % _FINITE_CHECK_EVERY == 0:
            bad = ~np.isfinite(pos).all(axis=(1, 2)) & ~done
            if bad.any():
                fault_tick[bad] = tick
                done |= bad
                ended = bool(done.all())

    outcomes = []
    for v in range(V):
        if fault_tick[v] >= 0:
            outcomes.append(SimulationFault(
                f"non-finite state at t={int(fault_tick[v]) * dt:.2f}s"))
            continue
        T = (min(int(arrival_tick[v].max()) + 1, max_ticks)
             if arrived[v].all() else max_ticks)
        series = rec[:T, v].transpose(1, 2, 0)  # (5, n, T), no copy
        series.setflags(write=False)  # shared by every variant with this course
        x_s, y_s, heading_s, speed_s, _ = series
        if not (np.isfinite(x_s).all() and np.isfinite(y_s).all()):
            outcomes.append(SimulationFault("non-finite trajectory"))
            continue
        ts = np.arange(T) * dt
        ts.setflags(write=False)  # shared by every agent's series
        trajectories = tuple(
            Trajectory(ts=ts, xs=x_s[i], ys=y_s[i], headings=heading_s[i],
                       speeds=speed_s[i])
            for i in range(n)
        )
        arrival = tuple(int(t) if t >= 0 else T for t in arrival_tick[v])
        times = tuple(
            (k, int(met_tick[v, i, j]) * dt,
             int(on_tick[v, i, j]) * dt if on[v, i, j] else None)
            for k, (i, j) in enumerate(pairs) if met[v, i, j]
        )
        outcomes.append((trajectories, series, arrival, times))
    return outcomes
