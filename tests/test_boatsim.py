"""Boat dynamics, parade setup, encounters and the trial harness."""

import dataclasses
import gc
import hashlib
import math
import random
import weakref
from itertools import combinations

import numpy as np
import pytest

import fairdial
from fairdial import boatsim
from fairdial import fairness as fairness_module
from fairdial._util import derive_seed
from fairdial.boatsim import harness as harness_module
from fairdial.boatsim import world as world_module
from fairdial.boatsim.harness import (
    BoatExperimentConfig,
    _run_one_trial,
    encounter_rows,
    run_boat_experiment,
    write_boat_encounters_csv,
    write_boat_summary_csv,
    write_trajectory_csv,
)
from fairdial.boatsim.metrics import (
    comfort_metrics,
    decimate_positions,
    global_trajectory_losses,
)
from fairdial.boatsim.physics import PhysicsParams, step_arrays
from fairdial.boatsim.world import (
    MAX_TICKS,
    BoatAgent,
    BoatTrialResult,
    Telemetry,
    Trajectory,
    World,
    WorldConfig,
    _orient_pair,
    activation_radius,
    init_parade,
    run_boat_trial,
    sail_variants,
)
from fairdial.culture import (
    OP,
    PR,
    FeatureDescription,
    builtin_boat_culture,
    expand,
    sample_boat_agent,
)
from fairdial.dialogue import BUDGET_FORCED, STRATEGIES, run_dispute
from fairdial.errors import InputError, SimulationFault
from reference_models import BoatState, step_physics, wrap_angle

TINY_WORLD = WorldConfig(arena_length=3000.0, n_agents=2, max_time=300.0)


# ------------------------------------------------------------------ physics

def test_step_physics_frozen_numbers():
    params = PhysicsParams()
    assert params.thrust_max == pytest.approx(15000.0)
    state = BoatState(x=0.0, y=0.0, heading=0.0, speed=10.0, yaw_rate=0.0, t=0.0)
    nxt = step_physics(state, (1.0, 0.2), params, 0.05)
    assert nxt.x == pytest.approx(0.5066662708333849, rel=1e-12)
    assert nxt.y == pytest.approx(0.0006333331684028896, rel=1e-12)
    assert nxt.heading == pytest.approx(0.00125, rel=1e-12)
    assert nxt.speed == pytest.approx(10.133333333333333, rel=1e-12)
    assert nxt.yaw_rate == pytest.approx(0.025, rel=1e-12)
    assert nxt.t == pytest.approx(0.05)


def test_speed_saturates_and_decays():
    params = PhysicsParams()
    at_top = BoatState(0, 0, 0, 30.0, 0.0, 0.0)
    assert step_physics(at_top, (1.0, 0.0), params, 0.05).speed == 30.0
    coasting = step_physics(at_top, (0.0, 0.0), params, 0.05)
    assert coasting.speed < 30.0
    stopped = BoatState(0, 0, 0, 0.0, 0.0, 0.0)
    assert step_physics(stopped, (0.0, 0.0), params, 0.05).speed == 0.0


def test_yaw_rate_is_clamped():
    params = PhysicsParams()
    state = BoatState(0, 0, 0, 10.0, 0.0, 0.0)
    for _ in range(200):
        state = step_physics(state, (1.0, 5.0), params, 0.05)
    assert state.yaw_rate <= params.yaw_rate_max + 1e-12


def test_step_physics_validation():
    params = PhysicsParams()
    state = BoatState(0, 0, 0, 10.0, 0.0, 0.0)
    with pytest.raises(InputError):
        step_physics(state, (1.5, 0.0), params, 0.05)
    with pytest.raises(InputError):
        step_physics(state, (-0.1, 0.0), params, 0.05)
    with pytest.raises(InputError):
        step_physics(state, (1.0, 0.0), params, 0.0)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)  # range is (-pi, pi]
    assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(2 * math.pi) == pytest.approx(0.0)
    for k in range(-8, 9):
        a = 0.3 + k * 2 * math.pi
        assert wrap_angle(a) == pytest.approx(0.3, abs=1e-9)


def test_step_arrays_matches_scalar_stepper():
    rng = np.random.default_rng(0)
    params = PhysicsParams()
    n = 40
    xs = rng.uniform(-100, 100, n)
    ys = rng.uniform(-100, 100, n)
    headings = rng.uniform(-np.pi, np.pi, n)
    speeds = rng.uniform(0, 30, n)
    yaw_rates = rng.uniform(-0.4, 0.4, n)
    throttle = rng.uniform(0, 1, n)
    yaw_cmd = rng.uniform(-1, 1, n)
    expected = [
        step_physics(
            BoatState(xs[i], ys[i], headings[i], speeds[i], yaw_rates[i], 0.0),
            (throttle[i], yaw_cmd[i]), params, 0.05,
        )
        for i in range(n)
    ]
    step_arrays(xs, ys, headings, speeds, yaw_rates, throttle, yaw_cmd,
                params, 0.05)
    for i, e in enumerate(expected):
        assert xs[i] == pytest.approx(e.x, rel=1e-12)
        assert ys[i] == pytest.approx(e.y, rel=1e-12)
        assert headings[i] == pytest.approx(e.heading, rel=1e-12)
        assert speeds[i] == pytest.approx(e.speed, rel=1e-12)
        assert yaw_rates[i] == pytest.approx(e.yaw_rate, rel=1e-12)


def _step_arrays_with_clip(xs, ys, headings, speeds, yaw_rates, throttle,
                           yaw_cmd, params, dt):
    """Reference for step_arrays: the same update written with np.clip."""
    accel = (throttle * params.thrust_max - params.drag * speeds**2) / params.mass
    np.clip(speeds + accel * dt, 0.0, params.top_speed, out=speeds)
    cmd = np.clip(yaw_cmd, -params.yaw_rate_max, params.yaw_rate_max)
    yaw_rates += (cmd - yaw_rates) * (dt / params.yaw_tau)
    np.clip(yaw_rates, -params.yaw_rate_max, params.yaw_rate_max, out=yaw_rates)
    headings += yaw_rates * dt
    headings[:] = np.pi - np.mod(np.pi - headings, 2.0 * np.pi)
    xs += speeds * np.cos(headings) * dt
    ys += speeds * np.sin(headings) * dt


def test_step_arrays_matches_clip_reference_bit_for_bit():
    rng = np.random.default_rng(1)
    params = PhysicsParams()
    n = 64
    # signed zeros, values at the clamps and far beyond them
    speeds = rng.choice([0.0, -0.0, 30.0, 29.999, 1e-300], n)
    yaw_rates = rng.choice([0.0, -0.0, 0.4, -0.4, 0.39, -5.0], n)
    yaw_cmd = rng.choice([0.0, -0.0, 0.4, -0.4, 7.0, -7.0, 0.1], n)
    # a throttle of -0.0 on a speed of -0.0 ties the 0.0 clamp with -0.0
    throttle = rng.choice([0.0, -0.0, 1.0, 0.5], n)
    state = [rng.uniform(-1e4, 1e4, n), rng.uniform(-1e4, 1e4, n),
             rng.uniform(-4.0, 4.0, n), speeds, yaw_rates]
    want = [a.copy() for a in state]
    for _ in range(30):
        step_arrays(*state, throttle, yaw_cmd, params, 0.05)
        _step_arrays_with_clip(*want, throttle, yaw_cmd, params, 0.05)
        for got, ref in zip(state, want):
            assert got.tobytes() == ref.tobytes()


# ------------------------------------------------------------------ radius

def test_activation_radius_endpoints_and_midpoint():
    assert activation_radius(0, 30) == 1000.0
    assert activation_radius(60, 30) == 100.0
    assert activation_radius(30, 30) == 550.0
    assert activation_radius(0, None) == 1000.0  # free rulings need no budget
    assert activation_radius(10, 10, r_max=500.0, r_crit=50.0) == 275.0


def test_activation_radius_validation():
    with pytest.raises(InputError):
        activation_radius(-1, 30)
    with pytest.raises(InputError):
        activation_radius(61, 30)
    with pytest.raises(InputError):
        activation_radius(5, None)
    with pytest.raises(InputError):
        activation_radius(5, 0)


# ------------------------------------------------------------------ parade

def test_world_config_validation():
    with pytest.raises(InputError):
        WorldConfig(n_agents=5)
    with pytest.raises(InputError):
        WorldConfig(n_agents=0)
    with pytest.raises(InputError):
        WorldConfig(r_crit=1000.0, r_max=1000.0)
    with pytest.raises(InputError):
        WorldConfig(n_agents="x")
    with pytest.raises(InputError):
        WorldConfig(n_agents=4.0)
    with pytest.raises(InputError):
        WorldConfig(tick=-1)
    with pytest.raises(InputError):
        WorldConfig(max_time=float("nan"))
    with pytest.raises(InputError, match="ticks"):
        WorldConfig(tick=1e-6)  # 1.5e9 ticks of preallocated trajectory
    with pytest.raises(InputError, match="ticks"):
        WorldConfig(tick=5e-324)  # max_time / tick overflows to inf
    WorldConfig(max_time=MAX_TICKS * 0.25, tick=0.25)
    with pytest.raises(InputError, match="ticks"):
        WorldConfig(max_time=(MAX_TICKS + 1) * 0.25, tick=0.25)
    with pytest.raises(InputError):
        PhysicsParams(yaw_tau=0)
    with pytest.raises(InputError):
        PhysicsParams(top_speed="fast")


def test_init_parade_layout():
    cfg = WorldConfig()
    world = init_parade(3, cfg)
    assert len(world.agents) == 16
    west = [a for a in world.agents if a.side == "west"]
    east = [a for a in world.agents if a.side == "east"]
    assert len(west) == len(east) == 8
    for a in west:
        assert a.goal[0] == cfg.arena_length and a.start[0] < cfg.arena_length / 2
    for a in east:
        assert a.goal[0] == 0.0 and a.start[0] > cfg.arena_length / 2
    for agents in (west, east):
        xs = sorted(a.start[0] for a in agents)
        gaps = [b - a for a, b in zip(xs, xs[1:])]
        assert all(g >= cfg.min_start_gap for g in gaps)
        assert all(g <= cfg.min_start_gap + cfg.extra_start_gap for g in gaps)
    mid = cfg.arena_width / 2
    for a in world.agents:
        assert abs(a.start[1] - mid) <= cfg.y_band
        assert abs(a.goal[1] - mid) <= cfg.y_band
        assert len(a.description) == 13


def test_init_parade_deterministic():
    a = init_parade(5)
    b = init_parade(5)
    assert a == b
    assert init_parade(6) != a


# --------------------------------------------------------------- encounters

def _mk_agent(agent_id, side):
    return BoatAgent(agent_id=agent_id, side=side, start=(0, 0), goal=(1, 1),
                     description=sample_boat_agent(agent_id))


def test_pair_orientation_rules():
    agents = (
        _mk_agent(0, "west"), _mk_agent(1, "east"),
        _mk_agent(2, "east"), _mk_agent(3, "west"),
    )
    assert _orient_pair(agents, 0, 1) == (0, 1)  # west agent proposes
    assert _orient_pair(agents, 1, 0) == (0, 1)
    assert _orient_pair(agents, 2, 3) == (3, 2)
    assert _orient_pair(agents, 1, 2) == (1, 2)  # same side: lower id proposes
    assert _orient_pair(agents, 2, 1) == (1, 2)
    assert _orient_pair(agents, 3, 0) == (0, 3)


# a default 16-boat world: 120 pairs, ruled at a tight and the default budget
RULED_WORLD = init_parade(1000, WorldConfig())
RULED_BUDGETS = (5, 30)


def test_rulings_replay_each_pair_dispute_alone():
    # Each pair's ruling is the dispute a ruling once played on its own: the
    # pair's oriented descriptions and a generator seeded by (world seed,
    # pair, strategy, g), whether or not the strategy draws from it.
    world = RULED_WORLD
    xc = expand(builtin_boat_culture())
    rulings = world_module._rule(world, [
        ("nominal", s, g) for s in STRATEGIES for g in RULED_BUDGETS])
    terminations = set()
    for (_, strategy, g), encounters in rulings.items():
        assert [(e.first, e.second) for e in encounters] == list(
            combinations(range(16), 2))
        for e in encounters:
            pr, op = _orient_pair(world.agents, e.first, e.second)
            res = run_dispute(
                world.agents[pr].description, world.agents[op].description,
                xc, strategy, g,
                rng=random.Random(
                    derive_seed(world.seed, "dlg", pr, op, strategy, g)))
            assert (e.pr_agent, e.op_agent) == (pr, op)
            assert (e.winner, e.z, e.termination) == (
                pr if res.winner == PR else op,
                res.spent[PR] + res.spent[OP],
                res.termination,
            ), (strategy, g, pr, op)
            terminations.add(e.termination)
    assert terminations == {"budget_forced", "convinced"}


def test_nominal_and_subjective_rulings_differ_only_in_yielding():
    rulings = world_module._rule(RULED_WORLD, [
        (mode, s, g) for s in STRATEGIES for g in RULED_BUDGETS
        for mode in ("nominal", "subjective")])
    refused = 0
    for s in STRATEGIES:
        for g in RULED_BUDGETS:
            nominal = rulings["nominal", s, g]
            subjective = rulings["subjective", s, g]
            assert all(e.yielding for e in nominal)
            for nom, sub in zip(nominal, subjective, strict=True):
                assert sub.yielding == (sub.termination != BUDGET_FORCED)
                assert dataclasses.replace(sub, yielding=True) == nom
                refused += not sub.yielding
    assert refused


def test_public_names_resolve():
    for package in (fairdial, boatsim):
        missing = [n for n in package.__all__ if not hasattr(package, n)]
        assert not missing, (package.__name__, missing)


def test_objective_trial_two_boats():
    world = init_parade(7, TINY_WORLD)
    res = run_boat_trial(world, None, None, "objective")
    assert res.mode == "objective"
    assert len(res.encounters) == 1
    enc = res.encounters[0]
    # the west boat proposes, rulings are free and fields engage at r_max
    assert enc.pr_agent == 0 and enc.op_agent == 1
    assert enc.z == 0
    assert enc.r_act == 1000.0
    assert enc.termination == "objective"
    assert enc.yielding
    assert {enc.winner, enc.loser} == {0, 1}
    t0, t1 = res.trajectories
    tel = res.telemetry
    assert all(m.arrival_index < len(t.ts) for m, t in zip(tel, res.trajectories))
    both = min(m.arrival_index for m in tel)
    d = np.hypot(t0.xs[:both] - t1.xs[:both], t0.ys[:both] - t1.ys[:both])
    assert d.min() > 100.0  # no collision-reflex breach in the referee world


def test_thresholds_at_exact_distances():
    # A pair meets, and a free ruling's field switches on, at d <= r_max;
    # the reflex acts only at d < r_crit.  Each threshold is set to a
    # distance the approaching pair of world 7 reaches exactly at one tick.
    base = run_boat_trial(init_parade(7, TINY_WORLD), None, None, "objective")
    t0, t1 = base.trajectories
    d = np.hypot(t0.xs - t1.xs, t0.ys - t1.ys)  # the tick loop's distances
    k = int(np.argmax(d < 1500.0))  # before the pair meets at 1000 m
    j = int(np.argmax(d < 500.0))  # field on, reflex not yet
    assert (d[:k] > d[k]).all() and (d[:j] > d[j]).all()
    world = init_parade(7, dataclasses.replace(TINY_WORLD, r_max=float(d[k])))
    (enc,) = run_boat_trial(world, None, None, "objective").encounters
    assert enc.t_trigger == enc.t_field_on == k * TINY_WORLD.tick
    world = init_parade(7, dataclasses.replace(TINY_WORLD, r_crit=float(d[j])))
    reflex = run_boat_trial(world, None, None, "objective")

    def yaw(res):
        return np.array([te.yaw_rate[:j + 3] for te in res.telemetry])

    # tick j + 1, the first inside r_crit, steers; tick j + 2 records it
    assert np.flatnonzero((yaw(base) != yaw(reflex)).any(axis=0))[0] == j + 2


def test_pair_in_range_at_the_start_meets_on_the_first_tick():
    # the boats start 937 m apart, inside r_max: they meet at t = 0, and
    # the loser's field keeps them outside the collision-reflex radius
    cfg = dataclasses.replace(TINY_WORLD, arena_length=900.0)
    world = init_parade(7, cfg)
    for mode, strategy, g in (("objective", None, None),
                              ("nominal", "min_cost", 30)):
        res = run_boat_trial(world, strategy, g, mode)
        (enc,) = res.encounters
        assert enc.t_trigger == 0.0
        t0, t1 = res.trajectories
        assert np.hypot(t0.xs - t1.xs, t0.ys - t1.ys).min() > cfg.r_crit


def test_nominal_trial_records_spend():
    world = init_parade(7, TINY_WORLD)
    res = run_boat_trial(world, "min_cost", 30, "nominal")
    assert len(res.encounters) == 1
    enc = res.encounters[0]
    assert enc.z == 48
    assert enc.r_act == pytest.approx(280.0)
    assert enc.termination == "budget_forced"
    assert enc.yielding  # nominal mode always respects the ruling


def test_subjective_trial_ignores_forced_rulings():
    world = init_parade(7, TINY_WORLD)
    nominal = run_boat_trial(world, "min_cost", 30, "nominal")
    subjective = run_boat_trial(world, "min_cost", 30, "subjective")
    enc = subjective.encounters[0]
    assert enc.termination == "budget_forced"
    assert not enc.yielding
    # refusing to yield must change the loser's path
    loser = enc.loser
    a = nominal.trajectories[loser]
    b = subjective.trajectories[loser]
    m = min(len(a.xs), len(b.xs))
    assert not np.allclose(a.xs[:m], b.xs[:m])


def test_trials_are_deterministic():
    world = init_parade(7, TINY_WORLD)
    for mode, strategy, g in (("objective", None, None),
                              ("nominal", "random", 30),
                              ("subjective", "offensive", 20)):
        r1 = run_boat_trial(world, strategy, g, mode)
        r2 = run_boat_trial(world, strategy, g, mode)
        for a, b in zip(r1.trajectories, r2.trajectories):
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        assert len(r1.encounters) == len(r2.encounters)


# sha256 over every variant of a 6-boat world (seed 3): the objective run,
# then nominal and subjective under each strategy at g=30.  It covers every
# trajectory and telemetry series, arrival index and encounter, so a
# rework of the tick loop must reproduce them bit for bit.
GOLDEN_WORLD = WorldConfig(arena_length=6000.0, n_agents=6, max_time=600.0)
GOLDEN_DIGEST = "439285942ea969c95624254667c4b22cf9f570ef4cebd556138ea0809b09725e"


def _variant_digest(results):
    h = hashlib.sha256()
    for res in results:
        for tr, te in zip(res.trajectories, res.telemetry):
            for a in (tr.ts, tr.xs, tr.ys, tr.headings, tr.speeds,
                      te.ts, te.lat_acc, te.yaw_rate, te.lat_jerk):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
            h.update(str(te.arrival_index).encode())
        for e in res.encounters:
            h.update(repr(dataclasses.astuple(e)).encode())
    return h.hexdigest()


# the harness's order: the referee world, then nominal and subjective per
# strategy; sail_variants takes (strategy, g, mode) triples
HARNESS_ORDER = [("objective", None, None)] + [
    (mode, strategy, 30)
    for strategy in STRATEGIES for mode in ("nominal", "subjective")
]


def _triples(variants):
    return [(s, g, mode) for mode, s, g in variants]


@pytest.fixture
def batches(monkeypatch):
    """The number of courses in each batch that ``_sail`` steps."""
    sizes = []
    sail = world_module._sail

    def counted(world, courses):
        sizes.append(len(courses))
        return sail(world, courses)

    monkeypatch.setattr(world_module, "_sail", counted)
    return sizes


@pytest.mark.parametrize("order", ["harness", "reversed", "uncached"])
def test_shared_simulations_match_the_golden_digest(order, batches):
    world = init_parade(3, GOLDEN_WORLD)
    variants = HARNESS_ORDER[::-1] if order == "reversed" else HARNESS_ORDER
    if order != "uncached":
        world = sail_variants(world, _triples(variants))
    results = {
        (mode, strategy): run_boat_trial(world, strategy, g, mode)
        for mode, strategy, g in variants
    }
    # the golden world's 9 variants have 6 distinct courses
    assert batches == ([1] * 9 if order == "uncached" else [6])
    # the world exercises forced rulings, refusals and the collision reflex
    encounters = [e for r in results.values() for e in r.encounters]
    assert ({"objective", "budget_forced", "convinced"}
            <= {e.termination for e in encounters})
    assert any(not e.yielding for e in encounters)
    digest_order = [("objective", None)] + [
        (mode, strategy)
        for mode in ("nominal", "subjective") for strategy in STRATEGIES
    ]
    assert _variant_digest([results[key] for key in digest_order]) == GOLDEN_DIGEST


def test_consecutive_variants_match_fresh_runs(batches):
    # World 9's one pair: the referee and a zero budget differ only in the
    # winner, offensive at g=30 and g=40 only in r_act, and min_cost's
    # nominal and subjective worlds only in yielding.
    world = init_parade(9, TINY_WORLD)
    variants = [("objective", None, None), ("nominal", "min_cost", 0),
                ("nominal", "offensive", 30), ("nominal", "offensive", 40),
                ("nominal", "min_cost", 30), ("subjective", "min_cost", 30)]
    sailed = sail_variants(world, _triples(variants))
    in_a_row = [run_boat_trial(sailed, s, g, mode) for mode, s, g in variants]
    assert batches == [len(variants)]
    for res, (mode, s, g) in zip(in_a_row, variants):
        fresh = run_boat_trial(world, s, g, mode)
        assert _variant_digest([res]) == _variant_digest([fresh])
    assert batches == [len(variants)] + [1] * len(variants)


def test_default_trial_sails_six_courses(batches, monkeypatch):
    # Rulings, and so courses, do not depend on the time cap: a short
    # max_time keeps the default world's 120 pairs and their rulings.
    cfg = BoatExperimentConfig(g=30, n_trials=1,
                               world=WorldConfig(max_time=2.0))
    served = []
    worlds = []
    trial = harness_module.run_boat_trial

    def spy(world, strategy, g, mode):
        served.append(world_module._variant(strategy, g, mode) in world.sailed)
        if not worlds or worlds[-1]() is not world:
            worlds.append(weakref.ref(world))
        return trial(world, strategy, g, mode)

    monkeypatch.setattr(harness_module, "run_boat_trial", spy)
    disputes, expansions = [], []
    dispute, expand_culture = fairness_module.run_dispute, world_module.expand

    def played(*args, **kwargs):
        disputes.append(args[3:5])
        return dispute(*args, **kwargs)

    def expanded(culture):
        expansions.append(culture)
        return expand_culture(culture)

    monkeypatch.setattr(fairness_module, "run_dispute", played)
    monkeypatch.setattr(world_module, "expand", expanded)
    _run_one_trial((cfg, 0))
    # each strategy's 120 pairs are played once, for nominal and
    # subjective alike, from one expansion of the boat culture
    assert len(expansions) == 1
    assert sorted(set(disputes)) == sorted((s, 30) for s in STRATEGIES)
    assert len(disputes) == 4 * 120
    assert batches == [6]  # one batch of 6 courses
    assert served == [True] * 9  # every variant came from the table
    assert len(worlds) == 1  # all 9 calls were served by one sailed world
    gc.collect()
    assert worlds[0]() is None  # and no sailed world outlives its trial


def test_shared_results_are_read_only(batches):
    world = sail_variants(init_parade(7, TINY_WORLD),
                          [("offensive", 30, "nominal"),
                           ("offensive", 30, "subjective"),
                           (None, None, "objective")])
    nominal = run_boat_trial(world, "offensive", 30, "nominal")
    subjective = run_boat_trial(world, "offensive", 30, "subjective")
    objective = run_boat_trial(world, None, None, "objective")
    assert batches == [2]
    assert subjective.trajectories[0].xs is nominal.trajectories[0].xs
    # the courses of a batch are views of one recording buffer
    assert not np.array_equal(objective.trajectories[0].xs,
                              nominal.trajectories[0].xs)
    assert objective.trajectories[0].xs.base is nominal.trajectories[1].xs.base
    # each variant keeps its own encounters
    assert subjective.encounters[0] is not nominal.encounters[0]
    assert subjective.encounters == nominal.encounters
    tr, te = subjective.trajectories[0], subjective.telemetry[0]
    for series in (tr.ts, tr.xs, tr.ys, tr.headings, tr.speeds,
                   te.lat_acc, te.yaw_rate, te.lat_jerk):
        with pytest.raises(ValueError):
            series[0] = 1.0


def test_simulation_fault_names_each_variant(monkeypatch, batches):
    step = world_module.step_arrays

    def poisoned(xs, *args):
        step(xs, *args)
        xs[0] = np.nan

    monkeypatch.setattr(world_module, "step_arrays", poisoned)
    # nominal and subjective offensive share a course; its fault is stored
    # once, and each variant raises it naming its own mode
    world = sail_variants(init_parade(7, TINY_WORLD),
                          [("offensive", 30, "nominal"),
                           ("offensive", 30, "subjective")])
    faults = [outcome for _, outcome in world.sailed.values()]
    assert len(faults) == 2 and faults[0] is faults[1]
    assert isinstance(faults[0], SimulationFault)
    for mode in ("nominal", "subjective"):
        with pytest.raises(SimulationFault) as info:
            run_boat_trial(world, "offensive", 30, mode)
        assert str(info.value) == (
            f"non-finite state at t=0.00s (seed 7, mode {mode})")
    assert batches == [1]  # one batch of one course, and no re-sail


def test_fault_after_the_last_periodic_check(monkeypatch):
    # 601 ticks, each stepped: the state is checked at ticks 0 and 400, so
    # a NaN written by the 450th step is caught only by the check of the
    # recorded series
    step = world_module.step_arrays
    steps = []

    def poisoned(xs, *args):
        step(xs, *args)
        steps.append(True)
        if len(steps) == 450:
            xs[0] = np.nan

    monkeypatch.setattr(world_module, "step_arrays", poisoned)
    world = init_parade(7, dataclasses.replace(TINY_WORLD, max_time=30.0))
    with pytest.raises(SimulationFault) as info:
        run_boat_trial(world, None, None, "objective")
    assert str(info.value) == "non-finite trajectory (seed 7, mode objective)"
    assert len(steps) == 601


def _no_boat_arrives(results):
    return all(te.arrival_index == len(te.ts)
               for res in results for te in res.telemetry)


def _courses_retire_apart(results):
    # every boat arrives, and each distinct course (results of one course
    # share their arrays) ends at a tick of its own
    courses = {id(res.trajectories[0].xs): res for res in results}
    ticks = {len(res.trajectories[0]) for res in courses.values()}
    arrived = all(te.arrival_index < len(te.ts)
                  for res in results for te in res.telemetry)
    return arrived and len(ticks) == len(courses) > 1


def _a_course_ends_on_the_final_tick(results):
    # The golden world capped at 4,230 ticks: the nominal random course's
    # last boat arrives in the final step, which no recorded tick follows,
    # so that course, like the two that never arrive, runs all 4,230 ticks;
    # three courses end before the cap.
    courses = {id(res.trajectories[0].xs): res for res in results}
    ticks = sorted(len(res.trajectories[0]) for res in courses.values())
    final = next(res for res in results
                 if res.mode == "nominal" and res.strategy == "random")
    return (ticks[:3] < [4230] * 3 and ticks[3:] == [4230] * 3
            and all(len(tr.xs) == len(tr.ts) == 4230
                    for tr in final.trajectories)
            and max(te.arrival_index for te in final.telemetry) == 4230)


LOCKSTEP_WORLDS = {
    "golden": (init_parade(3, GOLDEN_WORLD), HARNESS_ORDER, None),
    "retiring": (
        init_parade(7, GOLDEN_WORLD),
        [(mode, s, 15 if s else None) for mode, s, _ in HARNESS_ORDER],
        _courses_retire_apart,
    ),
    "capped": (
        init_parade(3, dataclasses.replace(GOLDEN_WORLD, max_time=100.0)),
        HARNESS_ORDER,
        _no_boat_arrives,
    ),
    "final_tick": (
        init_parade(3, dataclasses.replace(GOLDEN_WORLD, max_time=211.45)),
        HARNESS_ORDER,
        _a_course_ends_on_the_final_tick,
    ),
    # no goal pull: every heading demand is a signed zero until a field
    # acts, so a course must not take another course's force
    "goal_weight_0": (
        init_parade(7, dataclasses.replace(TINY_WORLD, goal_weight=0.0)),
        HARNESS_ORDER,
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_WORLDS))
def test_lockstep_matches_each_course_alone(name, batches):
    world, variants, shape = LOCKSTEP_WORLDS[name]
    sailed = sail_variants(world, _triples(variants))
    batched = [run_boat_trial(sailed, s, g, mode) for mode, s, g in variants]
    assert len(batches) == 1 and batches[0] > 1
    alone = [run_boat_trial(world, s, g, mode) for mode, s, g in variants]
    assert len(batches) == 1 + len(variants)
    for a, b in zip(batched, alone):
        assert _variant_digest([a]) == _variant_digest([b])
    assert shape is None or shape(batched)


def test_poisoned_course_leaves_the_others_bit_identical(monkeypatch, batches):
    world = init_parade(3, GOLDEN_WORLD)
    variants = _triples(HARNESS_ORDER)
    alone = {v: _variant_digest([run_boat_trial(world, *v)]) for v in variants}
    keys = {v: world_module._variant(*v) for v in variants}
    rulings = world_module._rule(world, keys.values())
    courses = {v: world_module._course(rulings[keys[v]]) for v in variants}
    step = world_module.step_arrays
    spent = []

    def poisoned(xs, *args):
        step(xs, *args)
        if not spent:  # the batch's first tick: poison its second course
            spent.append(True)
            xs[1] = np.nan

    monkeypatch.setattr(world_module, "step_arrays", poisoned)
    del batches[:]
    sailed = sail_variants(world, variants)
    assert batches == [6]
    second = list(dict.fromkeys(courses.values()))[1]
    faulted = [v for v in variants if courses[v] == second]
    assert faulted
    for v in variants:
        if v in faulted:
            with pytest.raises(SimulationFault) as info:
                run_boat_trial(sailed, *v)
            assert str(info.value) == (
                f"non-finite state at t=0.00s (seed 3, mode {v[2]})")
        else:
            assert _variant_digest([run_boat_trial(sailed, *v)]) == alone[v]
    assert batches == [6]  # every variant, faulted or not, came from the batch


def test_run_boat_trial_validation():
    world = init_parade(7, TINY_WORLD)
    with pytest.raises(InputError):
        run_boat_trial(world, "min_cost", 30, "oracle")
    with pytest.raises(InputError):
        run_boat_trial(world, "bold", 30, "nominal")
    with pytest.raises(InputError):
        run_boat_trial(world, "min_cost", None, "nominal")
    with pytest.raises(InputError):
        run_boat_trial(world, "min_cost", -1, "nominal")


# ----------------------------------------------------------------- metrics

def _flat_series(n, dt=0.05, speed=30.0):
    ts = np.arange(n) * dt
    traj = Trajectory(ts=ts, xs=ts * speed, ys=np.zeros(n),
                      headings=np.zeros(n), speeds=np.full(n, speed))
    return ts, traj


def test_comfort_metrics_on_synthetic_series():
    n = 101
    ts, traj = _flat_series(n)
    lat = np.full(n, 2.0)
    tel = Telemetry(ts=ts, lat_acc=lat, yaw_rate=np.full(n, 0.1),
                    lat_jerk=np.zeros(n), arrival_index=n)
    m = comfort_metrics(tel, traj)
    assert m.lat_acc_auc == pytest.approx(2.0 * ts[-1])
    assert m.yaw_rate_auc == pytest.approx(0.1 * ts[-1])
    assert m.lat_jerk_auc == 0.0
    # the window ends at arrival
    tel_half = Telemetry(ts=ts, lat_acc=lat, yaw_rate=np.zeros(n),
                         lat_jerk=np.zeros(n), arrival_index=51)
    assert comfort_metrics(tel_half, traj).lat_acc_auc == pytest.approx(2.0 * ts[50])


def test_comfort_metrics_skips_launch_phase():
    n = 100
    ts = np.arange(n) * 0.05
    speeds = np.concatenate([np.linspace(0, 30, 50), np.full(50, 30.0)])
    traj = Trajectory(ts=ts, xs=np.cumsum(speeds) * 0.05, ys=np.zeros(n),
                      headings=np.zeros(n), speeds=speeds)
    tel = Telemetry(ts=ts, lat_acc=np.ones(n), yaw_rate=np.zeros(n),
                    lat_jerk=np.zeros(n), arrival_index=n)
    m = comfort_metrics(tel, traj)
    # first cruise sample is where speed reaches 0.95 * 30
    start = int(np.nonzero(speeds >= 28.5)[0][0])
    assert m.lat_acc_auc == pytest.approx(ts[-1] - ts[start])
    # a boat that never cruises contributes nothing
    slow = Trajectory(ts=ts, xs=traj.xs, ys=traj.ys, headings=traj.headings,
                      speeds=np.full(n, 5.0))
    assert comfort_metrics(tel, slow).lat_acc_auc == 0.0


def test_comfort_metrics_validation():
    ts, traj = _flat_series(10)
    tel = Telemetry(ts=ts[:5], lat_acc=np.zeros(5), yaw_rate=np.zeros(5),
                    lat_jerk=np.zeros(5), arrival_index=5)
    with pytest.raises(InputError):
        comfort_metrics(tel, traj)


def test_decimate_positions():
    _, traj = _flat_series(101)
    pts = decimate_positions(traj)  # samples 0, 20, ..., 100, the last
    assert len(pts) == 6
    assert pts[-1][0] == pytest.approx(traj.xs[-1])
    _, traj = _flat_series(102)
    pts = decimate_positions(traj)
    assert len(pts) == 7  # plus the forced endpoint
    assert pts[-1][0] == pytest.approx(traj.xs[-1])


def _result_from(trajs):
    n = len(trajs[0].ts)
    tel = Telemetry(ts=trajs[0].ts, lat_acc=np.zeros(n), yaw_rate=np.zeros(n),
                    lat_jerk=np.zeros(n), arrival_index=n)
    return BoatTrialResult(mode="nominal", strategy="min_cost", g=30,
                           trajectories=tuple(trajs), telemetry=(tel,) * len(trajs),
                           encounters=())


def test_global_trajectory_losses():
    _, base = _flat_series(101)
    shifted = Trajectory(ts=base.ts, xs=base.xs, ys=base.ys + 7.0,
                         headings=base.headings, speeds=base.speeds)
    nominal = _result_from([base])
    subjective = _result_from([shifted])
    objective = _result_from([base])
    losses = global_trajectory_losses(nominal, subjective, objective)
    assert losses.omega == (0.0,)
    assert losses.omega_p == (7.0,)
    assert losses.gap == (7.0,)  # subjective vs objective by default
    literal = global_trajectory_losses(nominal, subjective, objective,
                                       literal_gap=True)
    assert literal.gap == (7.0,)
    assert losses.mean_omega == 0.0 and losses.mean_omega_p == 7.0
    with pytest.raises(InputError):
        global_trajectory_losses(nominal, subjective, _result_from([base, base]))


def test_literal_gap_reuses_the_nominal_subjective_comparison():
    world = init_parade(7, TINY_WORLD)
    objective = run_boat_trial(world, None, None, "objective")
    for strategy in ("min_cost", "offensive"):
        nominal = run_boat_trial(world, strategy, 30, "nominal")
        subjective = run_boat_trial(world, strategy, 30, "subjective")
        default = global_trajectory_losses(nominal, subjective, objective)
        literal = global_trajectory_losses(nominal, subjective, objective,
                                           literal_gap=True)
        assert literal.omega == default.omega
        assert literal.omega_p == default.omega_p
        assert literal.gap == literal.omega_p
        forced = any(e.termination == "budget_forced" for e in nominal.encounters)
        # refusing to yield only happens after a budget-forced ruling
        assert (max(default.omega_p) > 0.0) == forced


# ----------------------------------------------------------------- harness

def test_boat_experiment_tiny_run(tmp_path, monkeypatch):
    cfg = BoatExperimentConfig(
        seed=1, strategies=("min_cost",), g=30, n_trials=2, world=TINY_WORLD)
    worlds = []
    sail = harness_module.sail_variants

    def kept(world, variants):
        sailed = sail(world, variants)
        worlds.append(weakref.ref(sailed))
        return sailed

    monkeypatch.setattr(harness_module, "sail_variants", kept)
    summaries = run_boat_experiment(cfg)
    gc.collect()
    assert len(worlds) == 2  # one sailed world per trial
    assert all(w() is None for w in worlds)  # no world outlives the run
    assert len(summaries) == 2
    for s in summaries:
        assert s.strategy == "min_cost"
        assert len(s.losses.omega) == 2
        assert len(s.comfort) == 2
        assert set(s.encounters) == {"nominal", "subjective", "objective"}
        for enc in s.encounters["objective"]:
            assert enc.z == 0
    again = run_boat_experiment(cfg)
    assert [s.losses for s in again] == [s.losses for s in summaries]

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_boat_summary_csv(summaries, p1)
    write_boat_summary_csv(summaries, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text(encoding="utf-8").splitlines()[0]
    assert header.split(",")[:4] == ["trial", "strategy", "agent", "omega"]
    write_boat_encounters_csv(encounter_rows(summaries), p1)
    lines = p1.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("trial,strategy,mode,first")
    assert len(lines) > 1


def test_parallel_experiment_matches_serial():
    cfg = BoatExperimentConfig(
        seed=2, strategies=("defensive",), g=30, n_trials=2, world=TINY_WORLD)
    serial = run_boat_experiment(cfg, jobs=1)
    parallel = run_boat_experiment(cfg, jobs=2)
    assert [s.losses for s in serial] == [s.losses for s in parallel]
    assert [s.budget_forced for s in serial] == [s.budget_forced for s in parallel]


def test_trajectory_csv(tmp_path):
    world = init_parade(7, TINY_WORLD)
    res = run_boat_trial(world, "min_cost", 30, "nominal")
    path = tmp_path / "traj.csv"
    write_trajectory_csv([(0, res)], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ("trial,mode,strategy,agent,t,x,y,heading,"
                        "speed,lat_acc,yaw_rate,lat_jerk")
    # every 20th tick of each of the two boats
    assert len(lines) == 1 + 2 * -(-len(res.trajectories[0]) // 20)


def test_experiment_config_validation():
    with pytest.raises(InputError):
        BoatExperimentConfig(strategies=("bold",))
    with pytest.raises(InputError):
        BoatExperimentConfig(n_trials=0)
    with pytest.raises(InputError):
        BoatExperimentConfig(g=-5)
