"""Dispute legality, budgets, strategies and termination labels."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdial.culture import (
    Culture,
    CultureArgument,
    FeatureDescription,
    expand,
    generate_random_culture,
)
from fairdial.dialogue import BUDGET_FORCED, CONVINCED, STRATEGIES, run_dispute
from fairdial.errors import InputError
from fairdial import dialogue, fairness
from fairdial._util import derive_seed
from fairdial.fairness import budget_records, subjective_local_loss
from fairdial.randexp import TrialConfig, _population, trial_seeds
from reference_models import (
    DialogueState,
    affordable,
    choose,
    legal_rebuttals,
    reference_dispute,
)


def example_xc(x_costs=None):
    cul = Culture(
        args=(
            CultureArgument(0, "motion", True, 0),
            CultureArgument(1, "age", False, 1),
            CultureArgument(2, "health", False, 1),
        ),
        attacks=((1, 0), (2, 0), (2, 1)),
        x_costs=x_costs,
    )
    return expand(cul)


CRAFTED = (1, 1, 5, 2, 9, 9, 3, 6, 9, 9)


def random_pair(n_features, rng, lo=0, hi=9):
    mk = lambda: FeatureDescription(tuple(rng.randint(lo, hi) for _ in range(n_features)))
    return mk(), mk()


# ----------------------------------------------------------------- legality

def test_opening_rebuttals_are_the_motion_attackers():
    xc = example_xc()
    state = DialogueState(xc, FeatureDescription((2, 2)), FeatureDescription((1, 2)), None)
    with pytest.raises(InputError):
        legal_rebuttals(state)  # nothing uttered yet
    state.push(xc.hypothesis(0, "pr"))
    assert legal_rebuttals(state) == {3, 7}


def test_opening_must_be_proponent_owned():
    xc = example_xc()
    state = DialogueState(xc, FeatureDescription((2, 2)), FeatureDescription((1, 2)), None)
    with pytest.raises(InputError):
        state.push(xc.hypothesis(0, "op"))


def test_push_rejects_illegal_rebuttal():
    xc = example_xc()
    state = DialogueState(xc, FeatureDescription((2, 2)), FeatureDescription((1, 2)), None)
    state.push(0)
    with pytest.raises(InputError):
        state.push(2)  # age_H^pr does not attack the pr motion


def test_state_validation():
    xc = example_xc()
    with pytest.raises(InputError):
        DialogueState(xc, FeatureDescription((1,)), FeatureDescription((1, 2)), None)
    with pytest.raises(InputError):
        DialogueState(xc, FeatureDescription((1, 2)), FeatureDescription((1, 2)), -3)


def test_facts_unlock_only_after_adversary_disclosure():
    # pr age 2 beats op age 1, so age_F^pr (node 4) is true; it still may
    # not be uttered before op puts its age value on record
    xc = example_xc()
    state = DialogueState(xc, FeatureDescription((2, 2)), FeatureDescription((1, 2)), None)
    state.push(0)
    state.push(7)  # op rebuts with the health hypothesis, revealing health only
    assert 4 not in legal_rebuttals(state)
    state2 = DialogueState(xc, FeatureDescription((2, 2)), FeatureDescription((1, 2)), None)
    state2.push(0)
    state2.push(3)  # the age hypothesis instead: op age now on record
    assert 4 in legal_rebuttals(state2)


# ------------------------------------------------------------- affordability

def test_affordable_is_non_strict_at_the_boundary():
    xc = example_xc(CRAFTED)
    assert affordable({3, 7}, 2, xc) == {3}  # cost 2 fits budget 2 exactly
    assert affordable({3, 7}, 1, xc) == set()
    assert affordable({3, 7}, 6, xc) == {3, 7}
    assert affordable({3, 7}, None, xc) == {3, 7}
    with pytest.raises(InputError):
        affordable({3}, -1, xc)


# ----------------------------------------------------------------- strategies

def test_choose_examples():
    xc = example_xc(CRAFTED)
    assert choose("min_cost", {2, 3, 6}, xc) == 3   # costs 5, 2, 3
    assert choose("offensive", {2, 3, 6}, xc) == 6  # out-degrees 2, 2, 4
    assert choose("defensive", {2, 3, 6}, xc) == 6  # in-degrees 3, 3, 2
    assert choose("defensive", {2, 3}, xc) == 2     # tied score, lower id wins
    assert choose("random", {5}, xc, rng=random.Random(0)) == 5
    with pytest.raises(InputError):
        choose("random", {1, 2}, xc)
    with pytest.raises(InputError):
        choose("min_cost", set(), xc)
    with pytest.raises(InputError):
        choose("greedy", {1}, xc)


def test_choose_matches_exhaustive_scorer():
    rng = random.Random(9)
    for seed in range(25):
        cul = generate_random_culture(7, 15, (1, 20), seed)
        xc = expand(cul)
        out_deg = [0] * xc.n_x
        in_deg = [0] * xc.n_x
        for a, b in xc.x_attacks:
            out_deg[a] += 1
            in_deg[b] += 1
        pool = rng.sample(range(xc.n_x), rng.randint(1, xc.n_x))
        assert choose("min_cost", pool, xc) == min(
            pool, key=lambda x: (xc.x_args[x].cost, x))
        assert choose("offensive", pool, xc) == min(
            pool, key=lambda x: (-out_deg[x], x))
        assert choose("defensive", pool, xc) == min(
            pool, key=lambda x: (in_deg[x], x))


# ------------------------------------------------------------- full disputes

def test_min_cost_dispute_with_crafted_costs():
    # the older agent presses the motion home through the cheap hypotheses
    xc = example_xc(CRAFTED)
    res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                      xc, "min_cost", g=None)
    assert [m.x_arg for m in res.transcript] == [0, 3, 6]
    assert [m.player for m in res.transcript] == ["pr", "op", "pr"]
    assert [m.cost_charged for m in res.transcript] == [1, 2, 3]
    assert res.winner == "pr"
    assert res.termination == CONVINCED
    assert res.spent == {"pr": 4, "op": 2}
    assert subjective_local_loss(res) == 0


def test_offensive_and_defensive_prefer_the_health_line():
    xc = example_xc(CRAFTED)
    for strategy in ("offensive", "defensive"):
        res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                          xc, strategy, g=None)
        assert [m.x_arg for m in res.transcript] == [0, 7]
        assert res.winner == "op"
        assert res.termination == CONVINCED


def test_unaffordable_motion_forfeits_immediately():
    xc = example_xc(CRAFTED)
    res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                      xc, "min_cost", g=0)
    assert res.transcript == ()
    assert res.winner == "op"
    assert res.termination == BUDGET_FORCED
    assert res.spent == {"pr": 0, "op": 0}
    assert subjective_local_loss(res) == 1


def test_budget_forcing_at_exact_boundaries():
    xc = example_xc(CRAFTED)
    pr, op = FeatureDescription((2, 2)), FeatureDescription((1, 2))
    # g=1: op faces costs {2, 6} with 1 left
    res = run_dispute(pr, op, xc, "min_cost", g=1)
    assert [m.x_arg for m in res.transcript] == [0]
    assert res.winner == "pr" and res.termination == BUDGET_FORCED
    # g=2: op affords node 3 exactly, then pr faces costs {9, 3} with 1 left
    res = run_dispute(pr, op, xc, "min_cost", g=2)
    assert [m.x_arg for m in res.transcript] == [0, 3]
    assert res.winner == "op" and res.termination == BUDGET_FORCED
    assert res.spent == {"pr": 1, "op": 2}


def test_huge_costs_expand_and_play_like_small_ones():
    # the affordability table grows with the number of distinct costs, not
    # with the largest one, so costs of 10**12 expand and play at once
    unit = 10**12
    xc = example_xc(tuple(c * unit for c in CRAFTED))
    assert len(xc.aff) == len(set(CRAFTED)) + 1
    small = example_xc(CRAFTED)
    pr, op = FeatureDescription((2, 2)), FeatureDescription((1, 2))
    res = run_dispute(pr, op, xc, "min_cost", g=2 * unit)
    assert [m.x_arg for m in res.transcript] == [0, 3]
    assert res.spent == {"pr": unit, "op": 2 * unit}
    res = run_dispute(pr, op, xc, "min_cost", g=2 * unit - 1)
    assert [m.x_arg for m in res.transcript] == [0]
    for strategy in STRATEGIES:
        for g in (None, 0, unit - 1, unit, 3 * unit, 9 * unit, 10**15):
            got = run_dispute(pr, op, xc, strategy, g, rng=random.Random(4))
            assert got == reference_dispute(pr, op, xc, strategy, g,
                                            rng=random.Random(4))
            scaled = None if g is None else g // unit
            want = run_dispute(pr, op, small, strategy, scaled, rng=random.Random(4))
            assert ([m.x_arg for m in got.transcript], got.winner, got.termination) \
                == ([m.x_arg for m in want.transcript], want.winner, want.termination)


def test_zero_cost_motion_is_affordable_at_zero_budget():
    xc = example_xc()  # inherited costs: motion 0, features 1
    res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                      xc, "min_cost", g=0)
    assert [m.x_arg for m in res.transcript] == [0]
    assert res.termination == BUDGET_FORCED
    assert res.winner == "pr"


def test_run_dispute_rejects_unknown_strategy():
    xc = example_xc()
    with pytest.raises(InputError):
        run_dispute(FeatureDescription((1, 1)), FeatureDescription((1, 1)),
                    xc, "bold", g=None)


def test_deterministic_strategies_reproduce():
    rng = random.Random(3)
    for seed in range(10):
        cul = generate_random_culture(8, 18, (1, 20), seed)
        xc = expand(cul)
        pr, op = random_pair(7, rng)
        for strategy in ("min_cost", "offensive", "defensive"):
            a = run_dispute(pr, op, xc, strategy, g=25)
            b = run_dispute(pr, op, xc, strategy, g=25)
            assert a == b


def test_random_strategy_reproduces_under_the_same_seed():
    xc = expand(generate_random_culture(8, 18, (1, 20), 4))
    rng = random.Random(6)
    pr, op = random_pair(7, rng)
    a = run_dispute(pr, op, xc, "random", g=30, rng=random.Random(42))
    b = run_dispute(pr, op, xc, "random", g=30, rng=random.Random(42))
    assert a == b


def test_move_player_is_the_node_owner():
    """Transcripts share one Move per node; its player must be the owner."""
    xc, agents = _population(TrialConfig(seed=12))
    assert [m.player for m in xc.moves] == [a.owner for a in xc.x_args]
    for strategy in STRATEGIES:
        for g in (None, 0, 10, 25, 40):
            for k in range(1, len(agents)):
                res = run_dispute(agents[0], agents[k], xc, strategy, g,
                                  rng=random.Random(k))
                for i, move in enumerate(res.transcript):
                    assert move.player == xc.x_args[move.x_arg].owner
                    assert move.player == ("pr", "op")[i % 2]
                    assert move.cost_charged == xc.costs[move.x_arg]


# --------------------------------------------------- transcript-level checks

def replay_and_audit(xc, pr, op, g, res):
    """Re-walk a finished dispute move by move, checking every rule."""
    attacks = set(xc.x_attacks)
    descs = {"pr": pr, "op": op}
    seen = []
    spent = {"pr": 0, "op": 0}
    revealed = {"pr": set(), "op": set()}
    for i, move in enumerate(res.transcript):
        expected_player = "pr" if i % 2 == 0 else "op"
        assert move.player == expected_player
        arg = xc.x_args[move.x_arg]
        assert arg.owner == expected_player
        assert move.cost_charged == arg.cost
        if i == 0:
            assert arg.kind == "H" and arg.origin in xc.base.motion_ids
        else:
            prev = res.transcript[i - 1].x_arg
            assert (move.x_arg, prev) in attacks
        assert move.x_arg not in seen
        assert all((s, move.x_arg) not in attacks for s in seen)
        if arg.kind == "F":
            other = "op" if expected_player == "pr" else "pr"
            assert arg.feature_pos in revealed[other]
            mine = descs[expected_player].value(arg.feature_pos)
            theirs = descs[other].value(arg.feature_pos)
            assert mine > theirs
        if arg.feature_pos is not None and arg.feature_pos >= 0:
            revealed[expected_player].add(arg.feature_pos)
        seen.append(move.x_arg)
        spent[expected_player] += arg.cost
    assert spent == res.spent
    if g is not None:
        assert spent["pr"] <= g and spent["op"] <= g
    # the loser is whoever was due to move next
    if res.transcript:
        loser = "op" if res.transcript[-1].player == "pr" else "pr"
        assert res.winner != loser
        state = DialogueState(xc, pr, op, g)
        for move in res.transcript:
            state.push(move.x_arg)
        legal = legal_rebuttals(state)
        idx = 0 if loser == "pr" else 1
        pool = affordable(legal, state.remaining(idx), xc)
        assert not pool
        if res.termination == CONVINCED:
            assert not legal
        else:
            assert legal


def test_transcripts_obey_every_rule():
    rng = random.Random(17)
    for trial in range(60):
        n = rng.randint(3, 10)
        n_attacks = rng.randint(n - 1, n * (n - 1) // 2)
        cul = generate_random_culture(n, n_attacks, (1, 20), trial)
        xc = expand(cul)
        pr, op = random_pair(cul.n_args - 1, rng)
        g = rng.choice([None, 0, 5, 15, 30, 60])
        for strategy in STRATEGIES:
            res = run_dispute(pr, op, xc, strategy, g,
                              rng=random.Random(trial))
            replay_and_audit(xc, pr, op, g, res)


def test_unrestricted_disputes_always_end_convinced():
    rng = random.Random(23)
    for trial in range(40):
        n = rng.randint(3, 9)
        cul = generate_random_culture(n, rng.randint(n - 1, n * (n - 1) // 2),
                                      (1, 20), trial + 100)
        xc = expand(cul)
        pr, op = random_pair(cul.n_args - 1, rng)
        for strategy in STRATEGIES:
            res = run_dispute(pr, op, xc, strategy, None,
                              rng=random.Random(trial))
            assert res.termination == CONVINCED


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    g=st.one_of(st.none(), st.integers(min_value=0, max_value=80)),
    strategy=st.sampled_from(STRATEGIES),
)
def test_dispute_always_terminates_classified(seed, g, strategy):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    cul = generate_random_culture(n, rng.randint(n - 1, n * (n - 1) // 2),
                                  (1, 20), seed)
    xc = expand(cul)
    pr, op = random_pair(cul.n_args - 1, rng)
    res = run_dispute(pr, op, xc, strategy, g, rng=random.Random(seed + 1))
    assert res.termination in (CONVINCED, BUDGET_FORCED)
    assert res.winner in ("pr", "op")
    assert len({m.x_arg for m in res.transcript}) == len(res.transcript)


@st.composite
def disputes(draw, budget=st.one_of(st.none(), st.integers(min_value=0, max_value=80))):
    """A random culture, a pair of descriptions, a strategy and a budget."""
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n = draw(st.integers(min_value=2, max_value=9))
    n_attacks = draw(st.integers(min_value=n - 1, max_value=n * (n - 1) // 2))
    xc = expand(generate_random_culture(n, n_attacks, (1, 20), seed))
    values = st.integers(min_value=0, max_value=9)
    pr, op = (FeatureDescription(tuple(draw(values) for _ in range(n - 1)))
              for _ in range(2))
    strategy = draw(st.sampled_from(STRATEGIES))
    g = draw(budget)
    res = run_dispute(pr, op, xc, strategy, g, rng=random.Random(seed))
    return xc, pr, op, g, res


@settings(max_examples=60, deadline=None)
@given(disputes())
def test_property_each_move_attacks_the_last_and_is_legal(case):
    xc, pr, op, g, res = case
    attacks = set(xc.x_attacks)
    state = DialogueState(xc, pr, op, g)
    for i, move in enumerate(res.transcript):
        if i:
            assert (move.x_arg, res.transcript[i - 1].x_arg) in attacks
            assert move.x_arg in legal_rebuttals(state)
        state.push(move.x_arg)


@settings(max_examples=60, deadline=None)
@given(disputes(budget=st.integers(min_value=0, max_value=80)))
def test_property_no_player_outspends_the_budget(case):
    _, _, _, g, res = case
    assert res.spent["pr"] <= g and res.spent["op"] <= g
    for role in ("pr", "op"):
        charged = sum(m.cost_charged for m in res.transcript if m.player == role)
        assert charged == res.spent[role]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_a_budget_covering_every_cost_never_forces(data):
    xc, pr, op, _, _ = data.draw(disputes(budget=st.none()))
    g = xc.total_cost + data.draw(st.integers(min_value=0, max_value=5))
    for strategy in STRATEGIES:
        res = run_dispute(pr, op, xc, strategy, g, rng=random.Random(g))
        assert res.termination == CONVINCED


def test_budget_forcing_mostly_relaxes_with_budget():
    """Forced losses should broadly fade as g grows.

    Per-pair monotonicity does not hold in general: a looser budget can
    reroute a deterministic strategy into a line that later runs dry.  We
    flag pairs that regress and bound how common that is, and require the
    population rate to be monotone within slack.
    """
    rng = random.Random(31)
    grid = (0, 5, 10, 15, 20, 25, 30, 40)
    regressing = 0
    pairs = 0
    rates = {g: 0 for g in grid}
    for trial in range(50):
        cul = generate_random_culture(8, 18, (1, 20), trial + 500)
        xc = expand(cul)
        pr, op = random_pair(7, rng)
        for strategy in ("min_cost", "offensive", "defensive"):
            flags = []
            for g in grid:
                res = run_dispute(pr, op, xc, strategy, g)
                flags.append(subjective_local_loss(res))
                rates[g] += subjective_local_loss(res)
            pairs += 1
            if any(b > a for a, b in zip(flags, flags[1:])):
                regressing += 1
    assert regressing / pairs < 0.25, f"{regressing}/{pairs} pairs regress"
    series = [rates[g] / pairs for g in grid]
    assert all(b <= a + 0.05 for a, b in zip(series, series[1:])), series
    assert series[-1] < series[0]


# ------------------------------------------------- kernel vs reference model

def _outcome(res):
    return res.winner, res.transcript, res.spent, res.termination


class CountingRandom:
    """Stands in for the ``random`` module and counts seeded generators."""

    def __init__(self):
        self.seeds = []

    def Random(self, seed):
        self.seeds.append(seed)
        return random.Random(seed)


def test_kernel_replays_reference_on_headline_trials(monkeypatch):
    """Every dialogue of three headline trials, as the sweep plays them."""
    counter = CountingRandom()
    monkeypatch.setattr(fairness, "random", counter)
    for tseed in trial_seeds(61, 3):
        cfg = TrialConfig(seed=tseed)
        xc, agents = _population(cfg)
        motion_cost = xc.costs[xc.motion_node]
        assert min(cfg.budgets[:-1]) < motion_cost  # some dialogues cannot draw
        for strategy in STRATEGIES:
            counter.seeds.clear()
            drawn = []
            pairs = permutations(range(len(agents)), 2)
            for j, k, results in budget_records(agents, xc, strategy, cfg.budgets,
                                                tseed, pairs):
                for g, res in zip(cfg.budgets, results):
                    g_key = -1 if g is None else g
                    seed = derive_seed(tseed, "dlg", j, k, strategy, g_key)
                    rng = random.Random(seed) if strategy == "random" else None
                    want = reference_dispute(agents[j], agents[k], xc, strategy, g,
                                             rng=rng)
                    assert _outcome(res) == _outcome(want), (strategy, j, k, g)
                    if strategy == "random" and (g is None or g >= motion_cost):
                        drawn.append(seed)
            # a seeded generator for every random dialogue that can draw, and
            # for no other
            assert counter.seeds == drawn


def test_default_rng_only_for_dialogues_that_can_draw(monkeypatch):
    xc = example_xc(CRAFTED)  # motion costs 1
    pr, op = FeatureDescription((2, 2)), FeatureDescription((1, 2))
    counter = CountingRandom()
    monkeypatch.setattr(dialogue, "random", counter)
    res = run_dispute(pr, op, xc, "random", g=0)
    assert res.transcript == () and res.termination == BUDGET_FORCED
    assert counter.seeds == []
    res = run_dispute(pr, op, xc, "random", g=None)
    assert counter.seeds == [0]
    assert _outcome(res) == _outcome(
        reference_dispute(pr, op, xc, "random", None, rng=random.Random(0)))


def test_run_dispute_input_checks():
    xc = example_xc()
    pr, op = FeatureDescription((1, 2)), FeatureDescription((2, 1))
    with pytest.raises(InputError, match="non-negative"):
        run_dispute(pr, op, xc, "min_cost", -1)
    with pytest.raises(InputError, match="integer"):
        run_dispute(pr, op, xc, "random", 2.5)
    with pytest.raises(InputError, match="2 feature values"):
        run_dispute(FeatureDescription((1,)), op, xc, "random", None)
    with pytest.raises(InputError, match="2 feature values"):
        run_dispute(pr, FeatureDescription((1, 2, 3)), xc, "min_cost", 5)


@st.composite
def tied_cultures(draw):
    """Small cultures whose costs are 0..3: zero costs and many ties."""
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    n_attacks = draw(st.integers(min_value=n - 1, max_value=n * (n - 1) // 2))
    cul = generate_random_culture(n, n_attacks, (0, 0), seed)
    x_costs = tuple(draw(st.lists(st.integers(min_value=0, max_value=3),
                                  min_size=cul.expanded_size,
                                  max_size=cul.expanded_size)))
    cul = Culture(args=cul.args, attacks=cul.attacks, x_costs=x_costs)
    values = st.integers(min_value=0, max_value=3)  # tied feature values too
    pr, op = (FeatureDescription(tuple(draw(values) for _ in range(n - 1)))
              for _ in range(2))
    return expand(cul), pr, op


@settings(max_examples=150, deadline=None)
@given(case=tied_cultures(),
       g=st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
       strategy=st.sampled_from(STRATEGIES),
       seed=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)))
def test_property_kernel_matches_reference(case, g, strategy, seed):
    xc, pr, op = case
    rng = lambda: None if seed is None else random.Random(seed)
    got = run_dispute(pr, op, xc, strategy, g, rng=rng())
    want = reference_dispute(pr, op, xc, strategy, g, rng=rng())
    assert _outcome(got) == _outcome(want)
    masks = xc.true_fact_masks(pr, op)
    again = run_dispute(pr, op, xc, strategy, g, rng=rng(), true_facts=masks)
    assert _outcome(again) == _outcome(want)
