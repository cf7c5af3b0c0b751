"""Referee rulings, precedence digraphs and distortion scores."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from fairdial._util import derive_seed, extend_seed, seed_prefix
from fairdial.culture import (
    Culture,
    CultureArgument,
    FeatureDescription,
    expand,
    generate_random_culture,
)
from fairdial.dialogue import STRATEGIES, run_dispute
from fairdial.errors import InputError
from fairdial.fairness import (
    OutcomeMatrix,
    PrecedenceGraph,
    budget_records,
    dag_dissimilarity,
    dispute_records,
    global_losses,
    ground_truth_matrix,
    objective_local_loss,
    objective_outcome,
    pair_census,
    precedence_graph,
    result_matrix,
    subjective_local_loss,
    theorem1_check,
)
from fairdial.randexp import TrialConfig, _population
from reference_models import reference_arcs, reference_census, reference_dissimilarity


def example_xc():
    return expand(Culture(
        args=(
            CultureArgument(0, "motion", True, 0),
            CultureArgument(1, "age", False, 1),
            CultureArgument(2, "health", False, 1),
        ),
        attacks=((1, 0), (2, 0), (2, 1)),
    ))


def random_agents(n, n_features, rng, hi=9):
    return [
        FeatureDescription(tuple(rng.randint(0, hi) for _ in range(n_features)))
        for _ in range(n)
    ]


# --------------------------------------------------------------- referee

def test_objective_outcomes_frozen():
    xc = example_xc()
    belle = FeatureDescription((1, 2))
    cadence = FeatureDescription((2, 1))
    # health outranks age in this culture, so the healthier agent prevails
    assert objective_outcome(belle, cadence, xc) == "pr"
    assert objective_outcome(cadence, belle, xc) == "op"
    # a tie on every feature silences all facts and the motion falls
    assert objective_outcome(belle, belle, xc) == "op"
    assert objective_outcome(
        FeatureDescription((9, 9)), FeatureDescription((1, 1)), xc) == "pr"


def test_ground_truth_matrix_layout():
    xc = example_xc()
    agents = [FeatureDescription((1, 2)), FeatureDescription((2, 1)),
              FeatureDescription((1, 2))]
    gt = ground_truth_matrix(agents, xc)
    assert gt.n_agents == 3
    assert gt.winner(0, 1) == "pr"
    assert gt.winner(1, 0) == "op"
    assert gt.winner(0, 2) == "op"  # identical agents, motion falls
    for j, k in ((1, 1), (0, 3), (-1, 0)):
        with pytest.raises(InputError):
            gt.winner(j, k)
    with pytest.raises(InputError):
        gt.mismatches(OutcomeMatrix((0, 0)))


def test_local_losses():
    assert objective_local_loss("pr", "pr") == 0
    assert objective_local_loss("pr", "op") == 1
    xc = example_xc()
    from fairdial.dialogue import run_dispute
    res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                      xc, "min_cost", g=None)
    assert subjective_local_loss(res) == 0
    res = run_dispute(FeatureDescription((2, 2)), FeatureDescription((1, 2)),
                      xc, "min_cost", g=1)
    assert subjective_local_loss(res) == 1


# ------------------------------------------------------------- precedence

def test_precedence_requires_winning_both_orderings():
    m = OutcomeMatrix(pr_wins=(0b110, 0b100, 0b001))
    # 0 beats 1 home and away; 0 vs 2: both win at home -> no arc;
    # 1 vs 2: agent 1 wins both orderings
    g = precedence_graph(m)
    assert g.arcs == {(0, 1), (1, 2)}


def _random_rows(n, rng):
    density = rng.choice((0.1, 0.5, 0.9))
    return [sum(1 << k for k in range(n) if k != j and rng.random() < density)
            for j in range(n)]


def _rulings(rows):
    n = len(rows)
    return {(j, k): "pr" if rows[j] >> k & 1 else "op"
            for j, k in permutations(range(n), 2)}


def test_bit_rows_match_arc_set_reference():
    rng = random.Random(29)
    for n in range(2, 18):
        for _ in range(12):
            rows_a = _random_rows(n, rng)
            # flipping few rulings keeps arcs agreeing, flipping most reverses them
            rows_b = [a ^ f for a, f in zip(rows_a, _random_rows(n, rng))]
            ma, mb = OutcomeMatrix(tuple(rows_a)), OutcomeMatrix(tuple(rows_b))
            ra, rb = _rulings(rows_a), _rulings(rows_b)
            assert all(ma.winner(j, k) == ra[j, k] for j, k in ra)
            assert ma.mismatches(mb) == sum(ra[p] != rb[p] for p in ra)
            arcs_a, arcs_b = reference_arcs(n, ra), reference_arcs(n, rb)
            ga, gb = precedence_graph(ma), precedence_graph(mb)
            assert ga.arcs == arcs_a and gb.arcs == arcs_b
            assert pair_census(ga, gb) == reference_census(n, arcs_a, arcs_b)
            assert dag_dissimilarity(ga, gb) == reference_dissimilarity(
                n, arcs_a, arcs_b)
            j = rng.randrange(n)
            for bad in (1 << j, 1 << rng.randint(n, n + 3), -1 << n):
                broken = list(rows_a)
                broken[j] |= bad
                with pytest.raises(InputError):
                    OutcomeMatrix(tuple(broken))


def test_precedence_graph_validation():
    with pytest.raises(InputError):
        PrecedenceGraph(n_agents=3, arcs=frozenset({(0, 1), (1, 0)}))
    with pytest.raises(InputError):
        PrecedenceGraph(n_agents=2, arcs=frozenset({(0, 2)}))
    with pytest.raises(InputError):
        PrecedenceGraph(n_agents=2, arcs=frozenset({(1, 1)}))


def test_pair_census_frozen_cases():
    g1 = PrecedenceGraph(3, frozenset({(0, 1), (1, 2)}))
    g2 = PrecedenceGraph(3, frozenset({(1, 0), (1, 2)}))
    assert pair_census(g1, g2) == (1, 0, 1, 1)
    assert dag_dissimilarity(g1, g2) == Fraction(4, 3)

    g3 = PrecedenceGraph(3, frozenset({(0, 1)}))
    g4 = PrecedenceGraph(3, frozenset({(1, 0)}))
    assert pair_census(g3, g4) == (1, 0, 2, 0)
    assert dag_dissimilarity(g3, g4) == Fraction(5, 3)

    # joint absence always costs 1/3 per pair, even between identical graphs
    assert dag_dissimilarity(g1, g1) == Fraction(1, 3)
    full = PrecedenceGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
    assert dag_dissimilarity(full, full) == 0
    empty = PrecedenceGraph(3, frozenset())
    assert dag_dissimilarity(empty, empty) == 1  # 3 jointly absent pairs at 1/3


def test_pair_census_partitions_all_pairs():
    rng = random.Random(8)
    for n in (2, 4, 7, 10):
        for _ in range(20):
            def draw():
                arcs = set()
                for j in range(n):
                    for k in range(j + 1, n):
                        roll = rng.random()
                        if roll < 0.3:
                            arcs.add((j, k))
                        elif roll < 0.6:
                            arcs.add((k, j))
                return PrecedenceGraph(n, frozenset(arcs))
            census = pair_census(draw(), draw())
            assert sum(census) == n * (n - 1) // 2
            assert all(c >= 0 for c in census)


def test_census_mismatched_vertex_sets():
    with pytest.raises(InputError):
        pair_census(PrecedenceGraph(2, frozenset()), PrecedenceGraph(3, frozenset()))


def test_dissimilarity_is_exact_rational_arithmetic():
    g1 = PrecedenceGraph(4, frozenset({(0, 1), (2, 3)}))
    g2 = PrecedenceGraph(4, frozenset({(1, 0), (0, 2)}))
    rev, one, absent, agree = pair_census(g1, g2)
    expected = Fraction(rev) + Fraction(2, 3) * one + Fraction(1, 3) * absent
    k = dag_dissimilarity(g1, g2)
    assert isinstance(k, Fraction)
    assert k == expected


def test_global_losses_normalisation():
    g1 = PrecedenceGraph(3, frozenset({(0, 1), (1, 2)}))
    g2 = PrecedenceGraph(3, frozenset({(1, 0), (1, 2)}))
    k_raw, k_norm = global_losses(g1, g2)
    assert k_raw == Fraction(4, 3)
    assert k_norm == Fraction(4, 9)
    with pytest.raises(InputError):
        global_losses(PrecedenceGraph(1, frozenset()), PrecedenceGraph(1, frozenset()))


def test_dissimilarity_bounds():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(2, 8)
        def draw():
            arcs = set()
            for j in range(n):
                for k in range(j + 1, n):
                    roll = rng.random()
                    if roll < 0.4:
                        arcs.add((j, k))
                    elif roll < 0.8:
                        arcs.add((k, j))
            return PrecedenceGraph(n, frozenset(arcs))
        _, k_norm = global_losses(draw(), draw())
        assert 0 <= k_norm <= 1


# ------------------------------------------------------------ matrices

def test_result_matrix_is_reproducible():
    xc = expand(generate_random_culture(6, 12, (1, 20), 3))
    rng = random.Random(5)
    agents = random_agents(4, 5, rng, hi=999)
    for strategy in ("min_cost", "random"):
        a = result_matrix(agents, xc, strategy, 20, seed=11)
        b = result_matrix(agents, xc, strategy, 20, seed=11)
        assert a == b
    a = result_matrix(agents, xc, "random", 20, seed=11)
    c = result_matrix(agents, xc, "random", 20, seed=12)
    assert a != c  # extremely unlikely to coincide over 12 disputes


def test_dispute_records_cover_all_ordered_pairs():
    xc = example_xc()
    rng = random.Random(1)
    agents = random_agents(4, 2, rng)
    seen = {(j, k) for j, k, _ in dispute_records(agents, xc, "min_cost", None, 0)}
    assert seen == {(j, k) for j in range(4) for k in range(4) if j != k}


def _fresh(agents, xc, strategy, j, k, g, seed):
    rng = None
    if strategy == "random":
        g_key = -1 if g is None else g
        rng = random.Random(derive_seed(seed, "dlg", j, k, strategy, g_key))
    return run_dispute(agents[j], agents[k], xc, strategy, g, rng=rng)


def _assert_budget_records_match_fresh(agents, xc, budgets, seed, pairs):
    for strategy in STRATEGIES:
        seen = []
        for j, k, results in budget_records(agents, xc, strategy, budgets, seed,
                                            iter(pairs)):
            assert len(results) == len(budgets)
            for g, res in zip(budgets, results):
                fresh = _fresh(agents, xc, strategy, j, k, g, seed)
                assert (res.winner, res.transcript, res.spent, res.termination) == (
                    fresh.winner, fresh.transcript, fresh.spent, fresh.termination
                ), (strategy, j, k, g)
            seen.append((j, k))
        assert seen == pairs  # exactly the pairs given, in their order


def test_budget_records_match_fresh_disputes_at_headline_scale():
    """Reused dialogues equal fresh ones at every sweep budget."""
    cfg = TrialConfig(seed=derive_seed(3, "trial", 0))
    xc, agents = _population(cfg)
    pairs = list(permutations(range(len(agents)), 2))
    _assert_budget_records_match_fresh(agents, xc, cfg.budgets, cfg.seed, pairs)


def test_seed_prefix_extends_to_derive_seed():
    budget_keys = [-1 if g is None else g for g in TrialConfig().budgets]
    assert -1 in budget_keys
    for strategy in STRATEGIES:
        for j, k in ((0, 1), (15, 3)):
            prefix = seed_prefix(2024, "dlg", j, k, strategy)
            for g_key in budget_keys * 2:  # extending leaves the prefix as it was
                assert extend_seed(prefix, g_key) == derive_seed(
                    2024, "dlg", j, k, strategy, g_key)


def test_budget_records_match_fresh_disputes_on_small_cultures():
    rng = random.Random(8)
    budgets = (None, 0, 3, 7, 12, 20, 35, 60)
    for trial in range(25):
        n = rng.randint(2, 8)
        cul = generate_random_culture(
            n, rng.randint(n - 1, n * (n - 1) // 2), (1, 20), trial + 300)
        xc = expand(cul)
        agents = random_agents(4, n - 1, rng)
        order = list(budgets)
        rng.shuffle(order)  # any order of budgets, repeats included
        # any subset of the ordered pairs in any order, repeats included
        pairs = rng.sample(list(permutations(range(4), 2)), rng.randint(1, 12))
        pairs.append(pairs[0])
        _assert_budget_records_match_fresh(
            agents, xc, tuple(order) + (order[0],), trial, pairs)


# ------------------------------------------------------------ theorem check

def test_unbounded_budget_removes_forcing():
    rng = random.Random(21)
    for seed in range(6):
        cul = generate_random_culture(6, 12, (1, 20), seed + 40)
        xc = expand(cul)
        agents = random_agents(4, 5, rng, hi=999)
        report = theorem1_check(agents, xc, seed=seed)
        assert report.passed
        assert report.budget_forced == 0
        assert report.subjective_loss_total == 0
        assert report.disputes_per_strategy == 12
        assert set(report.re_gt_mismatches) == {
            "random", "min_cost", "offensive", "defensive"}
