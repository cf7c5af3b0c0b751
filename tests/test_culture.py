"""Cultures, the owner-splitting expansion, verifiers and generators."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdial.culture import (
    Culture,
    CultureArgument,
    FeatureDescription,
    builtin_boat_culture,
    culture_from_dict,
    culture_to_dict,
    expand,
    generate_random_culture,
    load_culture,
    sample_boat_agent,
    save_culture,
)
from fairdial._util import iter_bits
from fairdial.af import Framework
from fairdial.errors import InputError, ParseError
from fairdial.fairness import objective_outcome
from reference_models import (
    RevealedLedger,
    Verdict,
    reference_preferred_extensions,
    verify_fact,
)


def example_culture(x_costs=None):
    """Motion plus two features, the standard worked example."""
    return Culture(
        args=(
            CultureArgument(0, "motion", True, 0),
            CultureArgument(1, "age", False, 1),
            CultureArgument(2, "health", False, 1),
        ),
        attacks=((1, 0), (2, 0), (2, 1)),
        x_costs=x_costs,
    )


# ---------------------------------------------------------------- expansion

def test_example_expansion_is_frozen():
    xc = expand(example_culture())
    assert xc.n_x == 10
    labels = [a.label for a in xc.x_args]
    assert labels == [
        "motion_H^pr", "motion_H^op",
        "age_H^pr", "age_H^op", "age_F^pr", "age_F^op",
        "health_H^pr", "health_H^op", "health_F^pr", "health_F^op",
    ]
    expected = {
        # same-feature hypothesis pairs attack each other
        (2, 3), (3, 2), (6, 7), (7, 6),
        # fact pairs attack each other
        (4, 5), (5, 4), (8, 9), (9, 8),
        # each fact attacks the adversary hypothesis on its feature
        (4, 3), (5, 2), (8, 7), (9, 6),
        # culture attacks reproduced cross-owner by hypotheses
        (2, 1), (3, 0), (6, 1), (7, 0), (6, 3), (6, 5), (7, 2), (7, 4),
    }
    assert set(xc.x_attacks) == expected
    assert len(xc.x_attacks) == 20


def test_motion_only_culture():
    cul = Culture(args=(CultureArgument(0, "m", True, 0),), attacks=())
    xc = expand(cul)
    assert xc.n_x == 2
    assert not xc.x_attacks


def test_expansion_size_formula():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 12)
        cul = generate_random_culture(n, rng.randint(n - 1, n * (n - 1) // 2),
                                      (1, 9), rng.randint(0, 10**6))
        xc = expand(cul)
        assert xc.n_x == cul.expanded_size == 2 + 4 * (cul.n_args - 1)


def test_expansion_is_owner_bipartite():
    for seed in range(40):
        cul = generate_random_culture(10, 24, (1, 20), seed)
        xc = expand(cul)
        for a, b in xc.x_attacks:
            assert xc.x_args[a].owner != xc.x_args[b].owner


def test_expansion_costs_inherited_and_overridden():
    xc = expand(example_culture())
    assert [a.cost for a in xc.x_args] == [0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
    xc2 = expand(example_culture(x_costs=(1, 1, 5, 2, 9, 9, 3, 6, 9, 9)))
    assert [a.cost for a in xc2.x_args] == [1, 1, 5, 2, 9, 9, 3, 6, 9, 9]
    assert xc2.total_cost == 54


def test_culture_validation():
    with pytest.raises(InputError):
        Culture(args=(CultureArgument(0, "a", False, 1),), attacks=())
    with pytest.raises(InputError):
        Culture(
            args=(CultureArgument(0, "m", True, 0), CultureArgument(1, "a", False, 1)),
            attacks=((1, 1),),
        )
    with pytest.raises(InputError):
        Culture(
            args=(CultureArgument(0, "m", True, 0), CultureArgument(1, "a", False, 1)),
            attacks=((2, 0),),
        )
    with pytest.raises(InputError):
        example_culture(x_costs=(1, 2, 3))


# ---------------------------------------------------------------- verifiers

def test_verify_fact_truth_table():
    xc = expand(example_culture())
    mine = FeatureDescription((60, 3))
    fact_pr_age = xc.x_args[xc.fact(1, "pr")]

    ledger = RevealedLedger()
    assert verify_fact(fact_pr_age, mine, ledger) is Verdict.UNKNOWN
    ledger.reveal("op", 0, 45)
    assert verify_fact(fact_pr_age, mine, ledger) is Verdict.TRUE

    ledger_tie = RevealedLedger()
    ledger_tie.reveal("op", 0, 60)
    assert verify_fact(fact_pr_age, mine, ledger_tie) is Verdict.FALSE

    ledger_gt = RevealedLedger()
    ledger_gt.reveal("op", 0, 75)
    assert verify_fact(fact_pr_age, mine, ledger_gt) is Verdict.FALSE

    # hypotheses and motions always pass
    hyp = xc.x_args[xc.hypothesis(1, "pr")]
    motion = xc.x_args[xc.hypothesis(0, "pr")]
    assert verify_fact(hyp, mine, ledger) is Verdict.TRUE
    assert verify_fact(motion, mine, ledger) is Verdict.TRUE


def test_ledger_rejects_conflicting_disclosure():
    ledger = RevealedLedger()
    ledger.reveal("pr", 2, 7)
    ledger.reveal("pr", 2, 7)  # idempotent
    with pytest.raises(InputError):
        ledger.reveal("pr", 2, 8)
    assert ledger.value("pr", 2) == 7
    assert ledger.value("op", 2) is None


# ------------------------------------------------------------- true facts

def fact_labels(xc, mask):
    return sorted(xc.x_args[x].label for x in range(xc.n_x) if mask >> x & 1)


def induced_framework(xc, alive):
    """The expansion restricted to ``alive``, rebuilt node by node."""
    kept = [x for x in range(xc.n_x) if alive >> x & 1]
    index = {x: i for i, x in enumerate(kept)}
    attacks = tuple(
        (index[a], index[b]) for a, b in xc.x_attacks if a in index and b in index
    )
    return Framework(len(kept), attacks), index


def test_true_facts_identical_descriptions_hold_none():
    xc = expand(example_culture())
    d = FeatureDescription((3, 3))
    assert xc.true_fact_masks(d, d) == (0, 0)


def test_true_facts_dominant_proponent_keeps_only_pr_facts():
    xc = expand(example_culture())
    pr_mask, op_mask = xc.true_fact_masks(
        FeatureDescription((9, 9)), FeatureDescription((1, 1))
    )
    assert fact_labels(xc, pr_mask) == ["age_F^pr", "health_F^pr"]
    assert op_mask == 0


def test_true_facts_mixed_case():
    # feature 0 favours op, feature 1 favours pr
    xc = expand(example_culture())
    pr_mask, op_mask = xc.true_fact_masks(
        FeatureDescription((1, 2)), FeatureDescription((2, 1))
    )
    assert fact_labels(xc, pr_mask) == ["health_F^pr"]
    assert fact_labels(xc, op_mask) == ["age_F^op"]


def test_true_facts_mirror_symmetry():
    xc = expand(example_culture())
    rng = random.Random(2)

    def mirror(x):
        arg = xc.x_args[x]
        other = "op" if arg.owner == "pr" else "pr"
        if arg.kind == "H":
            return xc.hypothesis(arg.origin, other)
        return xc.fact(arg.origin, other)

    hyps = xc.hyp_masks[0] | xc.hyp_masks[1]
    for _ in range(20):
        d1 = FeatureDescription((rng.randint(0, 4), rng.randint(0, 4)))
        d2 = FeatureDescription((rng.randint(0, 4), rng.randint(0, 4)))
        a_pr, a_op = xc.true_fact_masks(d1, d2)
        b_pr, b_op = xc.true_fact_masks(d2, d1)
        assert sorted(mirror(x) for x in iter_bits(a_pr)) == list(iter_bits(b_op))
        assert sorted(mirror(x) for x in iter_bits(a_op)) == list(iter_bits(b_pr))
        alive_a, alive_b = hyps | a_pr | a_op, hyps | b_pr | b_op
        mapped = {
            (mirror(x), mirror(y)) for x, y in xc.x_attacks
            if alive_a >> x & 1 and alive_a >> y & 1
        }
        actual = {
            (x, y) for x, y in xc.x_attacks if alive_b >> x & 1 and alive_b >> y & 1
        }
        assert mapped == actual


def test_referee_matches_oracle_on_small_cultures():
    # slow reference: rebuild the referee's subframework and enumerate its
    # preferred extensions exhaustively
    rng = random.Random(5)
    for _ in range(120):
        n_args = rng.randint(2, 4)  # at most 14 expanded nodes
        args = [CultureArgument(0, "motion", True, 0)] + [
            CultureArgument(i, f"a{i}", False, 1) for i in range(1, n_args)
        ]
        attacks = [
            (a, b) for a in range(n_args) for b in range(n_args)
            if a != b and rng.random() < 0.4
        ]
        xc = expand(Culture(args=tuple(args), attacks=frozenset(attacks)))
        motion = xc.hypothesis(0, "pr")
        for _ in range(4):
            d_pr, d_op = (
                FeatureDescription(tuple(rng.randint(0, 2) for _ in range(n_args - 1)))
                for _ in range(2)
            )
            true_pr, true_op = xc.true_fact_masks(d_pr, d_op)
            alive = xc.hyp_masks[0] | xc.hyp_masks[1] | true_pr | true_op
            fw, index = induced_framework(xc, alive)
            exts = reference_preferred_extensions(fw)
            expected = "pr" if all(index[motion] in e for e in exts) else "op"
            assert objective_outcome(d_pr, d_op, xc) == expected


# ---------------------------------------------------------------- generation

def test_generate_random_culture_shape():
    cul = generate_random_culture(16, 48, (1, 20), seed=5)
    assert cul.n_args == 16
    assert len(cul.attacks) == 48
    assert cul.motion_id == 0
    for a, b in cul.attacks:
        assert a > b  # generated attacks always point down the index order
    xc = expand(cul)
    assert all(1 <= a.cost <= 20 for a in xc.x_args)


def test_generate_random_culture_connected():
    for seed in range(25):
        cul = generate_random_culture(12, 11, (1, 5), seed)
        nbrs = {i: set() for i in range(12)}
        for a, b in cul.attacks:
            nbrs[a].add(b)
            nbrs[b].add(a)
        seen = {0}
        stack = [0]
        while stack:
            for nxt in nbrs[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        assert seen == set(range(12))


def test_generate_random_culture_deterministic():
    a = generate_random_culture(10, 30, (1, 20), seed=77)
    b = generate_random_culture(10, 30, (1, 20), seed=77)
    assert a == b
    c = generate_random_culture(10, 30, (1, 20), seed=78)
    assert a != c


def test_generate_random_culture_bounds():
    with pytest.raises(InputError):
        generate_random_culture(1, 0, (1, 2), 0)
    with pytest.raises(InputError):
        generate_random_culture(5, 3, (1, 2), 0)  # below spanning minimum
    with pytest.raises(InputError):
        generate_random_culture(5, 11, (1, 2), 0)  # above complete DAG
    assert len(generate_random_culture(2, 1, (1, 2), 0).attacks) == 1


# ---------------------------------------------------------------- boat culture

def test_boat_culture_table_is_frozen():
    cul = builtin_boat_culture()
    assert cul.n_args == 14
    assert cul.args[0].is_motion and cul.args[0].cost == 0
    costs = {a.arg_id: a.cost for a in cul.args}
    assert costs == {
        0: 0, 1: 4, 2: 10, 3: 0, 4: 3, 5: 5, 6: 7, 7: 13,
        8: 8, 9: 12, 10: 15, 11: 20, 12: 10, 13: 16,
    }
    labels = {a.arg_id: a.label for a in cul.args}
    assert labels[7] == "VIPOnBoard"
    assert labels[11] == "UndercoverOps"
    attacks_of = {i: set() for i in range(14)}
    for a, b in cul.attacks:
        attacks_of[a].add(b)
    assert attacks_of[2] == {0, 1}
    assert attacks_of[11] == {3, 4, 6, 7, 8, 10}
    assert attacks_of[12] == set(range(12))
    assert attacks_of[0] == set()


def test_boat_agent_constraints_hold():
    for seed in range(400):
        desc = sample_boat_agent(seed)
        assert len(desc) == 13
        category = desc.value(2)  # HigherCategory feature
        rank = desc.value(7)  # MilitaryRank feature
        spy = desc.value(10)  # UndercoverOps feature
        task = desc.value(5)  # TaskNature feature
        if category < 2:
            assert rank <= 1  # at most officer outside police/coast-guard/military
        if spy == 1:
            assert category <= 1
        if category == 0:
            assert task <= 3  # patrol, pursuit and combat closed to civilians
    assert sample_boat_agent(123) == sample_boat_agent(123)


# ---------------------------------------------------------------- persistence

def test_culture_round_trip(tmp_path):
    for cul in (example_culture(x_costs=(1, 1, 5, 2, 9, 9, 3, 6, 9, 9)),
                builtin_boat_culture(),
                generate_random_culture(9, 20, (1, 20), 4)):
        path = tmp_path / "c.json"
        save_culture(cul, path)
        assert load_culture(path) == cul


def test_culture_dict_round_trip():
    cul = builtin_boat_culture()
    assert culture_from_dict(culture_to_dict(cul)) == cul


def test_load_culture_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_culture(path)
    path.write_text('{"arguments": []}', encoding="utf-8")
    with pytest.raises((ParseError, InputError)):
        load_culture(path)
    path.write_bytes("{}".encode("utf-16"))
    with pytest.raises(ParseError, match="invalid JSON"):
        load_culture(path)
    good = culture_to_dict(example_culture())
    size = example_culture().expanded_size
    motion = {"id": 0, "label": "m", "motion": True, "cost": 0}
    for entry, doc, field in [
        ({**motion, "attacks": ["x"]}, {}, "argument 0"),
        ({**motion, "attacks": 0}, {}, "argument 0"),
        ({**motion, "attacks": "1"}, {}, "argument 0"),
        ({**motion, "attacks": [True]}, {}, "argument 0"),
        ({**motion, "attacks": [1.0]}, {}, "argument 0"),
        ({**motion, "values": 5}, {}, "argument 0"),
        ({**motion, "values": "abc"}, {}, "argument 0"),
        ({**motion, "label": ["m"]}, {}, "argument 0"),
        ({**motion, "id": "0"}, {}, "argument 0"),
        ({**motion, "cost": True}, {}, "argument 0"),
        ({**motion, "cost": 3.7}, {}, "argument 0"),
        ({**motion, "motion": "false"}, {}, "'motion' must be true or false"),
        ({**motion, "motion": False}, {}, "exactly one motion"),
        (motion, {"arguments": [motion, {**motion, "id": 1}]}, "exactly one motion"),
        (motion, {"x_costs": 7}, "'x_costs'"),
        (motion, {"x_costs": ["x"]}, "'x_costs'"),
        (motion, {"x_costs": "7" * size}, "'x_costs'"),
        (motion, {"x_costs": [True] * size}, "'x_costs'"),
        (motion, {"x_costs": [1.5] * size}, "'x_costs'"),
    ]:
        bad = {**good, "arguments": [entry, *good["arguments"][1:]], **doc}
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ParseError, match=field):
            load_culture(path)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=10),
    seed=st.integers(min_value=0, max_value=10**9),
)
def test_random_culture_expansion_invariants(n, seed):
    max_attacks = n * (n - 1) // 2
    rng = random.Random(seed)
    n_attacks = rng.randint(n - 1, max_attacks)
    cul = generate_random_culture(n, n_attacks, (1, 20), seed)
    xc = expand(cul)
    assert xc.n_x == 2 + 4 * (n - 1)
    owners = [a.owner for a in xc.x_args]
    for a, b in xc.x_attacks:
        assert owners[a] != owners[b]
    # no attack involves a motion fact: motions have hypothesis nodes only
    assert all(a.kind == "H" for a in xc.x_args if a.origin == cul.motion_id)
