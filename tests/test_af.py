"""Framework semantics: solver vs an independent exhaustive oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdial.af import (
    Framework,
    ORACLE_MAX_ARGS,
    emit_framework,
    is_admissible,
    parse_framework,
    preferred_extensions,
    sceptically_accepted,
)
from fairdial.errors import CapacityError, InputError, ParseError


def brute_preferred(n_args, attacks):
    """Reference enumeration written independently of the library.

    Checks every subset literally against the admissibility definition and
    keeps the inclusion-maximal ones.
    """
    attacks = set(attacks)
    admissible = []
    for r in range(n_args + 1):
        for combo in itertools.combinations(range(n_args), r):
            s = set(combo)
            if any((a, b) in attacks for a in s for b in s):
                continue
            ok = True
            for member in s:
                for attacker in range(n_args):
                    if (attacker, member) in attacks:
                        if not any((d, attacker) in attacks for d in s):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                admissible.append(frozenset(s))
    maximal = [
        s for s in admissible
        if not any(s < other for other in admissible)
    ]
    return sorted(set(maximal), key=lambda e: (-len(e), sorted(e)))


def random_framework(rng, max_args=8):
    n = rng.randint(1, max_args)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    attacks = tuple(p for p in pairs if rng.random() < 0.25)
    return Framework(n, attacks)


# ---------------------------------------------------------------- frozen

def test_two_cycle():
    af = Framework(2, ((0, 1), (1, 0)))
    assert preferred_extensions(af) == [frozenset({0}), frozenset({1})]
    assert not sceptically_accepted(0, af)
    assert not sceptically_accepted(1, af)


def test_three_cycle_has_only_empty_extension():
    af = Framework(3, ((0, 1), (1, 2), (2, 0)))
    assert preferred_extensions(af) == [frozenset()]
    assert not sceptically_accepted(0, af)


def test_chain_grounded():
    af = Framework(3, ((1, 0), (2, 1)))
    assert preferred_extensions(af) == [frozenset({0, 2})]
    assert sceptically_accepted(0, af)
    assert not sceptically_accepted(1, af)
    assert sceptically_accepted(2, af)


def test_self_attacker_excluded():
    af = Framework(2, ((0, 0),))
    assert preferred_extensions(af) == [frozenset({1})]
    assert not sceptically_accepted(0, af)
    assert sceptically_accepted(1, af)


def test_empty_framework():
    af = Framework(0, ())
    assert preferred_extensions(af) == [frozenset()]


def test_no_attacks_single_extension():
    af = Framework(4, ())
    assert preferred_extensions(af) == [frozenset({0, 1, 2, 3})]


def test_is_admissible_examples():
    af = Framework(3, ((1, 0), (2, 1)))
    assert is_admissible(frozenset(), af)
    assert is_admissible({0, 2}, af)
    assert not is_admissible({0}, af)  # not defended against 1
    assert not is_admissible({0, 1}, af)  # internal conflict


# ---------------------------------------------------------------- dual route

def test_solver_equals_brute_force_on_random_frameworks():
    rng = random.Random(20240817)
    for _ in range(300):
        af = random_framework(rng)
        expected = brute_preferred(af.n_args, af.attacks)
        assert preferred_extensions(af, method="solver") == expected
        assert preferred_extensions(af, method="oracle") == expected


def test_canonical_ordering():
    rng = random.Random(5)
    for _ in range(50):
        af = random_framework(rng)
        exts = preferred_extensions(af)
        keys = [(-len(e), sorted(e)) for e in exts]
        assert keys == sorted(keys)
        assert len(set(exts)) == len(exts)


def test_sceptical_matches_intersection():
    rng = random.Random(99)
    for _ in range(200):
        af = random_framework(rng)
        exts = preferred_extensions(af)
        for x in range(af.n_args):
            expected = all(x in e for e in exts)
            assert sceptically_accepted(x, af) == expected


def test_sceptical_fast_path_on_random_bipartite():
    # sides attack only across; the polynomial route must agree with the
    # generic enumeration route
    rng = random.Random(7)
    for _ in range(300):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        n = na + nb
        arcs = []
        for i in range(na):
            for j in range(na, n):
                r = rng.random()
                if r < 0.25:
                    arcs.append((i, j))
                elif r < 0.5:
                    arcs.append((j, i))
                elif r < 0.65:
                    arcs += [(i, j), (j, i)]
        af = Framework(n, tuple(arcs))
        exts = preferred_extensions(af, method="oracle")
        for x in range(n):
            assert sceptically_accepted(x, af) == all(x in e for e in exts)


def test_sceptical_on_alive_mask_matches_built_subframework():
    rng = random.Random(41)
    for _ in range(300):
        af = random_framework(rng, max_args=10)
        alive = rng.getrandbits(af.n_args)
        kept = [x for x in range(af.n_args) if alive >> x & 1]
        index = {x: i for i, x in enumerate(kept)}
        sub = Framework(len(kept), tuple(
            (index[a], index[b]) for a, b in af.attacks if a in index and b in index
        ))
        exts = preferred_extensions(sub, method="oracle")
        for x in kept:
            expected = all(index[x] in e for e in exts)
            assert sceptically_accepted(x, af, alive) == expected
            assert sceptically_accepted(index[x], sub) == expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_preferred_are_maximal_admissible(data):
    n = data.draw(st.integers(min_value=1, max_value=7))
    pairs = [(a, b) for a in range(n) for b in range(n)]
    attacks = tuple(
        p for p in pairs if data.draw(st.booleans(), label=f"attack{p}")
    )
    af = Framework(n, attacks)
    exts = preferred_extensions(af)
    assert exts, "at least the empty set is admissible"
    for e in exts:
        assert is_admissible(e, af)
        for extra in range(n):
            if extra not in e:
                assert not is_admissible(e | {extra}, af)


# ---------------------------------------------------------------- capacity

def test_oracle_capacity_cap():
    af = Framework(ORACLE_MAX_ARGS + 1, ())
    with pytest.raises(CapacityError):
        preferred_extensions(af, method="oracle")


def test_solver_capacity_cap():
    # 21 disjoint mutual pairs leave 42 arguments undecided
    attacks = []
    for i in range(21):
        a, b = 2 * i, 2 * i + 1
        attacks += [(a, b), (b, a)]
    af = Framework(42, tuple(attacks))
    with pytest.raises(CapacityError):
        preferred_extensions(af)


def test_validation_errors():
    with pytest.raises(InputError):
        Framework(-1, ())
    with pytest.raises(InputError):
        Framework(2, ((0, 2),))
    assert Framework(2, ((0, 1), (0, 1))).attacks == frozenset({(0, 1)})
    af = Framework(2, ())
    with pytest.raises(InputError):
        sceptically_accepted(5, af)
    with pytest.raises(InputError):
        sceptically_accepted(0, af, alive=0b10)  # x outside the mask
    with pytest.raises(InputError):
        sceptically_accepted(0, af, alive=0b101)  # mask outside the framework
    with pytest.raises(InputError):
        preferred_extensions(af, method="nonsense")


# ---------------------------------------------------------------- text format

def test_parse_emit_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        af = random_framework(rng)
        again = parse_framework(emit_framework(af))
        assert again.n_args == af.n_args
        assert set(again.attacks) == set(af.attacks)


def test_parse_comments_and_blanks():
    af = parse_framework("# heading\n\n3\n# attack list\n1 0\n\n2 1\n")
    assert af.n_args == 3
    assert set(af.attacks) == {(1, 0), (2, 1)}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_framework("3\n1 0\n1 0\n")
    assert "line 3" in str(err.value)
    with pytest.raises(ParseError):
        parse_framework("two\n")
    with pytest.raises(ParseError):
        parse_framework("3\n1\n")
    with pytest.raises(ParseError):
        parse_framework("3\n4 0\n")
    with pytest.raises(ParseError):
        parse_framework("")
