"""Framework semantics: solver vs an independent exhaustive oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdial import af as af_module
from fairdial.af import (
    Framework,
    _grounded_split,
    emit_framework,
    parse_framework,
    preferred_extensions,
    sceptically_accepted,
)
from fairdial.cli import main
from fairdial.errors import CapacityError, InputError, ParseError
from reference_models import is_admissible, reference_preferred_extensions


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


def bipartite_arcs(rng, na, nb):
    """Random attacks between sides 0..na-1 and na..na+nb-1, none within."""
    arcs = []
    for i in range(na):
        for j in range(na, na + nb):
            r = rng.random()
            if r < 0.25:
                arcs.append((i, j))
            elif r < 0.5:
                arcs.append((j, i))
            elif r < 0.65:
                arcs += [(i, j), (j, i)]
    return arcs


def induced(af, alive):
    """The subframework ``alive`` induces, and the map from old to new ids."""
    index = {x: i for i, x in enumerate(x for x in range(af.n_args) if alive >> x & 1)}
    sub = Framework(len(index), tuple(
        (index[a], index[b]) for a, b in af.attacks if a in index and b in index
    ))
    return sub, index


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
        assert preferred_extensions(af) == expected
        assert reference_preferred_extensions(af) == expected


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
        af = Framework(n, tuple(bipartite_arcs(rng, na, nb)))
        exts = reference_preferred_extensions(af)
        for x in range(n):
            assert sceptically_accepted(x, af) == all(x in e for e in exts)


def test_sceptical_on_alive_mask_matches_built_subframework():
    rng = random.Random(41)
    for _ in range(300):
        af = random_framework(rng, max_args=10)
        alive = rng.getrandbits(af.n_args)
        sub, index = induced(af, alive)
        exts = reference_preferred_extensions(sub)
        for x in index:
            expected = all(index[x] in e for e in exts)
            assert sceptically_accepted(x, af, alive) == expected
            assert sceptically_accepted(index[x], sub) == expected


def even_cycle_beside_odd_cycle():
    """A 42-cycle through argument 0 plus a disjoint 3-cycle: 45 undecided."""
    attacks = [(i, (i + 1) % 42) for i in range(42)]
    attacks += [(42, 43), (43, 44), (44, 42)]
    return Framework(45, tuple(attacks))


def test_sceptical_reads_only_the_component_of_its_argument():
    # x's component is an even cycle, so the coherent route answers; the
    # 3-cycle elsewhere in the residue does not send x past the solver cap
    af = even_cycle_beside_odd_cycle()
    assert sceptically_accepted(0, af) is False
    assert sceptically_accepted(42, af) is False


def test_af_solve_sceptical_on_even_cycle_beside_odd_cycle(capsys, tmp_path):
    path = tmp_path / "af.txt"
    path.write_text(emit_framework(even_cycle_beside_odd_cycle()), encoding="utf-8")
    assert main(["af", "solve", str(path), "--sceptical", "0"]) == 0
    assert capsys.readouterr().out.strip() == "rejected"


def test_sceptical_on_bipartite_component_beside_odd_cycle(monkeypatch):
    # arguments 0..n-1 form attacks across two sides; a disjoint odd cycle
    # with chords stays undecided.  Queries on the bipartite part must match
    # the reference without reaching the branching solver.
    rng = random.Random(23)
    for _ in range(150):
        na, nb = rng.randint(1, 4), rng.randint(1, 4)
        n = na + nb
        arcs = bipartite_arcs(rng, na, nb)
        k = rng.choice((3, 5))
        cycle = range(n, n + k)
        arcs += [(n + i, n + (i + 1) % k) for i in range(k)]
        arcs += [(a, b) for a in cycle for b in cycle if a != b and rng.random() < 0.2]
        af = Framework(n + k, tuple(arcs))
        alive = rng.getrandbits(n) | (((1 << k) - 1) << n)
        sub, index = induced(af, alive)
        whole = reference_preferred_extensions(af)
        part = reference_preferred_extensions(sub)
        with monkeypatch.context() as m:
            m.setattr(af_module, "_max_admissible_in", None)
            for x in range(n):
                assert sceptically_accepted(x, af) == all(x in e for e in whole)
                if x in index:
                    assert sceptically_accepted(x, af, alive) == all(
                        index[x] in e for e in part)


def test_grounded_split_stopped_at_an_argument_labels_it_as_the_full_split():
    rng = random.Random(43)
    for _ in range(300):
        af = random_framework(rng, max_args=10)
        alive = rng.getrandbits(af.n_args)
        by, to = af.attacker_masks, af.target_masks
        full_in, full_out = _grounded_split(by, to, alive)
        for x in range(af.n_args):
            if alive >> x & 1:
                part_in, part_out = _grounded_split(by, to, alive, stop=1 << x)
                assert (part_in >> x & 1, part_out >> x & 1) == (
                    full_in >> x & 1, full_out >> x & 1)
                assert part_in & ~full_in == 0 and part_out & ~full_out == 0


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
