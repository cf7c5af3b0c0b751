"""Abstract argumentation frameworks and preferred-extension reasoning.

A framework is a finite digraph of arguments and attacks.  A set of arguments
is conflict-free when no member attacks another; an argument is defended by a
set when every attacker of the argument is attacked by some member.  A set
that is conflict-free and defends all its members is admissible, and the
maximal admissible sets (under set inclusion) are the preferred extensions.
An argument is sceptically accepted when it belongs to every preferred
extension.

Two independent routes compute preferred extensions:

* an oracle that enumerates every subset of arguments, kept deliberately
  naive and capped at ``ORACLE_MAX_ARGS`` arguments, and
* a solver that first computes the grounded labelling by fixpoint
  propagation, then branches only over the arguments left undecided.

The solver relies on a decomposition: the grounded IN set is contained in
every preferred extension, grounded OUT arguments belong to none, and the
preferred extensions are exactly the grounded IN set unioned with the
maximal admissible sets of the subframework induced by the undecided
arguments.  The test suite cross-checks the two routes on random frameworks.

Sceptical acceptance has a third, polynomial route that fires whenever the
undecided subframework is bipartite (its undirected attack graph is
2-colourable).  A bipartite digraph has no odd-length directed cycle, and
odd-cycle-free frameworks are coherent: every preferred extension is stable.
For a stable extension E and any argument x, x not in E means E attacks x,
so x is in every preferred extension exactly when no attacker of x belongs
to any admissible set.  Arguments on one side of the bipartition never
conflict with each other and are defended from the other side by their own
side, so the credulously accepted arguments of a side form its unique
largest self-defending subset, computable by fixpoint deletion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ._util import iter_bits
from .errors import CapacityError, InputError, ParseError

ORACLE_MAX_ARGS = 20

# Hard cap on the number of undecided arguments the branching solver will
# accept.  Beyond this the enumeration would be intractable anyway; callers
# get an honest error instead of an open-ended stall.
SOLVER_MAX_UNDECIDED = 40


@dataclass(frozen=True)
class Framework:
    """An argumentation framework: ``n_args`` arguments and attack pairs.

    Arguments are the integers ``0 .. n_args - 1``.  ``attacks`` holds
    (attacker, target) pairs; duplicates collapse by construction.
    """

    n_args: int
    attacks: frozenset

    def __post_init__(self):
        if self.n_args < 0:
            raise InputError("n_args must be non-negative")
        attacks = frozenset((int(a), int(b)) for a, b in self.attacks)
        object.__setattr__(self, "attacks", attacks)
        for a, b in attacks:
            if not (0 <= a < self.n_args and 0 <= b < self.n_args):
                raise InputError(f"attack ({a}, {b}) references unknown argument")

    @cached_property
    def attacker_masks(self) -> tuple:
        """attacker_masks[x] is the bitmask of arguments attacking x."""
        masks = [0] * self.n_args
        for a, b in self.attacks:
            masks[b] |= 1 << a
        return tuple(masks)

    @cached_property
    def target_masks(self) -> tuple:
        """target_masks[x] is the bitmask of arguments x attacks."""
        masks = [0] * self.n_args
        for a, b in self.attacks:
            masks[a] |= 1 << b
        return tuple(masks)


def _as_mask(members, n_args) -> int:
    mask = 0
    for x in members:
        if not 0 <= x < n_args:
            raise InputError(f"argument {x} outside 0..{n_args - 1}")
        mask |= 1 << x
    return mask


def _mask_to_set(mask) -> frozenset:
    return frozenset(iter_bits(mask))


def is_admissible(members, af: Framework) -> bool:
    """True iff ``members`` is conflict-free and defends all its members."""
    mask = _as_mask(members, af.n_args)
    return _admissible_mask(mask, af.attacker_masks, af.target_masks)


def _admissible_mask(mask, att_by, att_to) -> bool:
    hit = 0
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        targets = att_to[x]
        if targets & mask:
            return False  # internal attack
        hit |= targets
    m = mask
    while m:
        low = m & -m
        x = low.bit_length() - 1
        m ^= low
        if att_by[x] & ~hit:
            return False  # some attacker is not counter-attacked
    return True


def _grounded_split(att_by, att_to, alive):
    """Grounded labelling of the subframework induced by ``alive``.

    Returns (in_mask, out_mask).  Arguments of ``alive`` not in either mask
    are undecided (labelled UNDEC by the grounded labelling).
    """
    in_mask = 0
    out_mask = 0
    undecided = alive
    while True:
        newly_in = 0
        m = undecided
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            if att_by[x] & alive & ~out_mask == 0:
                newly_in |= low
        if not newly_in:
            return in_mask, out_mask
        in_mask |= newly_in
        undecided &= ~newly_in
        newly_out = 0
        m = newly_in
        while m:
            low = m & -m
            x = low.bit_length() - 1
            m ^= low
            newly_out |= att_to[x]
        newly_out &= undecided
        out_mask |= newly_out
        undecided &= ~newly_out


def _max_admissible_in(domain, att_by, att_to):
    """All maximal admissible subsets of the subframework induced by ``domain``.

    Branch-and-prune over undecided arguments: pick a free argument, try it
    IN (which conflicts away its neighbours) or exclude it.  A branch dies
    when some attacker of the IN set can no longer be counter-attacked.
    Results are filtered to the inclusion-maximal sets.
    """
    if domain.bit_count() > SOLVER_MAX_UNDECIDED:
        raise CapacityError(
            f"{domain.bit_count()} undecided arguments exceed the solver cap "
            f"of {SOLVER_MAX_UNDECIDED}"
        )
    results = []

    def dfs(in_mask, free, hit, need):
        # need: arguments attacking in_mask, not yet counter-attacked
        m = need
        while m:
            low = m & -m
            y = low.bit_length() - 1
            m ^= low
            if att_by[y] & free == 0:
                return  # y can never be counter-attacked on this branch
        if not free:
            if not need:
                results.append(in_mask)
            return
        low = free & -free
        x = low.bit_length() - 1
        # branch 1: x goes IN
        nb = att_by[x] & domain
        nt = att_to[x] & domain
        if not (low & nb) and not (low & nt):  # skip self-attackers
            new_hit = hit | nt
            dfs(
                in_mask | low,
                free & ~low & ~nb & ~nt,
                new_hit,
                (need | nb) & ~new_hit,
            )
        # branch 2: x stays out
        dfs(in_mask, free & ~low, hit, need)

    dfs(0, domain, 0, 0)
    results.sort(key=lambda s: -s.bit_count())
    kept = []
    for s in results:
        if not any(s & ~k == 0 for k in kept):
            kept.append(s)
    return kept


def _preferred_solver_masks(af: Framework):
    alive = (1 << af.n_args) - 1
    att_by = af.attacker_masks
    att_to = af.target_masks
    in0, out0 = _grounded_split(att_by, att_to, alive)
    undec = alive & ~in0 & ~out0
    if not undec:
        return [in0]
    return [in0 | s for s in _max_admissible_in(undec, att_by, att_to)]


def _preferred_oracle_masks(af: Framework):
    if af.n_args > ORACLE_MAX_ARGS:
        raise CapacityError(
            f"oracle route handles at most {ORACLE_MAX_ARGS} arguments, "
            f"got {af.n_args}"
        )
    n = af.n_args
    att_by = af.attacker_masks
    att_to = af.target_masks
    # conflict_free[m] via DP on the lowest bit keeps the full 2^n sweep cheap
    size = 1 << n
    conflict_free = bytearray(size)
    conflict_free[0] = 1
    admissible = []
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        if not conflict_free[rest]:
            continue
        x = low.bit_length() - 1
        if (att_to[x] | att_by[x]) & rest or att_to[x] & low:
            continue
        conflict_free[mask] = 1
        if _admissible_mask(mask, att_by, att_to):
            admissible.append(mask)
    admissible.append(0)  # the empty set is always admissible
    admissible.sort(key=lambda s: -s.bit_count())
    kept = []
    for s in admissible:
        if not any(s & ~k == 0 for k in kept):
            kept.append(s)
    return kept


def _canonical(masks) -> list:
    exts = [_mask_to_set(m) for m in masks]
    exts.sort(key=lambda e: (-len(e), sorted(e)))
    return exts


def preferred_extensions(af: Framework, method: str = "auto") -> list:
    """Preferred extensions of ``af`` as a canonically ordered list.

    ``method`` selects the route: "oracle" (exhaustive, small frameworks
    only), "solver", or "auto" (the solver).  The list is sorted by
    descending size, then lexicographically by sorted membership.
    """
    if method == "oracle":
        masks = _preferred_oracle_masks(af)
    elif method in ("solver", "auto"):
        masks = _preferred_solver_masks(af)
    else:
        raise InputError(f"unknown method {method!r}")
    return _canonical(masks)


def _bipartition(att_by, att_to, alive):
    """2-colour the undirected attack graph on ``alive``, or None.

    Returns (side_a, side_b) masks when every attack crosses the two sides;
    None as soon as an odd cycle (including a self-attack) forbids it.
    """
    side_a = 0
    side_b = 0
    unseen = alive
    while unseen:
        layer = unseen & -unseen
        parity = 0
        while layer:
            if parity == 0:
                side_a |= layer
            else:
                side_b |= layer
            unseen &= ~layer
            nbrs = 0
            m = layer
            while m:
                low = m & -m
                m ^= low
                y = low.bit_length() - 1
                nbrs |= att_by[y] | att_to[y]
            nbrs &= alive
            if nbrs & layer:
                return None
            layer = nbrs & unseen
            parity ^= 1
    return side_a, side_b


def _largest_self_defending(side, att_by, alive):
    """Largest S within ``side`` whose members are all defended by S."""
    s = side
    while True:
        removed = 0
        m = s
        while m:
            low = m & -m
            y = low.bit_length() - 1
            m ^= low
            atk = att_by[y] & alive
            while atk:
                a_low = atk & -atk
                atk ^= a_low
                if att_by[a_low.bit_length() - 1] & s == 0:
                    removed |= low
                    break
        if not removed:
            return s
        s &= ~removed


def _component_of(x, att_by, att_to, alive):
    """Weakly connected component of ``x`` in the subframework ``alive``."""
    comp = 1 << x
    frontier = comp
    while frontier:
        nbrs = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            y = low.bit_length() - 1
            nbrs |= att_by[y] | att_to[y]
        frontier = nbrs & alive & ~comp
        comp |= frontier
    return comp


def sceptically_accepted(x: int, af: Framework, alive: int | None = None) -> bool:
    """True iff argument ``x`` belongs to every preferred extension.

    ``alive`` is a node mask: the question is asked of the subframework it
    induces, which must contain ``x``.  By default it is the whole framework.
    """
    if not 0 <= x < af.n_args:
        raise InputError(f"argument {x} outside 0..{af.n_args - 1}")
    bit = 1 << x
    full = (1 << af.n_args) - 1
    if alive is None:
        alive = full
    elif alive & ~full or not alive & bit:
        raise InputError(f"alive mask must lie within the framework and hold {x}")
    att_by = af.attacker_masks
    att_to = af.target_masks
    in0, out0 = _grounded_split(att_by, att_to, alive)
    if bit & in0:
        return True  # grounded IN is part of every preferred extension
    if bit & out0:
        return False
    undec = alive & ~in0 & ~out0
    sides = _bipartition(att_by, att_to, undec)
    if sides is not None:
        # coherent case: x sits in every preferred extension exactly when
        # no attacker of x is credulously accepted (see module docstring)
        attackers = att_by[x] & undec
        enemy = sides[1] if bit & sides[0] else sides[0]
        return attackers & _largest_self_defending(enemy, att_by, undec) == 0
    # preferred sets of the residue are unions of independent per-component
    # choices, so only x's own component matters
    domain = _component_of(x, att_by, att_to, undec)
    return all(bit & s for s in _max_admissible_in(domain, att_by, att_to))


def parse_framework(text: str) -> Framework:
    """Parse the plain-text framework format.

    The first significant line carries the argument count; each further line
    is an ``attacker target`` pair.  Lines starting with ``#`` and blank
    lines are ignored.
    """
    n_args = None
    attacks = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n_args is None:
            if len(tokens) != 1:
                raise ParseError("expected a single argument count", lineno)
            try:
                n_args = int(tokens[0])
            except ValueError:
                raise ParseError(f"bad argument count {tokens[0]!r}", lineno) from None
            if n_args < 0:
                raise ParseError("argument count must be non-negative", lineno)
            continue
        if len(tokens) != 2:
            raise ParseError("expected 'attacker target'", lineno)
        try:
            a, b = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"bad attack line {line!r}", lineno) from None
        if not (0 <= a < n_args and 0 <= b < n_args):
            raise ParseError(f"attack ({a}, {b}) out of range", lineno)
        if (a, b) in attacks:
            raise ParseError(f"duplicate attack ({a}, {b})", lineno)
        attacks.add((a, b))
    if n_args is None:
        raise ParseError("empty framework text")
    return Framework(n_args=n_args, attacks=frozenset(attacks))


def emit_framework(af: Framework) -> str:
    """Inverse of :func:`parse_framework`, with attacks sorted."""
    lines = [str(af.n_args)]
    lines.extend(f"{a} {b}" for a, b in sorted(af.attacks))
    return "\n".join(lines) + "\n"
