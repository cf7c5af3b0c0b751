"""Slow reference models that the fast kernels are cross-checked against.

``reference_preferred_extensions`` enumerates every subset of a framework's
arguments, keeps the admissible ones (``is_admissible`` for one set) and
returns the inclusion-maximal ones: the oracle for the solver in
``fairdial.af.preferred_extensions``, capped at ``ORACLE_MAX_ARGS``
arguments.

``reference_dispute`` plays a dispute through an explicit object model: a
ledger of disclosed feature values, a verifier that checks every fact
against that ledger, and a dialogue state that applies one move at a time.
It reads the expansion's attack masks, owners, costs and strategy keys, but
none of the tables only the kernel uses (``adv_fact``, ``aff``,
``cost_levels``, ``true_fact_masks``); it derives each player's node mask
from ``owner_index`` itself.

``frechet_python`` is the plain discrete Fréchet recurrence over
``math.hypot`` distances.

``step_physics`` advances one boat of scalar ``BoatState`` at a time, the
reference for the vectorised ``boatsim.physics.step_arrays``.

``reference_arcs`` and ``reference_census`` build precedence arcs as a set
of pairs from per-pair rulings and classify one vertex pair at a time: the
reference for the bit-row ``fairness.precedence_graph`` and
``fairness.pair_census``.  ``graph_from_arcs`` goes the other way, building
the production graph of an arc set through ``precedence_graph``.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from fairdial._util import iter_bits
from fairdial.af import Framework
from fairdial.boatsim.physics import PhysicsParams
from fairdial.culture import FACT, OP, PR, ROLES, ExpandedArgument, FeatureDescription
from fairdial.dialogue import BUDGET_FORCED, CONVINCED, RANDOM, DialogueResult
from fairdial.errors import CapacityError, InputError
from fairdial.fairness import OutcomeMatrix, PrecedenceGraph, precedence_graph


ORACLE_MAX_ARGS = 20


def is_admissible(members, af: Framework) -> bool:
    """True iff ``members`` is conflict-free and defends all its members."""
    mask = 0
    for x in members:
        if not 0 <= x < af.n_args:
            raise InputError(f"argument {x} outside 0..{af.n_args - 1}")
        mask |= 1 << x
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


def reference_preferred_extensions(af: Framework) -> list:
    """Preferred extensions of ``af`` by exhaustive enumeration.

    Ordered as ``preferred_extensions`` orders them: by descending size,
    then lexicographically by sorted membership.
    """
    exts = [frozenset(iter_bits(m)) for m in _preferred_oracle_masks(af)]
    exts.sort(key=lambda e: (-len(e), sorted(e)))
    return exts


class Verdict(enum.Enum):
    """Outcome of verifying an uttered node against the record."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


class RevealedLedger:
    """Feature values each player has put on record during a dialogue.

    Values come straight from the discloser's true description; recording a
    conflicting value for an already revealed feature is an error.
    """

    def __init__(self):
        self._values = {PR: {}, OP: {}}

    def reveal(self, role: str, pos: int, value: int):
        known = self._values[role].get(pos)
        if known is not None and known != value:
            raise InputError(
                f"{role} already revealed feature {pos} as {known}, got {value}"
            )
        self._values[role][pos] = value

    def value(self, role: str, pos: int):
        """The recorded value, or None while undisclosed."""
        return self._values[role].get(pos)


def verify_fact(x_arg: ExpandedArgument, utterer_desc: FeatureDescription,
                ledger: RevealedLedger) -> Verdict:
    """Verify an uttered node against the utterer's values and the record.

    Hypotheses and motions always pass.  A fact on feature i holds when the
    utterer's value strictly exceeds the adversary's recorded value; it is
    UNKNOWN while the adversary has not revealed feature i.  Ties fail in
    both directions.
    """
    if x_arg.kind != FACT:
        return Verdict.TRUE
    adversary = OP if x_arg.owner == PR else PR
    theirs = ledger.value(adversary, x_arg.feature_pos)
    if theirs is None:
        return Verdict.UNKNOWN
    mine = utterer_desc.value(x_arg.feature_pos)
    return Verdict.TRUE if mine > theirs else Verdict.FALSE


class DialogueState:
    """Mutable dialogue position, updated one move at a time."""

    def __init__(self, xc, pr_desc, op_desc, g):
        if g is not None and g < 0:
            raise InputError("budget must be non-negative")
        n_features = len(xc.base.non_motion_ids)
        if len(pr_desc) != n_features or len(op_desc) != n_features:
            raise InputError(
                f"descriptions must carry {n_features} feature values"
            )
        self.xc = xc
        self.owned = tuple(  # per player, the mask of the nodes it owns
            sum(1 << x for x, o in enumerate(xc.owner_index) if o == w)
            for w in (0, 1)
        )
        self.descriptions = (pr_desc, op_desc)
        self.g = g
        self.transcript = []
        self.to_move = 0  # index into ROLES
        self.spent = [0, 0]
        self.used = 0
        self.attacked = 0
        self.ledger = RevealedLedger()

    def remaining(self, role_index: int):
        if self.g is None:
            return None
        return self.g - self.spent[role_index]

    def legal_mask(self) -> int:
        """Unuttered, unattacked attackers of the last move that the mover
        owns and can verify."""
        xc = self.xc
        w = self.to_move
        mask = 0
        candidates = (xc.framework.attacker_masks[self.transcript[-1]] & self.owned[w]
                      & ~self.attacked & ~self.used)
        for x in iter_bits(candidates):
            verdict = verify_fact(xc.x_args[x], self.descriptions[w], self.ledger)
            if verdict is Verdict.TRUE:
                mask |= 1 << x
        return mask

    def push(self, x: int):
        xc = self.xc
        w = self.to_move
        if self.transcript:
            if not (1 << x) & self.legal_mask():
                raise InputError(f"node {x} is not a legal rebuttal here")
        elif xc.owner_index[x] != 0:
            raise InputError("the opening move belongs to the proponent")
        self.transcript.append(x)
        self.used |= 1 << x
        self.attacked |= xc.framework.target_masks[x]
        self.spent[w] += xc.costs[x]
        pos = xc.x_args[x].feature_pos
        if pos is not None:
            self.ledger.reveal(ROLES[w], pos, self.descriptions[w].value(pos))
        self.to_move = 1 - w


def legal_rebuttals(state: DialogueState) -> set:
    """Nodes the player to move may utter against the last move."""
    if not state.transcript:
        raise InputError("no move to rebut yet")
    return set(iter_bits(state.legal_mask()))


def affordable(moves, remaining_budget, xc) -> set:
    """The subset of ``moves`` whose cost fits the remaining budget."""
    if remaining_budget is None:
        return set(moves)
    if remaining_budget < 0:
        raise InputError("remaining budget must be non-negative")
    return {m for m in moves if xc.costs[m] <= remaining_budget}


def choose(strategy: str, candidates, xc, rng=None):
    """Pick one node from a non-empty candidate set.

    random draws uniformly from the ascending candidate list; min_cost
    minimises node cost; offensive maximises out-degree in the expansion;
    defensive minimises in-degree.  Score ties resolve to the lowest id.
    """
    candidates = sorted(candidates)
    if not candidates:
        raise InputError("choose() needs at least one candidate")
    if strategy == RANDOM:
        if rng is None:
            raise InputError("the random strategy needs an rng")
        return rng.choice(candidates)
    try:
        keys = xc.strategy_keys[strategy]
    except KeyError:
        raise InputError(f"unknown strategy {strategy!r}") from None
    return min(candidates, key=lambda x: keys[x])


def reference_dispute(pr_desc, op_desc, xc, strategy, g, rng=None) -> DialogueResult:
    """``run_dispute`` played move by move through the object model."""
    state = DialogueState(xc, pr_desc, op_desc, g)
    motion = xc.hypothesis(xc.base.motion_id, PR)
    if g is not None and xc.costs[motion] > g:
        return _result(state, loser=0, termination=BUDGET_FORCED)
    if strategy == RANDOM and rng is None:
        rng = random.Random(0)
    state.push(motion)
    while True:
        w = state.to_move
        legal = legal_rebuttals(state)
        if not legal:
            return _result(state, loser=w, termination=CONVINCED)
        pool = affordable(legal, state.remaining(w), xc)
        if not pool:
            return _result(state, loser=w, termination=BUDGET_FORCED)
        state.push(choose(strategy, pool, xc, rng))


def _result(state: DialogueState, loser: int, termination: str) -> DialogueResult:
    return DialogueResult(
        winner=ROLES[1 - loser],
        transcript=tuple(state.xc.moves[x] for x in state.transcript),
        spent={PR: state.spent[0], OP: state.spent[1]},
        termination=termination,
    )


def frechet_python(p, q) -> float:
    """Discrete Fréchet distance by the plain row-by-row recurrence."""
    n, m = len(p), len(q)
    dist = [
        [math.hypot(p[i][0] - q[j][0], p[i][1] - q[j][1]) for j in range(m)]
        for i in range(n)
    ]
    row = [0.0] * m
    row[0] = dist[0][0]
    for j in range(1, m):
        row[j] = max(row[j - 1], dist[0][j])
    for i in range(1, n):
        prev = row
        row = [0.0] * m
        row[0] = max(prev[0], dist[i][0])
        for j in range(1, m):
            best = min(prev[j], prev[j - 1], row[j - 1])
            row[j] = best if best > dist[i][j] else dist[i][j]
    return row[m - 1]


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


def reference_arcs(n: int, winners) -> frozenset:
    """Precedence arcs from ``winners[j, k]``, the role that won (j, k).

    Arc (j, k) when j wins as proponent against k and k loses its own
    motion against j.
    """
    return frozenset(
        (j, k) for j in range(n) for k in range(n)
        if j != k and winners[j, k] == PR and winners[k, j] == OP
    )


def graph_from_arcs(n: int, arcs) -> PrecedenceGraph:
    """The graph ``precedence_graph`` builds from arcs joining each pair once.

    Each arc (j, k) becomes a win of j over k as proponent, and k wins
    nothing against j, so exactly ``arcs`` are settled both ways round.
    """
    rows = [0] * n
    for j, k in arcs:
        rows[j] |= 1 << k
    return precedence_graph(OutcomeMatrix(tuple(rows)))


def reference_rows(n: int, arcs):
    """``(out, into)`` bit rows of an arc set."""
    out = [0] * n
    into = [0] * n
    for j, k in arcs:
        out[j] |= 1 << k
        into[k] |= 1 << j
    return tuple(out), tuple(into)


def _arc_state(arcs, j: int, k: int) -> int:
    if (j, k) in arcs:
        return 1
    if (k, j) in arcs:
        return -1
    return 0


def reference_census(n: int, arcs1, arcs2):
    """(reversed, one_sided, absent_both, agreeing) over the n(n-1)/2 pairs."""
    reversed_ = one_sided = absent = agree = 0
    for j in range(n):
        for k in range(j + 1, n):
            s1 = _arc_state(arcs1, j, k)
            s2 = _arc_state(arcs2, j, k)
            if s1 == s2:
                if s1 == 0:
                    absent += 1
                else:
                    agree += 1
            elif s1 == 0 or s2 == 0:
                one_sided += 1
            else:
                reversed_ += 1
    return reversed_, one_sided, absent, agree


def reference_dissimilarity(n: int, arcs1, arcs2) -> Fraction:
    """Raw K: reversed pairs count 1, one-sided 2/3, jointly absent 1/3."""
    reversed_, one_sided, absent, _ = reference_census(n, arcs1, arcs2)
    return reversed_ + Fraction(2, 3) * one_sided + Fraction(1, 3) * absent
