"""Privacy-aware persuasion dialogues over an expanded culture.

The proponent opens with its motion hypothesis; the players then alternate,
each move a node that attacks the previous one.  A move is legal when it is
not a repeat, is not attacked by anything already uttered (by either side),
does not attack itself, and, for facts, verifies TRUE against the utterer's
description and the disclosure record.  Every move charges its node cost
against the mover's privacy budget; uttering any node of feature i puts the
utterer's value of feature i on record, which is what can make the
adversary's fact on i verifiable.

A player who cannot move loses.  Termination is "convinced" when no legal
rebuttal existed at all and "budget_forced" when at least one legal rebuttal
was priced out by the remaining budget.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ._util import iter_bits
from .culture import OP, PR, ROLES, ExpandedCulture, RevealedLedger
from .errors import InputError

RANDOM = "random"
MIN_COST = "min_cost"
OFFENSIVE = "offensive"
DEFENSIVE = "defensive"
STRATEGIES = (RANDOM, MIN_COST, OFFENSIVE, DEFENSIVE)

CONVINCED = "convinced"
BUDGET_FORCED = "budget_forced"


@dataclass(frozen=True)
class DialogueResult:
    winner: str
    transcript: tuple
    spent: dict
    termination: str

    @property
    def subjective_loss_flag(self) -> int:
        return 1 if self.termination == BUDGET_FORCED else 0


class DialogueState:
    """Mutable dialogue position, updated one move at a time."""

    __slots__ = (
        "xc", "descriptions", "g", "transcript", "to_move", "spent",
        "used", "attacked", "usable", "ledger", "_true_facts",
    )

    def __init__(self, xc: ExpandedCulture, pr_desc, op_desc, g, *,
                 true_facts=None):
        if g is not None and g < 0:
            raise InputError("budget must be non-negative")
        n_features = len(xc.base.non_motion_ids)
        if len(pr_desc) != n_features or len(op_desc) != n_features:
            raise InputError(
                f"descriptions must carry {n_features} feature values"
            )
        self.xc = xc
        self.descriptions = (pr_desc, op_desc)
        self.g = g
        self.transcript = []
        self.to_move = 0  # index into ROLES
        self.spent = [0, 0]
        self.used = 0
        self.attacked = 0
        self.ledger = RevealedLedger()
        # a true fact becomes usable only once the adversary's value is on
        # record; ``true_facts`` lets a caller playing one pair many times
        # pass xc.true_fact_masks(pr_desc, op_desc) in, computed once
        if true_facts is None:
            true_facts = xc.true_fact_masks(pr_desc, op_desc)
        self._true_facts = true_facts
        self.usable = [xc.hyp_masks[0], xc.hyp_masks[1]]

    def remaining(self, role_index: int):
        if self.g is None:
            return None
        return self.g - self.spent[role_index]

    def _legal_mask(self) -> int:
        last = self.transcript[-1]
        return (
            self.xc.attackers_mask[last]
            & ~self.attacked
            & ~self.used
            & self.usable[self.to_move]
        )

    def push(self, x: int):
        xc = self.xc
        w = self.to_move
        if self.transcript:
            if not (1 << x) & self._legal_mask():
                raise InputError(f"node {x} is not a legal rebuttal here")
        elif xc.owner_index[x] != 0:
            raise InputError("the opening move belongs to the proponent")
        self.transcript.append(x)
        self.used |= 1 << x
        self.attacked |= xc.targets_mask[x]
        self.spent[w] += xc.costs[x]
        pos = xc.feature_pos_of[x]
        if pos >= 0:
            role = ROLES[w]
            if self.ledger.value(role, pos) is None:
                self.ledger.reveal(role, pos, self.descriptions[w].value(pos))
                adv = 1 - w
                fact_bit = xc.fact_bits[adv].get(pos, 0)
                if fact_bit & self._true_facts[adv]:
                    self.usable[adv] |= fact_bit
        self.to_move = 1 - w


def legal_rebuttals(state: DialogueState) -> set:
    """Nodes the player to move may utter against the last move."""
    if not state.transcript:
        raise InputError("no move to rebut yet")
    return set(iter_bits(state._legal_mask()))


def affordable(moves, remaining_budget, xc: ExpandedCulture) -> set:
    """The subset of ``moves`` whose cost fits the remaining budget."""
    if remaining_budget is None:
        return set(moves)
    if remaining_budget < 0:
        raise InputError("remaining budget must be non-negative")
    return {m for m in moves if xc.costs[m] <= remaining_budget}


def choose(strategy: str, candidates, xc: ExpandedCulture, rng=None):
    """Pick one node from a non-empty candidate set.

    random draws uniformly; min_cost minimises node cost; offensive
    maximises out-degree in the expansion; defensive minimises in-degree.
    Score ties always resolve to the lowest node id.
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


def run_dispute(pr_desc, op_desc, xc: ExpandedCulture, strategy: str, g,
                rng=None, *, true_facts=None) -> DialogueResult:
    """Play one dispute to completion and classify its termination.

    ``g`` is the per-player privacy budget; ``None`` means unrestricted.
    Both players follow the same ``strategy``.  ``rng`` (a random.Random)
    is consulted only by the random strategy.  ``true_facts``, when given,
    must equal ``xc.true_fact_masks(pr_desc, op_desc)``.
    """
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")
    if strategy == RANDOM and rng is None:
        rng = random.Random(0)
    state = DialogueState(xc, pr_desc, op_desc, g, true_facts=true_facts)
    motion = xc.hypothesis(xc.single_motion_id, PR)
    costs = xc.costs
    if g is not None and costs[motion] > g:
        # the proponent cannot even table the motion
        return _result(state, loser=0, termination=BUDGET_FORCED)
    state.push(motion)
    keys = None if strategy == RANDOM else xc.strategy_keys[strategy]
    while True:
        w = state.to_move
        legal = state._legal_mask()
        if not legal:
            return _result(state, loser=w, termination=CONVINCED)
        rem = None if g is None else g - state.spent[w]
        if strategy == RANDOM:
            pool = [x for x in iter_bits(legal) if rem is None or costs[x] <= rem]
            if not pool:
                return _result(state, loser=w, termination=BUDGET_FORCED)
            pick = rng.choice(pool)
        else:
            pick = -1
            best = None
            m = legal
            while m:
                low = m & -m
                x = low.bit_length() - 1
                m ^= low
                if rem is not None and costs[x] > rem:
                    continue
                k = keys[x]
                if best is None or k < best:
                    best = k
                    pick = x
            if pick < 0:
                return _result(state, loser=w, termination=BUDGET_FORCED)
        state.push(pick)


def _result(state: DialogueState, loser: int, termination: str) -> DialogueResult:
    moves = state.xc.moves
    return DialogueResult(
        winner=ROLES[1 - loser],
        transcript=tuple([moves[x] for x in state.transcript]),
        spent={PR: state.spent[0], OP: state.spent[1]},
        termination=termination,
    )
