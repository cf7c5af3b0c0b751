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

import operator
from bisect import bisect_right
import random
from dataclasses import dataclass

from .culture import OP, PR, ROLES, ExpandedCulture
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


def run_dispute(pr_desc, op_desc, xc: ExpandedCulture, strategy: str, g,
                rng=None) -> DialogueResult:
    """Play one dispute to completion and classify its termination.

    ``g`` is the per-player privacy budget, an integer; ``None`` means
    unrestricted.
    Both players follow the same ``strategy``: random draws uniformly from
    the affordable legal moves in ascending node order; min_cost, offensive
    and defensive take the lowest ``xc.strategy_keys`` entry (cost, most
    attacks made, fewest attacks received; ties to the lowest node id).
    ``rng`` (a random.Random, default seed 0, made only when a move can be
    drawn) is consulted only by the random strategy.  A draw among ``c``
    moves takes ``getrandbits(c.bit_length())`` until it is below ``c`` and
    picks that set bit in ascending order: ``rng.choice`` over the ascending
    moves, draw for draw, on the stream MT19937 fixes.
    """
    check_strategy(strategy)
    g = check_budget(g)
    check_descriptions(xc, pr_desc, op_desc)
    return _play(xc, strategy, g, rng, xc.true_fact_masks(pr_desc, op_desc))[0]


def check_strategy(strategy):
    if strategy not in STRATEGIES:
        raise InputError(f"unknown strategy {strategy!r}")


def check_budget(g):
    """``g`` as an int, or None for unrestricted; InputError otherwise."""
    if g is None:
        return None
    try:
        g = operator.index(g)
    except TypeError:
        raise InputError(f"budget must be an integer or None, got {g!r}") from None
    if g < 0:
        raise InputError("budget must be non-negative")
    return g


def check_descriptions(xc: ExpandedCulture, pr_desc, op_desc):
    n_features = len(xc.base.non_motion_ids)
    if len(pr_desc) != n_features or len(op_desc) != n_features:
        raise InputError(f"descriptions must carry {n_features} feature values")


def _play(xc: ExpandedCulture, strategy, g, rng, true_facts):
    """Play a checked dispute: its result and the fact nodes whose truth it read.

    A fact becomes usable once the adversary has uttered a node on its
    feature, and only if it holds; unlocking is idempotent, so no record of
    first disclosures is needed.  ``read`` gathers the facts each move can
    unlock, so a deterministic dialogue plays alike for every pair that
    agrees on which facts in ``read`` hold.  The mover's state sits in the
    ``*_me`` locals and is swapped with the other player's after every move.
    """
    motion = xc.motion_node
    costs = xc.costs
    if g is not None and costs[motion] > g:
        # the proponent cannot even table the motion
        return DialogueResult(OP, (), {PR: 0, OP: 0}, BUDGET_FORCED), 0
    if strategy == RANDOM:
        getrandbits = (rng or random.Random(0)).getrandbits
    else:
        keys = xc.strategy_keys[strategy]
    fw = xc.framework
    attackers, targets, adv_fact = fw.attacker_masks, fw.target_masks, xc.adv_fact
    aff, levels = xc.aff, xc.cost_levels
    # the motion is on the table; op moves next
    spent_me, spent_them = 0, costs[motion]
    read = adv_fact[motion]
    usable_me = xc.hyp_masks[1] | (read & true_facts[1])
    usable_them = xc.hyp_masks[0]
    true_me, true_them = true_facts[1], true_facts[0]
    dead = (1 << motion) | targets[motion]  # uttered or attacked
    last = motion
    transcript = [motion]
    while True:
        legal = attackers[last] & usable_me & ~dead
        if not legal:
            termination = CONVINCED
            break
        if g is not None:
            legal &= aff[bisect_right(levels, g - spent_me)]
            if not legal:
                termination = BUDGET_FORCED
                break
        if strategy == RANDOM:
            c = legal.bit_count()
            k = c.bit_length()
            r = getrandbits(k)
            while r >= c:
                r = getrandbits(k)
            for _ in range(r):
                legal &= legal - 1
            x = (legal & -legal).bit_length() - 1
        else:
            best = None
            while legal:
                low = legal & -legal
                y = low.bit_length() - 1
                if best is None or keys[y] < best:
                    x, best = y, keys[y]
                legal ^= low
        transcript.append(x)
        dead |= (1 << x) | targets[x]
        read |= adv_fact[x]
        usable_them |= adv_fact[x] & true_them
        spent_me += costs[x]
        last = x
        spent_me, spent_them = spent_them, spent_me
        usable_me, usable_them = usable_them, usable_me
        true_me, true_them = true_them, true_me
    # the player due to move loses; len(transcript) is odd when it is op
    op_lost = len(transcript) & 1
    spent_op, spent_pr = (spent_me, spent_them) if op_lost else (spent_them, spent_me)
    moves = xc.moves
    return DialogueResult(
        ROLES[1 - op_lost],
        tuple([moves[x] for x in transcript]),
        {PR: spent_pr, OP: spent_op},
        termination,
    ), read
