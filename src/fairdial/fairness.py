"""Fairness bookkeeping: objective outcomes, outcome matrices and losses.

The objective outcome of a pair is what an all-knowing referee would rule:
restrict the expanded culture to what holds under full information, then
ask whether the proponent's motion hypothesis is sceptically accepted (in
every preferred extension).  Comparing the ruling with actual dialogue
outcomes yields the objective local loss; dialogues cut short by the privacy
budget carry the subjective local loss.

Population-level distortion compares precedence digraphs: the ground-truth
and dialogue outcome matrices each induce arcs between agents that beat one
another both ways round, and a weighted census of reversed, one-sided and
missing arcs scores their dissimilarity.  Outcomes and arcs are held as one
bit row per agent, so both losses are popcounts over those rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from ._util import extend_seed, seed_prefix
from .af import sceptically_accepted
from .culture import OP, PR, ExpandedCulture
from .dialogue import (RANDOM, _play, check_budget, check_descriptions,
                       check_strategy)
from .errors import InputError

# How a boat encounter is ruled: by the pair's dialogue (nominal), by the
# dialogue with a budget-forced loser refusing to yield (subjective), or by
# the full-information referee (objective).
NOMINAL = "nominal"
SUBJECTIVE = "subjective"
OBJECTIVE = "objective"
MODES = (NOMINAL, SUBJECTIVE, OBJECTIVE)

Y1 = Fraction(2, 3)  # weight of one-sided disagreement
Y2 = Fraction(1, 3)  # weight of joint absence


def objective_outcome(d_pr, d_op, xc: ExpandedCulture) -> str:
    """Full-information ruling for an ordered pair: PR or OP.

    The referee's framework is the expansion restricted to every hypothesis
    plus the facts that hold between the two descriptions.
    """
    true_pr, true_op = xc.true_fact_masks(d_pr, d_op)
    alive = xc.hyp_masks[0] | xc.hyp_masks[1] | true_pr | true_op
    return PR if sceptically_accepted(xc.motion_node, xc.framework, alive) else OP


@dataclass(frozen=True)
class OutcomeMatrix:
    """Rulings over ordered agent pairs, one win row per agent.

    Bit k of ``pr_wins[j]`` is set when agent j, as proponent, beats agent
    k.  No row may set its own agent's bit or a bit past the last agent.
    """

    pr_wins: tuple

    def __post_init__(self):
        for j, row in enumerate(self.pr_wins):
            if not isinstance(row, int) or row >> self.n_agents or row >> j & 1:
                raise InputError(f"win row {j} of {self.n_agents} agents is {row!r}")

    @property
    def n_agents(self) -> int:
        return len(self.pr_wins)

    def winner(self, pr_agent: int, op_agent: int) -> str:
        if pr_agent == op_agent or not (0 <= pr_agent < self.n_agents
                                        and 0 <= op_agent < self.n_agents):
            raise InputError(f"no ruling for agents ({pr_agent}, {op_agent})")
        return PR if self.pr_wins[pr_agent] >> op_agent & 1 else OP

    def mismatches(self, other: OutcomeMatrix) -> int:
        """Ordered pairs the two matrices rule differently."""
        if other.n_agents != self.n_agents:
            raise InputError("outcome matrices must share the agents")
        return sum((a ^ b).bit_count() for a, b in zip(self.pr_wins, other.pr_wins))


def ground_truth_matrix(agents, xc: ExpandedCulture) -> OutcomeMatrix:
    rows = [0] * len(agents)
    for j, k in permutations(range(len(agents)), 2):
        if objective_outcome(agents[j], agents[k], xc) == PR:
            rows[j] |= 1 << k
    return OutcomeMatrix(tuple(rows))


def budget_records(agents, xc: ExpandedCulture, strategy: str, budgets,
                   seed: int, pairs):
    """Play each ``(pr, op)`` index pair at every budget: (pr, op, results).

    ``pairs`` are the pairs to play, in order: every ordered pair for a
    population, each pair's oriented ``(pr, op)`` for a boat world.
    ``results[i]`` is the dispute at ``budgets[i]`` (``None`` is
    unrestricted), exactly as a fresh ``run_dispute`` would play it, with
    its checks made once per call (each pair's descriptions, per pair).  The
    random strategy re-seeds one generator from a stream per (seed, pair,
    strategy, budget); a budget below the motion's cost ends before any
    draw, so it seeds nothing.  A deterministic strategy walks the budgets
    from the largest down and replays nothing while a budget covers the
    last dialogue's peak per-player spend: a lower budget only removes
    candidates, so every pick stays affordable and stays the lowest-key one,
    and a budget-forced end stays forced.  A replay reads its pair only
    through the facts it unlocks, so a pair that agrees with an earlier
    replay at that budget on those facts shares its (read-only) result.
    """
    check_strategy(strategy)
    budgets = tuple(check_budget(g) for g in budgets)
    descending = sorted(range(len(budgets)),
                        key=lambda i: (budgets[i] is not None, -(budgets[i] or 0)))
    motion_cost = xc.costs[xc.motion_node]
    rng = random.Random() if strategy == RANDOM else None
    memo = {}  # budget -> [(read, truth, result)]
    for j, k in pairs:
        pr, op = agents[j], agents[k]
        check_descriptions(xc, pr, op)
        true_facts = xc.true_fact_masks(pr, op)
        results = [None] * len(budgets)
        if strategy == RANDOM:
            prefix = seed_prefix(seed, "dlg", j, k, strategy)
            for i, g in enumerate(budgets):
                if g is None or g >= motion_cost:
                    rng.seed(extend_seed(prefix, -1 if g is None else g))
                results[i] = _play(xc, strategy, g, rng, true_facts)[0]
        else:
            facts = true_facts[0] | true_facts[1]  # pr and op facts are distinct nodes
            last = peak = None
            for i in descending:
                g = budgets[i]
                if last is None or (g is not None and g < peak):
                    seen = memo.setdefault(g, [])
                    for read, truth, last in seen:
                        if facts & read == truth:
                            break
                    else:
                        last, read = _play(xc, strategy, g, None, true_facts)
                        seen.append((read, facts & read, last))
                    peak = max(last.spent.values())
                results[i] = last
        yield j, k, results


def dispute_records(agents, xc: ExpandedCulture, strategy: str, g, seed: int):
    """Run every ordered-pair dispute once at budget ``g``: (pr, op, result)."""
    pairs = permutations(range(len(agents)), 2)
    for j, k, (res,) in budget_records(agents, xc, strategy, (g,), seed, pairs):
        yield j, k, res


@dataclass(frozen=True)
class PrecedenceGraph:
    """Digraph of settled precedence: arc (j, k) when j outranks k both ways.

    An arc requires agreement across the two orderings of the pair: j wins
    as proponent against k, and k loses its own motion against j.
    ``out[j]`` and ``into[j]`` are bit rows of the heads of j's arcs and of
    the tails of the arcs into j.  Built by ``precedence_graph``.
    """

    out: tuple
    into: tuple

    @property
    def n_agents(self) -> int:
        return len(self.out)


def precedence_graph(matrix: OutcomeMatrix) -> PrecedenceGraph:
    """Arc (j, k) when row j has bit k and row k lacks bit j.

    ``cols[j]`` holds the agents that beat j, so no pair is arced both ways.
    """
    rows = matrix.pr_wins
    cols = [sum(1 << k for k, row in enumerate(rows) if row >> j & 1)
            for j in range(len(rows))]
    return PrecedenceGraph(
        out=tuple(row & ~col for row, col in zip(rows, cols)),
        into=tuple(col & ~row for row, col in zip(rows, cols)),
    )


def pair_census(g1: PrecedenceGraph, g2: PrecedenceGraph):
    """Classify every unordered vertex pair across the two graphs.

    Returns (reversed, one_sided, absent_both, agreeing); the four counts
    partition the n(n-1)/2 pairs.  A reversed or agreeing pair shows once
    in the bit rows, at its tail in ``g1``; an arced pair shows at both ends.
    """
    if g1.n_agents != g2.n_agents:
        raise InputError("precedence graphs must share the vertex set")
    n = g1.n_agents
    reversed_ = agree = arced = 0
    for out1, into1, out2, into2 in zip(g1.out, g1.into, g2.out, g2.into):
        reversed_ += (out1 & into2).bit_count()
        agree += (out1 & out2).bit_count()
        arced += (out1 | into1 | out2 | into2).bit_count()
    arced //= 2
    return reversed_, arced - reversed_ - agree, n * (n - 1) // 2 - arced, agree


def dag_dissimilarity(g1: PrecedenceGraph, g2: PrecedenceGraph) -> Fraction:
    """Weighted disagreement between two precedence digraphs.

    Reversed pairs count 1, pairs arced in exactly one graph count ``Y1``,
    pairs arced in neither count ``Y2``; agreeing arcs are free.
    """
    reversed_, one_sided, absent, _ = pair_census(g1, g2)
    return reversed_ + Y1 * one_sided + Y2 * absent


def global_losses(gt_graph: PrecedenceGraph, re_graph: PrecedenceGraph):
    """Raw and pair-normalised dissimilarity between referee and dialogue."""
    k_raw = dag_dissimilarity(gt_graph, re_graph)
    n = gt_graph.n_agents
    pairs = n * (n - 1) // 2
    if pairs == 0:
        raise InputError("need at least two agents")
    return k_raw, k_raw / pairs
