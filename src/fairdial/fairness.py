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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

from ._util import extend_seed, iter_bits, seed_prefix
from .af import sceptically_accepted
from .culture import OP, PR, ExpandedCulture
from .dialogue import BUDGET_FORCED, RANDOM, DialogueResult, STRATEGIES, run_dispute
from .errors import InputError

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
    unrestricted), exactly as a fresh ``run_dispute`` would play it.  The
    random strategy draws from a seed stream per (seed, pair, strategy,
    budget); a budget below the motion's cost ends before any draw, so it
    seeds nothing.  A deterministic strategy walks the budgets from the largest
    down and replays nothing while a budget covers the last dialogue's peak
    per-player spend: a lower budget only removes candidates, so every pick
    stays affordable and stays the lowest-key one, and a budget-forced end
    stays forced.
    """
    budgets = tuple(budgets)
    descending = sorted(range(len(budgets)),
                        key=lambda i: (budgets[i] is not None, -(budgets[i] or 0)))
    motion_cost = xc.costs[xc.motion_node]
    for j, k in pairs:
        pr, op = agents[j], agents[k]
        true_facts = xc.true_fact_masks(pr, op)
        results = [None] * len(budgets)
        if strategy == RANDOM:
            prefix = seed_prefix(seed, "dlg", j, k, strategy)
            for i, g in enumerate(budgets):
                rng = None
                if g is None or g >= motion_cost:
                    g_key = -1 if g is None else g
                    rng = random.Random(extend_seed(prefix, g_key))
                results[i] = run_dispute(pr, op, xc, strategy, g, rng=rng,
                                         true_facts=true_facts)
        else:
            last = peak = None
            for i in descending:
                g = budgets[i]
                if last is None or (g is not None and g < peak):
                    last = run_dispute(pr, op, xc, strategy, g,
                                       true_facts=true_facts)
                    peak = max(last.spent.values())
                results[i] = last
        yield j, k, results


def dispute_records(agents, xc: ExpandedCulture, strategy: str, g, seed: int):
    """Run every ordered-pair dispute once at budget ``g``: (pr, op, result)."""
    pairs = permutations(range(len(agents)), 2)
    for j, k, (res,) in budget_records(agents, xc, strategy, (g,), seed, pairs):
        yield j, k, res


def result_matrix(agents, xc: ExpandedCulture, strategy: str, g,
                  seed: int) -> OutcomeMatrix:
    rows = [0] * len(agents)
    for j, k, res in dispute_records(agents, xc, strategy, g, seed):
        if res.winner == PR:
            rows[j] |= 1 << k
    return OutcomeMatrix(tuple(rows))


def objective_local_loss(gt_entry: str, re_entry: str) -> int:
    """1 when the dialogue outcome contradicts the referee, else 0."""
    return 0 if gt_entry == re_entry else 1


def subjective_local_loss(result: DialogueResult) -> int:
    """1 when the dialogue was decided by budget exhaustion, else 0."""
    return 1 if result.termination == BUDGET_FORCED else 0


@dataclass(frozen=True)
class PrecedenceGraph:
    """Digraph of settled precedence: arc (j, k) when j outranks k both ways.

    An arc requires agreement across the two orderings of the pair: j wins
    as proponent against k, and k loses its own motion against j.  At most
    one arc may join any two vertices.  ``out[j]`` and ``into[j]`` are bit
    rows of the heads of j's arcs and of the tails of the arcs into j.
    """

    n_agents: int
    arcs: frozenset
    out: tuple = field(init=False, repr=False, compare=False)
    into: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_agents
        out = [0] * n
        into = [0] * n
        for j, k in self.arcs:
            if not (0 <= j < n and 0 <= k < n) or j == k:
                raise InputError(f"bad arc ({j}, {k})")
            if out[k] >> j & 1:
                raise InputError(f"pair {{{j}, {k}}} is arced both ways")
            out[j] |= 1 << k
            into[k] |= 1 << j
        object.__setattr__(self, "out", tuple(out))
        object.__setattr__(self, "into", tuple(into))


def precedence_graph(matrix: OutcomeMatrix) -> PrecedenceGraph:
    """Arc (j, k) when row j has bit k and row k lacks bit j."""
    rows = matrix.pr_wins
    arcs = frozenset((j, k) for j, row in enumerate(rows)
                     for k in iter_bits(row) if not rows[k] >> j & 1)
    return PrecedenceGraph(n_agents=len(rows), arcs=arcs)


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


@dataclass(frozen=True)
class Theorem1Report:
    """Census of unrestricted-budget behaviour over one agent population."""

    n_agents: int
    disputes_per_strategy: int
    budget_forced: int
    subjective_loss_total: int
    re_gt_mismatches: dict
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def theorem1_check(agents, xc: ExpandedCulture, seed: int) -> Theorem1Report:
    """Check that a budget covering every node cost removes budget effects.

    With g at the total expanded cost no dispute can be budget_forced and
    the subjective loss must vanish; violations are collected rather than
    asserted.  Dialogue-vs-referee mismatches are tallied per strategy as an
    observation, not a failure: strategic play may still lose winnable
    disputes.
    """
    g = xc.total_cost
    gt = ground_truth_matrix(agents, xc)
    violations = []
    forced = 0
    sl_total = 0
    mismatches = {}
    for strategy in STRATEGIES:
        rows = [0] * len(agents)
        for j, k, res in dispute_records(agents, xc, strategy, g, seed):
            if res.termination == BUDGET_FORCED:
                forced += 1
                violations.append(
                    f"{strategy}: dispute ({j}, {k}) ended budget_forced at g={g}"
                )
            sl_total += subjective_local_loss(res)
            if res.winner == PR:
                rows[j] |= 1 << k
        mismatches[strategy] = gt.mismatches(OutcomeMatrix(tuple(rows)))
    return Theorem1Report(
        n_agents=len(agents),
        disputes_per_strategy=len(agents) * (len(agents) - 1),
        budget_forced=forced,
        subjective_loss_total=sl_total,
        re_gt_mismatches=mismatches,
        violations=tuple(violations),
    )
