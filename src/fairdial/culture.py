"""Cultures and their two-party expansion.

A culture is a shared argumentation framework whose arguments speak about
agent features: each non-motion argument ``a`` reads "my feature a outranks
yours".  One or more motion arguments ("I have right of way") carry no
feature.  When two agents dispute, the culture is expanded into a framework
of owned arguments: each side gets a hypothesis node per argument, plus a
fact node per non-motion argument.  Hypotheses merely claim the comparison;
facts assert it and are verifiable once the adversary's value is on record.

Expansion attack rules, for players w and their adversary w':

1. the two hypotheses of the same non-motion argument attack each other;
2. the two facts of the same argument attack each other;
3. each fact attacks the adversary's hypothesis on the same argument;
4. for every culture attack (a, b): w's hypothesis on a attacks w's
   adversary's hypothesis on b, and the adversary's fact on b when b is not
   a motion.  Facts never reproduce culture attacks; only hypotheses do.

Every attack crosses ownership, so expanded frameworks are bipartite
between the players.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import cached_property

from .af import Framework
from .errors import InputError, ParseError

PR = "pr"
OP = "op"
ROLES = (PR, OP)

HYPOTHESIS = "H"
FACT = "F"


@dataclass(frozen=True)
class FeatureDescription:
    """An agent's private feature values, indexed by feature position.

    Position k holds the value of the k-th non-motion culture argument in
    argument-id order.  Larger values outrank smaller ones.
    """

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if any(v < 0 for v in self.values):
            raise InputError("feature values must be non-negative")

    def __len__(self):
        return len(self.values)

    def value(self, pos: int) -> int:
        return self.values[pos]


@dataclass(frozen=True)
class CultureArgument:
    arg_id: int
    label: str
    is_motion: bool
    cost: int = 0
    values: tuple | None = None  # ordinal value labels, where the culture names them

    def __post_init__(self):
        if self.cost < 0:
            raise InputError(f"argument {self.arg_id} has negative cost")
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class Culture:
    """A culture: arguments with costs plus attack pairs between them.

    ``x_costs``, when present, assigns an individual cost to every expanded
    node in expansion order and overrides per-argument cost inheritance.
    """

    args: tuple
    attacks: frozenset
    x_costs: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        object.__setattr__(
            self, "attacks", frozenset((int(a), int(b)) for a, b in self.attacks)
        )
        n = len(self.args)
        for i, arg in enumerate(self.args):
            if arg.arg_id != i:
                raise InputError("argument ids must be dense and ordered")
        if not any(a.is_motion for a in self.args):
            raise InputError("a culture needs at least one motion")
        for a, b in self.attacks:
            if not (0 <= a < n and 0 <= b < n):
                raise InputError(f"attack ({a}, {b}) references unknown argument")
            if a == b:
                raise InputError(f"argument {a} may not attack itself")
        if self.x_costs is not None:
            object.__setattr__(self, "x_costs", tuple(int(c) for c in self.x_costs))
            if len(self.x_costs) != self.expanded_size:
                raise InputError(
                    f"x_costs has {len(self.x_costs)} entries, expansion "
                    f"needs {self.expanded_size}"
                )
            if any(c < 0 for c in self.x_costs):
                raise InputError("x_costs must be non-negative")

    @property
    def n_args(self) -> int:
        return len(self.args)

    @cached_property
    def motion_ids(self) -> tuple:
        return tuple(a.arg_id for a in self.args if a.is_motion)

    @cached_property
    def non_motion_ids(self) -> tuple:
        return tuple(a.arg_id for a in self.args if not a.is_motion)

    @cached_property
    def feature_positions(self) -> dict:
        """Maps non-motion argument id to its feature position."""
        return {a: i for i, a in enumerate(self.non_motion_ids)}

    @property
    def expanded_size(self) -> int:
        """Node count after expansion: 2 per motion, 4 per other argument."""
        n_motion = len(self.motion_ids)
        return 2 * n_motion + 4 * (self.n_args - n_motion)


@dataclass(frozen=True)
class ExpandedArgument:
    x_id: int
    origin: int
    kind: str  # HYPOTHESIS or FACT
    owner: str  # PR or OP
    cost: int
    feature_pos: int | None
    label: str


@dataclass(frozen=True)
class Move:
    """One utterance in a dialogue: who said which node, at what cost."""

    player: str
    x_arg: int
    cost_charged: int


class ExpandedCulture:
    """The two-party expansion of a culture, with derived lookup tables.

    Node ids follow expansion order: arguments ascending, each contributing
    H^pr, H^op and, for non-motions, F^pr, F^op.
    """

    def __init__(self, base: Culture):
        self.base = base
        x_args = []
        x_attacks = set()
        hyp = {}  # (arg_id, role_index) -> x_id
        fact = {}
        costs = base.x_costs

        for arg in base.args:
            pos = base.feature_positions.get(arg.arg_id)
            for kind in (HYPOTHESIS,) if arg.is_motion else (HYPOTHESIS, FACT):
                index = hyp if kind == HYPOTHESIS else fact
                for role_idx, role in enumerate(ROLES):
                    x = len(x_args)
                    index[arg.arg_id, role_idx] = x
                    x_args.append(
                        ExpandedArgument(
                            x_id=x,
                            origin=arg.arg_id,
                            kind=kind,
                            owner=role,
                            cost=arg.cost if costs is None else costs[x],
                            feature_pos=pos,
                            label=f"{arg.label}_{kind}^{role}",
                        )
                    )
            if not arg.is_motion:
                a = arg.arg_id
                h_pr, h_op = hyp[a, 0], hyp[a, 1]
                f_pr, f_op = fact[a, 0], fact[a, 1]
                x_attacks.add((h_pr, h_op))  # rule 1
                x_attacks.add((h_op, h_pr))
                x_attacks.add((f_pr, f_op))  # rule 2
                x_attacks.add((f_op, f_pr))
                x_attacks.add((f_pr, h_op))  # rule 3
                x_attacks.add((f_op, h_pr))
        for a, b in base.attacks:
            b_motion = base.args[b].is_motion
            for w in (0, 1):
                w_adv = 1 - w
                x_attacks.add((hyp[a, w], hyp[b, w_adv]))  # rule 4
                if not b_motion:
                    x_attacks.add((hyp[a, w], fact[b, w_adv]))

        self.x_args = tuple(x_args)
        self.x_attacks = frozenset(x_attacks)
        self.n_x = len(x_args)
        self._hyp_index = hyp
        self._fact_index = fact
        self._build_tables()

    def _build_tables(self):
        n = self.n_x
        attackers = [0] * n
        targets = [0] * n
        for a, b in self.x_attacks:
            attackers[b] |= 1 << a
            targets[a] |= 1 << b
        self.attackers_mask = tuple(attackers)
        self.targets_mask = tuple(targets)
        self.in_degree = tuple(m.bit_count() for m in attackers)
        self.out_degree = tuple(m.bit_count() for m in targets)
        self.costs = tuple(a.cost for a in self.x_args)
        self.total_cost = sum(self.costs)
        self.owner_index = tuple(ROLES.index(a.owner) for a in self.x_args)
        hyp_masks = [0, 0]
        owner_masks = [0, 0]
        fact_bits = [{}, {}]
        for a in self.x_args:
            w = ROLES.index(a.owner)
            owner_masks[w] |= 1 << a.x_id
            if a.kind == HYPOTHESIS:
                hyp_masks[w] |= 1 << a.x_id
            else:
                fact_bits[w][a.feature_pos] = 1 << a.x_id
        self.hyp_masks = tuple(hyp_masks)
        self.owner_masks = tuple(owner_masks)
        self.fact_bits = tuple(fact_bits)
        # uttering node x puts its owner's value of x's feature on record,
        # which is what can make the adversary's fact there verifiable
        self.adv_fact = tuple(
            fact_bits[1 - w].get(a.feature_pos, 0)
            for w, a in zip(self.owner_index, self.x_args)
        )
        # cost_levels: the distinct node costs, ascending; aff[i]: the nodes
        # costing less than cost_levels[i] (aff[-1]: every node), so the
        # nodes affordable with r left are aff[bisect_right(cost_levels, r)]
        # and the table grows with the number of distinct costs only
        self.cost_levels = tuple(sorted(set(self.costs)))
        aff = [0]
        for c in self.cost_levels:
            aff.append(aff[-1] | sum(
                1 << x for x, cx in enumerate(self.costs) if cx == c))
        self.aff = tuple(aff)
        # strategy keys: packed (score, id) so a single min() resolves ties
        # in favour of the lowest node id
        shift = max(1, n).bit_length()
        max_out = max(self.out_degree, default=0)
        self.strategy_keys = {
            "min_cost": tuple((c << shift) | x for x, c in enumerate(self.costs)),
            "offensive": tuple(
                ((max_out - d) << shift) | x for x, d in enumerate(self.out_degree)
            ),
            "defensive": tuple(
                (d << shift) | x for x, d in enumerate(self.in_degree)
            ),
        }

    def hypothesis(self, arg_id: int, role: str) -> int:
        return self._hyp_index[arg_id, ROLES.index(role)]

    def fact(self, arg_id: int, role: str) -> int:
        return self._fact_index[arg_id, ROLES.index(role)]

    def true_fact_masks(self, d_pr: FeatureDescription,
                        d_op: FeatureDescription) -> tuple:
        """Per-owner masks (pr, op) of the facts that hold between two agents.

        A fact on feature i holds for its owner iff the owner's value strictly
        exceeds the adversary's; ties hold for neither side.
        """
        op_bits = self.fact_bits[1]
        pr_vals, op_vals = d_pr.values, d_op.values
        pr_mask = op_mask = 0
        for pos, bit in self.fact_bits[0].items():
            if pr_vals[pos] > op_vals[pos]:
                pr_mask |= bit
            elif op_vals[pos] > pr_vals[pos]:
                op_mask |= op_bits[pos]
        return pr_mask, op_mask

    @cached_property
    def moves(self) -> tuple:
        """The Move uttering each node, shared by every transcript.

        Only a node's owner may ever utter it, so a node fixes its Move.
        """
        return tuple(
            Move(player=a.owner, x_arg=a.x_id, cost_charged=a.cost)
            for a in self.x_args
        )

    @cached_property
    def framework(self) -> Framework:
        """The whole expansion as a Framework; node ids are expanded ids."""
        return Framework(n_args=self.n_x, attacks=self.x_attacks)

    @cached_property
    def motion_node(self) -> int:
        """The proponent's hypothesis on the motion, every dialogue's opening."""
        return self.hypothesis(self.single_motion_id, PR)

    @property
    def single_motion_id(self) -> int:
        motions = self.base.motion_ids
        if len(motions) != 1:
            raise InputError("this operation needs a culture with exactly one motion")
        return motions[0]

    def x_arg(self, x_id: int) -> ExpandedArgument:
        return self.x_args[x_id]


def expand(culture: Culture) -> ExpandedCulture:
    """Expand ``culture`` for a pr/op dispute.  Deterministic and total."""
    return ExpandedCulture(culture)


def generate_random_culture(n_args: int, n_attacks: int, cost_range,
                            seed: int) -> Culture:
    """A random single-motion culture over ``n_args`` arguments.

    The motion is argument 0 and carries no outgoing attacks.  Every attack
    points from a higher to a lower argument id, so the culture is acyclic;
    a spanning construction keeps it weakly connected.  Costs are drawn
    per expanded node, uniformly over the inclusive ``cost_range``.
    """
    if n_args < 2:
        raise InputError("need at least the motion and one argument")
    lo, hi = int(cost_range[0]), int(cost_range[1])
    if lo < 0 or hi < lo:
        raise InputError(f"bad cost range {cost_range!r}")
    max_attacks = n_args * (n_args - 1) // 2
    if not n_args - 1 <= n_attacks <= max_attacks:
        raise InputError(
            f"n_attacks must lie in [{n_args - 1}, {max_attacks}] "
            f"for {n_args} arguments"
        )
    rng = random.Random(seed)
    attacks = set()
    for i in range(1, n_args):
        attacks.add((i, rng.randrange(i)))  # keeps the digraph connected
    spare = [
        (i, j)
        for i in range(1, n_args)
        for j in range(i)
        if (i, j) not in attacks
    ]
    attacks.update(rng.sample(spare, n_attacks - len(attacks)))
    args = [CultureArgument(arg_id=0, label="motion", is_motion=True, cost=0)]
    args.extend(
        CultureArgument(arg_id=i, label=f"a{i}", is_motion=False, cost=0)
        for i in range(1, n_args)
    )
    culture = Culture(args=tuple(args), attacks=frozenset(attacks))
    x_costs = tuple(
        rng.randint(lo, hi) for _ in range(culture.expanded_size)
    )
    return Culture(args=culture.args, attacks=culture.attacks, x_costs=x_costs)


# The built-in vessel right-of-way culture.  Each row: label, cost, value
# labels in ascending importance, attacked argument ids.
_BOAT_TABLE = (
    ("motion", 0, None, ()),
    ("VehicleAge", 4,
     ("new", "used", "worn", "old", "vintage"), (0,)),
    ("VehicleCost", 10,
     ("cheap", "ok", "expensive", "very_expensive", "millions"), (0, 1)),
    ("HigherCategory", 0,
     ("civilian", "corporate", "police", "coast_guard", "military"), (0, 1, 2)),
    ("TaskedStatus", 3,
     ("at_ease", "returning", "tasked"), (0, 1, 2, 3)),
    ("PayloadType", 5,
     ("empty", "food", "medical_supplies"), (0, 1, 2)),
    ("TaskNature", 7,
     ("leisure", "sport", "trade", "training", "patrol", "pursuit", "combat"),
     (4, 5)),
    ("VIPOnBoard", 13,
     ("ordinary_person", "business_person", "celebrity", "politician"),
     (0, 1, 2, 4)),
    ("MilitaryRank", 8,
     ("no_rank", "officer", "lieutenant", "commander", "captain", "major",
      "colonel", "general", "admiral"), (3, 5, 6, 7)),
    ("DiplomaticCredentials", 12,
     ("no_credentials", "diplomat", "united_nations"),
     (0, 1, 2, 3, 4, 5, 6, 7, 8)),
    ("SensitivePayload", 15,
     ("no_sensitive_payload", "weapons", "wanted_prisoner"),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9)),
    ("UndercoverOps", 20,
     ("no_spy", "spy"), (3, 4, 6, 7, 8, 10)),
    ("EmergencyNature", 10,
     ("no_emergency", "mechanical", "sick_passenger", "fire"),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    ("SuperVIPOnBoard", 16,
     ("no_super_vip", "prime_minister", "head_of_state"),
     (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)),
)

# Feature positions (argument id - 1) used by the sampling constraints.
_CATEGORY = 2
_TASK_NATURE = 5
_RANK = 7
_SPY = 10


def builtin_boat_culture() -> Culture:
    """The built-in 14-argument vessel culture with its published costs."""
    args = []
    attacks = set()
    for arg_id, (label, cost, values, targets) in enumerate(_BOAT_TABLE):
        args.append(
            CultureArgument(
                arg_id=arg_id,
                label=label,
                is_motion=(arg_id == 0),
                cost=cost,
                values=values,
            )
        )
        for t in targets:
            attacks.add((arg_id, t))
    return Culture(args=tuple(args), attacks=frozenset(attacks))


def sample_boat_agent(seed: int) -> FeatureDescription:
    """Draw a random vessel description honouring the culture's constraints.

    Ranks above officer need a police, coast-guard or military category;
    spies must present as civilian or corporate; patrol, pursuit and combat
    task natures are closed to civilians.
    """
    culture = builtin_boat_culture()
    rng = random.Random(seed)
    sizes = [len(culture.args[a].values) for a in culture.non_motion_ids]
    values = [0] * len(sizes)
    values[_CATEGORY] = rng.randrange(sizes[_CATEGORY])
    category = values[_CATEGORY]
    for pos, size in enumerate(sizes):
        if pos == _CATEGORY:
            continue
        if pos == _RANK and category < 2:
            values[pos] = rng.randrange(2)  # no_rank or officer only
        elif pos == _SPY and category >= 2:
            values[pos] = 0
        elif pos == _TASK_NATURE and category == 0:
            values[pos] = rng.randrange(4)  # leisure .. training
        else:
            values[pos] = rng.randrange(size)
    return FeatureDescription(values=tuple(values))


def culture_to_dict(culture: Culture) -> dict:
    doc = {
        "arguments": [
            {
                "id": a.arg_id,
                "label": a.label,
                "motion": a.is_motion,
                "cost": a.cost,
                **({"values": list(a.values)} if a.values is not None else {}),
                "attacks": sorted(t for s, t in culture.attacks if s == a.arg_id),
            }
            for a in culture.args
        ]
    }
    if culture.x_costs is not None:
        doc["x_costs"] = list(culture.x_costs)
    return doc


def culture_from_dict(doc) -> Culture:
    if not isinstance(doc, dict) or "arguments" not in doc:
        raise ParseError("culture document needs an 'arguments' list")
    raw_args = doc["arguments"]
    if not isinstance(raw_args, list):
        raise ParseError("'arguments' must be a list")
    args = []
    attacks = set()
    for i, entry in enumerate(raw_args):
        if not isinstance(entry, dict):
            raise ParseError(f"argument {i} is not an object")
        try:
            arg_id = int(entry["id"])
            label = str(entry["label"])
            motion = bool(entry["motion"])
            cost = int(entry["cost"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"argument {i} is malformed: {exc}") from None
        values = entry.get("values")
        args.append(
            CultureArgument(
                arg_id=arg_id,
                label=label,
                is_motion=motion,
                cost=cost,
                values=tuple(values) if values is not None else None,
            )
        )
        for t in entry.get("attacks", ()):
            attacks.add((arg_id, int(t)))
    x_costs = doc.get("x_costs")
    try:
        return Culture(
            args=tuple(args),
            attacks=frozenset(attacks),
            x_costs=tuple(x_costs) if x_costs is not None else None,
        )
    except InputError as exc:
        raise ParseError(str(exc)) from None


def save_culture(culture: Culture, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(culture_to_dict(culture), fh, indent=2)
        fh.write("\n")


def load_culture(path) -> Culture:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
    return culture_from_dict(doc)
