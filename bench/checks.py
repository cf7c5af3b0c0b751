"""Output checks for the benchmark workloads.

The checks compare fairdial's outputs with computations made here from the
documented rules -- a separate two-party expansion, a grounded-labelling
referee, a precedence census and a plain discrete-Fréchet recurrence -- or
with properties the method must have.  None compares against a stored copy
of earlier output.  Each check function returns ``{trial index: [problem,
...]}``; a trial with any problem counts as a failed operation.
"""

from __future__ import annotations

import bisect
import csv
from collections import Counter
from fractions import Fraction

import numpy as np

PR, OP = "pr", "op"
ROLES = (PR, OP)
FORCED = "budget_forced"
DETERMINISTIC = ("min_cost", "offensive", "defensive")
TOL = 1e-9  # CSV numbers carry 10 significant digits


def _close(a, b):
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class Expansion:
    """Two-party expansion of a culture, built from the documented rules.

    Node order: arguments ascending, each giving H^pr, H^op and, for a
    non-motion, F^pr, F^op.  Attacks: the two hypotheses of a non-motion
    attack each other, so do its two facts, each fact attacks the
    adversary's hypothesis on the same argument, and a culture attack
    (a, b) makes H^w(a) attack H^w'(b) and, for a non-motion b, F^w'(b).
    """

    def __init__(self, culture):
        self.owner = []  # 0 = pr, 1 = op
        self.is_fact = []
        self.pos = []  # feature position, -1 for the motion
        self.cost = []
        hyp, fact = {}, {}
        non_motion = [a.arg_id for a in culture.args if not a.is_motion]
        pos_of = {a: i for i, a in enumerate(non_motion)}
        for arg in culture.args:
            kinds = (False,) if arg.is_motion else (False, True)
            for is_fact in kinds:
                for w in (0, 1):
                    x = len(self.owner)
                    (fact if is_fact else hyp)[arg.arg_id, w] = x
                    self.owner.append(w)
                    self.is_fact.append(is_fact)
                    self.pos.append(pos_of.get(arg.arg_id, -1))
                    base = culture.x_costs[x] if culture.x_costs is not None else arg.cost
                    self.cost.append(base)
        attacks = set()
        for a in non_motion:
            for w in (0, 1):
                attacks.add((hyp[a, w], hyp[a, 1 - w]))
                attacks.add((fact[a, w], fact[a, 1 - w]))
                attacks.add((fact[a, w], hyp[a, 1 - w]))
        for a, b in culture.attacks:
            for w in (0, 1):
                attacks.add((hyp[a, w], hyp[b, 1 - w]))
                if (b, 1 - w) in fact:
                    attacks.add((hyp[a, w], fact[b, 1 - w]))
        self.attacks = attacks
        self.attackers = [[] for _ in self.owner]
        for a, b in attacks:
            self.attackers[b].append(a)
        motions = [a.arg_id for a in culture.args if a.is_motion]
        self.motion = hyp[motions[0], 0]
        self.total_cost = sum(self.cost)

    def fact_holds(self, x, descs):
        """Full information: a fact stands when its owner's value is higher."""
        w = self.owner[x]
        return descs[w].values[self.pos[x]] > descs[1 - w].values[self.pos[x]]

    def ruling(self, d_pr, d_op):
        """Grounded-labelling referee: PR, OP, or None when undecided.

        Grounded IN lies in every preferred extension and grounded OUT in
        none, so a decided motion gives the sceptical (preferred) answer.
        """
        descs = (d_pr, d_op)
        alive = [not f or self.fact_holds(x, descs) for x, f in enumerate(self.is_fact)]
        label = [None] * len(alive)  # True = IN, False = OUT
        changed = True
        while changed:
            changed = False
            for x, live in enumerate(alive):
                if not live or label[x] is not None:
                    continue
                atk = [a for a in self.attackers[x] if alive[a]]
                if any(label[a] is True for a in atk):
                    label[x] = False
                    changed = True
                elif all(label[a] is False for a in atk):
                    label[x] = True
                    changed = True
        verdict = label[self.motion]
        return None if verdict is None else (PR if verdict else OP)


def dialogue_problems(exp, d_pr, d_op, g, res):
    """Rule violations in one dialogue result; empty when it is sound."""
    moves = res.transcript
    xs = [m.x_arg for m in moves]
    probs = []
    if not xs:
        if not (g is not None and exp.cost[exp.motion] > g and res.termination == FORCED
                and res.winner == OP):
            probs.append("empty transcript without an unaffordable motion")
        return probs
    if xs[0] != exp.motion:
        probs.append("dialogue does not open with the proponent's motion")
    if len(set(xs)) != len(xs):
        probs.append("a node is uttered twice")
    descs = (d_pr, d_op)
    revealed = (set(), set())
    spent = [0, 0]
    for i, m in enumerate(moves):
        w = i % 2
        x = m.x_arg
        if m.player != ROLES[w] or exp.owner[x] != w:
            probs.append(f"move {i} is not the mover's own node")
        if i and (x, xs[i - 1]) not in exp.attacks:
            probs.append(f"move {i} does not attack the previous move")
        if exp.is_fact[x] and not (exp.pos[x] in revealed[1 - w] and exp.fact_holds(x, descs)):
            probs.append(f"move {i} is an unverifiable fact")
        if m.cost_charged != exp.cost[x]:
            probs.append(f"move {i} charged {m.cost_charged}, node costs {exp.cost[x]}")
        spent[w] += exp.cost[x]
        if exp.pos[x] >= 0:
            revealed[w].add(exp.pos[x])
    if [res.spent[PR], res.spent[OP]] != spent:
        probs.append(f"spend {res.spent} differs from charged costs {spent}")
    if g is not None and max(spent) > g:
        probs.append(f"spend {spent} exceeds budget {g}")
    if g is None and res.termination == FORCED:
        probs.append("unrestricted dialogue ended budget_forced")
    if res.winner != ROLES[(len(xs) - 1) % 2]:
        probs.append("winner is not the player who moved last")
    return probs


def _precedence(winner, n):
    """Arc state per unordered pair (j < k): 1 for j->k, -1 for k->j, 0 none.

    ``winner[j, k]`` may be None (undecided); the state is then None.
    """
    states = {}
    for j in range(n):
        for k in range(j + 1, n):
            a, b = winner[j, k], winner[k, j]
            if a is None or b is None:
                states[j, k] = None
            elif a == PR and b == OP:
                states[j, k] = 1
            elif a == OP and b == PR:
                states[j, k] = -1
            else:
                states[j, k] = 0
    return states


def _census_bounds(gt, re):
    """Lower and upper dissimilarity K_raw; unknown pairs add 0 to 1.

    Reversed pairs weigh 1, pairs arced in one graph only 2/3, pairs arced
    in neither 1/3, agreeing arcs nothing.
    """
    lo = Fraction(0)
    unknown = 0
    for key, s1 in gt.items():
        s2 = re[key]
        if s1 is None:
            unknown += 1
        elif s1 == s2:
            lo += Fraction(1, 3) if s1 == 0 else 0
        elif s1 == 0 or s2 == 0:
            lo += Fraction(2, 3)
        else:
            lo += 1
    return lo, lo + unknown


def _population(seed):
    from fairdial.randexp import TrialConfig, _population

    return _population(TrialConfig(seed=seed))


def _sampled_dialogues(xc, exp, agents, strategy, g, seed, probs):
    """Re-run one (strategy, g) cell through fairdial and vet each dialogue."""
    from fairdial.fairness import dispute_records

    out = {}
    for j, k, res in dispute_records(agents, xc, strategy, g, seed):
        for p in dialogue_problems(exp, agents[j], agents[k], g, res):
            probs.append(f"{strategy} g={g} pair ({j},{k}): {p}")
        out[j, k] = res
    return out


def _replay_at_peak(xc, agents, strategy, results, probs):
    """A deterministic dialogue replays unchanged at g = its peak spend."""
    from fairdial.dialogue import run_dispute

    for (j, k), res in results.items():
        peak = max(res.spent.values())
        again = run_dispute(agents[j], agents[k], xc, strategy, peak)
        if again.transcript != res.transcript or again.winner != res.winner:
            probs.append(f"{strategy} pair ({j},{k}) changes when replayed at g={peak}")


def check_sweep(out_dir, round_seed, n_trials, info):
    """sweep.csv ranges and edges, plus a full recomputation of trial 0."""
    from fairdial.randexp import DEFAULT_BUDGET_GRID, trial_seeds
    from fairdial.dialogue import STRATEGIES

    seeds = trial_seeds(round_seed, n_trials)
    trial_of = {str(s): t for t, s in enumerate(seeds)}
    problems = {t: [] for t in range(n_trials)}
    rows = _read_csv(out_dir / "sweep.csv")
    cells = {}
    for row in rows:
        t = trial_of.get(row["seed"])
        if t is None:
            problems.setdefault(0, []).append(f"row for unknown seed {row['seed']}")
            continue
        cells.setdefault((t, row["strategy"]), []).append(row)
    per_cell = len(DEFAULT_BUDGET_GRID) + 1
    for t in range(n_trials):
        for strategy in STRATEGIES:
            group = cells.get((t, strategy), [])
            if [int(r["g"]) for r in group[:-1]] != list(DEFAULT_BUDGET_GRID) or len(group) != per_cell:
                problems[t].append(f"{strategy}: rows are not the budget grid plus unrestricted")
                continue
            for r in group:
                for col in ("mean_l_SL", "mean_l_OL", "K_norm"):
                    if not 0.0 <= float(r[col]) <= 1.0:
                        problems[t].append(f"{strategy} g={r['g']}: {col}={r[col]} outside [0, 1]")
            if float(group[0]["mean_l_SL"]) != 1.0:
                problems[t].append(f"{strategy}: l_SL at g=0 is {group[0]['mean_l_SL']}, not 1")
            if float(group[-1]["mean_l_SL"]) != 0.0:
                problems[t].append(f"{strategy}: unrestricted l_SL is {group[-1]['mean_l_SL']}")

    # trial 0, recomputed: referee here, dialogues re-run through fairdial
    seed = seeds[0]
    xc, agents = _population(seed)
    exp = Expansion(xc.base)
    n = len(agents)
    pairs = n * (n - 1)
    half = pairs // 2
    gt = {(j, k): exp.ruling(agents[j], agents[k])
          for j in range(n) for k in range(n) if j != k}
    undecided = sum(1 for v in gt.values() if v is None)
    info["referee_pairs"] = info.get("referee_pairs", 0) + pairs
    info["referee_undecided"] = info.get("referee_undecided", 0) + undecided
    gt_states = _precedence(gt, n)
    probs = problems[0]
    for strategy in STRATEGIES:
        group = cells.get((0, strategy), [])
        if len(group) != per_cell:
            continue
        for r, g in zip(group, list(DEFAULT_BUDGET_GRID) + [None]):
            results = _sampled_dialogues(xc, exp, agents, strategy, g, seed, probs)
            if g is None and strategy in DETERMINISTIC:
                _replay_at_peak(xc, agents, strategy, results, probs)
            forced = sum(1 for res in results.values() if res.termination == FORCED)
            wrong = sum(1 for key, res in results.items()
                        if gt[key] is not None and res.winner != gt[key])
            winners = {key: res.winner for key, res in results.items()}
            k_lo, k_hi = _census_bounds(gt_states, _precedence(winners, n))
            label = f"{strategy} g={r['g']}"
            if not _close(float(r["mean_l_SL"]), forced / pairs):
                probs.append(f"{label}: l_SL {r['mean_l_SL']} != {forced}/{pairs}")
            l_ol = float(r["mean_l_OL"])
            if not (wrong / pairs - TOL <= l_ol <= (wrong + undecided) / pairs + TOL):
                probs.append(f"{label}: l_OL {l_ol} outside referee range")
            k_norm = float(r["K_norm"])
            if not (float(k_lo / half) - TOL <= k_norm <= float(k_hi / half) + TOL):
                probs.append(f"{label}: K_norm {k_norm} outside referee range")
    return {t: p for t, p in problems.items() if p}


def check_ecdf(out_dir, round_seed, n_trials, tables):
    """ecdf.csv shape, agreement with the samples, and trial 0 re-run."""
    from fairdial.randexp import trial_seeds
    from fairdial.dialogue import STRATEGIES

    seeds = trial_seeds(round_seed, n_trials)
    pops = [_population(s) for s in seeds]
    n = len(pops[0][1])
    biggest = max(xc.total_cost for xc, _ in pops)
    rows = _read_csv(out_dir / "ecdf.csv")
    pooled, first = [], []  # problems of the whole round, of trial 0
    for strategy in STRATEGIES:
        ours = [r for r in rows if r["strategy"] == strategy]
        props = [float(r["proportion"]) for r in ours]
        if not ours or props[-1] != 0.0:
            pooled.append(f"{strategy}: ECDF does not end at 0")
        if any(b > a for a, b in zip(props, props[1:])):
            pooled.append(f"{strategy}: proportions increase")
        samples = sorted(tables[strategy].samples)
        if len(samples) != n_trials * n * (n - 1):
            pooled.append(f"{strategy}: {len(samples)} samples, expected {n_trials * n * (n - 1)}")
        if samples and samples[-1] > biggest:
            pooled.append(f"{strategy}: a sample exceeds every culture's total cost")
        for r in ours:
            z = int(r["z"])
            above = (len(samples) - bisect.bisect_right(samples, z)) / max(1, len(samples))
            if not _close(float(r["proportion"]), above):
                pooled.append(f"{strategy} z={z}: proportion {r['proportion']} != {above}")
                break
        # trial 0: re-run its unrestricted dialogues and find them in the pool
        xc, agents = pops[0]
        sub = []
        results = _sampled_dialogues(xc, Expansion(xc.base), agents, strategy, None,
                                     seeds[0], sub)
        if strategy in DETERMINISTIC:
            _replay_at_peak(xc, agents, strategy, results, sub)
        peaks = Counter(max(res.spent.values()) for res in results.values())
        if max(peaks) > xc.total_cost:
            sub.append("a sample exceeds its culture's total cost")
        if peaks - Counter(samples):
            sub.append("trial 0 samples are missing from the pooled ECDF")
        first += [f"{strategy}: {p}" for p in sub]
    problems = {t: list(pooled) for t in range(n_trials) if pooled}
    if first:
        problems.setdefault(0, []).extend(first)
    return problems


def decimate(traj, stride):
    """Every ``stride``-th position plus the final one."""
    idx = list(range(0, len(traj.xs), stride))
    if idx[-1] != len(traj.xs) - 1:
        idx.append(len(traj.xs) - 1)
    return np.column_stack((traj.xs[idx], traj.ys[idx]))


def variant_digest(result, stride):
    """What the boat checks need from one simulated world, kept small."""
    finite = all(
        np.isfinite(a).all()
        for tr, te in zip(result.trajectories, result.telemetry)
        for a in (tr.xs, tr.ys, tr.headings, tr.speeds, te.lat_acc, te.yaw_rate, te.lat_jerk)
    )
    arrived = all(te.arrival_index < len(te.ts) for te in result.telemetry)
    traces = [decimate(tr, stride) for tr in result.trajectories]
    return {"finite": finite, "arrived": arrived, "traces": traces}


def frechet(p, q):
    """Discrete Fréchet distance by the row-by-row coupling recurrence."""
    m = len(q)
    qx, qy = q[:, 0], q[:, 1]
    prev = None
    for px, py in p:
        d = np.hypot(px - qx, py - qy).tolist()
        row = [0.0] * m
        if prev is None:
            run = d[0]
            for j in range(m):
                run = max(run, d[j])
                row[j] = run
        else:
            row[0] = max(prev[0], d[0])
            for j in range(1, m):
                best = min(prev[j], prev[j - 1], row[j - 1])
                row[j] = best if best > d[j] else d[j]
        prev = row
    return prev[-1]


def check_boats(out_dir, round_seed, n_trials, digests, g, world):
    """Encounter bounds, arrival, finiteness and sampled Fréchet values.

    ``digests`` maps (world seed, mode, strategy) to a variant digest.
    """
    from fairdial._util import derive_seed
    from fairdial.dialogue import STRATEGIES

    problems = {t: [] for t in range(n_trials)}
    for row in _read_csv(out_dir / "boats_encounters.csv"):
        probs = problems.setdefault(int(row["trial"]), [])
        z, r_act = int(row["z"]), float(row["r_act"])
        tag = f"{row['strategy']} {row['mode']} ({row['first']},{row['second']})"
        if row["mode"] == "objective" and (z != 0 or row["termination"] == FORCED):
            probs.append(f"{tag}: objective encounter spent {z} / {row['termination']}")
        if not world.r_crit - TOL <= r_act <= world.r_max + TOL:
            probs.append(f"{tag}: r_act {r_act} outside [r_crit, r_max]")
        if not 0 <= z <= 2 * g:
            probs.append(f"{tag}: z={z} outside [0, 2g]")
    summary = {}
    for row in _read_csv(out_dir / "boats_summary.csv"):
        summary[int(row["trial"]), row["strategy"], int(row["agent"])] = row
    n = world.n_agents
    # per strategy, one agent and one distortion, cycling through both
    compared = {"omega": ("nominal", "objective"), "omega_p": ("nominal", "subjective"),
                "gap": ("subjective", "objective")}
    for t in range(n_trials):
        wseed = derive_seed(round_seed, "world", t)
        objective = digests.get((wseed, "objective", None))
        for si, strategy in enumerate(STRATEGIES):
            worlds = {"objective": objective,
                      "nominal": digests.get((wseed, "nominal", strategy)),
                      "subjective": digests.get((wseed, "subjective", strategy))}
            if any(v is None for v in worlds.values()):
                problems[t].append(f"{strategy}: a world variant was not simulated")
                continue
            for mode, dig in worlds.items():
                if not dig["finite"]:
                    problems[t].append(f"{strategy} {mode}: non-finite trajectory")
                if not dig["arrived"]:
                    problems[t].append(f"{strategy} {mode}: a boat never arrived")
            agent = (5 * si + 3 * t) % n
            col = ("omega", "omega_p", "gap")[(si + t) % 3]
            a, b = compared[col]
            want = frechet(worlds[a]["traces"][agent], worlds[b]["traces"][agent])
            row = summary.get((t, strategy, agent))
            if row is None or not _close(float(row[col]), want):
                got = None if row is None else row[col]
                problems[t].append(f"{strategy} agent {agent}: {col} {got} != {want!r}")
    return {t: p for t, p in problems.items() if p}
