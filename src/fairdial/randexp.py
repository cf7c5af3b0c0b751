"""Randomised culture experiments: budget sweeps and privacy-cost ECDFs.

Each trial draws its own culture and agent population from streams keyed by
the trial seed, plays every ordered agent pair under each strategy and
budget, and reduces the outcomes to one row per (strategy, budget): mean
subjective loss, mean objective loss, and the precedence-graph distortion
against the full-information referee.
"""

from __future__ import annotations

import bisect
import csv
import io
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations

from ._util import derive_seed, fmt_num, parallel_map
from .culture import PR, FeatureDescription, expand, generate_random_culture
from .dialogue import BUDGET_FORCED, STRATEGIES
from .errors import InputError
from .fairness import (
    budget_records,
    dispute_records,
    ground_truth_matrix,
    global_losses,
    precedence_graph,
    OutcomeMatrix,
)
from .stats import mean_ci99

DEFAULT_BUDGET_GRID = tuple(range(0, 61, 5))

# Feature values are drawn uniformly from this inclusive range; it is wide
# so that ties between two agents on a feature stay rare.
FEATURE_VALUE_RANGE = (0, 999)

SWEEP_COLUMNS = ("seed", "strategy", "g", "mean_l_SL", "mean_l_OL", "K_raw", "K_norm")
ECDF_COLUMNS = ("strategy", "z", "proportion")
TRANSCRIPT_COLUMNS = ("trial", "pr_id", "op_id", "strategy", "g", "winner",
                      "termination", "spent_pr", "spent_op", "move_list")


@dataclass(frozen=True)
class TrialConfig:
    """Shape of one trial: population size, culture size, budgets, seed."""

    n_agents: int = 16
    n_args: int = 16
    n_attacks: int = 48
    cost_range: tuple = (1, 20)
    budget_grid: tuple = DEFAULT_BUDGET_GRID
    strategies: tuple = STRATEGIES
    seed: int = 0

    def __post_init__(self):
        if self.n_agents < 2:
            raise InputError("need at least two agents")
        grid = tuple(int(g) for g in self.budget_grid)
        if any(g < 0 for g in grid):
            raise InputError("budgets must be non-negative")
        if list(grid) != sorted(set(grid)):
            raise InputError("budget grid must be strictly ascending")
        object.__setattr__(self, "budget_grid", grid)
        unknown = set(self.strategies) - set(STRATEGIES)
        if unknown:
            raise InputError(f"unknown strategies {sorted(unknown)}")
        object.__setattr__(self, "strategies", tuple(self.strategies))

    @property
    def budgets(self) -> tuple:
        """Budgets every trial plays: the grid, then None (unrestricted)."""
        return self.budget_grid + (None,)


@dataclass(frozen=True)
class TrialRow:
    seed: int
    strategy: str
    g: int
    mean_l_sl: float
    mean_l_ol: float
    k_raw: Fraction
    k_norm: Fraction
    unrestricted: bool = False


def _population(cfg: TrialConfig):
    culture = generate_random_culture(
        cfg.n_args, cfg.n_attacks, cfg.cost_range, derive_seed(cfg.seed, "culture")
    )
    xc = expand(culture)
    rng = random.Random(derive_seed(cfg.seed, "agents"))
    lo, hi = FEATURE_VALUE_RANGE
    n_features = cfg.n_args - 1
    agents = [
        FeatureDescription(tuple(rng.randint(lo, hi) for _ in range(n_features)))
        for _ in range(cfg.n_agents)
    ]
    return xc, agents


def run_trial(cfg: TrialConfig, log=None):
    """All (strategy, budget) rows for one trial seed.

    Outcomes reduce as the pairs stream past, into one win row per agent
    and a budget-forced count per budget.  With ``log``, each row first
    calls ``log(pr, op, strategy, g, result)`` for every dialogue it
    scores, ``g`` being the row's budget label.
    """
    xc, agents = _population(cfg)
    gt = ground_truth_matrix(agents, xc)
    gt_graph = precedence_graph(gt)
    n = cfg.n_agents
    n_pairs = n * (n - 1)
    budgets = cfg.budgets
    rows = []
    for strategy in cfg.strategies:
        wins = [[0] * n for _ in budgets]
        forced = [0] * len(budgets)
        records = []
        for j, k, results in budget_records(agents, xc, strategy, budgets,
                                            cfg.seed, permutations(range(n), 2)):
            for b, res in enumerate(results):
                if res.winner == PR:
                    wins[b][j] |= 1 << k
                if res.termination == BUDGET_FORCED:
                    forced[b] += 1
            if log is not None:
                records.append((j, k, results))
        for b, g in enumerate(budgets):
            label = xc.total_cost if g is None else g
            for j, k, results in records:
                log(j, k, strategy, label, results[b])
            matrix = OutcomeMatrix(tuple(wins[b]))
            k_raw, k_norm = global_losses(gt_graph, precedence_graph(matrix))
            rows.append(
                TrialRow(
                    seed=cfg.seed,
                    strategy=strategy,
                    g=label,
                    mean_l_sl=forced[b] / n_pairs,
                    mean_l_ol=gt.mismatches(matrix) / n_pairs,
                    k_raw=k_raw,
                    k_norm=k_norm,
                    unrestricted=g is None,
                )
            )
    return rows


def trial_seeds(base_seed: int, n_trials: int):
    return [derive_seed(base_seed, "trial", t) for t in range(n_trials)]


def transcript_row(trial, pr_id, op_id, strategy, g, result):
    """One ``TRANSCRIPT_COLUMNS`` row for a played dialogue."""
    return [
        trial, pr_id, op_id, strategy, g, result.winner, result.termination,
        result.spent["pr"], result.spent["op"],
        ";".join(str(m.x_arg) for m in result.transcript),
    ]


def _sweep_worker(args):
    cfg, trial, logged = args
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")

    def log(*record):
        writer.writerow(transcript_row(trial, *record))

    return run_trial(cfg, log if logged else None), text.getvalue()


def sweep(cfg: TrialConfig, n_trials: int, jobs: int = 1, transcripts=None):
    """Run ``n_trials`` independent trials; rows merge in trial order.

    Each trial's dialogues go as CSV to ``transcripts``, a text file if
    given, as soon as that trial's rows arrive.
    """
    if n_trials < 1:
        raise InputError("need at least one trial")
    logged = transcripts is not None
    tasks = [(replace(cfg, seed=s), t, logged)
             for t, s in enumerate(trial_seeds(cfg.seed, n_trials))]
    if logged:
        csv.writer(transcripts, lineterminator="\n").writerow(TRANSCRIPT_COLUMNS)
    rows = []
    for chunk, text in parallel_map(_sweep_worker, tasks, jobs):
        rows += chunk
        if logged:
            transcripts.write(text)
    return rows


@dataclass(frozen=True)
class EcdfTable:
    """Complementary CDF of the budget a dialogue actually needed.

    ``proportions[i]`` is the fraction of dialogues whose peak per-player
    spend exceeded ``thresholds[i]``; the final entry is always zero.
    """

    strategy: str
    thresholds: tuple
    proportions: tuple
    samples: tuple

    def __post_init__(self):
        if not self.thresholds:
            raise InputError("an ECDF table needs at least one threshold")


def _ecdf_from_samples(strategy, samples):
    samples = sorted(samples)
    n = len(samples)
    top = samples[-1] if samples else 0
    thresholds = tuple(range(top + 1))
    proportions = []
    for z in thresholds:
        above = n - bisect.bisect_right(samples, z)
        proportions.append(above / n)
    return EcdfTable(
        strategy=strategy,
        thresholds=thresholds,
        proportions=tuple(proportions),
        samples=tuple(samples),
    )


def _ecdf_worker(args):
    cfg, trial_seed = args
    tcfg = replace(cfg, seed=trial_seed)
    xc, agents = _population(tcfg)
    return {
        strategy: [
            max(res.spent.values())
            for _, _, res in dispute_records(agents, xc, strategy, None, tcfg.seed)
        ]
        for strategy in tcfg.strategies
    }


def ecdf_privacy_cost(cfg: TrialConfig, n_trials: int, jobs: int = 1):
    """Unrestricted-dialogue budget requirements, one table per strategy."""
    if n_trials < 1:
        raise InputError("need at least one trial")
    tasks = [(cfg, s) for s in trial_seeds(cfg.seed, n_trials)]
    samples = {s: [] for s in cfg.strategies}
    for chunk in parallel_map(_ecdf_worker, tasks, jobs):
        for s, vals in chunk.items():
            samples[s].extend(vals)
    return {s: _ecdf_from_samples(s, vals) for s, vals in samples.items()}


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for r in rows:
            writer.writerow(
                [
                    r.seed,
                    r.strategy,
                    r.g,
                    fmt_num(r.mean_l_sl),
                    fmt_num(r.mean_l_ol),
                    fmt_num(float(r.k_raw)),
                    fmt_num(float(r.k_norm)),
                ]
            )


def summarise(rows):
    """Per (strategy, g) means with 99% half-widths over the budget grid."""
    cells = {}
    for r in rows:
        if r.unrestricted:
            continue
        cells.setdefault((r.strategy, r.g), []).append(r)
    out = []
    for (strategy, g) in sorted(cells, key=lambda c: (c[0], c[1])):
        group = cells[strategy, g]
        m_sl, ci_sl = mean_ci99([r.mean_l_sl for r in group])
        m_ol, ci_ol = mean_ci99([r.mean_l_ol for r in group])
        m_k, ci_k = mean_ci99([float(r.k_norm) for r in group])
        out.append(
            {
                "strategy": strategy,
                "g": g,
                "n_trials": len(group),
                "mean_l_SL": m_sl,
                "ci99_l_SL": ci_sl,
                "mean_l_OL": m_ol,
                "ci99_l_OL": ci_ol,
                "mean_K_norm": m_k,
                "ci99_K_norm": ci_k,
            }
        )
    return out


def write_summary_csv(summary, path):
    cols = (
        "strategy", "g", "n_trials", "mean_l_SL", "ci99_l_SL",
        "mean_l_OL", "ci99_l_OL", "mean_K_norm", "ci99_K_norm",
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for row in summary:
            writer.writerow([fmt_num(row[c]) if c not in ("strategy",) else row[c]
                             for c in cols])


def write_ecdf_csv(tables, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ECDF_COLUMNS)
        for strategy in sorted(tables):
            table = tables[strategy]
            for z, p in zip(table.thresholds, table.proportions):
                writer.writerow([strategy, z, fmt_num(p)])


def write_sweep_plot_script(path, summary_csv="sweep_summary.csv"):
    """Emit a gnuplot script for the sweep summary curves."""
    strategies = STRATEGIES
    lines = [
        "# gnuplot script: mean subjective loss and precedence distortion vs budget",
        'set datafile separator ","',
        "set key outside",
        "set xlabel 'privacy budget g'",
        "set terminal pngcairo size 900,600",
        "set output 'sweep_l_SL.png'",
        "set ylabel 'mean subjective loss'",
    ]
    plot_parts = []
    for s in strategies:
        plot_parts.append(
            f"'{summary_csv}' using 2:($1 eq '{s}' ? $4 : 1/0):5 "
            f"with yerrorlines title '{s}'"
        )
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    lines += [
        "set output 'sweep_K_norm.png'",
        "set ylabel 'normalised precedence distortion'",
    ]
    plot_parts = []
    for s in strategies:
        plot_parts.append(
            f"'{summary_csv}' using 2:($1 eq '{s}' ? $8 : 1/0):9 "
            f"with yerrorlines title '{s}'"
        )
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ecdf_plot_script(path, ecdf_csv="ecdf.csv"):
    lines = [
        "# gnuplot script: proportion of dialogues needing more than budget z",
        'set datafile separator ","',
        "set key outside",
        "set xlabel 'privacy budget z'",
        "set ylabel 'proportion of dialogues needing more'",
        "set terminal pngcairo size 900,600",
        "set output 'ecdf.png'",
    ]
    plot_parts = []
    for s in STRATEGIES:
        plot_parts.append(
            f"'{ecdf_csv}' using 2:($1 eq '{s}' ? $3 : 1/0) "
            f"with steps title '{s}'"
        )
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
