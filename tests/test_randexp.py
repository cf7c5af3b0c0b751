"""Budget sweeps, ECDF tables and their CSV shapes."""

import csv
from itertools import permutations

import pytest

from fairdial import _util
from fairdial.dialogue import BUDGET_FORCED
from fairdial.errors import InputError
from fairdial.fairness import dispute_records, objective_outcome
from fairdial.randexp import (
    DEFAULT_BUDGET_GRID,
    ECDF_COLUMNS,
    SWEEP_COLUMNS,
    TrialConfig,
    TrialRow,
    _population,
    ecdf_privacy_cost,
    run_trial,
    summarise,
    sweep,
    trial_seeds,
    write_ecdf_csv,
    write_summary_csv,
    write_sweep_csv,
)
from reference_models import reference_arcs, reference_dissimilarity

TINY = TrialConfig(
    n_agents=4, n_args=5, n_attacks=7, budget_grid=(0, 10, 20), seed=9
)


def test_default_trial_emits_56_rows():
    assert DEFAULT_BUDGET_GRID == tuple(range(0, 61, 5))
    rows = run_trial(TrialConfig(seed=1))
    assert len(rows) == 4 * (13 + 1)
    assert all(isinstance(r, TrialRow) for r in rows)
    by_strategy = {s: [r for r in rows if r.strategy == s]
                   for s in ("random", "min_cost", "offensive", "defensive")}
    assert all(len(v) == 14 for v in by_strategy.values())


def test_trial_row_contents():
    rows = run_trial(TINY)
    assert len(rows) == 4 * 4
    for r in rows:
        assert r.seed == 9
        assert 0.0 <= r.mean_l_sl <= 1.0
        assert 0.0 <= r.mean_l_ol <= 1.0
        assert 0 <= r.k_norm <= 1
        if r.unrestricted:
            # a budget covering the whole culture forces nothing
            assert r.mean_l_sl == 0.0
            assert r.g > 20
        else:
            assert r.g in (0, 10, 20)


def _reference_trial(cfg):
    """run_trial rebuilt pair by pair from dispute_records.

    Every budget is played afresh, every ruling is compared with the
    referee's one pair at a time, and K comes from the arc-set census.
    """
    xc, agents = _population(cfg)
    n = cfg.n_agents
    truth = {(j, k): objective_outcome(agents[j], agents[k], xc)
             for j, k in permutations(range(n), 2)}
    gt_arcs = reference_arcs(n, truth)
    n_pairs = n * (n - 1)
    rows = []
    for strategy in cfg.strategies:
        for g in cfg.budgets:
            records = list(dispute_records(agents, xc, strategy, g, cfg.seed))
            forced = sum(res.termination == BUDGET_FORCED for _, _, res in records)
            wrong = sum(res.winner != truth[j, k] for j, k, res in records)
            winners = {(j, k): res.winner for j, k, res in records}
            k_raw = reference_dissimilarity(n, gt_arcs, reference_arcs(n, winners))
            rows.append(TrialRow(
                seed=cfg.seed, strategy=strategy,
                g=xc.total_cost if g is None else g,
                mean_l_sl=forced / n_pairs, mean_l_ol=wrong / n_pairs,
                k_raw=k_raw, k_norm=k_raw / (n_pairs // 2), unrestricted=g is None,
            ))
    return rows


@pytest.mark.parametrize("cfg", [
    TINY,
    TrialConfig(n_agents=6, n_args=8, n_attacks=16, seed=4),
    TrialConfig(seed=trial_seeds(2, 1)[0]),
], ids=["tiny", "small", "headline"])
def test_run_trial_matches_fresh_per_budget_reference(cfg):
    assert run_trial(cfg) == _reference_trial(cfg)


def test_sweep_is_deterministic():
    a = sweep(TINY, n_trials=3)
    b = sweep(TINY, n_trials=3)
    assert a == b
    c = sweep(TrialConfig(
        n_agents=4, n_args=5, n_attacks=7, budget_grid=(0, 10, 20), seed=10),
        n_trials=3)
    assert a != c


def test_parallel_sweep_matches_serial():
    serial = sweep(TINY, n_trials=4, jobs=1)
    parallel = sweep(TINY, n_trials=4, jobs=2)
    assert serial == parallel


def test_worker_count_caps_jobs_at_cpu_count(monkeypatch):
    monkeypatch.setattr(_util.os, "cpu_count", lambda: 2)
    assert _util.worker_count(1) == 1
    assert _util.worker_count(2) == 2
    assert _util.worker_count(10**9) == 2
    monkeypatch.setattr(_util.os, "cpu_count", lambda: None)
    assert _util.worker_count(8) == 1
    for bad in (0, -3):
        with pytest.raises(InputError):
            _util.worker_count(bad)


def test_parallel_map_never_asks_for_more_workers_than_cpus(monkeypatch):
    def no_pool(*_args, **_kwargs):
        raise AssertionError("no worker process may start")

    monkeypatch.setattr(_util.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(_util.multiprocessing, "get_context", no_pool)
    assert list(_util.parallel_map(abs, [-1, 2, -3], jobs=10**9)) == [1, 2, 3]


def test_serial_parallel_map_pulls_one_task_per_result():
    pulled = []

    def tasks():
        for t in (-1, 2, -3):
            pulled.append(t)
            yield t

    results = _util.parallel_map(abs, tasks(), jobs=1)
    assert pulled == []
    assert next(results) == 1 and pulled == [-1]
    assert next(results) == 2 and pulled == [-1, 2]
    assert list(results) == [3] and pulled == [-1, 2, -3]


def test_trial_seeds_are_stable_and_distinct():
    seeds = trial_seeds(0, 10)
    assert seeds == trial_seeds(0, 10)
    assert len(set(seeds)) == 10
    # extending the run leaves earlier trials untouched
    assert trial_seeds(0, 20)[:10] == seeds


def test_sweep_csv_round_trip_and_stability(tmp_path):
    rows = sweep(TINY, n_trials=2)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    with open(p1, newline="", encoding="utf-8") as fh:
        recs = list(csv.reader(fh))
    assert tuple(recs[0]) == SWEEP_COLUMNS
    assert len(recs) == 1 + len(rows)
    for rec, row in zip(recs[1:], rows):
        assert rec[0] == str(row.seed)
        assert rec[1] == row.strategy
        assert rec[2] == str(row.g)
        assert float(rec[3]) == pytest.approx(row.mean_l_sl, abs=1e-9)


def test_summarise_groups_budget_cells():
    rows = sweep(TINY, n_trials=3)
    summary = summarise(rows)
    # unrestricted rows stay out of the summary
    assert len(summary) == 4 * 3
    for cell in summary:
        assert cell["n_trials"] == 3
        assert cell["ci99_l_SL"] >= 0.0
    manual = [r.mean_l_sl for r in rows
              if r.strategy == "random" and r.g == 10 and not r.unrestricted]
    cell = next(c for c in summary if c["strategy"] == "random" and c["g"] == 10)
    assert cell["mean_l_SL"] == pytest.approx(sum(manual) / len(manual))


def test_summary_csv_shape(tmp_path):
    summary = summarise(sweep(TINY, n_trials=2))
    path = tmp_path / "summary.csv"
    write_summary_csv(summary, path)
    with open(path, newline="", encoding="utf-8") as fh:
        recs = list(csv.reader(fh))
    assert recs[0][0] == "strategy" and len(recs) == 1 + len(summary)


def test_ecdf_tables_shape():
    tables = ecdf_privacy_cost(TINY, n_trials=2)
    assert set(tables) == {"random", "min_cost", "offensive", "defensive"}
    for table in tables.values():
        assert len(table.samples) == 2 * 4 * 3  # trials x ordered pairs
        assert list(table.samples) == sorted(table.samples)
        props = table.proportions
        assert all(b <= a for a, b in zip(props, props[1:]))
        assert props[-1] == 0.0
        assert all(0.0 <= p <= 1.0 for p in props)
        assert table.thresholds == tuple(range(max(table.samples) + 1))
        # each proportion is literally the fraction of samples above z
        n = len(table.samples)
        for z, p in zip(table.thresholds, props):
            assert p == sum(1 for s in table.samples if s > z) / n


def test_ecdf_deterministic_and_parallel_equivalent():
    a = ecdf_privacy_cost(TINY, n_trials=2, jobs=1)
    b = ecdf_privacy_cost(TINY, n_trials=2, jobs=2)
    assert a == b


def test_ecdf_csv_shape(tmp_path):
    tables = ecdf_privacy_cost(TINY, n_trials=1)
    path = tmp_path / "ecdf.csv"
    write_ecdf_csv(tables, path)
    with open(path, newline="", encoding="utf-8") as fh:
        recs = list(csv.reader(fh))
    assert tuple(recs[0]) == ECDF_COLUMNS
    assert [r[0] for r in recs[1:]] == sorted(r[0] for r in recs[1:])
    total = sum(len(t.thresholds) for t in tables.values())
    assert len(recs) == 1 + total


def test_config_validation():
    with pytest.raises(InputError):
        TrialConfig(n_agents=1)
    with pytest.raises(InputError):
        TrialConfig(budget_grid=(10, 5))
    with pytest.raises(InputError):
        TrialConfig(budget_grid=(5, 5))
    with pytest.raises(InputError):
        TrialConfig(budget_grid=(-5, 0))
    with pytest.raises(InputError):
        TrialConfig(strategies=("bold",))
    with pytest.raises(InputError):
        sweep(TINY, n_trials=0)
    with pytest.raises(InputError):
        ecdf_privacy_cost(TINY, n_trials=0)
