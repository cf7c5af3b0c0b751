"""fairdial benchmark: budget sweep, privacy-cost ECDF and boat crossing.

    python3 bench/run.py --workload {sweep,ecdf,boats} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; fairdial is imported from ``src/``
as it stands, nothing is installed.  A run repeats *rounds* until its time
is spent (at least one round).  A round is one fresh workload process
(bench/workload.py) running a fixed number of trials through
``fairdial.cli.main`` with ``--jobs 1``, then checking its outputs.

--trace 0: every round draws new inputs (CLI seed = N * 1000 + round).
    trials_per_s is all trials of the run over the sum of their rounds'
    trial phases, and wall_s the mean round.  setup_s is the median over
    the rounds and, where there are fewer than SETUP_SAMPLES rounds, extra
    processes that stop at the first trial; peak_rss_mib is the median
    over the rounds.
--trace 1: every round replays the inputs of round 0 twice, once plain and
    once with each layer wrapped (alternating which goes first); per-layer
    numbers are medians over the traced processes, and the tracing
    overhead is the median paired difference in wall time.

Standard output: one line per metric, then one JSON object as the last
line.  A record of the run, with platform details, is written to
bench/_runs/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import unit_of

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# trials per round: sweep and ECDF at the CLI's headline scale, boats one
# full trial (about 25 s on one core), which is also the least a run does
TRIALS = {"sweep": 12, "ecdf": 100, "boats": 1}
SETUP_SAMPLES = 9
CONFIRM_SEED = 7919  # a seed kept out of tuning, for confirming a claim
ROUND_TIMEOUT_S = 170
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s", "peak_rss_mib": "MiB"}


def git_sha():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def start_workload(workload, seed, out_dir, mode, deadline):
    """Start one workload process in ``mode`` and wait for it.

    Returns its last line of output as JSON, or None if it printed none.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawn_t = time.monotonic()
    argv = [sys.executable, str(BENCH / "workload.py"), workload, str(seed),
            str(TRIALS[workload]), str(out_dir), repr(spawn_t), mode]
    timeout = max(1.0, deadline - spawn_t)
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        try:
            out, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            out = ""
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"bench: {workload} {mode} process exited {proc.returncode} "
              f"without a report", file=sys.stderr)
        return None


def run_round(workload, seed, out_dir, traced, deadline):
    """Run one round of trials and return its report."""
    trials = TRIALS[workload]
    report = start_workload(workload, seed, out_dir,
                            "traced" if traced else "plain", deadline)
    if report is None:
        report = {"trials": trials, "failed_trials": list(range(trials)),
                  "problems": ["workload process printed no report"]}
    report["traced"] = traced
    report["seed"] = seed
    return report


def median(values):
    return statistics.median(values) if values else 0.0


def trial_rate(plain):
    """Trials per second of trial phase, over all plain rounds of a run."""
    busy = sum(rep["trial_s"] for rep in plain)
    return sum(rep["trials"] for rep in plain) / busy if busy > 0 else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TRIALS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fairdial" / "cli.py").is_file():
        print(f"bench: no fairdial sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / "bench" / "_runs" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    started = time.monotonic()
    hard_deadline = started + ROUND_TIMEOUT_S
    rounds = []
    r = 0
    while True:
        if args.trace:
            order = (False, True) if r % 2 == 0 else (True, False)
            seed = args.seed * 1000
        else:
            order = (False,)
            seed = args.seed * 1000 + r
        for traced in order:
            out_dir = work / f"r{r:03d}-{'traced' if traced else 'plain'}"
            rounds.append(run_round(args.workload, seed, out_dir, traced, hard_deadline))
        r += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / r > args.seconds:
            break

    attempted = sum(rep["trials"] for rep in rounds)
    failed = sum(len(rep["failed_trials"]) for rep in rounds)
    for rep in rounds:
        for problem in rep["problems"]:
            print(f"bench: {args.workload} seed {rep['seed']}: {problem}", file=sys.stderr)

    ok = [rep for rep in rounds if "wall_s" in rep]
    plain = [rep for rep in ok if not rep["traced"]]
    probes_ok = True
    setups = [rep["setup_s"] for rep in plain]
    p = 0
    while not args.trace and len(setups) < SETUP_SAMPLES and p < SETUP_SAMPLES:
        probe = start_workload(args.workload, args.seed * 1000,
                               work / f"setup{p:02d}", "setup", hard_deadline)
        if probe is None:
            probes_ok = False
        else:
            setups.append(probe["setup_s"])
        p += 1
    metrics = {}
    if args.trace:
        traced = [rep for rep in ok if rep["traced"]]
        # median_low keeps a measured value, so counts stay whole numbers
        for name in (traced[0]["layers"] if traced else {}):
            metrics[name] = statistics.median_low([rep["layers"][name] for rep in traced])
        diffs = []
        for a, b in zip(rounds[::2], rounds[1::2]):
            t, p = (a, b) if a["traced"] else (b, a)
            if "wall_s" in t and "wall_s" in p:
                diffs.append(t["wall_s"] - p["wall_s"])
        metrics["trace.overhead_s"] = median(diffs)
        metrics["trace.absent_targets"] = len(traced[0]["absent"]) if traced else 0
        units = {}
    else:
        # the host's speed drifts in spells of about ten seconds (see
        # README); a mean over the whole run steadies the time metrics best
        metrics = {
            "setup_s": median(setups),
            "wall_s": statistics.fmean(rep["wall_s"] for rep in plain) if plain else 0.0,
            "trials_per_s": trial_rate(plain),
            "peak_rss_mib": median([rep["peak_rss_mib"] for rep in plain]),
        }
        units = E2E_UNITS

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "confirm_seed": CONFIRM_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_round": TRIALS[args.workload],
        "python": platform.python_version(),
        "numpy": ok[0].get("numpy") if ok else None,
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "metrics": metrics,
        "setup_samples": setups,
        "rounds": [{k: v for k, v in rep.items() if k != "layers"} for rep in rounds],
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    result = {
        "correct": failed == 0 and bool(ok) and probes_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units.get(name) or unit_of(name)}
            for name, value in metrics.items()
        },
    }
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} rounds {len(rounds)} attempted {attempted} failed {failed}")
    if args.workload == "sweep":
        info = [rep.get("info", {}) for rep in rounds]
        print(f"sweep referee check skipped "
              f"{sum(i.get('referee_undecided', 0) for i in info)} undecided of "
              f"{sum(i.get('referee_pairs', 0) for i in info)} pairs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
