"""Repeat mode: run each workload k times and summarise the end-to-end metrics.

    python3 bench/repeat.py --runs 10 --first-seed 1 [--workload sweep ...]
                            [--save set1.json] [--against set0.json]

Each run is one ``bench/run.py`` call with its own seed (first-seed, +1,
...) and the run length from BENCHMARK.json.  For every end-to-end metric
it prints the median, the quartiles (``statistics.quantiles(n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  ``--against`` takes
a file saved by an earlier call and reports, per metric, how far this
set's median moved in the metric's worse direction, as a share of the
earlier median; a move beyond the bound is marked.  The share of failed
operations of the two sets is compared as well.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args(argv)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    before = json.loads(Path(args.against).read_text()) if args.against else {}

    saved = {}
    for workload in args.workload or names:
        runs = [one_run(workload, args.first_seed + i, spec["run_seconds"])
                for i in range(args.runs)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        saved[workload] = {"runs": runs, "failed_share": failed / attempted}
        print(f"{workload}: {args.runs} runs, {failed}/{attempted} operations failed, "
              f"all correct: {all(r['correct'] for r in runs)}")
        for name, m in metrics.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            line = (f"  {name:14s} median {med:.6g} {m['unit']}  q1 {q1:.6g}  q3 {q3:.6g}"
                    f"  spread {spread:.3f} (bound {m['bound']})")
            if spread > m["bound"] / 3:
                line += "  SPREAD ABOVE A THIRD OF THE BOUND"
            if workload in before:
                old = statistics.median(
                    r["metrics"][name]["value"] for r in before[workload]["runs"])
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                line += f"  vs earlier median {old:.6g}: {worse:+.3f} worse"
                if worse > m["bound"]:
                    line += "  BEYOND THE BOUND"
            print(line)
        if workload in before and before[workload]["failed_share"] != saved[workload]["failed_share"]:
            print(f"  failed share differs: {before[workload]['failed_share']} "
                  f"then, {saved[workload]['failed_share']} now")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
