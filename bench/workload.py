"""One workload process: run a fairdial command, time it, check its outputs.

    python3 bench/workload.py WORKLOAD SEED TRIALS OUT_DIR SPAWN_T MODE

``SPAWN_T`` is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared by all processes), so the set-up time covers
interpreter start, imports, argument parsing and the output directory.  The
command goes through ``fairdial.cli.main`` exactly as the ``fairdial``
script would call it.  The only hooks an untraced process installs time
the trial phase and, for boats, keep a small digest of each simulated
world for the checks.  MODE is ``plain``; ``traced`` wraps every layer
function as well (see spans.py); ``setup`` stops when the first trial
would start and reports the set-up time only, so a run can sample set-up
more often than it runs trials.

The last line of standard output is one JSON object describing the run.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import fairdial.cli as cli

BOAT_BUDGET = 30
STRIDE = 20  # ticks between Fréchet samples, fairdial's default

# the cli binding that runs all trials
ENTRY = {"sweep": "sweep", "ecdf": "ecdf_privacy_cost", "boats": "run_boat_experiment"}


def command(workload, seed, trials, out_dir):
    """The fairdial argv of a workload; everything else at CLI defaults."""
    common = ["--trials", str(trials), "--seed", str(seed), "--jobs", "1",
              "--out", str(out_dir)]
    if workload == "boats":
        return ["boats", "--mode", "all", "--strategy", "all",
                "--budget", str(BOAT_BUDGET)] + common
    return [workload] + common


class SetupDone(BaseException):
    """Raised at the start of the trial phase in ``setup`` mode."""


def main(argv):
    workload, seed, trials, out_dir, spawn_t, mode = argv
    seed, trials, spawn_t = int(seed), int(trials), float(spawn_t)
    out_dir = Path(out_dir)
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer(workload)
        tracer.install()

    marks = {}
    entry = getattr(cli, ENTRY[workload])

    def timed_entry(*args, **kwargs):
        marks["start"] = time.monotonic()
        if mode == "setup":
            raise SetupDone
        marks["result"] = entry(*args, **kwargs)
        marks["end"] = time.monotonic()
        return marks["result"]

    setattr(cli, ENTRY[workload], timed_entry)

    digests = {}
    if workload == "boats":
        from checks import variant_digest
        from fairdial.boatsim import harness

        simulate = harness.run_boat_trial

        def keep_digest(world, strategy, g, mode):
            result = simulate(world, strategy, g, mode)
            digests[world.seed, mode, strategy] = variant_digest(result, STRIDE)
            return result

        harness.run_boat_trial = keep_digest

    try:
        rc = cli.main(command(workload, seed, trials, out_dir))
    except SetupDone:
        print(json.dumps({"setup_s": marks["start"] - spawn_t}))
        return 0
    done = time.monotonic()
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "trials": trials,
        "setup_s": marks.get("start", done) - spawn_t,
        "trial_s": marks.get("end", done) - marks.get("start", done),
        "wall_s": done - spawn_t,
        "peak_rss_mib": rss_mib,
    }
    if tracer is not None:
        from spans import layer_metrics

        layers = layer_metrics(tracer.summary(), tracer.counts)
        layers["cli.output_bytes"] = sum(
            p.stat().st_size for p in out_dir.iterdir() if p.is_file()
        )
        report["layers"] = layers
        report["absent"] = tracer.absent
        tracer.write(out_dir / "spans.csv")

    import checks
    import numpy

    info = {}
    if rc != 0 or "end" not in marks:
        problems = {t: [f"fairdial exited with code {rc}"] for t in range(trials)}
    elif workload == "sweep":
        problems = checks.check_sweep(out_dir, seed, trials, info)
    elif workload == "ecdf":
        problems = checks.check_ecdf(out_dir, seed, trials, marks["result"])
    else:
        problems = checks.check_boats(out_dir, seed, trials, digests, BOAT_BUDGET,
                                      cli.WorldConfig())
    report["failed_trials"] = sorted(problems)
    report["problems"] = [p for t in sorted(problems) for p in problems[t]][:20]
    report["info"] = info
    report["numpy"] = numpy.__version__
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
