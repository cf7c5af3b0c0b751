"""In-memory span recorder that wraps fairdial's layer functions from outside.

Each wrap replaces a module attribute -- the binding the caller looks up at
call time -- with a timing shim, so the traced run sees the same traffic as
an untraced one.  A span holds (name, start, end, parent, workload, trial);
spans stay in memory and are written once, after the workload has finished.
A target that no longer exists is recorded as absent instead of failing, so
a refactor that moves a function shows up in the report, not as a crash.
"""

from __future__ import annotations

import csv
import importlib
import time

# (module, attribute, span name).  The module is the one whose code calls
# the function, so the wrap catches calls made through that binding.
WRAP_TARGETS = (
    ("fairdial.randexp", "run_trial", "randexp.trial"),
    ("fairdial.randexp", "_ecdf_worker", "randexp.trial"),
    ("fairdial.cli", "summarise", "randexp.reduce"),
    ("fairdial.randexp", "_ecdf_from_samples", "randexp.reduce"),
    ("fairdial.randexp", "run_dispute", "dialogue"),
    ("fairdial.boatsim.world", "run_dispute", "dialogue"),
    ("fairdial.fairness", "objective_outcome", "fairness.referee"),
    ("fairdial.boatsim.world", "objective_outcome", "fairness.referee"),
    ("fairdial.fairness", "sceptically_accepted", "af.sceptical"),
    ("fairdial.fairness", "instantiate_ground_truth_framework", "culture.instantiate"),
    ("fairdial.randexp", "global_losses", "fairness.losses"),
    ("fairdial.randexp", "precedence_graph", "fairness.losses"),
    ("fairdial.randexp", "mean_ci99", "stats"),
    ("fairdial.randexp", "expand", "culture.expand"),
    ("fairdial.boatsim.world", "expand", "culture.expand"),
    ("fairdial.boatsim.harness", "_run_one_trial", "boatsim.trial"),
    ("fairdial.boatsim.harness", "run_boat_trial", "boatsim.world"),
    ("fairdial.boatsim.harness", "global_trajectory_losses", "boatsim.metrics.losses"),
    ("fairdial.boatsim.metrics", "discrete_frechet", "boatsim.frechet"),
    ("fairdial.boatsim.harness", "comfort_metrics", "boatsim.metrics.comfort"),
    ("fairdial.cli", "write_sweep_csv", "cli.write"),
    ("fairdial.cli", "write_summary_csv", "cli.write"),
    ("fairdial.cli", "write_sweep_plot_script", "cli.write"),
    ("fairdial.cli", "write_ecdf_csv", "cli.write"),
    ("fairdial.cli", "write_ecdf_plot_script", "cli.write"),
    ("fairdial.cli", "write_boat_summary_csv", "cli.write"),
    ("fairdial.cli", "write_boat_encounters_csv", "cli.write"),
    ("fairdial.cli", "_write_manifest", "cli.write"),
)

# spans that open a new trial; everything below them carries its index
TRIAL_SPANS = frozenset({"randexp.trial", "boatsim.trial"})


def _count_dialogue(counts, result, args):
    counts["dialogue.moves"] += len(result.transcript)
    if result.termination == "budget_forced":
        counts["dialogue.budget_forced"] += 1


def _count_world(counts, result, args):
    counts["boatsim.world.ticks"] += len(result.trajectories[0])
    counts["boatsim.world.encounters"] += len(result.encounters)


def _count_frechet(counts, result, args):
    counts["boatsim.frechet.cells"] += len(args[0]) * len(args[1])


# extra work counters read off a span's arguments or result
RESULT_COUNTERS = {
    "dialogue": _count_dialogue,
    "boatsim.world": _count_world,
    "boatsim.frechet": _count_frechet,
}


class Tracer:
    """Span store plus the wraps that feed it.  One per traced process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.trials = []
        self.counts = {
            "dialogue.moves": 0,
            "dialogue.budget_forced": 0,
            "boatsim.world.ticks": 0,
            "boatsim.world.encounters": 0,
            "boatsim.frechet.cells": 0,
        }
        self.absent = []
        self._stack = []
        self._trial = -1

    def _wrap(self, name, fn):
        names, starts, ends = self.names, self.starts, self.ends
        parents, trials, stack = self.parents, self.trials, self._stack
        counter = RESULT_COUNTERS.get(name)
        opens_trial = name in TRIAL_SPANS
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if opens_trial:
                self._trial += 1
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            trials.append(self._trial)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counter is not None:
                counter(self.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets=WRAP_TARGETS):
        for module_name, attr, span in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(span, fn))

    def summary(self):
        """Per span name: call count, total seconds, self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because the program is
        single-threaded.
        """
        child_time = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_time[i]
        return {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in out.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "name", "start", "end", "parent", "workload", "trial"))
            for i, name in enumerate(self.names):
                writer.writerow(
                    (i, name, repr(self.starts[i]), repr(self.ends[i]),
                     self.parents[i], self.workload, self.trials[i])
                )


def layer_metrics(summary, counts):
    """The per-layer metrics of one traced workload process."""

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return summary.get(name, {}).get(key, 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    disputes = calls("dialogue")
    return {
        "dialogue.disputes": disputes,
        "dialogue.moves": counts["dialogue.moves"],
        "dialogue.budget_forced": counts["dialogue.budget_forced"],
        "dialogue.s": secs("dialogue"),
        "dialogue.us_per_dispute": rate(secs("dialogue") * 1e6, disputes),
        "randexp.trials": calls("randexp.trial"),
        "randexp.trial.s": secs("randexp.trial"),
        "randexp.self_s": secs("randexp.trial", "self_s"),
        "randexp.reduce.s": secs("randexp.reduce"),
        "fairness.referee.rulings": calls("fairness.referee"),
        "fairness.referee.s": secs("fairness.referee"),
        "af.sceptical.calls": calls("af.sceptical"),
        "af.sceptical.s": secs("af.sceptical"),
        "culture.instantiate.calls": calls("culture.instantiate"),
        "culture.instantiate.s": secs("culture.instantiate"),
        "fairness.losses.s": secs("fairness.losses"),
        "stats.s": secs("stats"),
        "boatsim.world.variants": calls("boatsim.world"),
        "boatsim.world.ticks": counts["boatsim.world.ticks"],
        "boatsim.world.encounters": counts["boatsim.world.encounters"],
        "boatsim.world.s": secs("boatsim.world"),
        "boatsim.world.self_s": secs("boatsim.world", "self_s"),
        "boatsim.world.ticks_per_s": rate(counts["boatsim.world.ticks"],
                                          secs("boatsim.world")),
        "boatsim.frechet.pairs": calls("boatsim.frechet"),
        "boatsim.frechet.cells": counts["boatsim.frechet.cells"],
        "boatsim.frechet.s": secs("boatsim.frechet"),
        "boatsim.frechet.cells_per_s": rate(counts["boatsim.frechet.cells"],
                                            secs("boatsim.frechet")),
        "boatsim.metrics.losses.self_s": secs("boatsim.metrics.losses", "self_s"),
        "boatsim.metrics.comfort.s": secs("boatsim.metrics.comfort"),
        "culture.expand.calls": calls("culture.expand"),
        "culture.expand.s": secs("culture.expand"),
        "cli.write.s": secs("cli.write"),
    }


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_dispute"):
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"
