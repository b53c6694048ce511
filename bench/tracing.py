"""Spans around the calls into each layer, and the per-layer metrics
computed from them.

A span is recorded by replacing a function with a wrapper at the place its
caller looks it up -- ``avgov.analysis.utility`` is what the analysis
functions call, ``avgov.repeated.winner`` what the repeated game calls --
so the program's own files stay untouched.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import csv
import importlib
from time import perf_counter


def _plans(args, kwargs):
    world, horizon = args[0], args[3]
    return (2 ** world.proposals_per_round) ** horizon


def _profiles(args, kwargs):
    instance = args[0]
    return 1 << (instance.n * instance.k)


# (module, attribute, span name, work counter).  The benchmark records
# the cli.main span itself, around each command.
PATCHES = (
    ("avgov.cli", "load_scenario", "cli.load_scenario", None),
    ("avgov.cli", "emit", "cli.emit", None),
    ("avgov.cli", "_write_csv", "cli.write_csv", None),
    ("avgov.analysis", "enumerate_equilibria", "analysis.enumerate_equilibria", _profiles),
    ("avgov.analysis", "is_approx_pne", "analysis.is_approx_pne", None),
    ("avgov.analysis", "best_response", "analysis.best_response", None),
    ("avgov.analysis", "best_response_dynamics", "analysis.best_response_dynamics", None),
    ("avgov.analysis", "utility", "core.utility", None),
    ("avgov.analysis", "winner", "core.winner", None),
    ("avgov.core", "utility", "core.utility", None),
    ("avgov.core", "winner", "core.winner", None),
    ("avgov.repeated", "winner", "core.winner", None),
    ("avgov.repeated", "Instance", "core.Instance", None),
    ("avgov.repeated", "run", "repeated.run", None),
    ("avgov.repeated", "sample_round", "repeated.sample_round", None),
    ("avgov.repeated", "deviation_gap", "repeated.deviation_gap", _plans),
    ("avgov.repeated", "max_discount", "params.max_discount", None),
    ("avgov.params", "derive_schedule", "params.derive_schedule", None),
    ("avgov.params", "validate_schedule", "params.validate_schedule", None),
    ("avgov.params", "deviation_safety_threshold", "params.deviation_safety_threshold", None),
    ("avgov.params", "external_bound_delta", "params.external_bound_delta", None),
    ("avgov.params", "max_discount", "params.max_discount", None),
)

CLI_SPANS = ("cli.main", "cli.load_scenario", "cli.emit", "cli.write_csv")


class Tracer:
    """Records spans ``[name, site, start, end, parent, work]`` while
    installed; ``site`` is the module whose lookup was wrapped."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def _span(self, name, site, work, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append([name, site, perf_counter(), 0.0, stack[-1] if stack else -1, work])
        stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][3] = perf_counter()

    def _wrap(self, module, attr, name, work):
        module = importlib.import_module(module)
        original = getattr(module, attr)
        site = module.__name__.rsplit(".", 1)[-1]

        def traced(*args, **kwargs):
            amount = work(args, kwargs) if work else 0
            return self._span(name, site, amount, original, args, kwargs)

        setattr(module, attr, traced)
        self._saved.append((module, attr, original))

    def install(self):
        for module, attr, name, work in PATCHES:
            self._wrap(module, attr, name, work)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span of its own (a top-level span)."""
        return self._span(name, "bench", 0, fn, args, {})

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "site", "start", "end", "parent", "work"))
            for idx, (name, site, start, end, parent, work) in enumerate(self.spans):
                out.writerow((idx, name, site, repr(start), repr(end), parent, work))


def layer_metrics(spans):
    """Per-layer metrics over all recorded spans: totals, per-call means,
    counts and rates.  Self time is a span's duration minus its children's."""
    child = [0.0] * len(spans)
    for name, site, start, end, parent, work in spans:
        if parent >= 0:
            child[parent] += end - start
    total, count, work_sum, self_time = {}, {}, {}, {}
    params_top = 0.0
    repeated_rounds = 0
    for idx, (name, site, start, end, parent, work) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        count[name] = count.get(name, 0) + 1
        work_sum[name] = work_sum.get(name, 0) + work
        self_time[name] = self_time.get(name, 0.0) + dur - child[idx]
        if name.startswith("params.") and (parent < 0 or not spans[parent][0].startswith("params.")):
            params_top += dur
        if name == "core.winner" and site == "repeated":
            repeated_rounds += 1

    def tot(name):
        return total.get(name, 0.0)

    def mean_us(name):
        return tot(name) / count[name] * 1e6 if count.get(name) else 0.0

    def rate(amount, seconds):
        return amount / seconds if seconds > 0.0 else 0.0

    replay_s = tot("repeated.run") + tot("repeated.deviation_gap")
    return {
        "cli.self_ms": sum(self_time.get(n, 0.0) for n in CLI_SPANS) * 1e3,
        "cli.load_scenario_ms": tot("cli.load_scenario") * 1e3,
        "cli.emit_ms": tot("cli.emit") * 1e3,
        "cli.write_csv_ms": tot("cli.write_csv") * 1e3,
        "analysis.enumerate_s": tot("analysis.enumerate_equilibria"),
        "analysis.profiles_per_s": rate(work_sum.get("analysis.enumerate_equilibria", 0),
                                        tot("analysis.enumerate_equilibria")),
        "analysis.is_approx_pne_us": mean_us("analysis.is_approx_pne"),
        "analysis.best_response_us": mean_us("analysis.best_response"),
        "analysis.dynamics_ms": tot("analysis.best_response_dynamics") * 1e3,
        "core.winner_calls": count.get("core.winner", 0),
        "core.winner_us": mean_us("core.winner"),
        "core.utility_calls": count.get("core.utility", 0),
        "core.utility_us": mean_us("core.utility"),
        "core.instances_built": count.get("core.Instance", 0),
        "repeated.run_s": tot("repeated.run"),
        "repeated.sample_round_ms": tot("repeated.sample_round") * 1e3,
        "repeated.rounds_simulated": repeated_rounds,
        "repeated.rounds_per_s": rate(repeated_rounds, replay_s),
        "repeated.deviation_gap_s": tot("repeated.deviation_gap"),
        "repeated.plans_per_s": rate(work_sum.get("repeated.deviation_gap", 0),
                                     tot("repeated.deviation_gap")),
        "params.ms": params_top * 1e3,
    }
