"""End-to-end and per-layer benchmark for avgov.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs ``avgov.cli.main(argv)`` in this process and thread on scenario files
generated from the seed, checks every output, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` they are the per-layer
ones from a traced batch plus the tracing overhead.  End-to-end times are
rescaled to one machine speed by the probe in ``speed.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Set-up is repeated this many times and its median reported; the first
# one also pays for importing numpy.
SETUPS = 15

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "command_p50_ms": "ms",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.self_ms": "ms", "cli.load_scenario_ms": "ms", "cli.emit_ms": "ms",
    "cli.write_csv_ms": "ms",
    "analysis.enumerate_s": "s", "analysis.profiles_per_s": "1/s",
    "analysis.is_approx_pne_us": "us", "analysis.best_response_us": "us",
    "analysis.dynamics_ms": "ms",
    "core.winner_calls": "count", "core.winner_us": "us", "core.utility_calls": "count",
    "core.utility_us": "us", "core.instances_built": "count",
    "repeated.run_s": "s", "repeated.sample_round_ms": "ms",
    "repeated.rounds_simulated": "count", "repeated.rounds_per_s": "1/s",
    "repeated.deviation_gap_s": "s", "repeated.plans_per_s": "1/s",
    "params.ms": "ms",
    "trace.overhead_s": "s",
}


@dataclass
class Result:
    rc: object
    stdout: str
    stderr: str
    csv_text: str | None
    start: float
    seconds: float

    def digest(self):
        h = hashlib.sha256(f"{self.rc}\n{self.stdout}".encode())
        h.update((self.csv_text or "").encode())
        return h.hexdigest()


def execute(cli, cmd, call=None):
    """Run one command; only the cli.main call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = call("cli.main", cli.main, list(cmd.argv)) if call else cli.main(list(cmd.argv))
        except Exception as exc:  # a traceback is a failed operation, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    csv_text = None
    if cmd.out is not None and os.path.exists(cmd.out):
        with open(cmd.out) as fh:
            csv_text = fh.read()
        os.remove(cmd.out)
    return Result(rc, out.getvalue(), err.getvalue(), csv_text, start, seconds)


def fresh_import():
    """Import avgov from this checkout's sources, dropping any copy
    imported before, so that every set-up pays the package import."""
    for name in [m for m in sys.modules if m == "avgov" or m.startswith("avgov.")]:
        del sys.modules[name]
    cli = importlib.import_module("avgov.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"error: avgov imported from {cli.__file__}, not from {SRC}")
    return cli


class Ledger:
    """Attempted and failed operations; the first output of each command
    is checked, later ones must repeat it byte for byte."""

    def __init__(self, checks):
        self.checks = checks
        self.attempted = self.failed = 0
        self.correct = True
        self.verdicts = {}

    def judge(self, cmd, result, count=True):
        digest = result.digest()
        key = (cmd.argv, digest)
        if key not in self.verdicts:
            if any(argv == cmd.argv for argv, _ in self.verdicts):
                problems, notes = ["output differs from an earlier run of the command"], []
            else:
                problems, notes = self.checks.check(cmd, result.rc, result.stdout,
                                                    result.csv_text)
            self.verdicts[key] = problems
            for line in notes:
                print(f"note: {line}", file=sys.stderr)
            if problems:
                tag = f"known fault: {cmd.known_fault}" if cmd.known_fault else "FAILED"
                print(f"{tag}: {cmd.label}: " + "; ".join(problems[:3]), file=sys.stderr)
                if result.stderr and not cmd.known_fault:
                    print(result.stderr.strip()[-2000:], file=sys.stderr)
        problems = self.verdicts[key]
        if problems and not cmd.known_fault:
            self.correct = False
        if count:
            self.attempted += 1
            self.failed += bool(problems)


def run_batches(cli, plan, ledger, budget):
    """Whole batches until the next would overrun ``budget`` seconds of
    command wall time (at least one).  Returns the ``(start, end)`` wall
    interval of each command, batch by batch."""
    batches, spent = [], 0.0
    while True:
        intervals = []
        for cmd in plan.batch:
            result = execute(cli, cmd)
            intervals.append((result.start, result.start + result.seconds))
            ledger.judge(cmd, result)
        batches.append(intervals)
        last = sum(end - start for start, end in intervals)
        spent += last
        if spent + last > budget:
            return batches


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "avgov" / "__init__.py").is_file():
        print(f"error: no avgov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import scenarios
    import speed
    if args.workload not in scenarios.WORKLOADS:
        print(f"error: workload must be one of {scenarios.WORKLOADS}", file=sys.stderr)
        return 2

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # The traced run reports wall times: the probe's readings would land
    # inside the layer spans.
    probe = speed.SpeedProbe()
    try:
        if not args.trace:
            probe.start()
        setups = []
        for _ in range(SETUPS):
            start = perf_counter()
            cli = fresh_import()
            plan = scenarios.build(args.workload, args.seed, str(workdir))
            scenarios.write_files(plan, str(workdir))
            warmup = execute(cli, plan.warmup)
            setups.append((start, perf_counter()))

        import checks  # after the last fresh import: the checks use the same modules
        ledger = Ledger(checks)
        ledger.judge(plan.warmup, warmup, count=False)
        if not args.trace:
            batches = run_batches(cli, plan, ledger, args.seconds)
            probe.stop()
            latencies = [[probe.scaled(*interval) for interval in intervals]
                         for intervals in batches]
            metrics = {
                "setup_s": statistics.median(probe.scaled(*s) for s in setups),
                "run_s": statistics.median(sum(times) for times in latencies),
                "command_p50_ms": statistics.median(t for times in latencies
                                                    for t in times) * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = END_TO_END_UNITS
        else:
            metrics = traced_run(cli, plan, ledger, args, workdir)
            units = PER_LAYER_UNITS
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def traced_run(cli, plan, ledger, args, workdir):
    """Untraced batches for half the budget, then one traced batch and the
    layer probe.  The probe runs every workload's warm-up command (and one
    equilibrium construction), so that each layer is measured on every
    workload; like the warm-up it is checked but not counted as an
    operation.  Outputs are checked after the tracer is removed, so the
    checks' own calls into the library record no spans."""
    import scenarios
    import tracing

    untraced = [sum(end - start for start, end in intervals)
                for intervals in run_batches(cli, plan, ledger, args.seconds / 2)]
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    probe = []
    for name in scenarios.WORKLOADS:
        other = scenarios.build(name, args.seed, str(probe_dir))
        scenarios.write_files(other, str(probe_dir))
        probe.append(other.warmup)
    probe.append(scenarios.Command(argv=("reproduce", "prop3"), check="reproduce"))

    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [execute(cli, cmd, tracer.call) for cmd in plan.batch]
        probed = [execute(cli, cmd, tracer.call) for cmd in probe]
    finally:
        tracer.uninstall()
    for cmd, result in zip(plan.batch, traced):
        ledger.judge(cmd, result)
    for cmd, result in zip(probe, probed):
        ledger.judge(cmd, result, count=False)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = (sum(r.seconds for r in traced)
                                   - statistics.median(untraced))
    tracer.write(OUT / f"spans-{args.workload}.csv")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
