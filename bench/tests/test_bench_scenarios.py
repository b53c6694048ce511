"""Seeded inputs regenerate byte for byte, another seed passes every check,
and the harness keeps its output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import scenarios
from avgov import cli

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent

# A seed used by no measurement recorded in the README.
SECOND_SEED = 8


def written(workload, seed, workdir):
    workdir.mkdir()
    plan = scenarios.build(workload, seed, str(workdir))
    scenarios.write_files(plan, str(workdir))
    return plan, {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_writes_identical_files(workload, tmp_path):
    plan_a, files_a = written(workload, 5, tmp_path / "a")
    plan_b, files_b = written(workload, 5, tmp_path / "b")
    _, files_c = written(workload, 6, tmp_path / "c")
    assert files_a and files_a == files_b
    assert files_a != files_c
    relative = [tuple(arg.replace(str(tmp_path / "a"), "") for arg in cmd.argv)
                for cmd in plan_a.batch]
    assert relative == [tuple(arg.replace(str(tmp_path / "b"), "") for arg in cmd.argv)
                        for cmd in plan_b.batch]


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_second_seed_passes_every_check(workload, tmp_path):
    plan = scenarios.build(workload, SECOND_SEED, str(tmp_path))
    scenarios.write_files(plan, str(tmp_path))
    for cmd in (plan.warmup,) + plan.batch:
        result = run.execute(cli, cmd)
        problems, _ = checks.check(cmd, result.rc, result.stdout, result.csv_text)
        if cmd.known_fault:
            assert problems, f"{cmd.label}: the known fault no longer shows"
        else:
            assert problems == [], f"{cmd.label}: {problems}"


def test_the_known_fault_is_one_command_of_the_queries_batch(tmp_path):
    plan = scenarios.build("queries", 1, str(tmp_path))
    assert [cmd.known_fault for cmd in plan.batch if cmd.known_fault] == [scenarios.TIE_FAULT]
    for workload in ("enumerate", "repeat", "deviation"):
        assert not any(cmd.known_fault for cmd in scenarios.build(workload, 1, str(tmp_path)).batch)


def harness(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_harness_prints_every_declared_metric(trace, kind):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = harness(ROOT, "--workload", "queries", "--seed", "3", "--seconds", "0.2",
                   "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    batch = len(scenarios.build("queries", 3, "").batch)
    assert doc["attempted"] % batch == 0 and doc["failed"] * batch == doc["attempted"]
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared[kind]}


def test_harness_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = harness(tmp_path, "--workload", "queries", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
