"""Byte-for-byte pins on every command's stdout and ``--out`` file.

The expected bytes live in ``cli_golden.json`` next to this file.  After a
change that is meant to alter output, record them again with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from avgov import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

PROP4 = {
    "experts": [
        {"weight": 0.49, "beliefs": [0.95, 1.0]},
        {"weight": 0.41, "beliefs": [1.0, 0.95]},
        {"weight": 0.10, "beliefs": [1.0, 0.0]},
    ],
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
    "query": {"mode": "semi", "epsilon": 0},
    "world": {"expertise": [0.9, 0.8, 0.7], "good_prior": 0.5, "k": 2,
              "zeta": 0.1, "gamma": 0.5, "horizon": 3, "seed": 11},
}

# A second small game with side payments: its semi-strategic equilibrium
# moves when the weight-normalized external rewards are dropped, so they
# reach the utilities, the certificate and the derived delta.
SIDE_PAYMENTS = {
    "experts": [
        {"weight": 0.31, "beliefs": [0.72, 0.74], "external": [0.0, 1.09]},
        {"weight": 0.59, "beliefs": [0.35, 0.31]},
        {"weight": 0.43, "beliefs": [0.89, 0.48], "external": [2.99, 0.0]},
    ],
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
}

EXAMPLES = Path(__file__).parent.parent / "examples"

# The 24-bit example at the enumeration guard (12 experts, two proposals).
ENUMERATE24 = json.loads((EXAMPLES / "enumerate24.json").read_text())

# The repeated-game example (three experts, two proposals, H=12).
DEVIATION = json.loads((EXAMPLES / "deviation.json").read_text())

# The example world with expert 0's expertise at 0 and zeta 0.9: expert 0's
# weight steps down by (1 - zeta) toward a rate of 0, reaches 0.0 by
# underflow in round 324, and its realized rewards are then -0.0 while its
# subjective ones are 0.0.
UNDERFLOW = dict(DEVIATION, world=dict(DEVIATION["world"], expertise=[0.0, 0.8, 0.7],
                                       zeta=0.9, horizon=400, seed=1))

# The example world at gamma = max_discount(19, 0.05), the discount cap,
# where the honest-play prune is loosest and the deviation search keeps the
# most states.
DEVIATION_CAP = json.loads((EXAMPLES / "deviation_cap.json").read_text())

# Five experts, three proposals (the CI pin runs it at H=20000).
REPEAT_K3 = json.loads((EXAMPLES / "repeat_k3.json").read_text())

SCENARIOS = {"prop4": PROP4, "external": SIDE_PAYMENTS, "enumerate24": ENUMERATE24,
             "deviation": DEVIATION, "deviation_cap": DEVIATION_CAP,
             "underflow": UNDERFLOW, "repeat_k3": REPEAT_K3}

# case name -> (scenario or None, argv without --scenario and --out)
CASES = {
    "derive-params": ("prop4", ["derive-params"]),
    "validate": ("prop4", ["validate"]),
    "winner-honest": ("prop4", ["winner"]),
    "winner-zeros": ("prop4", ["winner", "--profile", "zeros"]),
    "winner-explicit": ("prop4", ["winner", "--profile", "01|10|11"]),
    "qual": ("prop4", ["qual"]),
    "honest": ("prop4", ["honest"]),
    "construct-pne": ("prop4", ["construct-pne"]),
    "safety": ("prop4", ["safety", "--g", "2.0"]),
    "reward-curve": ("prop4", ["reward-curve", "--samples", "11"]),
    "enumerate-semi": ("prop4", ["enumerate", "--mode", "semi"]),
    "enumerate-strategic": ("prop4", ["enumerate", "--mode", "strategic"]),
    "poa-semi": ("prop4", ["poa", "--mode", "semi"]),
    "poa-strategic": ("prop4", ["poa", "--mode", "strategic", "--epsilon", "0.5"]),
    "dynamics": ("prop4", ["dynamics", "--start", "zeros"]),
    "repeat": ("prop4", ["repeat", "--horizon", "6", "--seed", "4"]),
    "repeat-underflow": ("underflow", ["repeat"]),
    "repeat-k3": ("repeat_k3", ["repeat", "--horizon", "40"]),
    "deviation-gap": ("prop4", ["deviation-gap", "--expert", "1", "--horizon", "3"]),
    # 4^12 plans at the example's own horizon.
    "deviation-example": ("deviation", ["deviation-gap", "--expert", "0"]),
    # 4^40 plans at the discount cap.
    "deviation-cap": ("deviation_cap", ["deviation-gap", "--expert", "2",
                                        "--horizon", "40"]),
    "external-validate": ("external", ["validate"]),
    "external-winner": ("external", ["winner"]),
    "external-enumerate": ("external", ["enumerate"]),
    "external-safety": ("external", ["safety"]),
    "enumerate24-dynamics-semi": ("enumerate24", ["dynamics", "--start", "zeros",
                                                  "--mode", "semi"]),
    "enumerate24-dynamics-strategic": ("enumerate24", ["dynamics", "--start", "zeros",
                                                       "--mode", "strategic"]),
    "enumerate24-construct-pne": ("enumerate24", ["construct-pne"]),
    # A non-empty 24-bit semi list: three equilibria at epsilon 19.
    "enumerate24-semi": ("enumerate24", ["enumerate", "--mode", "semi",
                                         "--epsilon", "19"]),
    # The report over 13,344 strategic equilibria, with little output.
    "enumerate24-poa-strategic": ("enumerate24", ["poa", "--mode", "strategic",
                                                  "--epsilon", "19"]),
    "reproduce-prop4": (None, ["reproduce", "prop4"]),
    "reproduce-thm6": (None, ["reproduce", "thm6", "--eps-weight", "0.05"]),
    "reproduce-prop3": (None, ["reproduce", "prop3", "--n", "3"]),
}


def run_case(name, workdir):
    """Run one case in-process; return its exit code, stdout and the text
    of its ``--out`` file."""
    scenario, argv = CASES[name]
    workdir = Path(workdir)
    argv = list(argv)
    if scenario is not None:
        path = workdir / f"{scenario}.json"
        path.write_text(json.dumps(SCENARIOS[scenario]))
        argv += ["--scenario", str(path)]
    out_path = workdir / f"{name}.out"
    argv += ["--out", str(out_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    return {"code": code, "stdout": stdout.getvalue(),
            "out": out_path.read_bytes().decode()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, golden, tmp_path):
    assert run_case(name, tmp_path) == golden[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        record = {name: run_case(name, tmp) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(record)} cases in {GOLDEN}", file=sys.stderr)
