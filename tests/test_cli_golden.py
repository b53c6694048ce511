"""The one list of pinned CLI outputs: every case's exit code, stdout and
``--out`` file, byte for byte.

The expected bytes live in ``cli_golden.json`` next to this file.  A stream
of at most TEXT_LIMIT bytes is recorded as its text, a longer one as its
sha256, and an ``--out`` file that a refused command never wrote as null.
CI runs this file with the rest of the suite; its console-script step only
checks that the installed ``avgov`` script starts.  After a change that is
meant to alter output, record every case again with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of the JSON file.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from avgov import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

# A stream longer than this many bytes is recorded as its sha256.
TEXT_LIMIT = 16 * 1024

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

# The repeated-game example (three experts, two proposals, H=12).
DEVIATION = json.loads((EXAMPLES / "deviation.json").read_text())

# The example world with expert 0's expertise at 0 and zeta 0.9: expert 0's
# weight steps down by (1 - zeta) toward a rate of 0, reaches 0.0 by
# underflow in round 324, and its realized rewards are then -0.0 while its
# subjective ones are 0.0.
UNDERFLOW = dict(DEVIATION, world=dict(DEVIATION["world"], expertise=[0.0, 0.8, 0.7],
                                       zeta=0.9, horizon=400, seed=1))

# Five experts, three proposals, 2,000 rounds; recorded before the repeated
# game moved onto arrays.
FIVE_EXPERTS = {
    "experts": [{"weight": 1.0, "beliefs": [0.5] * 3}] * 5,
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
    "world": {"expertise": [0.93, 0.88, 0.91, 0.86, 0.95], "good_prior": 0.5,
              "k": 3, "zeta": 0.05, "gamma": 0.8, "horizon": 2000, "seed": 12345},
}

# A weight whose rate is 0 decays by (1 - zeta) = 0.4 per round and
# underflows to 0.0; recorded before the run moved onto checked chunks.
DECAY = {
    "experts": [{"weight": 1.0, "beliefs": [0.5, 0.5]}] * 2,
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
    "world": {"expertise": [0.0, 1.0], "good_prior": 0.5, "k": 2, "zeta": 0.6,
              "gamma": 0.5, "horizon": 3000, "seed": 1},
}

# name -> a scenario written out for the run, or an example read by path.
SCENARIOS = {
    "prop4": PROP4, "external": SIDE_PAYMENTS, "underflow": UNDERFLOW,
    "five_experts": FIVE_EXPERTS, "decay": DECAY,
    "deviation": EXAMPLES / "deviation.json",
    # gamma = max_discount(19, 0.05), the discount cap, where the
    # honest-play prune is loosest and the deviation search keeps the most
    # states.
    "deviation_cap": EXAMPLES / "deviation_cap.json",
    # Twelve experts and two proposals at the 24-bit enumeration guard.
    "enumerate24": EXAMPLES / "enumerate24.json",
    # Six experts and four proposals at the same guard.
    "enumerate24_k4": EXAMPLES / "enumerate24_k4.json",
    # Five experts, three proposals, 20,000 rounds.
    "repeat_k3": EXAMPLES / "repeat_k3.json",
}

# case name -> (scenario or None, argv without --scenario and --out)
CASES = {
    # derive-params reads only its three flags: a scenario is a usage error.
    "derive-params": ("prop4", ["derive-params"]),
    "derive-params-flags": (None, ["derive-params", "--T", "0.9", "--epsilon", "19",
                                   "--a-prime", "1"]),
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
    "repeat-five-experts": ("five_experts", ["repeat"]),
    "repeat-decay": ("decay", ["repeat"]),
    "repeat-k3": ("repeat_k3", ["repeat", "--horizon", "40"]),
    # Both 20,000-round examples: the CSVs hold 60,001 and 100,001 lines.
    "repeat-k3-20000": ("repeat_k3", ["repeat"]),
    "deviation-repeat-20000": ("deviation", ["repeat", "--horizon", "20000"]),
    "deviation-gap": ("prop4", ["deviation-gap", "--expert", "1", "--horizon", "3"]),
    "deviation-validate": ("deviation", ["validate"]),
    "deviation-winner": ("deviation", ["winner"]),
    "deviation-qual": ("deviation", ["qual"]),
    "deviation-honest": ("deviation", ["honest"]),
    "deviation-safety": ("deviation", ["safety", "--g", "2.0"]),
    "deviation-reward-curve": ("deviation", ["reward-curve", "--samples", "11"]),
    # 4^12 plans at the example's own horizon, then given explicitly.
    "deviation-example": ("deviation", ["deviation-gap", "--expert", "0"]),
    "deviation-H12": ("deviation", ["deviation-gap", "--expert", "0", "--horizon", "12"]),
    # 4^20 plans per expert.
    **{f"deviation-H20-expert{i}": ("deviation", ["deviation-gap", "--expert", str(i),
                                                  "--horizon", "20"])
       for i in range(3)},
    # 4^40, 4^60 and 4^100 plans at the discount cap.  At H=100 expert 1's
    # search passes STATE_GUARD and is refused, with nothing on stdout.
    "deviation-cap": ("deviation_cap", ["deviation-gap", "--expert", "2",
                                        "--horizon", "40"]),
    **{f"deviation-cap-H{h}-expert{i}": ("deviation_cap", ["deviation-gap", "--expert",
                                                           str(i), "--horizon", str(h)])
       for h in (60, 100) for i in range(3)},
    "external-validate": ("external", ["validate"]),
    "external-winner": ("external", ["winner"]),
    "external-enumerate": ("external", ["enumerate"]),
    "external-safety": ("external", ["safety"]),
    "enumerate24-dynamics": ("enumerate24", ["dynamics", "--start", "zeros"]),
    "enumerate24-dynamics-semi": ("enumerate24", ["dynamics", "--start", "zeros",
                                                  "--mode", "semi"]),
    "enumerate24-dynamics-strategic": ("enumerate24", ["dynamics", "--start", "zeros",
                                                       "--mode", "strategic"]),
    "enumerate24-construct-pne": ("enumerate24", ["construct-pne"]),
    # The 24-bit semi searches: no equilibrium at epsilon 0, three at 19.
    "enumerate24-semi-eps0": ("enumerate24", ["enumerate", "--mode", "semi",
                                              "--epsilon", "0"]),
    "enumerate24-semi": ("enumerate24", ["enumerate", "--mode", "semi",
                                         "--epsilon", "19"]),
    # The list of 13,344 strategic equilibria, and the report over them.
    "enumerate24-strategic": ("enumerate24", ["enumerate", "--mode", "strategic",
                                              "--epsilon", "19"]),
    "enumerate24-poa-strategic": ("enumerate24", ["poa", "--mode", "strategic",
                                                  "--epsilon", "19"]),
    # One equilibrium at the guard with four proposals.
    "enumerate24-k4-semi": ("enumerate24_k4", ["enumerate", "--mode", "semi",
                                               "--epsilon", "0"]),
    "reproduce-prop4": (None, ["reproduce", "prop4"]),
    "reproduce-thm6": (None, ["reproduce", "thm6", "--eps-weight", "0.05"]),
    "reproduce-thm6-default": (None, ["reproduce", "thm6"]),
    "reproduce-prop3": (None, ["reproduce", "prop3", "--n", "3"]),
    "reproduce-prop3-default": (None, ["reproduce", "prop3"]),
}


def _stream(data):
    """The recorded form of ``data``: its text, or the sha256 of a stream
    longer than TEXT_LIMIT bytes."""
    if len(data) > TEXT_LIMIT:
        return {"sha256": hashlib.sha256(data).hexdigest()}
    return data.decode()


def run_case(name, workdir):
    """Run one case in-process; return its exit code and the recorded forms
    of its stdout and of its ``--out`` file, None when none was written."""
    scenario, argv = CASES[name]
    workdir = Path(workdir)
    argv = list(argv)
    if scenario is not None:
        path = source = SCENARIOS[scenario]
        if not isinstance(source, Path):
            path = workdir / f"{scenario}.json"
            path.write_text(json.dumps(source))
        argv += ["--scenario", str(path)]
    out_path = workdir / f"{name}.out"
    argv += ["--out", str(out_path)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    out = _stream(out_path.read_bytes()) if out_path.exists() else None
    return {"code": code, "stdout": _stream(stdout.getvalue().encode()), "out": out}


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
