"""Scenario loading, command dispatch, output determinism and exit codes."""

import argparse
import csv
import inspect
import json
import math
import re
import shlex
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from avgov import claims, cli, params, repeated
from test_repeated import tuple_form

EXAMPLES = Path(__file__).parent.parent / "examples"
README = Path(__file__).parent.parent / "README.md"

PROP4_SCENARIO = {
    "experts": [
        {"weight": 0.49, "beliefs": [0.95, 1.0]},
        {"weight": 0.41, "beliefs": [1.0, 0.95]},
        {"weight": 0.10, "beliefs": [1.0, 0.0]},
    ],
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
}


@pytest.fixture
def scenario_file(tmp_path):
    def write(data, name="scenario.json"):
        """Write ``data`` as JSON, or as it is if it is already text."""
        path = tmp_path / name
        path.write_text(data if isinstance(data, str) else json.dumps(data))
        return str(path)

    return write


# ---------------------------------------------------------------------------
# load_scenario
# ---------------------------------------------------------------------------


def test_load_derivable_schedule(scenario_file):
    sc = cli.load_scenario(scenario_file(PROP4_SCENARIO))
    assert sc.schedule.a == pytest.approx(2.0)
    assert sc.schedule.s == pytest.approx(17.0)
    assert sc.schedule_form == "derived"
    assert params.validate_schedule(sc.schedule).all_ok


def test_load_explicit_schedule(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["schedule"] = {"a": 2.0, "a_prime": 1.0, "s": 17.0, "T": 0.9}
    sc = cli.load_scenario(scenario_file(data))
    assert sc.schedule_form == "explicit"
    # slack recovered from a = (1+eps) * a' * (1-T)
    assert sc.schedule.epsilon == pytest.approx(19.0)


def test_load_rejects_out_of_range_belief(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["experts"] = [{"weight": 1.0, "beliefs": [0.5, 1.2]}]
    with pytest.raises(cli.ScenarioError, match=r"beliefs\[0\]\[1\]"):
        cli.load_scenario(scenario_file(data))


def test_load_rejects_mixed_schedule_forms(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["schedule"] = {"a": 2.0, "a_prime": 1.0, "s": 17.0, "T": 0.9,
                        "epsilon": 19}
    with pytest.raises(cli.ScenarioError, match="exactly one"):
        cli.load_scenario(scenario_file(data))


def test_load_rejects_identity_violation(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["schedule"] = {"a": 1.0, "a_prime": 1.0, "s": 1.0, "T": 0.5}
    with pytest.raises(cli.ScenarioError, match="identity"):
        cli.load_scenario(scenario_file(data))


def test_load_rejects_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cli.ScenarioError, match="parse error"):
        cli.load_scenario(str(path))


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subcommands(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# Every subcommand that reads a scenario file.
SCENARIO_COMMANDS = sorted(
    name for name, p in _subcommands(cli.build_parser()).items()
    if any("--scenario" in action.option_strings for action in p._actions))


def test_every_command_and_claim_parses_to_its_function():
    parser = cli.build_parser()
    commands = _subcommands(parser)
    required = {"derive-params": ["--T", "0.9", "--epsilon", "19", "--a-prime", "1"]}
    for name in commands.keys() - {"reproduce"}:
        flags = ["--scenario", "x.json"] if name in SCENARIO_COMMANDS else required[name]
        handler = parser.parse_args([name, *flags]).handler
        assert handler is getattr(cli, "cmd_" + name.replace("-", "_"))
    # A claim is a function of claims that takes only the parsed arguments.
    functions = {name for name, f in vars(claims).items()
                 if inspect.isfunction(f) and f.__module__ == claims.__name__
                 and list(inspect.signature(f).parameters) == ["args"]}
    assert set(_subcommands(commands["reproduce"])) == functions
    for name in functions:
        args = parser.parse_args(["reproduce", name])
        assert args.handler is cli.cmd_reproduce
        assert not hasattr(args, "claim")


def _readme_block(heading, lang):
    """The first ```lang block of the README after the line ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def test_readme_cli_examples_parse():
    # Every `avgov ...` line of the README's CLI block parses, so a flag
    # that is removed cannot linger in the docs.  No command is run.
    block = _readme_block("## CLI", "sh")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["avgov"]]
    assert len(commands) >= 10
    for argv in commands:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: avgov {shlex.join(argv)}")


def test_readme_scenario_block_loads():
    scenario = cli.scenario_from_dict(json.loads(_readme_block("### Scenario format", "json")))
    world = cli._read_world(scenario.world)
    assert isinstance(world, repeated.WorldConfig) and scenario.schedule_form == "derived"


def test_readme_library_example_runs():
    # The block asserts its own results.
    exec(_readme_block("## Library example", "python"), {})


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_missing_scenario_exits_64(capsys, command):
    code, out, err = run_cli(capsys, command)
    assert (code, out) == (64, "")
    assert "the following arguments are required: --scenario" in err


def test_usage_errors_exit_64(capsys):
    code, _, _ = run_cli(capsys, "no-such-command")
    assert code == 64
    code, _, _ = run_cli(capsys)
    assert code == 64


def test_validation_errors_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experts": [], "schedule": {}}))
    code, out, err = run_cli(capsys, "validate", "--scenario", str(path))
    assert code == 2
    assert "error" in err


INFINITE_WEIGHT = dict(PROP4_SCENARIO, experts=[
    {"weight": float("inf"), "beliefs": [0.95, 1.0]},
    {"weight": 0.41, "beliefs": [1.0, 0.95]},
])
INFINITE_HORIZON = dict(PROP4_SCENARIO, world={
    "expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2, "zeta": 0.05,
    "gamma": 0.5, "horizon": float("inf"),
})


@pytest.mark.parametrize("data, argv", [
    (INFINITE_WEIGHT, ["validate"]),
    (INFINITE_WEIGHT, ["enumerate"]),
    (PROP4_SCENARIO, ["enumerate", "--epsilon", "inf"]),
    (INFINITE_HORIZON, ["repeat"]),
], ids=["validate-weight", "enumerate-weight", "enumerate-epsilon", "repeat-horizon"])
def test_non_finite_numbers_exit_2(capsys, scenario_file, data, argv):
    code, out, err = run_cli(capsys, *argv, "--scenario", scenario_file(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "inf" in err


@pytest.mark.parametrize("text", ["11|10", "11|1|10", "1x|10|10", "12|10|10", "11,10,10"],
                         ids=["wrong-shape", "ragged", "non-digit", "non-bit", "comma"])
def test_winner_rejects_bad_profile_text(capsys, scenario_file, text):
    code, out, err = run_cli(capsys, "winner", "--scenario",
                             scenario_file(PROP4_SCENARIO), "--profile", text)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "profile" in err


STRING_WEIGHT = dict(PROP4_SCENARIO, experts=[
    {"weight": "abc", "beliefs": [0.95, 1.0]},
    {"weight": 0.41, "beliefs": [1.0, 0.95]},
])
STRING_SCHEDULE_T = dict(PROP4_SCENARIO, schedule={"T": "abc", "epsilon": 19,
                                                   "a_prime": 1})


@pytest.mark.parametrize("data, argv", [
    (STRING_WEIGHT, ["validate"]),
    (STRING_SCHEDULE_T, ["validate"]),
], ids=["weight", "schedule-T"])
def test_string_numbers_exit_2(capsys, scenario_file, data, argv):
    code, out, err = run_cli(capsys, *argv, "--scenario", scenario_file(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "'abc'" in err


@pytest.mark.parametrize("field, value", [
    ("schedule", 5),
    ("schedule", ["T", "epsilon", "a_prime"]),
], ids=["schedule-number", "schedule-list"])
def test_non_object_schedule_or_query_exits_2(capsys, scenario_file, field, value):
    data = dict(PROP4_SCENARIO, **{field: value})
    code, out, err = run_cli(capsys, "validate", "--scenario", scenario_file(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and f"{field} must be a JSON object" in err


@pytest.mark.parametrize("command", ["repeat", "deviation-gap"])
@pytest.mark.parametrize("world_seed, flags", [(-1, []), (0, ["--seed", "-3"])],
                         ids=["world", "flag"])
def test_negative_seed_exits_2(capsys, scenario_file, command, world_seed, flags):
    world = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2, "zeta": 0.05,
             "gamma": 0.5, "horizon": 4, "seed": world_seed}
    data = dict(PROP4_SCENARIO, world=world)
    code, out, err = run_cli(capsys, command, *flags, "--scenario", scenario_file(data))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "seed = -" in err


def test_guard_refusal_exits_3(capsys, scenario_file):
    data = dict(PROP4_SCENARIO)
    data["experts"] = [
        {"weight": 1.0, "beliefs": [0.5, 0.5, 0.5]} for _ in range(9)
    ]
    code, _, err = run_cli(capsys, "enumerate", "--scenario",
                           scenario_file(data))
    assert code == 3
    assert "refused" in err


@pytest.mark.parametrize("k, argv", [
    (12, ["enumerate"]),
    (17, ["dynamics"]),
    (17, ["deviation-gap", "--horizon", "1"]),
], ids=["enumerate", "dynamics", "deviation-gap"])
def test_wide_vote_vectors_exit_3(capsys, scenario_file, k, argv):
    # Two experts with 12 proposals pass the 24-bit guard, but not
    # (n+1)*k <= 32; 17 proposals pass no search over 2^k vote vectors.
    data = dict(PROP4_SCENARIO)
    data["experts"] = [{"weight": 1.0, "beliefs": [0.5] * k} for _ in range(2)]
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": k,
                     "zeta": 0.05, "gamma": 0.5, "horizon": 4, "seed": 0}
    code, out, err = run_cli(capsys, *argv, "--scenario", scenario_file(data))
    assert (code, out) == (3, "")
    assert "refused" in err


def test_winner_command(capsys, scenario_file):
    code, out, _ = run_cli(capsys, "winner", "--scenario",
                           scenario_file(PROP4_SCENARIO))
    assert code == 0
    payload = json.loads(out)
    assert payload["winner"] == 1
    assert payload["profile"] == "11|11|10"
    assert payload["utilities"][0] == pytest.approx(1.05)


def test_qual_and_honest_commands(capsys, scenario_file):
    path = scenario_file(PROP4_SCENARIO)
    code, out, _ = run_cli(capsys, "qual", "--scenario", path)
    payload = json.loads(out)
    assert payload["qualities"] == [1.0, 0.9]
    assert payload["opt"] == {"proposal": 1, "quality": 1.0}
    code, out, _ = run_cli(capsys, "honest", "--scenario", path)
    assert json.loads(out)["profile"] == "11|11|10"


def test_enumerate_and_poa_commands(capsys, scenario_file):
    path = scenario_file(PROP4_SCENARIO)
    code, out, _ = run_cli(capsys, "enumerate", "--scenario", path)
    payload = json.loads(out)
    assert payload["equilibrium_count"] == 0
    assert payload["poa"] is None
    code, out, _ = run_cli(capsys, "poa", "--scenario", path, "--mode",
                           "strategic")
    payload = json.loads(out)
    assert payload["equilibrium_count"] > 0
    assert payload["poa"] >= payload["pos"] >= 1.0


def test_dynamics_command_with_csv(capsys, scenario_file, tmp_path):
    out_path = tmp_path / "path.csv"
    code, out, _ = run_cli(capsys, "dynamics", "--scenario",
                           scenario_file(PROP4_SCENARIO), "--out",
                           str(out_path))
    payload = json.loads(out)
    assert payload["terminal"] == "cycle"
    assert payload["cycle_length"] == 4
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["step", "expert", "old_votes", "new_votes", "winner"]
    assert len(rows) == 5


def test_reward_curve_command(capsys, scenario_file, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "reward-curve", "--scenario",
                           scenario_file(PROP4_SCENARIO), "--samples", "101",
                           "--out", str(out_path))
    payload = json.loads(out)
    assert payload["min_gap_p"] == pytest.approx(0.9)
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["p", "approve_value", "reject_value"]
    row_T = rows[91]
    assert float(row_T[0]) == pytest.approx(0.9)
    assert float(row_T[1]) == pytest.approx(0.1)
    assert float(row_T[2]) == pytest.approx(0.1)


def test_safety_command(capsys, scenario_file):
    code, out, _ = run_cli(capsys, "safety", "--scenario",
                           scenario_file(PROP4_SCENARIO))
    payload = json.loads(out)
    assert payload["delta"] == 0.0
    assert payload["certificate"]["eligible"] is True
    assert payload["envelope"]["effective_threshold"] == pytest.approx(0.9)


def test_repeat_command_with_trace(capsys, scenario_file, tmp_path):
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2,
                     "zeta": 0.05, "gamma": 0.5, "horizon": 8, "seed": 3}
    out_path = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "repeat", "--scenario",
                           scenario_file(data), "--out", str(out_path))
    payload = json.loads(out)
    assert payload["horizon"] == 8
    assert len(payload["final_weights"]) == 2
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:5] == ["round", "expert", "votes", "winner",
                           "revealed_quality"]
    assert len(rows) == 1 + 8 * 2


def test_repeat_seed_and_horizon_flags(capsys, scenario_file):
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2,
                     "zeta": 0.05, "gamma": 0.5, "horizon": 8, "seed": 3}
    path = scenario_file(data)
    _, out1, _ = run_cli(capsys, "repeat", "--scenario", path, "--seed", "9",
                         "--horizon", "5")
    payload = json.loads(out1)
    assert payload["seed"] == 9 and payload["horizon"] == 5


def test_repeat_keeps_a_weight_that_underflows_to_zero(capsys, scenario_file):
    # An expert who is always wrong has target 0, so with zeta > 1/2 her
    # weight (1 - zeta)^t * 0.5 underflows to 0.0, which stays 0.0.
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.0, 1.0], "good_prior": 0.5, "k": 2,
                     "zeta": 0.6, "gamma": 0.5, "horizon": 3000, "seed": 1}
    code, out, err = run_cli(capsys, "repeat", "--scenario", scenario_file(data))
    assert (code, err) == (0, "")
    assert json.loads(out)["final_weights"] == [0.0, 1.0]


@pytest.mark.parametrize("argv", [
    ["reproduce", "prop4"], ["enumerate"], ["winner"], ["validate"],
], ids=["reproduce", "enumerate", "winner", "validate"])
def test_seed_is_refused_where_no_world_is_read(capsys, scenario_file, argv):
    if argv[0] != "reproduce":
        argv = argv + ["--scenario", scenario_file(PROP4_SCENARIO)]
    code, out, _ = run_cli(capsys, *argv, "--seed", "3")
    assert code == 64
    assert out == ""


def test_deviation_gap_command(capsys, scenario_file):
    gamma = 0.9 * params.max_discount(19.0, 0.1)
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.8, 0.7], "good_prior": 0.5, "k": 2,
                     "zeta": 0.1, "gamma": gamma, "horizon": 3, "seed": 11}
    code, out, _ = run_cli(capsys, "deviation-gap", "--scenario",
                           scenario_file(data), "--expert", "0")
    payload = json.loads(out)
    assert code == 0
    assert payload["plan_count"] == 64
    assert payload["ratio"] >= 1.0
    assert payload["ratio_with_tail"] <= payload["deviation_bound"]


def _refuses_overflow(capsys, scenario_file, tmp_path, command):
    """Run ``command`` on rewards near the float limit, which would make
    the totals inf: refused before anything is printed or written."""
    data = json.loads((EXAMPLES / "deviation.json").read_text())
    data["schedule"] = {"a": 1e308, "a_prime": 1, "s": 1e307, "T": 0.09090909090909091}
    data["world"]["gamma"] = 0.9
    out_file = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, command, "--scenario", scenario_file(data),
                             "--horizon", "6", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: rewards would overflow")
    assert not out_file.exists()


def test_deviation_gap_refuses_rewards_that_overflow(capsys, scenario_file, tmp_path):
    # Both totals would be inf, and the ratio inf / inf NaN.
    _refuses_overflow(capsys, scenario_file, tmp_path, "deviation-gap")


def test_repeat_refuses_rewards_that_overflow(capsys, scenario_file, tmp_path):
    # The discounted totals would be inf, with numpy's overflow warning.
    _refuses_overflow(capsys, scenario_file, tmp_path, "repeat")


def test_payload_without_canonical_form_writes_no_out_file(monkeypatch, capsys,
                                                           scenario_file, tmp_path):
    # The payload is canonicalized before --out is opened, so a NaN raises
    # with no file written and nothing printed.
    monkeypatch.setattr(cli.core, "opt_quality", lambda instance, T: (1, math.nan))
    out_file = tmp_path / "qual.csv"
    with pytest.raises(ValueError, match="NaN has no canonical form"):
        cli.main(["qual", "--scenario", scenario_file(PROP4_SCENARIO), "--out", str(out_file)])
    assert capsys.readouterr().out == ""
    assert not out_file.exists()


def test_derive_params_command(capsys):
    code, out, _ = run_cli(capsys, "derive-params", "--T", "0.9", "--epsilon",
                           "19", "--a-prime", "1")
    payload = json.loads(out)
    assert payload["schedule"]["a"] == 2.0
    assert payload["schedule"]["s"] == 17.0
    assert payload["diagnostics"]["all_ok"] is True


def test_derive_params_rejects_bad_epsilon(capsys):
    code, _, err = run_cli(capsys, "derive-params", "--T", "0.9", "--epsilon",
                           "0.05", "--a-prime", "1")
    assert code == 2
    assert "1/(epsilon+1)" in err


@pytest.mark.parametrize("flags, message", [
    (["--epsilon", "inf", "--a-prime", "1"], "epsilon = inf is not a finite number"),
    (["--epsilon", "19", "--a-prime", "inf"], "a_prime = inf is not a finite number"),
], ids=["epsilon-inf", "a-prime-inf"])
def test_derive_params_names_the_non_finite_flag(capsys, flags, message):
    assert run_cli(capsys, "derive-params", "--T", "0.9", *flags) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flags, missing", [
    (["--T", "0.8"], "--epsilon, --a-prime"),
    (["--epsilon", "19", "--a-prime", "1"], "--T"),
], ids=["T-only", "no-T"])
@pytest.mark.parametrize("with_scenario", [False, True], ids=["bare", "scenario"])
def test_derive_params_refuses_some_flags(capsys, scenario_file, flags, missing,
                                          with_scenario):
    if with_scenario:
        flags = flags + ["--scenario", scenario_file(PROP4_SCENARIO)]
    code, out, err = run_cli(capsys, "derive-params", *flags)
    assert code == 64
    assert out == ""
    assert f"the following arguments are required: {missing}" in err


def test_reproduce_refuses_scenario(capsys, scenario_file):
    code, out, _ = run_cli(capsys, "reproduce", "prop3", "--scenario",
                           scenario_file(PROP4_SCENARIO))
    assert code == 64
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["thm6", "--n", "5", "--mode", "strategic"],
    ["thm6", "--epsilon", "3"],
    ["prop3", "--eps-weight", "0.5", "--epsilon", "3"],
    ["prop3", "--mode", "semi"],
    ["prop4", "--n", "5"],
    ["prop4", "--eps-weight", "0.5"],
    ["prop4", "--mode", "semi"],
    ["prop4", "--epsilon", "0"],
], ids=["thm6-n-mode", "thm6-epsilon", "prop3-slack-epsilon", "prop3-mode",
        "prop4-n", "prop4-slack", "prop4-mode", "prop4-epsilon"])
def test_reproduce_refuses_options_its_claim_does_not_read(capsys, argv):
    code, out, _ = run_cli(capsys, "reproduce", *argv)
    assert code == 64
    assert out == ""


EXPLICIT_SCHEDULE = {"a": 2.0, "a_prime": 1.0, "s": 17.0, "T": 0.9}
WORLD = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2, "zeta": 0.05,
         "gamma": 0.5, "horizon": 4, "seed": 0}


def _world(**fields):
    return dict(PROP4_SCENARIO, world=dict(WORLD, **fields))


def _expert0(**fields):
    experts = PROP4_SCENARIO["experts"]
    return dict(PROP4_SCENARIO, experts=[dict(experts[0], **fields)] + experts[1:])


def _schedule(**fields):
    return dict(PROP4_SCENARIO, schedule=dict(PROP4_SCENARIO["schedule"], **fields))


# 400 digits pass the JSON reader and _number but overflow float().
BIG = int("9" * 400)
# 5,000 digits pass Python's JSON reader only where it has no digit limit.
SEED_5000_DIGITS = json.dumps(_world()).replace('"seed": 0', '"seed": ' + "9" * 5000)
OVERFLOW = r"missing or malformed field \(int too large to convert to float\)"

HUGE_WEIGHTS = dict(PROP4_SCENARIO, experts=[dict(e, weight=1e308)
                                              for e in PROP4_SCENARIO["experts"]])
WORLD_WITHOUT_ZETA = dict(PROP4_SCENARIO, world={k: v for k, v in WORLD.items()
                                                 if k != "zeta"})


@pytest.mark.parametrize("data, argv, match", [
    pytest.param([PROP4_SCENARIO], ["validate"], "scenario must be a JSON object",
                 id="not-object"),
    pytest.param(dict(PROP4_SCENARIO, experts=[{"beliefs": [0.5, 0.5]}]), ["validate"],
                 "experts: missing or malformed", id="experts"),
    pytest.param({"experts": PROP4_SCENARIO["experts"]}, ["validate"], "no schedule",
                 id="no-schedule"),
    pytest.param(dict(PROP4_SCENARIO, schedule={"T": 0.9}), ["validate"],
                 "unrecognized key set", id="schedule-keys"),
    pytest.param(dict(PROP4_SCENARIO, schedule={"T": 0.9, "epsilon": 0.05, "a_prime": 1}),
                 ["validate"], r"schedule: condition 1/\(epsilon\+1\)", id="derivation"),
    pytest.param(dict(PROP4_SCENARIO, schedule=dict(EXPLICIT_SCHEDULE, a=-2.0)),
                 ["validate"], "schedule: a = -2.0", id="explicit-negative-a"),
    pytest.param(None, ["validate", "--scenario", "."], "cannot read", id="unreadable"),
    # Every key is read or refused: the mode and slack come from the flags.
    pytest.param(dict(PROP4_SCENARIO, query={"mode": "semi", "epsilon": 0}), ["enumerate"],
                 "scenario: key 'query' is not read; pass --mode and --epsilon",
                 id="query-section"),
    pytest.param(dict(PROP4_SCENARIO, worlds={}), ["validate"],
                 "scenario: unknown key 'worlds'", id="scenario-unknown-key"),
    pytest.param(_expert0(externals=[0.0, 1.0]), ["enumerate"],
                 "experts: unknown key 'externals'", id="experts-unknown-key"),
    pytest.param(_world(sed=7), ["repeat"], "world: unknown key 'sed'",
                 id="world-unknown-key"),
    pytest.param(PROP4_SCENARIO, ["repeat"], "world section", id="repeat-no-world"),
    pytest.param(None, ["reproduce", "thm6", "--eps-weight", "1.5"], "weight_slack",
                 id="thm6-slack"),
    pytest.param(None, ["reproduce", "prop3", "--n", "0"], "n = 0", id="prop3-n"),
    pytest.param(_world(k=2.7, horizon=3.9), ["repeat"],
                 r"world: k = 2\.7 is not an integer", id="world-k-fraction"),
    pytest.param(_world(k=0), ["repeat"], r"world: k = 0 outside \[1, inf\)", id="world-k-zero"),
    pytest.param(_world(horizon=3.9), ["repeat"], r"world: horizon = 3\.9 is not an integer",
                 id="world-horizon-fraction"),
    pytest.param(_world(seed=1.5), ["deviation-gap"], r"world: seed = 1\.5 is not an integer",
                 id="world-seed-fraction"),
    pytest.param(_world(k=True), ["repeat"], "world: k = True is not an integer",
                 id="world-k-bool"),
    pytest.param(_world(horizon=True), ["repeat"], "world: horizon = True is not an integer",
                 id="world-horizon-bool"),
    pytest.param(_world(seed=False), ["repeat"], "world: seed = False is not an integer",
                 id="world-seed-bool"),
    pytest.param(WORLD_WITHOUT_ZETA, ["repeat"], "world: missing or malformed field",
                 id="world-no-zeta"),
    # A number given as a bool or a string is refused, not converted.
    pytest.param(_expert0(weight=True), ["validate"],
                 r"experts: weights\[0\] = True is not a number", id="weight-bool"),
    pytest.param(_expert0(beliefs=["0.95", 1]), ["validate"],
                 r"experts: beliefs\[0\]\[0\] = '0\.95' is not a number", id="beliefs-str"),
    pytest.param(_expert0(external=["0.1", False]), ["validate"],
                 r"experts: external\[0\]\[0\] = '0\.1' is not a number", id="external-str"),
    pytest.param(_schedule(T="0.9"), ["validate"], "schedule: T = '0.9' is not a number",
                 id="T-str"),
    pytest.param(_schedule(a_prime=True), ["validate"],
                 "schedule: a_prime = True is not a number", id="a-prime-bool"),
    pytest.param(_world(expertise=[True, "0.6"]), ["repeat"],
                 r"world: expertise\[0\] = True is not a number", id="world-expertise-bool"),
    pytest.param(_world(good_prior="0.5"), ["repeat"],
                 "world: good_prior = '0.5' is not a number", id="world-good-prior-str"),
    pytest.param(_world(gamma="0.5"), ["repeat"], "world: gamma = '0.5' is not a number",
                 id="world-gamma-str"),
    pytest.param(_world(k="2"), ["repeat"], "world: k = '2' is not an integer",
                 id="world-k-str"),
    pytest.param(_world(horizon="20"), ["repeat"], "world: horizon = '20' is not an integer",
                 id="world-horizon-str"),
    pytest.param(_world(seed="7"), ["repeat"], "world: seed = '7' is not an integer",
                 id="world-seed-str"),
    # A string or an object where a list belongs is refused whole, not read
    # character by character or key by key.
    pytest.param(_expert0(beliefs="0.95"), ["validate"],
                 r"^error: experts: beliefs\[0\] = '0\.95' is not a list$",
                 id="beliefs-str-row"),
    pytest.param(_expert0(external={"a": 1}), ["validate"],
                 r"^error: experts: external\[0\] = \{'a': 1\} is not a list$",
                 id="external-object-row"),
    pytest.param(_world(expertise="0.9"), ["repeat"],
                 r"^error: world: expertise = '0\.9' is not a list$",
                 id="world-expertise-str"),
    pytest.param(_world(expertise={"a": 1}), ["deviation-gap"],
                 r"^error: world: expertise = \{'a': 1\} is not a list$",
                 id="world-expertise-object"),
    pytest.param(dict(PROP4_SCENARIO, world="abc"), ["repeat"],
                 "^error: world must be a JSON object$", id="world-str"),
    # An integer too large for a float is refused in its section.
    pytest.param(_expert0(weight=BIG), ["validate"], "experts: " + OVERFLOW,
                 id="weight-overflow"),
    pytest.param(_expert0(beliefs=[BIG, 1]), ["validate"], "experts: " + OVERFLOW,
                 id="beliefs-overflow"),
    pytest.param(_expert0(external=[BIG, 0]), ["validate"], "experts: " + OVERFLOW,
                 id="external-overflow"),
    pytest.param(_schedule(T=BIG), ["validate"], "schedule: " + OVERFLOW, id="T-overflow"),
    pytest.param(_schedule(delta=BIG), ["validate"], "schedule: " + OVERFLOW,
                 id="delta-overflow"),
    pytest.param(_world(gamma=BIG), ["repeat"], "world: " + OVERFLOW,
                 id="world-gamma-overflow"),
    pytest.param(SEED_5000_DIGITS, ["repeat"],
                 r"parse error in .*\(4300 digits\)|world: " + OVERFLOW,
                 id="world-seed-5000-digits"),
    # delta may only widen the bound from the external rewards, and must be finite.
    pytest.param(_schedule(delta=-1), ["validate"], r"schedule: delta = -1\.0 is below",
                 id="delta-negative"),
    pytest.param(_schedule(delta=float("nan")), ["validate"],
                 "schedule: delta = nan is not a finite number", id="delta-nan"),
    pytest.param(_schedule(delta=float("inf")), ["validate"],
                 "schedule: delta = inf is not a finite number", id="delta-inf"),
    pytest.param(PROP4_SCENARIO, ["safety", "--g", "inf"],
                 "g = inf is not a finite number", id="safety-g-inf"),
    # A zero-weight expert's side payment has no weight-normalized value.
    pytest.param(_expert0(weight=0.0, external=[1.0, 0.0]), ["validate"],
                 r"^error: schedule: expert 0 has zero weight but external\[0\]\[0\] = 1\.0",
                 id="zero-weight-external"),
    # Finite weights whose total overflows: every mass and ratio would too.
    pytest.param(HUGE_WEIGHTS, ["enumerate"], "experts: the weights sum to inf",
                 id="weights-sum-inf-enumerate"),
    pytest.param(HUGE_WEIGHTS, ["poa"], "experts: the weights sum to inf",
                 id="weights-sum-inf-poa"),
    pytest.param(HUGE_WEIGHTS, ["winner"], "experts: the weights sum to inf",
                 id="weights-sum-inf-winner"),
])
def test_input_errors_exit_2(capsys, scenario_file, data, argv, match):
    if data is not None:
        argv = argv + ["--scenario", scenario_file(data)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert re.search(match, err)


@pytest.mark.parametrize("command", ["validate", "enumerate"])
def test_one_shot_commands_check_only_the_world_shape(capsys, scenario_file, command):
    # Only repeat and deviation-gap read the world's values; every command
    # refuses a world that is not an object, or an unknown key in it.
    path = scenario_file(_world(gamma=2, k=0, expertise=[1.5], seed=-1))
    code, out, err = run_cli(capsys, command, "--scenario", path)
    assert (code, err) == (0, "") and out
    for world in ("abc", [WORLD], None, 7):
        path = scenario_file(dict(PROP4_SCENARIO, world=world))
        assert run_cli(capsys, command, "--scenario", path) == (
            2, "", "error: world must be a JSON object\n")
    path = scenario_file(_world(sed=7))
    code, out, err = run_cli(capsys, command, "--scenario", path)
    assert (code, out) == (2, "") and err.startswith("error: world: unknown key 'sed'")


@pytest.mark.parametrize("command", ["repeat", "deviation-gap"])
@pytest.mark.parametrize("flags", [["--horizon", "3"], ["--horizon", "2", "--seed", "5"]],
                         ids=["horizon", "horizon-and-seed"])
def test_world_is_built_once(capsys, monkeypatch, command, flags):
    # Read where the command runs it, with the flags in place of the
    # section's values: one WorldConfig, checked once.
    built = []
    post_init = repeated.WorldConfig.__post_init__

    def counted(world):
        built.append(world)
        post_init(world)

    monkeypatch.setattr(repeated.WorldConfig, "__post_init__", counted)
    code = run_cli(capsys, command, "--scenario", DEVIATION, *flags)[0]
    assert code == 0
    assert len(built) == 1


@pytest.mark.parametrize("data, flags", [
    pytest.param(dict(PROP4_SCENARIO, schedule=EXPLICIT_SCHEDULE), [], id="derive-explicit"),
    pytest.param(PROP4_SCENARIO, ["--T", "0.9", "--epsilon", "19", "--a-prime", "1"],
                 id="derive-flags-and-scenario"),
])
def test_derive_params_takes_no_scenario(capsys, scenario_file, data, flags):
    # A scenario's schedule and diagnostics come from validate.
    code, out, _ = run_cli(capsys, "derive-params", *flags, "--scenario", scenario_file(data))
    assert (code, out) == (64, "")


@pytest.mark.parametrize("data, argv", [
    (None, ["reward-curve", "--scenario", str(EXAMPLES / "deviation.json"),
            "--samples", "1000001"]),
    (None, ["reproduce", "prop3", "--n", "1001"]),
    # Both sizes of the repeated game's draw array: numpy cannot allocate it.
    (None, ["repeat", "--scenario", str(EXAMPLES / "deviation.json"),
            "--horizon", str(10**30)]),
    (_world(k=10**30), ["repeat"]),
], ids=["reward-curve-samples", "prop3-n", "repeat-horizon", "repeat-k"])
def test_oversized_requests_exit_3_before_writing(capsys, tmp_path, scenario_file,
                                                  data, argv):
    if data is not None:
        argv = argv + ["--scenario", scenario_file(data)]
    out_csv = tmp_path / "out.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_csv))
    assert (code, out) == (3, "")
    assert err.startswith("refused: ")
    assert not out_csv.exists()


def test_memory_error_exits_2(capsys, tmp_path, monkeypatch):
    # With the run's guard lifted, numpy refuses the 5.68 PiB of draws at
    # once; nothing is allocated.
    monkeypatch.setattr(repeated, "RUN_GUARD_DRAWS", 10**15)
    out_csv = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "repeat", "--scenario", str(EXAMPLES / "deviation.json"),
                             "--horizon", "100000000000000", "--out", str(out_csv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: out of memory: ")
    assert not out_csv.exists()


@pytest.mark.parametrize("offset, code", [(1e-10, 0), (1e-6, 2)], ids=["near", "far"])
def test_explicit_schedule_is_held_to_the_scale_free_identity(capsys, scenario_file,
                                                              offset, code):
    # At s = 17 the inflection residual is 20 times the threshold residual,
    # 2e-9 at T = 0.9 + 1e-10, which an absolute 1e-9 bound on it refused.
    schedule = dict(EXPLICIT_SCHEDULE, T=0.9 + offset)
    got, out, err = run_cli(capsys, "validate", "--scenario",
                            scenario_file(dict(PROP4_SCENARIO, schedule=schedule)))
    assert got == code
    if code == 0:
        assert json.loads(out)["diagnostics"]["all_ok"] is True
    else:
        assert "threshold identity" in err


PROP3_SCENARIO = {
    "experts": [{"weight": 0.26, "beliefs": [1.0, 0.0]}]
    + [{"weight": 0.25, "beliefs": [0.0, 1.0]}] * 4,
    "schedule": {"T": 0.9, "epsilon": 19, "a_prime": 1},
}


def test_construct_pne_command(capsys, scenario_file):
    path = scenario_file(PROP3_SCENARIO)
    code, out, _ = run_cli(capsys, "construct-pne", "--scenario", path)
    payload = json.loads(out)
    assert payload["profile"] == "10|00|00|00|00"
    assert payload["is_strategic_pne"] is True
    # On the cycle instance the construction elects proposal 2, which a
    # second expert also believes in; the verification flag reports the
    # resulting non-equilibrium honestly.
    code, out, _ = run_cli(capsys, "construct-pne", "--scenario",
                           scenario_file(PROP4_SCENARIO))
    payload = json.loads(out)
    assert payload["winner"] == 2
    assert payload["is_strategic_pne"] is False


def test_output_byte_determinism(capsys, scenario_file):
    path = scenario_file(PROP4_SCENARIO)
    _, out1, _ = run_cli(capsys, "enumerate", "--scenario", path)
    _, out2, _ = run_cli(capsys, "enumerate", "--scenario", path)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "reproduce", "prop4")
    _, out4, _ = run_cli(capsys, "reproduce", "prop4")
    assert out3 == out4


def test_canonical_float_formatting():
    payload = cli._canonical({"x": 1.9999999999999996, "y": float("inf"),
                              "z": [0.1 + 0.2]})
    assert payload["x"] == 2.0
    assert payload["y"] == "inf"
    assert payload["z"][0] == 0.3


@pytest.mark.parametrize("value, error", [(math.nan, ValueError), (object(), TypeError)],
                         ids=["nan", "object"])
def test_canonical_refuses_values_without_a_form(value, error):
    with pytest.raises(error):
        cli._canonical({"x": [value]})


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_prop4(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "prop4")
    payload = json.loads(out)
    assert code == 0
    assert payload["equilibria"] == []
    assert payload["cycle_length"] == 4


def test_reproduce_thm6(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "thm6", "--eps-weight", "0.1")
    payload = json.loads(out)
    assert code == 0
    assert payload["pne_quality"] == pytest.approx(1.1)
    assert payload["opt"] == pytest.approx(2.0)
    assert payload["poa"] == pytest.approx(20.0 / 11.0)
    code, out, _ = run_cli(capsys, "reproduce", "thm6", "--eps-weight", "0.01")
    assert json.loads(out)["poa"] > 1.98


def test_reproduce_prop3_ratios(capsys):
    for n, minimum in ((3, 2.9), (4, 3.8), (5, 4.7)):
        code, out, _ = run_cli(capsys, "reproduce", "prop3", "--n", str(n))
        payload = json.loads(out)
        assert code == 0
        assert payload["ratio"] == pytest.approx(1.0 / (1.0 / n + 0.01))
        assert payload["ratio"] >= minimum


def test_reproduce_claim_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("avgov.analysis.is_approx_pne", lambda *a, **k: False)
    code, out, err = run_cli(capsys, "reproduce", "thm6")
    assert code == 1
    assert "claim check failed" in err
    assert "profile_is_semi_pne" in err


def test_delta_computed_from_instance(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["experts"] = [
        {"weight": 0.5, "beliefs": [0.9, 0.9], "external": [0.2, 0.0]},
        {"weight": 0.5, "beliefs": [0.9, 0.9]},
    ]
    sc = cli.load_scenario(scenario_file(data))
    assert sc.schedule.delta == pytest.approx((0.2 / 0.5) / sc.schedule.a)


def test_delta_supplied_below_computed_rejected(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["experts"] = [
        {"weight": 0.5, "beliefs": [0.9, 0.9], "external": [0.2, 0.0]},
    ]
    data["schedule"] = {"T": 0.9, "epsilon": 19, "a_prime": 1, "delta": 0.01}
    with pytest.raises(cli.ScenarioError, match="below the bound"):
        cli.load_scenario(scenario_file(data))


def test_delta_supplied_above_computed_kept(scenario_file):
    data = dict(PROP4_SCENARIO)
    data["schedule"] = {"T": 0.9, "epsilon": 19, "a_prime": 1, "delta": 0.3}
    sc = cli.load_scenario(scenario_file(data))
    assert sc.schedule.delta == 0.3


def test_module_entrypoint_in_subprocess(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "avgov", "reproduce", "prop4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cycle_length"] == 4
    proc = subprocess.run(
        [sys.executable, "-m", "avgov", "frobnicate"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 64


def test_unwritable_out_exits_2_before_printing(tmp_path):
    # The --out file is opened before anything is printed: a path in a
    # missing directory is an input error, with empty stdout and no file.
    # A command that fails before that creates no file either.
    import subprocess
    import sys

    def avgov(*argv):
        return subprocess.run([sys.executable, "-m", "avgov", *argv, "--scenario",
                               str(EXAMPLES / "deviation.json")],
                              capture_output=True, text=True, timeout=120)

    out = tmp_path / "missing" / "x.csv"
    proc = avgov("repeat", "--horizon", "5", "--out", str(out))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: cannot write --out {out}: No such file or directory\n"
    assert not out.parent.exists()
    proc = avgov("safety", "--g", "inf", "--out", str(tmp_path / "y.csv"))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: g = inf is not a finite number\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # The reader has closed the pipe before anything is written, as when
    # `| head -1` has already exited: no traceback, exit code 141, with
    # stdout buffered or not.
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "avgov", "repeat", "--scenario",
             str(EXAMPLES / "deviation.json"), "--horizon", "2000"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_repeat_csv_makes_cells_for_occurring_vote_rows(scenario_file, tmp_path, capsys):
    # k = 20 has 2^20 vote vectors; two experts over two rounds cast four
    # vote rows, and only those get a CSV cell (a table of every vector
    # takes hundreds of MB).
    import tracemalloc

    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 20,
                     "zeta": 0.05, "gamma": 0.5, "horizon": 2, "seed": 3}
    path = scenario_file(data)
    out = tmp_path / "k20.csv"
    tracemalloc.start()
    try:
        code = run_cli(capsys, "repeat", "--scenario", path, "--out", str(out))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scenario = cli.load_scenario(path)
    trace = repeated.run(cli._read_world(scenario.world), scenario.schedule)
    rows = list(csv.reader(out.read_text().splitlines()))
    assert [row[2] for row in rows[1:]] == [
        "".join(map(str, votes)) for round_ in trace.votes for votes in round_]
    assert code == 0
    assert peak < 16 << 20


# k = 64 and 70 pass the 63 bits an int64 code of a vote row holds.
@pytest.mark.parametrize("n, k", [(1, 1), (3, 2), (5, 3), (2, 5), (3, 64), (2, 70)])
def test_repeat_csv_vote_cells_are_the_vote_rows(scenario_file, tmp_path, capsys, n, k):
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.7, 0.6, 0.8, 0.5][:n], "good_prior": 0.5,
                     "k": k, "zeta": 0.05, "gamma": 0.5, "horizon": 60, "seed": n * 10 + k}
    path = scenario_file(data)
    out = tmp_path / "votes.csv"
    assert run_cli(capsys, "repeat", "--scenario", path, "--out", str(out))[0] == 0
    scenario = cli.load_scenario(path)
    votes = tuple_form(repeated.run(cli._read_world(scenario.world), scenario.schedule)).votes
    cells = [row[2] for row in csv.reader(out.read_text().splitlines()[1:])]
    assert cells == ["".join(map(str, row)) for round_ in votes for row in round_]
    assert {len(cell) for cell in cells} == {k}
    # Both values of the first coordinate, the bit an int64 code would
    # lose first, occur.
    assert {cell[0] for cell in cells} == {"0", "1"}


def test_csv_byte_determinism(scenario_file, tmp_path, capsys):
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2,
                     "zeta": 0.05, "gamma": 0.5, "horizon": 6, "seed": 3}
    path = scenario_file(data)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "repeat", "--scenario", path, "--out", str(first))
    run_cli(capsys, "repeat", "--scenario", path, "--out", str(second))
    assert first.read_bytes() == second.read_bytes()


def test_repeat_rows_share_only_equal_nonzero_reward_cells():
    # Round 0: a realized -0.0 beside a subjective 0.0 (a weight that
    # underflowed to 0), and an equal non-zero pair.  Round 1: a differing
    # pair and two positive zeros.
    trace = repeated.RepeatedTrace(
        votes=np.array([[[1, 0], [0, 1]], [[1, 1], [0, 0]]], dtype=np.int8),
        winners=np.array([1, 2]), revealed=np.array([0, 1]),
        realized=np.array([[-0.0, 1.0 / 3.0], [0.25, 0.0]]),
        subjective=np.array([[0.0, 1.0 / 3.0], [0.1, 0.0]]),
        weights=np.array([[0.0, 0.6], [0.0, 0.63], [0.0, 0.6615]]),
        discounted_realized=(0.0, 0.0), discounted_subjective=(0.0, 0.0),
        correct=(0, 2), revealed_rounds=2, gamma_warning=False)
    plain = tuple_form(trace)
    expected = [
        (str(t), str(i), cli._bits(plain.votes[t][i]), str(plain.winners[t]),
         str(plain.revealed[t]), cli._real(plain.realized[t][i]),
         cli._real(plain.subjective[t][i]), cli._real(plain.weights[t][i]),
         cli._real(plain.weights[t + 1][i]))
        for t in range(2) for i in range(2)
    ]
    rows = list(cli._repeat_rows(trace))
    assert rows == expected
    assert (rows[0][5], rows[0][6]) == ("-0", "0")
    assert rows[1][5] is rows[1][6]


def _drawn_trace(seed, n, k, horizon):
    """A trace of random arrays whose reward pairs are, cell by cell, equal,
    unequal, or zeros of either sign, and whose dummy rounds reveal -1."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-7, 7, size=(horizon, n))
    realized = rng.random((horizon, n)) * scale
    kind = rng.integers(0, 4, size=(horizon, n))
    subjective = np.where(kind == 0, realized, rng.random((horizon, n)) * scale)
    zero_signs = rng.choice([0.0, -0.0], size=(2, horizon, n))
    realized[kind == 2] = zero_signs[0][kind == 2]
    subjective[kind == 2] = zero_signs[1][kind == 2]
    winners = rng.integers(0, k + 1, size=horizon)
    return repeated.RepeatedTrace(
        votes=rng.integers(0, 2, size=(horizon, n, k), dtype=np.int8),
        winners=winners,
        revealed=np.where(winners == 0, -1, rng.integers(0, 2, size=horizon)),
        realized=realized, subjective=subjective,
        weights=rng.random((horizon + 1, n)) * 10.0 ** rng.integers(-5, 3, size=(horizon + 1, n)),
        discounted_realized=(0.0,) * n, discounted_subjective=(0.0,) * n,
        correct=(0,) * n, revealed_rounds=0, gamma_warning=False)


BLOCK = cli._REPEAT_BLOCK


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8),
       st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7]))
def test_repeat_rows_match_per_row_cells(seed, n, k, horizon):
    # Block edges fall inside all but the shortest horizons.
    trace = _drawn_trace(seed, n, k, horizon)
    plain = tuple_form(trace)
    expected = [
        (str(t), str(i), cli._bits(plain.votes[t][i]), str(plain.winners[t]),
         "" if plain.revealed[t] is None else str(plain.revealed[t]),
         cli._real(plain.realized[t][i]), cli._real(plain.subjective[t][i]),
         cli._real(plain.weights[t][i]), cli._real(plain.weights[t + 1][i]))
        for t in range(horizon) for i in range(n)
    ]
    assert list(cli._repeat_rows(trace)) == expected


# Cells with every character csv.writer's minimal rule quotes for.
CSV_CELLS = st.text(alphabet=st.sampled_from("a1 |.-é,\"\r\n"), max_size=6)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(st.lists(CSV_CELLS, min_size=2, max_size=4), max_size=6),
       st.integers(1, 4))
def test_write_csv_matches_csv_writer(tmp_path_factory, rows, lines_per_write):
    # csv stays here as the reference dialect for the joined cells.  The
    # lines are written a few at a time, so that the table spans writes.
    header = ("key", "value")
    ours = tmp_path_factory.mktemp("csv") / "ours.csv"
    theirs = ours.with_name("theirs.csv")
    with open(ours, "w", newline="") as fh, \
            mock.patch.object(cli, "_WRITE_SLICE", lines_per_write):
        cli._write_csv(fh, header, ([cli._quoted(c) for c in row] for row in rows))
    with open(theirs, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    assert ours.read_bytes() == theirs.read_bytes()


def test_flattened_cells_round_trip_through_csv_reader(tmp_path):
    payload = {"note": {"text": 'a, "quoted" word'}, "list": [1, "b,c"], "n": 2}
    path = tmp_path / "flat.csv"
    with open(path, "w", newline="") as fh:
        cli._write_csv(fh, ("key", "value"), cli._flatten(payload))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["key", "value"], ["list", '[1, "b,c"]'], ["n", "2"],
                    ["note.text", 'a, "quoted" word']]


def test_deviation_gap_guard_exits_3(capsys, scenario_file, monkeypatch):
    monkeypatch.setattr(repeated, "STATE_GUARD", 64)
    data = dict(PROP4_SCENARIO)
    data["world"] = {"expertise": [0.9, 0.6], "good_prior": 0.5, "k": 2,
                     "zeta": 0.05, "gamma": 0.0, "horizon": 12, "seed": 0}
    code, _, err = run_cli(capsys, "deviation-gap", "--scenario",
                           scenario_file(data), "--expert", "0",
                           "--horizon", "12")
    assert code == 3
    assert "refused" in err


# ---------------------------------------------------------------------------
# imports
# ---------------------------------------------------------------------------

# Run as ``python -c LOADED_MODULES ARGV...``: runs ``python -m avgov ARGV``
# (with no ARGV, only imports avgov.cli) and prints, as JSON, the avgov
# modules it loaded.
LOADED_MODULES = """
import contextlib, io, json, runpy, sys
with contextlib.redirect_stdout(io.StringIO()):
    if len(sys.argv) > 1:
        sys.argv = ["avgov", *sys.argv[1:]]
        try:
            runpy.run_module("avgov", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            assert exc.code == 0, exc.code
    else:
        import avgov.cli
print(json.dumps(sorted(m for m in sys.modules if m.startswith("avgov"))))
"""


def _python(script, *argv):
    """The JSON that ``python -c script argv...`` prints, in a fresh
    interpreter."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


DEVIATION = str(EXAMPLES / "deviation.json")


@pytest.mark.parametrize("argv, halves", [
    ((), set()),
    (("--help",), set()),
    (("enumerate", "--scenario", DEVIATION), {"avgov.analysis"}),
    (("reproduce", "prop4"), {"avgov.analysis", "avgov.claims"}),
    (("repeat", "--scenario", DEVIATION, "--horizon", "3"), {"avgov.repeated"}),
    (("deviation-gap", "--scenario", DEVIATION, "--horizon", "3"), {"avgov.repeated"}),
    (("validate", "--scenario", DEVIATION), set()),
])
def test_commands_load_only_the_half_they_run(argv, halves):
    # The one-shot analysis, the repeated game and the built-in claims are
    # each loaded only by the commands that call them, whatever sections the
    # scenario has.
    loaded = set(_python(LOADED_MODULES, *argv))
    assert {"avgov", "avgov.cli", "avgov.core", "avgov.errors", "avgov.params"} <= loaded
    assert loaded & {"avgov.analysis", "avgov.claims", "avgov.repeated"} == halves


# The names ``avgov`` binds, by the module that defines each; the package
# also binds each of these modules by its name, and repeated.run as
# run_repeated.
PACKAGE_NAMES = {
    "avgov.core": (
        "DUMMY", "TOL", "Instance", "Outcome", "RewardSchedule", "VotingProfile",
        "expected_reward", "honest_profile", "opt_quality", "qual", "reward",
        "reward_curve", "utility", "winner",
    ),
    "avgov.errors": (
        "AvgovError", "ContractViolation", "DerivationError", "GuardRefusal",
        "NormalizationError", "ScenarioError",
    ),
    "avgov.params": (
        "IDENTITY_TOL", "SafetyEnvelope", "ScheduleDiagnostics", "derive_schedule",
        "deviation_safety_threshold", "external_bound_delta", "max_discount",
        "validate_schedule",
    ),
    "avgov.analysis": (
        "ENUMERATION_GUARD_BITS", "DynamicsTrace", "EquilibriumEntry", "EquilibriumQuery",
        "EquilibriumReport", "MoveRecord", "SafetyCertificate", "best_response",
        "best_response_dynamics", "constructive_pne", "enumerate_equilibria",
        "is_admissible", "is_approx_pne", "safety_certificate",
    ),
    "avgov.repeated": (
        "DeviationGapResult", "HonestPolicy", "RepeatedTrace", "SingleDeviatorPolicy",
        "WorldConfig", "correct_fraction", "delayed_update", "deviation_gap",
        "deviation_tail_bound", "discounted_total", "sample_round",
    ),
}

# Run as ``python -c PUBLIC_NAMES WHERE``, WHERE a JSON object of
# name -> [module, attribute or null for the module itself]: prints the
# names that ``avgov`` does not resolve to that object, then ``__all__``
# and the names ``from avgov import *`` binds.
PUBLIC_NAMES = """
import importlib, json, sys
import avgov

def target(module, attr):
    module = importlib.import_module(module)
    return module if attr is None else getattr(module, attr)

where = json.loads(sys.argv[1])
differ = [name for name, (module, attr) in where.items()
          if getattr(avgov, name) is not target(module, attr)]
star = {}
exec("from avgov import *", star)
print(json.dumps([differ, sorted(avgov.__all__), sorted(set(star) - {"__builtins__"})]))
"""


def test_public_names_resolve_to_their_module_objects():
    # In a fresh interpreter, so that each name the package loads on first
    # use is looked up for the first time here.
    where = {name: (module, name)
             for module, names in PACKAGE_NAMES.items() for name in names}
    where.update({module.split(".")[1]: (module, None) for module in PACKAGE_NAMES})
    where["run_repeated"] = ("avgov.repeated", "run")
    differ, names, star = _python(PUBLIC_NAMES, json.dumps(where))
    assert differ == []
    assert names == star == sorted(where)


def test_package_refuses_unknown_names_and_lists_lazy_ones():
    import avgov

    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        avgov.no_such_name
    assert not hasattr(avgov, "run")
    assert set(avgov.__all__) <= set(dir(avgov))
