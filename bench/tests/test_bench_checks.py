"""Each checker accepts the program's real output and rejects a corrupted
copy of it."""

import csv
import io
import json

import pytest

import checks
import run
import scenarios
from avgov import cli, repeated

SCHEDULE = {"T": 0.9, "epsilon": 19.0, "a_prime": 1.0}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("bench-checks")


def command(workdir, check, argv, scenario=None, out=None, **ctx):
    """A Command on ``scenario`` written to ``workdir``."""
    if scenario is not None:
        path = workdir / f"{check}-{len(list(workdir.iterdir()))}.json"
        path.write_bytes(scenarios.scenario_bytes(scenario))
        argv = (argv[0], "--scenario", str(path)) + tuple(argv[1:])
        ctx["scenario"] = scenario
    if out is not None:
        out = str(workdir / out)
        argv += ("--out", out)
    return scenarios.Command(argv=tuple(argv), check=check, ctx=ctx, out=out)


def genuine(cmd):
    result = run.execute(cli, cmd)
    problems, _ = checks.check(cmd, result.rc, result.stdout, result.csv_text)
    assert problems == [], problems
    return result


def rejects(cmd, result, stdout=None, csv_text=None, rc=None):
    problems, _ = checks.check(
        cmd, result.rc if rc is None else rc,
        result.stdout if stdout is None else stdout,
        result.csv_text if csv_text is None else csv_text)
    return bool(problems)


def edited(text, change):
    doc = json.loads(text)
    change(doc)
    return json.dumps(doc)


def csv_edited(text, change):
    rows = list(csv.reader(io.StringIO(text)))
    change(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

# Two experts, two proposals: 16 profiles, so every unreported one is
# sampled.  Honest voting is 10|01 and elects proposal 1.
PAIR = {"experts": [{"weight": 0.6, "beliefs": [0.95, 0.2]},
                    {"weight": 0.4, "beliefs": [0.3, 0.95]}],
        "schedule": SCHEDULE}


@pytest.fixture(scope="module")
def enumerated(workdir):
    cmd = command(workdir, "enumerate", ("enumerate", "--mode", "semi", "--epsilon", "19.0"),
                  PAIR, out="eq.csv", mode="semi", epsilon=19.0, sample_seed=1)
    result = genuine(cmd)
    assert "10|01" in {e["profile"] for e in json.loads(result.stdout)["equilibria"]}
    return cmd, result


def _drop_profile(result, profile):
    def change(doc):
        doc["equilibria"] = [e for e in doc["equilibria"] if e["profile"] != profile]
        doc["equilibrium_count"] = len(doc["equilibria"])
    return (edited(result.stdout, change),
            csv_edited(result.csv_text, lambda rows: rows.remove(
                next(r for r in rows if r[0] == profile))))


def test_enumerate_rejects_a_missing_honest_profile(enumerated):
    cmd, result = enumerated
    stdout, csv_text = _drop_profile(result, "10|01")
    assert rejects(cmd, result, stdout, csv_text)


def test_enumerate_rejects_a_listed_non_equilibrium(enumerated):
    cmd, result = enumerated

    def change(doc):
        doc["equilibria"].insert(0, {"profile": "00|00", "winner": 0, "winner_quality": 0.0})
        doc["equilibrium_count"] += 1
    stdout = edited(result.stdout, change)
    csv_text = csv_edited(result.csv_text, lambda rows: rows.insert(1, ["00|00", "0", "0"]))
    assert rejects(cmd, result, stdout, csv_text)


@pytest.mark.parametrize("change", [
    lambda doc: doc["equilibria"][0].update(winner=2),
    lambda doc: doc["equilibria"][0].update(winner_quality=0.123),
    lambda doc: doc.update(poa=1.5),
    lambda doc: doc.update(pos=None),
    lambda doc: doc["opt"].update(proposal=2),
    lambda doc: doc.update(equilibrium_count=7),
], ids=["winner", "winner_quality", "poa", "pos", "opt", "count"])
def test_enumerate_rejects_wrong_fields(enumerated, change):
    cmd, result = enumerated
    assert rejects(cmd, result, edited(result.stdout, change))


def test_enumerate_rejects_a_csv_that_differs(enumerated):
    cmd, result = enumerated
    csv_text = csv_edited(result.csv_text, lambda rows: rows[1].__setitem__(1, "2"))
    assert rejects(cmd, result, csv_text=csv_text)
    assert rejects(cmd, result, rc=3)


# ---------------------------------------------------------------------------
# repeat
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def repeated_run(workdir):
    plan = scenarios.build("repeat", 1, str(workdir))
    scenarios.write_files(plan, str(workdir))
    return plan.warmup, genuine(plan.warmup)


def _cell(rows, round_t, expert, column):
    """Row index and column index of a CSV cell (rows include the header)."""
    n = len({r[1] for r in rows[1:]})
    return 1 + round_t * n + expert, checks.REPEAT_HEADER.index(column)


def _set_cell(text, round_t, expert, column, value):
    def change(rows):
        r, c = _cell(rows, round_t, expert, column)
        rows[r][c] = value(rows[r][c])
    return csv_edited(text, change)


def test_repeat_rejects_a_wrong_winner(repeated_run):
    cmd, result = repeated_run
    rows = list(csv.reader(io.StringIO(result.csv_text)))
    # A round with a winner and no tie: electing nothing instead is wrong.
    t = next(int(r[0]) for r in rows[1:] if r[3] != "0")
    csv_text = _set_cell(result.csv_text, t, 0, "winner", lambda v: "0")
    assert rejects(cmd, result, csv_text=csv_text)


@pytest.mark.parametrize("column", ["realized_reward", "subjective_reward", "weight_next"])
def test_repeat_rejects_a_wrong_cell(repeated_run, column):
    cmd, result = repeated_run
    csv_text = _set_cell(result.csv_text, 10, 1, column, lambda v: repr(float(v) + 0.01))
    assert rejects(cmd, result, csv_text=csv_text)


def test_repeat_rejects_a_weight_step_outside_the_bracket(repeated_run):
    cmd, result = repeated_run
    # Both this round's weight_next and the next round's weight move, so
    # the rows stay consistent with each other but not with the update rule.
    def change(rows):
        r, c = _cell(rows, 3, 2, "weight_next")
        r2, c2 = _cell(rows, 4, 2, "weight")
        rows[r][c] = rows[r2][c2] = repr(float(rows[r][c]) * 1.2)
    assert rejects(cmd, result, csv_text=csv_edited(result.csv_text, change))


@pytest.mark.parametrize("change", [
    lambda doc: doc["correct"].__setitem__(0, doc["correct"][0] + 1),
    lambda doc: doc.update(non_dummy_rounds=doc["non_dummy_rounds"] - 1),
    lambda doc: doc["discounted_realized"].__setitem__(1, doc["discounted_realized"][1] + 0.5),
    lambda doc: doc["discounted_subjective"].__setitem__(2, 0.0),
    lambda doc: doc["final_weights"].__setitem__(3, 0.5),
    lambda doc: doc.update(gamma_warning=not doc["gamma_warning"]),
], ids=["correct", "non_dummy_rounds", "realized", "subjective", "final", "gamma_warning"])
def test_repeat_rejects_wrong_totals(repeated_run, change):
    cmd, result = repeated_run
    assert rejects(cmd, result, edited(result.stdout, change))


def test_repeat_rejects_final_weights_far_from_expertise(repeated_run, monkeypatch):
    cmd, result = repeated_run
    monkeypatch.setattr(checks, "CONVERGED_HORIZON", 500)
    world = dict(cmd.ctx["scenario"]["world"])
    world["expertise"] = [min(x + 0.1, 1.0) for x in world["expertise"]]
    far = scenarios.Command(cmd.argv, cmd.check, {"scenario": dict(
        cmd.ctx["scenario"], world=world)}, cmd.out)
    problems, _ = checks.check(far, result.rc, result.stdout, result.csv_text)
    assert any("from expertise" in p for p in problems)


# ---------------------------------------------------------------------------
# deviation-gap
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deviated(workdir):
    plan = scenarios.build("deviation", 1, str(workdir))
    scenarios.write_files(plan, str(workdir))
    return plan.warmup, genuine(plan.warmup)


@pytest.mark.parametrize("change", [
    lambda doc: doc.update(plan_count=doc["plan_count"] * 2),
    lambda doc: doc.update(best_total=doc["honest_total"] * 0.9),
    lambda doc: doc.update(best_total=doc["best_total"] + 0.01),
    lambda doc: doc.update(honest_total=doc["honest_total"] + 0.01),
    lambda doc: doc.update(best_plan=["11"] * len(doc["best_plan"])),
    lambda doc: doc.update(best_plan=doc["best_plan"][:-1]),
    lambda doc: doc.update(ratio_with_tail=doc["deviation_bound"] * 2),
    lambda doc: doc.update(tail_bound=doc["tail_bound"] * 2),
], ids=["plan_count", "below_honest", "best_total", "honest_total", "best_plan",
        "short_plan", "ratio_with_tail", "tail_bound"])
def test_deviation_rejects_wrong_fields(deviated, change):
    cmd, result = deviated
    assert rejects(cmd, result, edited(result.stdout, change))


def test_deviation_rejects_a_best_plan_that_a_sampled_plan_beats(deviated):
    cmd, result = deviated
    # Claim that always approving everything is the best plan, with its
    # true total: the replay agrees with the claim, a sampled plan does not.
    scn, expert, horizon = cmd.ctx["scenario"], cmd.ctx["expert"], cmd.ctx["horizon"]
    plan = ((1, 1),) * horizon
    policy = repeated.SingleDeviatorPolicy(expert=expert, plan=plan)
    total = repeated.run(checks.world_of(scn, horizon=horizon), checks.lib_schedule(scn),
                         policy).discounted_subjective[expert]
    lowered = edited(result.stdout, lambda d: d.update(best_total=total,
                                                       best_plan=["11"] * horizon))
    problems, _ = checks.check(cmd, result.rc, lowered, None)
    assert any("reaches" in p for p in problems), problems


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

# Expert 2 carries a side payment on proposal 1, so safety and validate
# see a positive delta.
TRIO = {"experts": [{"weight": 0.5, "beliefs": [0.95, 0.3]},
                    {"weight": 0.3, "beliefs": [0.2, 0.97]},
                    {"weight": 0.2, "beliefs": [0.6, 0.92], "external": [0.05, 0.0]}],
        "schedule": SCHEDULE}


@pytest.fixture(scope="module")
def queried(workdir):
    cmds = {
        "validate": command(workdir, "validate", ("validate",), TRIO),
        "winner": command(workdir, "winner", ("winner", "--profile", "01|11|10"), TRIO,
                          profile="01|11|10"),
        "qual": command(workdir, "qual", ("qual",), TRIO),
        "honest": command(workdir, "honest", ("honest",), TRIO),
        "construct-pne": command(workdir, "construct-pne", ("construct-pne",), TRIO),
        "dynamics": command(workdir, "dynamics", ("dynamics", "--start", "zeros", "--mode",
                                                  "semi"), TRIO, start="zeros", mode="semi"),
        "safety": command(workdir, "safety", ("safety", "--g", "0.5"), TRIO, g=0.5),
        "reward-curve": command(workdir, "reward-curve", ("reward-curve", "--samples", "11"),
                                TRIO, out="curve.csv", samples=11),
        "reproduce": command(workdir, "reproduce", ("reproduce", "prop4")),
    }
    return {name: (cmd, genuine(cmd)) for name, cmd in cmds.items()}


QUERY_CORRUPTIONS = [
    ("validate", lambda doc: doc["schedule"].update(s=16.0)),
    ("validate", lambda doc: doc["schedule"].update(delta=0.0)),
    ("winner", lambda doc: doc.update(winner=1)),
    ("winner", lambda doc: doc["approval_mass"].__setitem__(0, 0.6)),
    ("winner", lambda doc: doc["utilities"].__setitem__(2, 0.0)),
    ("qual", lambda doc: doc["qualities"].__setitem__(1, 0.1)),
    ("qual", lambda doc: doc["opt"].update(proposal=2)),
    ("honest", lambda doc: doc.update(profile="10|01|00")),
    ("construct-pne", lambda doc: doc.update(profile="00|00|00", winner=0, winner_quality=0.0)),
    ("construct-pne", lambda doc: doc.update(is_strategic_pne=not doc["is_strategic_pne"])),
    ("dynamics", lambda doc: doc["moves"][0].update(winner=3)),
    ("dynamics", lambda doc: doc.update(moves=[], steps=0)),
    ("dynamics", lambda doc: doc.update(terminal="cycle", cycle_length=1)),
    ("safety", lambda doc: doc["envelope"].update(effective_threshold=0.5)),
    ("safety", lambda doc: doc["certificate"].update(eligible=not doc["certificate"]["eligible"])),
    ("reward-curve", lambda doc: doc.update(min_gap_p=0.5)),
    ("reproduce", lambda doc: doc["claims"].update(no_pne=False)),
    ("reproduce", lambda doc: doc.update(claims={})),
]


@pytest.mark.parametrize("name,change", QUERY_CORRUPTIONS,
                         ids=[f"{name}-{i}" for i, (name, _) in enumerate(QUERY_CORRUPTIONS)])
def test_query_checks_reject_wrong_fields(queried, name, change):
    cmd, result = queried[name]
    assert rejects(cmd, result, edited(result.stdout, change))


def test_reward_curve_rejects_a_wrong_row(queried):
    cmd, result = queried["reward-curve"]
    csv_text = csv_edited(result.csv_text, lambda rows: rows[3].__setitem__(1, "0.25"))
    assert rejects(cmd, result, csv_text=csv_text)


def test_construct_pne_is_verified_only_under_its_hypothesis(workdir):
    # Expert 1 believes in the constructed winner above T, so she would
    # approve it too: the construction need not be an equilibrium, and the
    # checker must not demand it.
    scn = {"experts": [{"weight": 0.6, "beliefs": [0.95, 0.1]},
                       {"weight": 0.4, "beliefs": [0.99, 0.1]}], "schedule": SCHEDULE}
    cmd = command(workdir, "construct-pne", ("construct-pne",), scn)
    result = genuine(cmd)
    assert json.loads(result.stdout)["is_strategic_pne"] is False


def test_a_failed_command_fails_its_check(queried):
    cmd, result = queried["winner"]
    assert rejects(cmd, result, stdout="", rc=2)
    assert rejects(cmd, result, stdout="Traceback", rc=0)
