"""Command-line interface: scenario files, command dispatch, output and
exit codes.  ``reproduce`` runs the claims of ``avgov.claims``.

Output is deterministic: JSON with sorted keys and reals canonicalized to
12 significant digits; optional CSV via --out.  Exit codes: 0 ok, 1 a
reproduction claim failed, 2 validation, 3 guard refusal, 64 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

from . import core, params
from .errors import (
    ContractViolation,
    DerivationError,
    GuardRefusal,
    NormalizationError,
    ScenarioError,
)


# ---------------------------------------------------------------------------
# Canonical output
# ---------------------------------------------------------------------------


def _canonical(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("NaN has no canonical form")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def emit(payload):
    """Print the canonical payload as JSON."""
    print(json.dumps(payload, sort_keys=True, indent=2))


_real = "{:.12g}".format


def _cell(value):
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return _real(value)
    if value is None:
        return ""
    return str(value)


def _cells(rows):
    """Rows of values as rows of CSV cells, made as they are written."""
    return ([_cell(v) for v in row] for row in rows)


def _write_csv(fh, header, rows):
    """Write the header and the rows as CSV to the text file ``fh``, opened
    with ``newline=""``: cells joined by commas, each line ended by CRLF.
    The lines are joined and written _WRITE_SLICE at a time, so that no
    Python code runs per line and a long table is never whole in memory.

    Cells arrive as CSV text.  Only ``_flatten`` makes cells that can hold
    a comma, a quote or a line break, and it quotes them with ``_quoted``;
    every other producer yields cells that need no quotes."""
    rows = itertools.chain((header,), rows)
    while lines := list(itertools.islice(rows, _WRITE_SLICE)):
        fh.write("\r\n".join(map(",".join, lines)) + "\r\n")


def _quoted(cell):
    """``cell`` as csv.writer's minimal rule writes it: in quotes, with
    inner quotes doubled, when it holds a comma, a quote or a line break."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _flatten(payload, prefix=""):
    """The canonical payload as quoted ``(key, value)`` cells, nested keys
    joined by dots and lists written as JSON."""
    rows = []
    for key in sorted(payload):
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=name + "."))
            continue
        if isinstance(value, list):
            value = json.dumps(value)
        rows.append((_quoted(name), _quoted(_cell(value))))
    return rows


def _bits(row):
    return "".join(str(v) for v in row)


def votes_to_str(votes):
    return "|".join(_bits(row) for row in votes)


def parse_profile(text):
    rows = text.split("|")
    try:
        return core.VotingProfile(tuple(tuple(int(c) for c in row) for row in rows))
    except (ValueError, ContractViolation) as exc:
        raise ScenarioError(f"bad profile {text!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    instance: core.Instance
    schedule: core.RewardSchedule
    world: dict | None  # the section as given; only its keys are checked
    schedule_form: str  # "explicit" | "derived"


EXPLICIT_KEYS = {"a", "a_prime", "s", "T"}
DERIVABLE_KEYS = {"T", "epsilon", "a_prime"}


def _check_keys(keys, allowed, section):
    """Refuse a key outside ``allowed``, naming it and the section, so that
    a misspelled field is never silently ignored."""
    unknown = sorted(set(keys) - allowed)
    if unknown:
        raise ScenarioError(f"{section}: unknown key {unknown[0]!r}; known: {sorted(allowed)}")


def _section(name, read, *args):
    """``read(*args)``, with a missing or malformed field and a library
    refusal turned into a ScenarioError that names the section."""
    try:
        return read(*args)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"{name}: missing or malformed field ({exc})") from exc
    except (ContractViolation, NormalizationError, DerivationError) as exc:
        raise ScenarioError(f"{name}: {exc}") from exc


def _read_experts(data):
    experts = data["experts"]
    weights = tuple(e["weight"] for e in experts)
    beliefs = tuple(e["beliefs"] for e in experts)
    external = tuple(e.get("external", [0.0] * len(e["beliefs"])) for e in experts)
    _check_keys(itertools.chain(*experts), {"weight", "beliefs", "external"}, "experts")
    return core.Instance(weights=weights, beliefs=beliefs, external=external)


def _read_schedule(data, instance):
    """The schedule in either form, and the form's name.  Its delta is the
    bound computed from the instance's external rewards; a supplied
    ``delta`` may only widen it."""
    if not isinstance(data, dict):
        raise ScenarioError("schedule must be a JSON object")
    keys = data.keys() - {"delta"}

    def num(key):
        return core._real(data[key], key)

    if keys == DERIVABLE_KEYS:
        form = "derived"
        schedule = params.derive_schedule(num("T"), num("epsilon"), num("a_prime"))
    elif keys == EXPLICIT_KEYS:
        form = "explicit"
        a, ap, T = num("a"), num("a_prime"), num("T")
        # Recover the slack the schedule was built for; downstream bounds
        # need it and the explicit form does not carry it.
        epsilon = max(a / (ap * (1.0 - T)) - 1.0, 0.0) if ap > 0.0 and T < 1.0 else 0.0
        schedule = core.RewardSchedule(a=a, a_prime=ap, s=num("s"), T=T, epsilon=epsilon)
        # The inflection residual is this one times (a+a'+s): not checked.
        residual = params.validate_schedule(schedule).threshold_identity_residual
        if residual > params.IDENTITY_TOL:
            raise ScenarioError(
                "schedule: threshold identity T = (a'+s)/(a'+s+a) fails, residual "
                f"{residual}"
            )
    elif EXPLICIT_KEYS < keys or keys > DERIVABLE_KEYS:
        raise ScenarioError(
            "schedule: give exactly one of the explicit form {a, a_prime, s, T} "
            "or the derivable form {T, epsilon, a_prime}, not a mixture"
        )
    else:
        raise ScenarioError(
            f"schedule: unrecognized key set {sorted(keys)}; expected "
            "{a, a_prime, s, T} or {T, epsilon, a_prime}"
        )
    bound = params.external_bound_delta(instance, schedule)
    delta = num("delta") if "delta" in data else bound
    if delta < bound - 1e-12:
        raise ScenarioError(
            f"schedule: delta = {delta} is below the bound "
            f"{bound} computed from the instance's external rewards"
        )
    delta = max(delta, bound)
    if delta.hex() != schedule.delta.hex():  # bit for bit: a given -0.0 stays -0.0
        schedule = dataclasses.replace(schedule, delta=delta)
    return schedule, form


def _read_world(data, horizon=None, seed=None):
    """The world section as one ``repeated.WorldConfig``, which checks its
    values; a given ``horizon`` or ``seed`` replaces the section's own."""
    from . import repeated

    try:
        return repeated.WorldConfig(
            expertise=data["expertise"], good_prior=data["good_prior"],
            proposals_per_round=data["k"], zeta=data["zeta"], gamma=data["gamma"],
            horizon=data["horizon"] if horizon is None else horizon,
            seed=data.get("seed", 0) if seed is None else seed,
        )
    except ContractViolation as exc:
        # The scenario calls WorldConfig's proposals_per_round k.
        raise ContractViolation(str(exc).replace("proposals_per_round", "k")) from exc


def scenario_from_dict(data) -> Scenario:
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object")
    if "query" in data:
        raise ScenarioError("scenario: key 'query' is not read; pass --mode and --epsilon")
    _check_keys(data, {"experts", "schedule", "world"}, "scenario")
    instance = _section("experts", _read_experts, data)
    if "schedule" not in data:
        raise ScenarioError("scenario has no schedule")
    schedule, form = _section("schedule", _read_schedule, data["schedule"], instance)
    # Only the commands that read the world check its values (_world_for).
    world = data.get("world")
    if "world" in data and not isinstance(world, dict):
        raise ScenarioError("world must be a JSON object")
    _check_keys(world or (), {"expertise", "good_prior", "k", "zeta", "gamma", "horizon", "seed"},
                "world")
    return Scenario(instance=instance, schedule=schedule, world=world, schedule_form=form)


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# Command handlers.  Each is called as handler(args, scenario), the
# scenario loaded from --scenario or None for a command without it, and
# returns (payload, csv_header, csv_rows); header and rows are None for
# commands without a natural table.
# ---------------------------------------------------------------------------


def _schedule_report(schedule):
    """The schedule and its identity diagnostics, as derive-params and
    validate print them."""
    return {
        "schedule": dataclasses.asdict(schedule),
        "diagnostics": dataclasses.asdict(params.validate_schedule(schedule)),
    }


def cmd_derive_params(args, scenario):
    schedule = params.derive_schedule(args.T, args.epsilon, args.a_prime)
    return _schedule_report(schedule), None, None


def cmd_validate(args, scenario):
    payload = dict(_schedule_report(scenario.schedule),
                   schedule_form=scenario.schedule_form)
    return payload, None, None


def _resolve_profile(scenario, text):
    if text in (None, "honest"):
        return core.honest_profile(scenario.instance, scenario.schedule.T)
    if text == "zeros":
        return core.VotingProfile.zeros(scenario.instance.n, scenario.instance.k)
    return parse_profile(text)


def cmd_winner(args, scenario):
    profile = _resolve_profile(scenario, args.profile)
    outcome = core.winner(scenario.instance, profile)
    utilities = [
        core.utility(scenario.instance, scenario.schedule, profile, i)
        for i in range(scenario.instance.n)
    ]
    payload = {
        "profile": votes_to_str(profile.votes),
        "winner": outcome.winner,
        "approval_mass": list(outcome.approval_mass),
        "utilities": utilities,
    }
    return payload, None, None


def cmd_qual(args, scenario):
    instance, T = scenario.instance, scenario.schedule.T
    values = list(core._honest_masses(instance, T))
    opt = core.opt_quality(instance, T)
    payload = {
        "qualities": values,
        "opt": {"proposal": opt[0], "quality": opt[1]},
        "threshold": T,
    }
    return payload, None, None


def cmd_honest(args, scenario):
    profile = core.honest_profile(scenario.instance, scenario.schedule.T)
    return {"profile": votes_to_str(profile.votes)}, None, None


def _report_payload(report):
    return {
        "mode": report.query.mode,
        "epsilon": report.query.epsilon,
        "equilibrium_count": len(report.equilibria),
        "opt": {"proposal": report.opt[0], "quality": report.opt[1]},
        "poa": report.poa,
        "pos": report.pos,
    }


def _enumerate(args, scenario):
    from . import analysis

    query = analysis.EquilibriumQuery(args.mode, args.epsilon)
    return analysis.enumerate_equilibria(scenario.instance, scenario.schedule, query)


def cmd_enumerate(args, scenario):
    report = _enumerate(args, scenario)
    header = ("profile", "winner", "winner_quality")
    rows = [(votes_to_str(e.votes), e.winner, e.winner_quality) for e in report.equilibria]
    payload = dict(_report_payload(report), equilibria=[dict(zip(header, r)) for r in rows])
    return payload, header, _cells(rows)


def cmd_poa(args, scenario):
    return _report_payload(_enumerate(args, scenario)), None, None


def cmd_construct_pne(args, scenario):
    from . import analysis

    profile = analysis.constructive_pne(scenario.instance, scenario.schedule)
    outcome = core.winner(scenario.instance, profile)
    verified = analysis.is_approx_pne(
        scenario.instance, scenario.schedule, profile,
        analysis.EquilibriumQuery(mode="strategic", epsilon=0.0),
    )
    payload = {
        "profile": votes_to_str(profile.votes),
        "winner": outcome.winner,
        "winner_quality": core.qual(scenario.instance, scenario.schedule.T,
                                    outcome.winner),
        "is_strategic_pne": verified,
    }
    return payload, None, None


def cmd_dynamics(args, scenario):
    from . import analysis

    start = _resolve_profile(scenario, args.start)
    trace = analysis.best_response_dynamics(
        scenario.instance, scenario.schedule, start, args.mode, args.max_steps
    )
    rows = [
        (idx, m.expert, _bits(m.old_votes), _bits(m.new_votes), m.winner)
        for idx, m in enumerate(trace.path)
    ]
    moves = [{"expert": expert, "old": old, "new": new, "winner": winner}
             for _, expert, old, new, winner in rows]
    payload = {
        "start": votes_to_str(start.votes),
        "mode": args.mode,
        "moves": moves,
        "steps": len(trace.path),
        "terminal": trace.terminal,
        "cycle_length": trace.cycle_length,
    }
    return payload, ("step", "expert", "old_votes", "new_votes", "winner"), _cells(rows)


def cmd_safety(args, scenario):
    from . import analysis

    envelope = params.deviation_safety_threshold(scenario.schedule, args.g)
    certificate = analysis.safety_certificate(scenario.instance, scenario.schedule)
    delta = params.external_bound_delta(scenario.instance, scenario.schedule)
    payload = {
        "envelope": {"g": args.g, **dataclasses.asdict(envelope)},
        "delta": delta,
        "certificate": dataclasses.asdict(certificate),
    }
    return payload, None, None


def cmd_reward_curve(args, scenario):
    rows = core.reward_curve(scenario.schedule, args.samples)
    gaps = [abs(yes - no) for _, yes, no in rows]
    payload = {
        "samples": args.samples,
        "threshold": scenario.schedule.T,
        "min_gap_p": rows[gaps.index(min(gaps))][0],
    }
    return payload, ("p", "approve_value", "reject_value"), _cells(rows)


def _world_for(args, scenario):
    """The scenario's world, with --horizon and --seed when given, built
    and checked once; a refusal names the world section."""
    if scenario.world is None:
        raise ScenarioError(f"{args.command} requires a scenario with a world section")
    return _section("world", _read_world, scenario.world, args.horizon, args.seed)


def cmd_repeat(args, scenario):
    from . import repeated

    world = _world_for(args, scenario)
    trace = repeated.run(world, scenario.schedule)
    payload = {
        "horizon": world.horizon,
        "gamma": world.gamma,
        "zeta": world.zeta,
        "seed": world.seed,
        "non_dummy_rounds": trace.revealed_rounds,
        "final_weights": trace.weights[-1].tolist(),
        "correct": list(trace.correct),
        "discounted_realized": list(trace.discounted_realized),
        "discounted_subjective": list(trace.discounted_subjective),
        "gamma_warning": trace.gamma_warning,
    }
    header = ("round", "expert", "votes", "winner", "revealed_quality",
              "realized_reward", "subjective_reward", "weight", "weight_next")
    return payload, header, _repeat_rows(trace)


# ``repeat --out`` formats its CSV columns this many rounds at a time, and
# ``_write_csv`` joins and writes this many lines at a time.
_REPEAT_BLOCK = 256
_WRITE_SLICE = 512


def _repeat_rows(trace):
    """The trace's CSV rows, one per round and expert, made as they are
    written, _REPEAT_BLOCK rounds at a time (``_repeat_block``)."""
    return itertools.chain.from_iterable(
        _repeat_block(trace, start) for start in range(0, len(trace.winners), _REPEAT_BLOCK))


def _repeat_block(trace, start):
    """The rows of the _REPEAT_BLOCK rounds from ``start``, zipped from
    columns that are each formatted in one pass over the block's arrays,
    so that no Python code runs per row.

    A per-round cell is repeated for each of the n experts.  The weights
    entering rounds start to start + rounds are formatted once: their cells
    from the n-th on are the ``weight_next`` column, and zip stops at the
    block's last row.  A subjective reward equal
    to the realized one reuses its cell, unless both are zeros, whose
    signs may differ.  A vote row's cell is its k vote bytes, "0" or "1",
    read as one string, for any k."""
    block = slice(start, start + _REPEAT_BLOCK)
    winners = trace.winners[block].tolist()
    rounds, n, k = len(winners), trace.votes.shape[1], trace.votes.shape[2]

    def per_expert(cells):
        return itertools.chain.from_iterable(zip(*[cells] * n))

    bits = (trace.votes[block] + ord("0")).view(f"S{k}")[..., 0].astype(str)
    realized, subjective = trace.realized[block].ravel(), trace.subjective[block].ravel()
    reward = list(map(_real, realized.tolist()))
    own = ((subjective != realized) | (realized == 0.0)).nonzero()[0]
    subjective_cells = reward.copy()
    for i, cell in zip(own.tolist(), map(_real, subjective[own].tolist())):
        subjective_cells[i] = cell
    weight = list(map(_real, trace.weights[start:start + rounds + 1].ravel().tolist()))
    return zip(
        per_expert(list(map(str, range(start, start + rounds)))),
        [str(i) for i in range(n)] * rounds,
        bits.ravel().tolist(),
        per_expert(list(map(str, winners))),
        per_expert(["" if q < 0 else str(q) for q in trace.revealed[block].tolist()]),
        reward, subjective_cells, weight, weight[n:])


def cmd_deviation_gap(args, scenario):
    from . import repeated

    world = _world_for(args, scenario)
    horizon = world.horizon
    result = repeated.deviation_gap(world, scenario.schedule, args.expert, horizon)
    sched = scenario.schedule
    tail = repeated.deviation_tail_bound(sched, world.zeta, world.gamma, horizon)
    payload = {
        "expert": args.expert,
        "horizon": horizon,
        "gamma": world.gamma,
        "max_discount": params.max_discount(sched.epsilon, world.zeta),
        "plan_count": result.plan_count,
        "honest_total": result.honest_total,
        "best_total": result.best_total,
        "ratio": result.ratio,
        "tail_bound": tail,
        "ratio_with_tail": core._ratio(result.best_total + tail, result.honest_total),
        "deviation_bound": (1.0 + 3.0 * sched.epsilon) * (1.0 + sched.delta),
        "single_shot_bound": (1.0 + sched.epsilon) * (1.0 + sched.delta),
        "best_plan": [_bits(row) for row in result.best_plan],
    }
    return payload, None, None


def cmd_reproduce(args, scenario):
    from . import claims

    payload, checks = getattr(claims, args.name)(args)
    payload.update({"name": args.name, "claims": checks, "pass": all(checks.values())})
    return payload, None, None


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="avgov",
        description="Approval-voting update selection: mechanism and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help, scenario=True, within=sub, **defaults):
        p = within.add_parser(name, help=help)
        if scenario:
            p.add_argument("--scenario", required=True, help="scenario JSON file")
        p.add_argument("--out", help="write CSV/flattened output here")
        p.set_defaults(**defaults)
        return p

    p = add("derive-params", help="derive a reward schedule from (T, epsilon, a')",
            scenario=False, handler=cmd_derive_params)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--a-prime", dest="a_prime", type=float, required=True)

    add("validate", help="schedule identity diagnostics", handler=cmd_validate)

    p = add("winner", help="winner and per-expert utilities for a profile",
            handler=cmd_winner)
    p.add_argument("--profile", help="votes like 11|10|10 (default: honest)")

    add("qual", help="per-proposal estimated quality and the optimum", handler=cmd_qual)
    add("honest", help="the honest voting profile", handler=cmd_honest)

    for name, help, handler in (
            ("enumerate", "exhaustive equilibrium search", cmd_enumerate),
            ("poa", "price of anarchy / stability", cmd_poa)):
        p = add(name, help=help, handler=handler)
        p.add_argument("--mode", choices=core.MODES, default="semi")
        p.add_argument("--epsilon", type=float, default=0.0)

    add("construct-pne", help="constructive equilibrium for strategic experts",
        handler=cmd_construct_pne)

    p = add("dynamics", help="best-response dynamics with cycle detection",
            handler=cmd_dynamics)
    p.add_argument("--start", default="honest",
                   help="honest, zeros, or an explicit profile")
    p.add_argument("--mode", choices=core.MODES, default="semi")
    p.add_argument("--max-steps", dest="max_steps", type=int, default=64)

    p = add("safety", help="deviation-safety thresholds and certificate",
            handler=cmd_safety)
    p.add_argument("--g", type=float, default=0.0,
                   help="normalized external reward for the envelope")

    p = add("reward-curve", help="expected-reward branches over the belief grid",
            handler=cmd_reward_curve)
    p.add_argument("--samples", type=int, default=101)

    for name, help, handler in (
            ("repeat", "simulate the repeated game", cmd_repeat),
            ("deviation-gap", "exhaustive single-deviator search", cmd_deviation_gap)):
        p = add(name, help=help, handler=handler)
        p.add_argument("--horizon", type=int)
        p.add_argument("--seed", type=int, help="override world seed")
    p.add_argument("--expert", type=int, default=0)

    # Each claim is the function of its name in ``claims`` and takes only
    # the options it reads; ``reproduce`` itself takes none, not even --out.
    p = sub.add_parser(
        "reproduce", help="reproduce a built-in instance and check its claims",
    )
    p.set_defaults(handler=cmd_reproduce)
    claims = p.add_subparsers(dest="name", required=True, metavar="NAME")
    p = add("prop3", help="constructive strategic equilibrium and its quality ratio",
            scenario=False, within=claims)
    p.add_argument("--n", type=int, default=4)
    add("prop4", help="no pure equilibrium, a best-response cycle of length 4",
        scenario=False, within=claims)
    p = add("thm6", help="semi-strategic equilibrium with quality ratio 2/(1+eps-weight)",
            scenario=False, within=claims)
    p.add_argument("--eps-weight", dest="eps_weight", type=float, default=0.1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 64
    try:
        scenario = load_scenario(args.scenario) if "scenario" in args else None
        payload, header, rows = args.handler(args, scenario)
    except (ContractViolation, NormalizationError, DerivationError,
            ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy refuses an allocation it cannot make; no --out file is open yet.
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except GuardRefusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    # Before --out is opened, so a payload that cannot be printed (a NaN)
    # leaves no file behind.
    payload = _canonical(payload)
    if args.out:
        # Before anything is printed, so a path that cannot be written is
        # refused with nothing on stdout.
        try:
            fh = open(args.out, "w", newline="")
        except OSError as exc:
            print(f"error: cannot write --out {args.out}: {exc.strerror}", file=sys.stderr)
            return 2
        with fh:
            if rows is None:
                header, rows = ("key", "value"), _flatten(payload)
            _write_csv(fh, header, rows)
    try:
        emit(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as `| head -1` does.  Point the
        # descriptor at /dev/null so the interpreter's last flush stays
        # quiet, and exit as the shell reports a process ended by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    if payload.get("pass") is False:
        failed = [k for k, v in payload.get("claims", {}).items() if not v]
        print(f"claim check failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
