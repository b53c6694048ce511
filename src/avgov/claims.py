"""The paper's built-in instances and the claims ``avgov reproduce`` checks.

Each claim, ``prop4``, ``thm6`` and ``prop3``, takes the parsed arguments
and returns (payload, {claim: holds}).  The library is called through its
modules' attributes, so a wrapper installed on a module is what runs."""

from __future__ import annotations

from . import analysis, core, params
from .cli import Scenario, votes_to_str
from .errors import GuardRefusal

BUILTIN_T = 0.9
BUILTIN_EPSILON = 19.0
# The prop3 claim's strategic check is quadratic in n: n = 1000 takes
# 1.0 s on a 2-core x86 host.
PROP3_GUARD_N = 1000


def _scenario(instance):
    return Scenario(
        instance=instance,
        schedule=params.derive_schedule(BUILTIN_T, BUILTIN_EPSILON, 1.0),
        world=None, schedule_form="derived",
    )


def prop4_scenario() -> Scenario:
    """Three experts, two proposals, no equilibrium for semi-strategic
    experts: the best-response walk cycles."""
    instance = core.Instance(
        weights=(0.49, 0.41, 0.10),
        beliefs=((0.95, 1.0), (1.0, 0.95), (1.0, 0.0)),
    )
    return _scenario(instance)


def thm6_scenario(weight_slack: float) -> Scenario:
    """Two experts whose weights differ by a small slack; the unique-ish
    semi-strategic equilibrium elects the lower-quality proposal, pushing
    the anarchy ratio toward 2 as the slack shrinks."""
    weight_slack = core._real(weight_slack, "weight_slack", 0, 1, "()")
    instance = core.Instance(
        weights=(1.0 + weight_slack, 1.0 - weight_slack),
        beliefs=((BUILTIN_T, 1.0), (1.0, 0.0)),
    )
    return _scenario(instance)


def prop3_scenario(n: int) -> Scenario:
    """n+1 experts, two proposals: the constructive equilibrium elects a
    proposal whose quality is a 1/n fraction of the optimum."""
    n = core._integer(n, "n", 1)
    if n > PROP3_GUARD_N:
        raise GuardRefusal(f"n = {n} is capped at {PROP3_GUARD_N}")
    weights = (1.0 / n + 0.01,) + (1.0 / n,) * n
    beliefs = ((1.0, 0.0),) + ((0.0, 1.0),) * n
    return _scenario(core.Instance(weights=weights, beliefs=beliefs))


def _approx_equal(x, y):
    return abs(x - y) <= 1e-9


def _ratio_to_opt(scenario, profile):
    """The quality of the profile's winner, the optimal quality, and the
    optimum divided by the winner's quality (infinite at quality 0)."""
    instance, T = scenario.instance, scenario.schedule.T
    quality = core.qual(instance, T, core.winner(instance, profile).winner)
    opt = core.opt_quality(instance, T)[1]
    return quality, opt, core._ratio(opt, quality)


def prop4(args):
    scenario = prop4_scenario()
    query = analysis.EquilibriumQuery()
    report = analysis.enumerate_equilibria(scenario.instance, scenario.schedule, query)
    start = core.honest_profile(scenario.instance, scenario.schedule.T)
    trace = analysis.best_response_dynamics(
        scenario.instance, scenario.schedule, start, query.mode, max_steps=64
    )
    payload = {
        "mode": query.mode,
        "epsilon": query.epsilon,
        "equilibria": [votes_to_str(e.votes) for e in report.equilibria],
        "cycle_length": trace.cycle_length,
        "moves": [
            {"expert": m.expert, "new": votes_to_str((m.new_votes,)), "winner": m.winner}
            for m in trace.path
        ],
    }
    claims = {
        "no_pne": len(report.equilibria) == 0,
        "cycle_of_length_4": trace.terminal == "cycle" and trace.cycle_length == 4,
    }
    return payload, claims


def thm6(args):
    slack = args.eps_weight
    scenario = thm6_scenario(slack)
    profile = core.VotingProfile(((0, 1), (1, 0)))
    quality, opt, ratio = _ratio_to_opt(scenario, profile)
    payload = {
        "weight_slack": slack,
        "profile": votes_to_str(profile.votes),
        "pne_quality": quality,
        "opt": opt,
        "poa": ratio,
    }
    claims = {
        "profile_is_semi_pne": analysis.is_approx_pne(
            scenario.instance, scenario.schedule, profile,
            analysis.EquilibriumQuery(mode="semi", epsilon=0.0),
        ),
        "ratio_matches": _approx_equal(ratio, 2.0 / (1.0 + slack)),
    }
    return payload, claims


def prop3(args):
    n = args.n
    scenario = prop3_scenario(n)
    profile = analysis.constructive_pne(scenario.instance, scenario.schedule)
    quality, opt, ratio = _ratio_to_opt(scenario, profile)
    payload = {
        "n": n,
        "profile": votes_to_str(profile.votes),
        "pne_quality": quality,
        "opt": opt,
        "ratio": ratio,
    }
    claims = {
        "constructive_is_first_expert_first_proposal":
            profile.votes == ((1, 0),) + ((0, 0),) * n,
        "passes_strategic_check": analysis.is_approx_pne(
            scenario.instance, scenario.schedule, profile,
            analysis.EquilibriumQuery(mode="strategic", epsilon=0.0),
        ),
        "ratio_matches": _approx_equal(ratio, 1.0 / (1.0 / n + 0.01)),
    }
    return payload, claims
