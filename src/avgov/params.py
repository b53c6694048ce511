"""Reward-schedule derivation and validation, deviation-safety thresholds,
the external-reward bound and the maximal discount factor for the repeated
game.

All functions are pure and safe for unrestricted concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Instance, RewardSchedule, _normalized_external, _real
from .errors import DerivationError

# Residual tolerance for the schedule identities.
IDENTITY_TOL = 1e-9


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Residuals of the two schedule identities plus the derivation-side
    conditions.  ``all_ok`` iff the threshold residual is within tolerance
    and both flags hold; the inflection residual is it times (a+a'+s)."""

    threshold_identity_residual: float
    inflection_residual: float
    a_dominates: bool
    epsilon_condition: bool
    all_ok: bool


@dataclass(frozen=True)
class SafetyEnvelope:
    """Belief thresholds below which no profitable vote-in-favour deviation
    exists, for a given external reward.

    Two versions of the bound's second numerator are in circulation and
    disagree in general: ``statement_branch`` uses a'(1-T) + a, while
    ``proof_branch`` re-derives it as a'(1-T) + s, which coincides with
    T(a+s) whenever the inflection identity holds.  ``effective_threshold``
    is always the re-derived one, named by ``variant``; the statement's
    branch is reported next to it for comparison.
    """

    statement_branch: float
    proof_branch: float
    effective_threshold: float
    variant: str = field(default="proof", init=False)


def derive_schedule(T: float, epsilon: float, a_prime: float, *,
                    delta: float = 0.0) -> RewardSchedule:
    """Derive (a, s) from (T, epsilon, a_prime).

    Requires 1/(epsilon+1) < T < 1, a_prime > 0 and a >= a_prime, which
    holds iff (1+epsilon)(1-T) >= 1.  A schedule with a < a_prime can only
    be given in explicit form, where ``validate_schedule`` flags it.
    """
    T = _real(T, "T")
    epsilon = _real(epsilon, "epsilon")
    a_prime = _real(a_prime, "a_prime")
    if T in (0.0, 1.0):
        raise DerivationError(f"T = {T} is degenerate; the threshold must be interior")
    if not 0.0 < T < 1.0:
        raise DerivationError(f"T = {T} outside (0, 1)")
    if not epsilon >= 0.0:
        raise DerivationError(f"epsilon = {epsilon} must be >= 0")
    if not a_prime > 0.0:
        raise DerivationError(f"a_prime = {a_prime} must be > 0")
    if not 1.0 / (epsilon + 1.0) < T:
        raise DerivationError(
            f"condition 1/(epsilon+1) < T violated: 1/{epsilon + 1} = "
            f"{1.0 / (epsilon + 1.0)} >= {T}"
        )
    a = (1.0 + epsilon) * a_prime * (1.0 - T)
    if a < a_prime:
        raise DerivationError(
            f"condition a >= a_prime violated: (1+epsilon)(1-T) = "
            f"{(1.0 + epsilon) * (1.0 - T)} < 1"
        )
    s = a * (T * (epsilon + 1.0) - 1.0) / ((1.0 - T) * (epsilon + 1.0))
    return RewardSchedule(a=a, a_prime=a_prime, s=s, T=T, epsilon=epsilon, delta=delta)


def validate_schedule(schedule: RewardSchedule) -> ScheduleDiagnostics:
    """Report how far a schedule is from the defining identities.

    Never raises: returns diagnostics so non-conforming schedules can be
    inspected.
    """
    a, ap, s, T = schedule.a, schedule.a_prime, schedule.s, schedule.T
    threshold_residual = abs(T - (ap + s) / (ap + s + a))
    inflection_residual = abs(T * a - (1.0 - T) * s - ap * (1.0 - T))
    a_dominates = a >= ap
    epsilon_condition = 1.0 / (schedule.epsilon + 1.0) < T
    all_ok = threshold_residual <= IDENTITY_TOL and a_dominates and epsilon_condition
    return ScheduleDiagnostics(
        threshold_identity_residual=threshold_residual,
        inflection_residual=inflection_residual,
        a_dominates=a_dominates,
        epsilon_condition=epsilon_condition,
        all_ok=all_ok,
    )


def deviation_safety_threshold(schedule: RewardSchedule, g: float) -> SafetyEnvelope:
    """Belief level below which voting a proposal up can never pay off,
    given the (weight-normalized) external reward g attached to it.

    With g = 0 and a schedule satisfying the inflection identity the
    effective threshold equals T, recovering the dominant-strategy
    guarantee for unbribed experts.
    """
    g = _real(g, "g", 0)
    a, ap, s, T = schedule.a, schedule.a_prime, schedule.s, schedule.T
    denom = a + s + g
    first = T * (a + s) / denom
    statement = (ap * (1.0 - T) + a) / denom
    proof_second = (ap * (1.0 - T) + s) / denom
    clamp = lambda x: min(max(x, 0.0), 1.0)
    proof = clamp(min(first, proof_second))
    return SafetyEnvelope(
        statement_branch=clamp(statement),
        proof_branch=proof,
        effective_threshold=proof,
    )


def external_bound_delta(instance: Instance, schedule: RewardSchedule) -> float:
    """The tightest delta such that every weight-normalized external reward
    satisfies g/w <= a * delta.  Zero when the instance has no external
    rewards."""
    worst = 0.0
    for i in range(instance.n):
        for j in range(1, instance.k + 1):
            worst = max(worst, _normalized_external(instance, i, j) / schedule.a)
    return worst


def max_discount(epsilon: float, zeta: float) -> float:
    """Largest discount factor for which the repeated-game reward ratio
    (1-(1-zeta)g)/(1-(1+zeta)g) stays within 1+epsilon.

    The condition holds with equality at the returned value (for
    epsilon > 0).  At zeta = 0 the bound degenerates to the open supremum
    1, which is returned as-is; admissible discounts are strictly below 1
    in that case.
    """
    epsilon = _real(epsilon, "epsilon", 0)
    zeta = _real(zeta, "zeta", 0, 1, "[)")
    denom = (1.0 + epsilon) * (1.0 + zeta) - (1.0 - zeta)
    if denom <= 0.0:
        return 0.0
    return min(max(epsilon / denom, 0.0), 1.0)
