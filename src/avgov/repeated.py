"""The repeated update-selection game with delayed reputation weights.

Each round draws a fresh batch of proposals, experts vote (honestly, or
with one designated deviator following a per-round plan), the winner is
implemented and only its quality revealed, rewards are paid in proportion
to current weights, and weights move toward each expert's empirical
correct-prediction rate under a multiplicative step cap.

A single run is sequential by nature; independent runs (different seeds or
deviation plans) are pure functions of their arguments and can execute
concurrently.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    Instance,
    RewardSchedule,
    _expected_branches,
    honest_profile,
    reward,
    winner,
)
from .errors import ContractViolation, GuardRefusal
from .params import max_discount

INITIAL_WEIGHT = 0.5

# Exhaustive deviation-plan search is refused beyond this many plans.
PLAN_GUARD = 1 << 16


@dataclass(frozen=True)
class WorldConfig:
    """Stochastic environment for the repeated game.

    ``expertise[i]`` is the probability expert i's belief signal about any
    proposal matches its true quality; ``good_prior`` the probability a
    fresh proposal is good; ``zeta`` the per-round weight step cap;
    ``gamma`` the discount factor; ``horizon`` the number of rounds.
    """

    expertise: tuple
    good_prior: float
    proposals_per_round: int
    zeta: float
    gamma: float
    horizon: int
    seed: int = 0

    def __post_init__(self):
        expertise = tuple(float(x) for x in self.expertise)
        if not expertise:
            raise ContractViolation("need at least one expert")
        for i, x in enumerate(expertise):
            if not 0.0 <= x <= 1.0:
                raise ContractViolation(f"expertise[{i}] = {x} outside [0, 1]")
        if not 0.0 <= self.good_prior <= 1.0:
            raise ContractViolation(f"good_prior = {self.good_prior} outside [0, 1]")
        if self.proposals_per_round < 1:
            raise ContractViolation("proposals_per_round must be >= 1")
        if not 0.0 < self.zeta < 1.0:
            raise ContractViolation(f"zeta = {self.zeta} outside (0, 1)")
        if not 0.0 <= self.gamma < 1.0:
            raise ContractViolation(f"gamma = {self.gamma} outside [0, 1)")
        if self.horizon < 1:
            raise ContractViolation("horizon must be >= 1")
        if self.seed < 0:
            raise ContractViolation(f"seed = {self.seed} must be >= 0")
        object.__setattr__(self, "expertise", expertise)

    @property
    def n(self):
        return len(self.expertise)


@dataclass(frozen=True)
class HonestPolicy:
    """Everyone votes honestly every round."""


@dataclass(frozen=True)
class SingleDeviatorPolicy:
    """One expert follows a fixed per-round vote plan; everyone else votes
    honestly.  Rounds beyond the plan's length fall back to honesty."""

    expert: int
    plan: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "plan", tuple(tuple(int(v) for v in row) for row in self.plan)
        )


@dataclass(frozen=True)
class RepeatedTrace:
    """Per-round record of a run plus cumulative discounted totals.

    ``weights[t]`` holds the weight vector entering round t, so the array
    has horizon+1 rows; ``revealed[t]`` is the winner's quality bit or None
    on dummy rounds.  Correctness counters only advance on rounds with a
    revealed winner.
    """

    profiles: tuple
    winners: tuple
    revealed: tuple
    realized: tuple
    subjective: tuple
    weights: tuple
    discounted_realized: tuple
    discounted_subjective: tuple
    correct: tuple
    revealed_rounds: int
    gamma_warning: bool


def correct_fraction(correct_count: int, revealed_rounds: int) -> float:
    """Empirical correct-prediction rate; defaults to the initial weight
    1/2 while nothing has been revealed yet."""
    if revealed_rounds < 0 or not 0 <= correct_count <= revealed_rounds:
        raise ContractViolation(
            f"need 0 <= correct ({correct_count}) <= revealed ({revealed_rounds})"
        )
    if revealed_rounds == 0:
        return INITIAL_WEIGHT
    return correct_count / revealed_rounds


def delayed_update(w: float, omega: float, zeta: float) -> float:
    """Move a weight toward the target rate, capped at a (1 +/- zeta)
    multiplicative step per round."""
    if not w > 0.0:
        raise ContractViolation(f"w = {w} must be > 0")
    if not 0.0 <= omega <= 1.0:
        raise ContractViolation(f"omega = {omega} outside [0, 1]")
    if not 0.0 < zeta < 1.0:
        raise ContractViolation(f"zeta = {zeta} outside (0, 1)")
    if w <= omega:
        return min(omega, (1.0 + zeta) * w)
    return max(omega, (1.0 - zeta) * w)


def sample_round(world: WorldConfig, rng: np.random.Generator) -> tuple:
    """Draw one round: true qualities, per-expert degenerate belief signals
    and (all-zero) external rewards.

    Each proposal is good with probability ``good_prior``; expert i's
    signal about each proposal independently equals the truth with
    probability ``expertise[i]`` and is inverted otherwise.
    """
    n, k = world.n, world.proposals_per_round
    qualities = tuple(int(x) for x in (rng.random(k) < world.good_prior))
    hit = rng.random((n, k))
    beliefs = tuple(
        tuple(
            float(qualities[j]) if hit[i, j] < world.expertise[i]
            else float(1 - qualities[j])
            for j in range(k)
        )
        for i in range(n)
    )
    external = tuple((0.0,) * k for _ in range(n))
    return qualities, beliefs, external


def discounted_total(values, gamma: float) -> float:
    """Sum of per-round values with value at round t scaled by gamma^t."""
    total = 0.0
    factor = 1.0
    for v in values:
        total += factor * v
        factor *= gamma
    return total


def _presample(world):
    rng = np.random.default_rng(world.seed)
    return tuple(sample_round(world, rng) for _ in range(world.horizon))


def _simulate(world, schedule, draws, policy):
    """Deterministic core of a run over pre-drawn rounds."""
    n, k = world.n, world.proposals_per_round
    weights = [INITIAL_WEIGHT] * n
    weight_rows = [tuple(weights)]
    profiles, winners_, revealed = [], [], []
    realized_rows, subjective_rows = [], []
    correct = [0] * n
    revealed_rounds = 0
    deviator = policy.expert if isinstance(policy, SingleDeviatorPolicy) else None

    for t, (qualities, beliefs, external) in enumerate(draws):
        instance = Instance(weights=tuple(weights), beliefs=beliefs, external=external)
        profile = honest_profile(instance, schedule.T)
        if deviator is not None and t < len(policy.plan):
            profile = profile.replace_row(deviator, policy.plan[t])
        outcome = winner(instance, profile)
        js = outcome.winner
        realized = [0.0] * n
        subjective = [0.0] * n
        if js != 0:
            q = qualities[js - 1]
            for i in range(n):
                vote = profile.votes[i][js - 1]
                realized[i] = reward(vote, q, schedule, weights[i])
                p = beliefs[i][js - 1]
                approve, reject = _expected_branches(p, schedule)
                expected = approve if vote == 1 else reject
                subjective[i] = weights[i] * expected + p * external[i][js - 1]
                if vote == q:
                    correct[i] += 1
            revealed_rounds += 1
            revealed.append(q)
        else:
            revealed.append(None)
        omega = [correct_fraction(correct[i], revealed_rounds) for i in range(n)]
        weights = [delayed_update(weights[i], omega[i], world.zeta) for i in range(n)]
        weight_rows.append(tuple(weights))
        profiles.append(profile)
        winners_.append(js)
        realized_rows.append(tuple(realized))
        subjective_rows.append(tuple(subjective))

    gamma_warning = world.gamma >= max_discount(schedule.epsilon, world.zeta)
    return RepeatedTrace(
        profiles=tuple(profiles),
        winners=tuple(winners_),
        revealed=tuple(revealed),
        realized=tuple(realized_rows),
        subjective=tuple(subjective_rows),
        weights=tuple(weight_rows),
        discounted_realized=tuple(
            discounted_total(column, world.gamma) for column in zip(*realized_rows)
        ),
        discounted_subjective=tuple(
            discounted_total(column, world.gamma) for column in zip(*subjective_rows)
        ),
        correct=tuple(correct),
        revealed_rounds=revealed_rounds,
        gamma_warning=gamma_warning,
    )


def run(world: WorldConfig, schedule: RewardSchedule,
        policy=HonestPolicy()) -> RepeatedTrace:
    """Simulate the repeated game; deterministic given the world seed.

    Round draws are independent of play, so runs with the same seed see
    identical proposals and signals whatever the policy does.  A discount
    factor at or above the theoretical cap only sets ``gamma_warning``.
    """
    if isinstance(policy, SingleDeviatorPolicy):
        if not 0 <= policy.expert < world.n:
            raise ContractViolation(f"deviator index {policy.expert} out of range")
        for row in policy.plan:
            if len(row) != world.proposals_per_round or any(v not in (0, 1) for v in row):
                raise ContractViolation("deviation plan rows must be k-bit vectors")
    elif not isinstance(policy, HonestPolicy):
        raise ContractViolation(f"unsupported policy {policy!r}")
    return _simulate(world, schedule, _presample(world), policy)


@dataclass(frozen=True)
class DeviationGapResult:
    """Best single-deviator discounted subjective total relative to honest
    play, over an exhaustively searched plan space."""

    ratio: float
    honest_total: float
    best_total: float
    best_plan: tuple
    plan_count: int


def deviation_gap(world: WorldConfig, schedule: RewardSchedule, expert_i: int,
                  horizon_H: int) -> DeviationGapResult:
    """Exhaustively search expert_i's per-round vote plans over a truncated
    horizon, everyone else honest, and return the ratio of the best
    deviation's discounted subjective total to the honest one.

    All plans replay identical round draws.  Refuses plan spaces larger
    than PLAN_GUARD.
    """
    if not 0 <= expert_i < world.n:
        raise ContractViolation(f"expert index {expert_i} out of range")
    if horizon_H < 1:
        raise ContractViolation("horizon_H must be >= 1")
    k = world.proposals_per_round
    plan_count = (2 ** k) ** horizon_H
    if plan_count > PLAN_GUARD:
        raise GuardRefusal(
            f"deviation search space has {plan_count} plans; capped at {PLAN_GUARD}"
        )
    if world.gamma > max_discount(schedule.epsilon, world.zeta):
        raise ContractViolation(
            f"gamma = {world.gamma} exceeds max_discount = "
            f"{max_discount(schedule.epsilon, world.zeta)}"
        )
    short_world = dataclasses.replace(world, horizon=horizon_H)
    draws = _presample(short_world)
    honest_total = _simulate(
        short_world, schedule, draws, HonestPolicy()
    ).discounted_subjective[expert_i]

    vectors = tuple(itertools.product((0, 1), repeat=k))
    best_total = -np.inf
    best_plan = None
    for plan in itertools.product(vectors, repeat=horizon_H):
        policy = SingleDeviatorPolicy(expert=expert_i, plan=plan)
        total = _simulate(short_world, schedule, draws, policy).discounted_subjective[expert_i]
        if total > best_total:
            best_total = total
            best_plan = plan
    ratio = best_total / honest_total if honest_total > 0.0 else float("inf")
    return DeviationGapResult(
        ratio=ratio, honest_total=honest_total, best_total=best_total,
        best_plan=best_plan, plan_count=plan_count,
    )


def deviation_tail_bound(schedule: RewardSchedule, zeta: float, gamma: float,
                         horizon_H: int) -> float:
    """Analytic cap on any single deviator's discounted subjective total
    beyond a truncated horizon: per round at most (1+delta) * weight * a,
    with the weight starting at INITIAL_WEIGHT and growing at most (1+zeta)
    per round."""
    growth = (1.0 + zeta) * gamma
    if growth >= 1.0:
        raise ContractViolation(f"(1+zeta)*gamma = {growth} must be < 1 for the tail sum")
    per_round = (1.0 + schedule.delta) * INITIAL_WEIGHT * schedule.a
    return per_round * growth ** horizon_H / (1.0 - growth)
