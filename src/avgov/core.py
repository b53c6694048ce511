"""Deterministic mechanics of the approval-voting update-selection mechanism.

Domain types (one-shot game instances, reward schedules, voting profiles,
outcomes) plus the basic operations: winner selection, reward payout,
subjective expected utility, the honest strategy, estimated quality and the
expected-reward curve.

Conventions used throughout the package:

* experts are indexed 0..n-1;
* proposals are indexed 1..k, with 0 reserved for the dummy outcome that
  is selected when no proposal receives any approving weight.  The dummy
  implements nothing and pays nobody.

Public names check every argument; every index and count passes
``_integer``.  The kernels ``_elect``, ``_honest_votes``, ``_reward`` and
``_utility`` take rows the caller has checked and never check again;
``_honest_votes`` and ``_reward`` also take numpy arrays.  The winner rule
has two homes, both here: ``_elect`` on plain rows and ``_elect_arrays`` on
numpy arrays of masses, which the enumerator and the repeated game call.

All values are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to share between
concurrent callers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, GuardRefusal, NormalizationError

# Absolute tolerance for utility comparisons.  "Strictly better" always
# means exceeding by more than this amount.
TOL = 1e-9

DUMMY = 0

# Searches over an expert's 2^k vote vectors are refused beyond this k;
# 2^16 is also the number of kept entries repeated.STATE_GUARD allows.
VECTOR_GUARD_BITS = 16

# reward_curve builds its whole table at once, and the CLI's JSON and CSV
# grow with it: 10^6 rows take some 230 MB, so larger tables are refused.
CURVE_GUARD_SAMPLES = 10**6


def _integer(value, name):
    """``value`` as an int: an int, a numpy integer or an integral float.
    Refuses (ContractViolation) anything else: a bool, a string, a
    fractional value, NaN and inf."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ContractViolation(f"{name} = {value!r} is not an integer")


def _as_matrix(rows, name, n=None, k=None):
    out = tuple(tuple(float(x) for x in row) for row in rows)
    if n is not None and len(out) != n:
        raise ContractViolation(f"{name} must have {n} rows, got {len(out)}")
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ContractViolation(f"{name} rows have unequal lengths {sorted(widths)}")
    if k is not None and out and len(out[0]) != k:
        raise ContractViolation(f"{name} must have {k} columns, got {len(out[0])}")
    return out


@dataclass(frozen=True)
class Instance:
    """A one-shot game: expert weights, belief matrix and external rewards.

    ``beliefs[i][j]`` is expert i's probability that proposal j+1 is good;
    ``external[i][j]`` is the side payment expert i collects if proposal
    j+1 is implemented (same monetary unit as the mechanism's rewards).
    The weights must have a finite sum, so that no approval mass overflows.
    """

    weights: tuple
    beliefs: tuple
    external: tuple = None

    def __post_init__(self):
        weights = tuple(float(w) for w in self.weights)
        if not weights:
            raise ContractViolation("need at least one expert")
        beliefs = _as_matrix(self.beliefs, "beliefs", n=len(weights))
        if not beliefs[0]:
            raise ContractViolation("need at least one proposal")
        k = len(beliefs[0])
        if self.external is None:
            external = tuple((0.0,) * k for _ in weights)
        else:
            external = _as_matrix(self.external, "external", n=len(weights), k=k)
        for i, w in enumerate(weights):
            if not 0.0 <= w < math.inf:
                raise ContractViolation(f"weights[{i}] = {w} must be finite and >= 0")
        # Every expert approving one proposal: rounding is monotone, so a
        # mass that leaves out some non-negative weights is never larger.
        total = _elect(weights, ((1,),) * len(weights))[1][0]
        if total == math.inf:
            raise ContractViolation(f"the weights sum to {total}; it must be finite")
        for i, row in enumerate(beliefs):
            for j, p in enumerate(row):
                if not 0.0 <= p <= 1.0:
                    raise ContractViolation(f"beliefs[{i}][{j}] = {p} outside [0, 1]")
        for i, row in enumerate(external):
            for j, g in enumerate(row):
                if not 0.0 <= g < math.inf:
                    raise ContractViolation(
                        f"external[{i}][{j}] = {g} must be finite and >= 0"
                    )
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "external", external)

    @property
    def n(self):
        return len(self.weights)

    @property
    def k(self):
        return len(self.beliefs[0])


@dataclass(frozen=True)
class RewardSchedule:
    """Mechanism parameters.

    ``a`` pays an expert (times her weight) for approving a winner that
    turns out good, ``a_prime`` for disapproving a winner that turns out
    bad, ``s`` is the penalty for approving a bad winner, and a wrong
    disapproval pays nothing.  ``T`` is the belief at which approving and
    disapproving carry equal expected reward, ``epsilon`` the equilibrium
    slack the schedule was derived for and ``delta`` the bound on
    weight-normalized external rewards relative to ``a``.

    Construction only checks the basic ranges; conformance with the
    threshold and inflection identities is reported separately by
    :func:`avgov.params.validate_schedule`, so that non-conforming schedules can
    be diagnosed rather than rejected outright.
    """

    a: float
    a_prime: float
    s: float
    T: float
    epsilon: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        for name in ("a", "a_prime", "s", "T", "epsilon", "delta"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ContractViolation(f"{name} = {value} must be finite")
            object.__setattr__(self, name, value)
        if not self.a > 0.0:
            raise ContractViolation(f"a = {self.a} must be > 0")
        if not self.a_prime >= 0.0:
            raise ContractViolation(f"a_prime = {self.a_prime} must be >= 0")
        if not self.s >= 0.0:
            raise ContractViolation(f"s = {self.s} must be >= 0")
        if not 0.0 < self.T < 1.0:
            raise ContractViolation(f"T = {self.T} must lie strictly inside (0, 1)")
        if not self.epsilon >= 0.0:
            raise ContractViolation(f"epsilon = {self.epsilon} must be >= 0")
        if not self.delta >= 0.0:
            raise ContractViolation(f"delta = {self.delta} must be >= 0")


def _bit_row(row, name, i):
    """Row i of the vote matrix ``name`` as a tuple of ints.  Each value is
    checked before it is converted, so 0.7 or NaN is refused, not truncated;
    values equal to 0 or 1 (bools, 1.0, numpy ints) pass."""
    row = tuple(row)
    for j, v in enumerate(row):
        if v not in (0, 1):
            raise ContractViolation(f"{name}[{i}][{j}] = {v} is not a bit")
    return tuple([int(v) for v in row])


@dataclass(frozen=True)
class VotingProfile:
    """An n-by-k binary vote matrix; ``votes[i][j]`` is expert i's vote on
    proposal j+1."""

    votes: tuple

    def __post_init__(self):
        votes = tuple(_bit_row(row, "votes", i) for i, row in enumerate(self.votes))
        if not votes or not votes[0]:
            raise ContractViolation("profile must be non-empty")
        width = len(votes[0])
        if any(len(row) != width for row in votes):
            raise ContractViolation("profile rows have unequal lengths")
        object.__setattr__(self, "votes", votes)

    @property
    def n(self):
        return len(self.votes)

    @property
    def k(self):
        return len(self.votes[0])

    def replace_row(self, expert, row):
        """Return a copy with expert's vote vector replaced."""
        expert = _integer(expert, "expert")
        if not 0 <= expert < self.n:
            raise ContractViolation(f"expert index {expert} out of range")
        new = list(self.votes)
        new[expert] = row
        return VotingProfile(tuple(new))

    def flip(self, expert, proposal_j):
        """Return a copy with a single coordinate flipped (1-based proposal)."""
        expert = _integer(expert, "expert")
        proposal_j = _integer(proposal_j, "proposal_j")
        if not 0 <= expert < self.n:
            raise ContractViolation(f"expert index {expert} out of range")
        if not 1 <= proposal_j <= self.k:
            raise ContractViolation(f"proposal index {proposal_j} out of range")
        row = list(self.votes[expert])
        row[proposal_j - 1] ^= 1
        return self.replace_row(expert, row)

    @staticmethod
    def zeros(n, k):
        n, k = _integer(n, "n"), _integer(k, "k")
        return VotingProfile(tuple((0,) * k for _ in range(n)))


@dataclass(frozen=True)
class Outcome:
    """Result of winner selection: the winning proposal (0 = dummy) and the
    per-proposal approving weight."""

    winner: int
    approval_mass: tuple


def _vote_vectors(k):
    """All 2^k vote vectors in ascending binary order, coordinate 1 the most
    significant bit: the order of utility tables and of deviation plans."""
    return tuple(itertools.product((0, 1), repeat=k))


def _check_vectors(k):
    """Refuse a search over 2^k vote vectors when k exceeds
    VECTOR_GUARD_BITS, before any vector is built."""
    if k > VECTOR_GUARD_BITS:
        raise GuardRefusal(
            f"{k} proposals give 2^{k} vote vectors per expert; searches over "
            f"them are capped at k = {VECTOR_GUARD_BITS}"
        )


def _ratio(x, y):
    """x / y, infinite when y <= 0."""
    return x / y if y > 0.0 else math.inf


def _check_dims(instance, profile):
    if profile.n != instance.n or profile.k != instance.k:
        raise ContractViolation(
            f"profile is {profile.n}x{profile.k}, instance is {instance.n}x{instance.k}"
        )


def _elect(weights, votes):
    """The winner and masses for weight and vote rows: the one mass sum and
    tie rule.  Each mass adds its proposal's approving weights from 0.0,
    left to right in expert order."""
    masses = []
    for column in zip(*votes):
        mass = 0.0
        for w, v in zip(weights, column):
            if v:
                mass += w
        masses.append(mass)
    best = max(masses)
    return (DUMMY if best <= 0.0 else masses.index(best) + 1), tuple(masses)


def _elect_arrays(masses, values, out):
    """``_elect``'s rule on arrays: ``masses[j - 1]`` holds proposal j's
    mass at each position, and ``out`` gets, at each position,
    ``values[j]`` of the first proposal j with the largest mass, or
    ``values[DUMMY]`` where no mass is positive.  A later proposal's value
    is copied where its mass strictly exceeds the running maximum."""
    best = masses[0]
    out[...] = values[1]
    for j in range(1, len(masses)):
        np.copyto(out, values[j + 1], where=masses[j] > best)
        best = np.maximum(best, masses[j])
    np.copyto(out, values[DUMMY], where=best <= 0.0)
    return out


def winner(instance: Instance, profile: VotingProfile) -> Outcome:
    """Select the proposal with the highest weighted approval.

    Ties are broken deterministically toward the smallest proposal index.
    Returns the dummy outcome 0 iff no proposal has positive approving
    weight.
    """
    _check_dims(instance, profile)
    return Outcome(*_elect(instance.weights, profile.votes))


def reward(vote_bit: int, quality_bit: int, schedule: RewardSchedule, weight: float) -> float:
    """Realized payout for one expert given her vote on the winner and the
    winner's revealed quality, scaled by her weight."""
    if vote_bit not in (0, 1) or quality_bit not in (0, 1):
        raise ContractViolation("vote_bit and quality_bit must be bits")
    if not weight >= 0.0:
        raise ContractViolation(f"weight = {weight} must be >= 0")
    return float(_reward(vote_bit, quality_bit, schedule, weight))


def _reward(vote, quality, schedule, weight):
    """``reward`` unchecked, elementwise on bits and weights that may be
    numpy arrays; they broadcast against each other."""
    base = np.where(vote == 1, np.where(quality == 1, schedule.a, -schedule.s),
                    np.where(quality == 0, schedule.a_prime, 0.0))
    return weight * base


def _expected_branches(p, schedule):
    """Weight-normalized expected reward of approving and of disapproving
    a winner believed good with probability p, unchecked; p may be a float
    or a numpy array."""
    return p * schedule.a - (1.0 - p) * schedule.s, (1.0 - p) * schedule.a_prime


def expected_reward(vote_bit: int, belief_p: float, schedule: RewardSchedule) -> float:
    """Weight-normalized expected mechanism reward for a vote on the
    winning proposal, from the voter's own perspective."""
    if vote_bit not in (0, 1):
        raise ContractViolation("vote_bit must be a bit")
    if not 0.0 <= belief_p <= 1.0:
        raise ContractViolation(f"belief_p = {belief_p} outside [0, 1]")
    approve, reject = _expected_branches(belief_p, schedule)
    return approve if vote_bit == 1 else reject


def _normalized_external(instance, expert_i, proposal_j):
    g = instance.external[expert_i][proposal_j - 1]
    if g == 0.0:
        return 0.0
    w = instance.weights[expert_i]
    if w <= 0.0:
        raise NormalizationError(
            f"expert {expert_i} has zero weight but external[{expert_i}]"
            f"[{proposal_j - 1}] = {g} > 0"
        )
    return g / w


def utility(instance: Instance, schedule: RewardSchedule, profile: VotingProfile,
            expert_i: int) -> float:
    """Expected utility of one expert under the profile, conditioned on her
    own beliefs.

    Uses the weight-normalized accounting: the weight multiplier is dropped
    from the mechanism reward and external rewards are divided by the
    expert's weight instead.  A dummy winner yields utility 0.
    """
    _check_dims(instance, profile)
    expert_i = _integer(expert_i, "expert_i")
    if not 0 <= expert_i < instance.n:
        raise ContractViolation(f"expert index {expert_i} out of range")
    return _utility(instance, schedule, profile.votes, expert_i)


def _utility(instance, schedule, votes, expert_i):
    """``utility`` on vote rows that already match the instance."""
    j = _elect(instance.weights, votes)[0]
    if j == DUMMY:
        return 0.0
    p = instance.beliefs[expert_i][j - 1]
    ghat = _normalized_external(instance, expert_i, j)
    approve, reject = _expected_branches(p, schedule)
    return p * ghat + (approve if votes[expert_i][j - 1] == 1 else reject)


def _honest_votes(beliefs, T):
    """Approve exactly the beliefs at or above T: vote rows for belief rows,
    or an int8 array of the same shape for a numpy array of beliefs."""
    if isinstance(beliefs, np.ndarray):
        return (beliefs >= T).astype(np.int8)
    return tuple(tuple(1 if p >= T else 0 for p in row) for row in beliefs)


def honest_profile(instance: Instance, T: float) -> VotingProfile:
    """The honest strategy profile: approve exactly the proposals whose
    belief is at or above the threshold."""
    if not 0.0 < T < 1.0:
        raise ContractViolation(f"T = {T} must lie strictly inside (0, 1)")
    return VotingProfile(_honest_votes(instance.beliefs, T))


def _honest_masses(instance, T):
    """Each proposal's mass under the honest profile: its estimated quality."""
    return _elect(instance.weights, _honest_votes(instance.beliefs, T))[1]


def qual(instance: Instance, T: float, proposal_j: int) -> float:
    """Estimated quality of a proposal: total weight of experts whose
    belief in it is at or above the threshold, its mass under the honest
    profile.  The dummy has quality 0.0."""
    proposal_j = _integer(proposal_j, "proposal_j")
    if proposal_j == DUMMY:
        return 0.0
    if not 1 <= proposal_j <= instance.k:
        raise ContractViolation(f"proposal index {proposal_j} out of range")
    return _honest_masses(instance, T)[proposal_j - 1]


def opt_quality(instance: Instance, T: float) -> tuple:
    """The proposal of maximal estimated quality and that quality: the
    honest profile's winner, or proposal 1 when nothing is approved."""
    j, masses = _elect(instance.weights, _honest_votes(instance.beliefs, T))
    j = max(j, 1)
    return j, masses[j - 1]


def reward_curve(schedule: RewardSchedule, sample_count: int) -> list:
    """Tabulate both expected-reward branches on an even belief grid.

    Returns ``sample_count`` rows ``(p, approve_value, reject_value)`` for
    p evenly spaced over [0, 1]; the two branches cross at p = T.  More
    than CURVE_GUARD_SAMPLES rows are refused before any is built.
    """
    sample_count = _integer(sample_count, "sample_count")
    if sample_count < 2:
        raise ContractViolation("sample_count must be at least 2")
    if sample_count > CURVE_GUARD_SAMPLES:
        raise GuardRefusal(f"sample_count = {sample_count} is capped at "
                           f"{CURVE_GUARD_SAMPLES}")
    rows = []
    for i in range(sample_count):
        p = i / (sample_count - 1)
        rows.append((p, *_expected_branches(p, schedule)))
    return rows
