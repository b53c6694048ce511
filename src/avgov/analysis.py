"""Equilibrium analysis for the approval-voting mechanism.

Best responses, semi-strategic admissibility, exact and multiplicative
approximate pure-Nash checks, exhaustive equilibrium enumeration with
price-of-anarchy/stability ratios, the constructive equilibrium for purely
strategic experts, best-response dynamics with cycle detection, and the
per-cell deviation-safety certificate.

Two independent routes compute equilibrium membership: the per-profile
check (:func:`is_approx_pne`, plain Python) and the chunked vectorized
enumerator (:func:`enumerate_equilibria`, numpy).  They are cross-checked
against each other by the test suite; keep them independent.

Semi-strategic semantics are coordinate-wise: an expert's reported vector
is admissible iff every coordinate on which it disagrees with her honest
vector would, when flipped alone to the honest value (winner recomputed),
strictly lower her utility.  A semi-strategic equilibrium is a profile with
no (1+eps)-improving unilateral deviation in which every expert is
admissible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TOL,
    Instance,
    RewardSchedule,
    VotingProfile,
    _expected_branches,
    _normalized_external,
    opt_quality,
    qual,
    utility,
    winner,
)
from .errors import ContractViolation, GuardRefusal

# Exhaustive enumeration is refused beyond this many profile bits.
ENUMERATION_GUARD_BITS = 24

MODES = ("strategic", "semi")


@dataclass(frozen=True)
class EquilibriumQuery:
    """What to enumerate: expert model and multiplicative slack.  The
    deviation space is always all 2^k vote vectors per expert."""

    mode: str = "semi"
    epsilon: float = 0.0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ContractViolation(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 0.0 <= self.epsilon < math.inf:
            raise ContractViolation(f"epsilon = {self.epsilon} must be finite and >= 0")


@dataclass(frozen=True)
class EquilibriumEntry:
    profile: VotingProfile
    winner: int
    winner_quality: float


@dataclass(frozen=True)
class EquilibriumReport:
    """All equilibria under a query plus the quality benchmark and ratios.

    ``poa``/``pos`` divide the optimal quality by the worst/best
    equilibrium winner quality; dummy or zero-quality winners make the
    ratio infinite, and both are None when no equilibrium exists.
    """

    equilibria: tuple
    opt: tuple
    poa: float | None
    pos: float | None
    query: EquilibriumQuery


@dataclass(frozen=True)
class MoveRecord:
    expert: int
    old_votes: tuple
    new_votes: tuple
    winner: int


@dataclass(frozen=True)
class DynamicsTrace:
    """Best-response path: per-move records plus how the walk ended
    (``fixed_point``, ``cycle`` with its length, or ``step_limit``)."""

    path: tuple
    terminal: str
    cycle_length: int | None = None


@dataclass(frozen=True)
class SafetyCertificate:
    """Per-(expert, proposal) safety flags from the deviation-safety
    threshold; ``eligible`` iff every below-threshold belief is safe."""

    safe: tuple
    eligible: bool


def _vote_vectors(k):
    return tuple(itertools.product((0, 1), repeat=k))


def _honest_row(instance, schedule, expert_i):
    return tuple(
        1 if p >= schedule.T else 0 for p in instance.beliefs[expert_i]
    )


def _admissible_row(instance, schedule, profile, expert_i):
    """Whether expert_i's current vector is semi-strategic-admissible:
    every dishonest coordinate strictly loses when flipped alone."""
    honest = _honest_row(instance, schedule, expert_i)
    row = profile.votes[expert_i]
    base = None
    for j in range(instance.k):
        if row[j] == honest[j]:
            continue
        if base is None:
            base = utility(instance, schedule, profile, expert_i)
        flipped = utility(instance, schedule, profile.flip(expert_i, j + 1), expert_i)
        if not flipped < base - TOL:
            return False
    return True


def is_admissible(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile) -> tuple:
    """Per-expert semi-strategic admissibility flags for a profile."""
    return tuple(
        _admissible_row(instance, schedule, profile, i) for i in range(instance.n)
    )


def best_response(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile, expert_i: int, mode: str) -> tuple:
    """The expert's optimal vote vectors against the rest of the profile.

    Searches all 2^k alternatives; vectors within tolerance of the maximum
    count as optimal.  In semi mode the result keeps only the
    semi-strategic-admissible maximizers (falling back to making
    loss-free dishonest coordinates honest if tolerance drift ever empties
    the filter).  Vectors are returned in ascending binary order with
    coordinate 1 as the most significant bit.
    """
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")
    values = {}
    for vec in _vote_vectors(instance.k):
        values[vec] = utility(instance, schedule, profile.replace_row(expert_i, vec),
                              expert_i)
    best = max(values.values())
    maximizers = [vec for vec, u in values.items() if u >= best - TOL]
    if mode == "strategic":
        return tuple(maximizers)
    admissible = [
        vec for vec in maximizers
        if _admissible_row(instance, schedule, profile.replace_row(expert_i, vec),
                           expert_i)
    ]
    if admissible:
        return tuple(admissible)
    # Tolerance pathology: repair each maximizer by flipping loss-free
    # dishonest coordinates toward honesty until none remain.
    honest = _honest_row(instance, schedule, expert_i)
    repaired = set()
    for vec in maximizers:
        current = vec
        changed = True
        while changed:
            changed = False
            base = values.get(current)
            if base is None:
                base = utility(instance, schedule,
                               profile.replace_row(expert_i, current), expert_i)
            for j in range(instance.k):
                if current[j] == honest[j]:
                    continue
                candidate = current[:j] + (honest[j],) + current[j + 1:]
                cand_u = utility(instance, schedule,
                                 profile.replace_row(expert_i, candidate), expert_i)
                if not cand_u < base - TOL:
                    current = candidate
                    changed = True
                    break
        repaired.add(current)
    return tuple(sorted(repaired))


def is_approx_pne(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile, query: EquilibriumQuery) -> bool:
    """Whether no expert has a unilateral deviation worth more than
    (1 + epsilon) times her current utility; in semi mode every expert
    must additionally be admissible."""
    factor = 1.0 + query.epsilon
    for i in range(instance.n):
        base = utility(instance, schedule, profile, i)
        for vec in _vote_vectors(instance.k):
            if vec == profile.votes[i]:
                continue
            dev = utility(instance, schedule, profile.replace_row(i, vec), i)
            if dev > factor * base + TOL:
                return False
        if query.mode == "semi" and not _admissible_row(instance, schedule, profile, i):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumeration (vectorized, chunked)
# ---------------------------------------------------------------------------

_CHUNK_BITS = 15


def _profile_bits(start, stop, n, k):
    """Decode profile indices into a (stop-start, n, k) bit array; bit
    (i*k + j) of the index is expert i's vote on proposal j+1."""
    idx = np.arange(start, stop, dtype=np.int64)
    shifts = np.arange(n * k, dtype=np.int64).reshape(n, k)
    return ((idx[:, None, None] >> shifts[None, :, :]) & 1).astype(np.float64)


def _winners(masses):
    """Vectorized winner selection: 0-based argmax with first-index ties,
    -1 where no proposal has positive mass."""
    js = np.argmax(masses, axis=1)
    dead = masses.max(axis=1) <= 0.0
    return np.where(dead, -1, js)


def _utilities_for(votes_on_winner, js, p_row, ghat_row, schedule):
    """Utility of one expert across many profiles given the 0-based winner
    per profile (-1 = dummy) and her vote on it."""
    pj = np.where(js >= 0, p_row[np.maximum(js, 0)], 0.0)
    gj = np.where(js >= 0, ghat_row[np.maximum(js, 0)], 0.0)
    yes, no = _expected_branches(pj, schedule)
    u = pj * gj + np.where(votes_on_winner == 1, yes, no)
    return np.where(js >= 0, u, 0.0)


def enumerate_equilibria(instance: Instance, schedule: RewardSchedule,
                         query: EquilibriumQuery) -> EquilibriumReport:
    """Brute-force every profile in {0,1}^(n*k) and keep the equilibria.

    Refuses instances with more than ENUMERATION_GUARD_BITS profile bits.
    Profiles are processed in ascending index order in fixed-size chunks;
    the result does not depend on the chunking.
    """
    n, k = instance.n, instance.k
    bits = n * k
    if bits > ENUMERATION_GUARD_BITS:
        raise GuardRefusal(
            f"profile space has {bits} bits; exhaustive enumeration is capped "
            f"at {ENUMERATION_GUARD_BITS}"
        )
    w = np.asarray(instance.weights)
    p = np.asarray(instance.beliefs)
    ghat = np.array([
        [_normalized_external(instance, i, j) for j in range(1, k + 1)]
        for i in range(n)
    ])
    honest = (p >= schedule.T).astype(np.float64)
    deviations = np.asarray(_vote_vectors(k), dtype=np.float64)
    factor = 1.0 + query.epsilon

    total = 1 << bits
    chunk = 1 << _CHUNK_BITS
    found = []
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        bmat = _profile_bits(start, stop, n, k)
        masses = np.einsum("cik,i->ck", bmat, w)
        js = _winners(masses)
        ok = np.ones(stop - start, dtype=bool)
        base_u = np.empty((stop - start, n))
        for i in range(n):
            vote = np.take_along_axis(
                bmat[:, i, :], np.maximum(js, 0)[:, None], axis=1
            )[:, 0]
            base_u[:, i] = _utilities_for(vote, js, p[i], ghat[i], schedule)
        for i in range(n):
            rest = masses - w[i] * bmat[:, i, :]
            for dev in deviations:
                same = np.all(bmat[:, i, :] == dev, axis=1)
                dev_m = rest + w[i] * dev
                djs = _winners(dev_m)
                dvote = np.where(djs >= 0, dev[np.maximum(djs, 0)], 0.0)
                dev_u = _utilities_for(dvote, djs, p[i], ghat[i], schedule)
                ok &= same | ~(dev_u > factor * base_u[:, i] + TOL)
            if not ok.any():
                break
        if query.mode == "semi" and ok.any():
            for i in range(n):
                for j in range(k):
                    dishonest = bmat[:, i, j] != honest[i, j]
                    if not dishonest.any():
                        continue
                    fm = masses.copy()
                    fm[:, j] += w[i] * (honest[i, j] - bmat[:, i, j])
                    fjs = _winners(fm)
                    fvote = np.take_along_axis(
                        bmat[:, i, :], np.maximum(fjs, 0)[:, None], axis=1
                    )[:, 0]
                    fvote = np.where(fjs == j, honest[i, j], fvote)
                    flip_u = _utilities_for(fvote, fjs, p[i], ghat[i], schedule)
                    ok &= ~dishonest | (flip_u < base_u[:, i] - TOL)
        for offset in np.nonzero(ok)[0]:
            idx = start + int(offset)
            votes = tuple(
                tuple((idx >> (i * k + j)) & 1 for j in range(k)) for i in range(n)
            )
            prof = VotingProfile(votes)
            out = winner(instance, prof)
            found.append(EquilibriumEntry(
                profile=prof,
                winner=out.winner,
                winner_quality=qual(instance, schedule.T, out.winner),
            ))

    opt = opt_quality(instance, schedule.T)
    poa = pos = None
    if found:
        qualities = [e.winner_quality for e in found]
        poa = opt[1] / min(qualities) if min(qualities) > 0.0 else math.inf
        pos = opt[1] / max(qualities) if max(qualities) > 0.0 else math.inf
    return EquilibriumReport(
        equilibria=tuple(found), opt=opt, poa=poa, pos=pos, query=query
    )


# ---------------------------------------------------------------------------
# Constructive equilibrium, dynamics, certificate
# ---------------------------------------------------------------------------


def _singleton_profile(n, k, expert_i, proposal_j):
    votes = [[0] * k for _ in range(n)]
    votes[expert_i][proposal_j - 1] = 1
    return VotingProfile(tuple(tuple(row) for row in votes))


def constructive_pne(instance: Instance, schedule: RewardSchedule) -> VotingProfile:
    """Build a pure Nash equilibrium for purely strategic experts.

    If no expert gets positive utility from any single-approval profile,
    everyone voting no is an equilibrium.  Otherwise the heaviest such
    expert approves her best proposal and everyone else votes no.
    """
    n, k = instance.n, instance.k
    best_for = {}
    for i in range(n):
        options = [
            (utility(instance, schedule, _singleton_profile(n, k, i, j), i), j)
            for j in range(1, k + 1)
        ]
        u, j = max(options, key=lambda t: (t[0], -t[1]))
        if u > TOL:
            best_for[i] = (u, j)
    if not best_for:
        return VotingProfile.zeros(n, k)
    i_star = max(best_for, key=lambda i: (instance.weights[i], -i))
    return _singleton_profile(n, k, i_star, best_for[i_star][1])


def _binary_value(vec):
    value = 0
    for v in vec:
        value = (value << 1) | v
    return value


def best_response_dynamics(instance: Instance, schedule: RewardSchedule,
                           start_profile: VotingProfile, mode: str,
                           max_steps: int) -> DynamicsTrace:
    """Iterate single-expert best responses from a starting profile.

    The mover is the lowest-index expert with a strictly improving move or,
    in semi mode, an inadmissible current vector; she switches to the
    lowest-binary-value optimum.  Terminates at a fixed point, on state
    recurrence (cycle, with its length), or at the step limit.
    """
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")
    if max_steps < 1:
        raise ContractViolation("max_steps must be >= 1")
    profile = start_profile
    seen = {profile.votes: 0}
    path = []
    for step in range(1, max_steps + 1):
        move = None
        for i in range(instance.n):
            current_u = utility(instance, schedule, profile, i)
            options = best_response(instance, schedule, profile, i, mode)
            best_u = utility(
                instance, schedule, profile.replace_row(i, options[0]), i
            )
            forced = mode == "semi" and not _admissible_row(
                instance, schedule, profile, i
            )
            if best_u > current_u + TOL or forced:
                target = min(options, key=_binary_value)
                if target != profile.votes[i]:
                    move = (i, target)
                    break
        if move is None:
            return DynamicsTrace(path=tuple(path), terminal="fixed_point")
        i, target = move
        old = profile.votes[i]
        profile = profile.replace_row(i, target)
        path.append(MoveRecord(
            expert=i, old_votes=old, new_votes=target,
            winner=winner(instance, profile).winner,
        ))
        if profile.votes in seen:
            return DynamicsTrace(
                path=tuple(path), terminal="cycle",
                cycle_length=step - seen[profile.votes],
            )
        seen[profile.votes] = step
    return DynamicsTrace(path=tuple(path), terminal="step_limit")


def safety_certificate(instance: Instance, schedule: RewardSchedule, *,
                         variant: str = "proof") -> SafetyCertificate:
    """Flag each (expert, proposal) cell as safe iff the belief lies below
    the deviation-safety threshold for that cell's normalized external
    reward.  The instance is eligible for the 2-approximation guarantee iff
    every below-threshold belief is safe."""
    from .params import deviation_safety_threshold

    safe = []
    eligible = True
    for i in range(instance.n):
        row = []
        for j in range(instance.k):
            ghat = _normalized_external(instance, i, j + 1)
            envelope = deviation_safety_threshold(schedule, ghat, variant=variant)
            p = instance.beliefs[i][j]
            cell_safe = p < envelope.effective_threshold
            row.append(cell_safe)
            if p < schedule.T and not cell_safe:
                eligible = False
        safe.append(tuple(row))
    return SafetyCertificate(safe=tuple(safe), eligible=eligible)
