"""Equilibrium analysis for the approval-voting mechanism.

Best responses, semi-strategic admissibility, exact and multiplicative
approximate pure-Nash checks, exhaustive equilibrium enumeration with
price-of-anarchy/stability ratios, the constructive equilibrium for purely
strategic experts, best-response dynamics with cycle detection, and the
per-cell deviation-safety certificate.

As in :mod:`avgov.core`, public functions check their arguments once and
everything below them runs core's kernels on plain vote rows.  Those that
list an expert's 2^k vote vectors refuse k above core.VECTOR_GUARD_BITS.

Two independent routes compute equilibrium membership: the per-profile
check (:func:`is_approx_pne`, plain Python) and the vectorized enumerator
(:func:`enumerate_equilibria`, numpy).  They are cross-checked against each
other by the test suite; keep them independent.

The enumerator keeps one bool per profile (2^(n*k) bytes) marking the
profiles still in the running, and makes one sweep per expert.  Expert i's
sweep lays the profile space out as rows: a row is one context of the other
experts' votes and its 2^k columns are her own vote vectors, so each of her
deviations and admissibility flips from a profile is another column of the
same row.  Every row is in the running at the first sweep, and expert 0's
vector is a profile's low k bits, so her sweep walks the rows in place, in
consecutive blocks, with masses read from prefix tables over the varying
context bits.  Each later sweep first marks the rows that still hold a
profile in the running, by OR-ing her 2^k column slices of the mark array
into one bool per row, then gathers only those rows, a chunk of the row
marks at a time, and checks them in blocks of fixed size; so the work
follows the survivors, and no index array spans the whole row space.  In a
block, each own vector's row of utilities is her utility table's entry at
each row's winner, written by :func:`avgov.core._elect_arrays`.  Masses
are summed in the order :func:`avgov.core.winner` sums them, so every
utility the enumerator compares equals :func:`avgov.core.utility` bit for
bit.

Semi-strategic semantics are coordinate-wise: an expert's reported vector
is admissible iff every coordinate on which it disagrees with her honest
vector would, when flipped alone to the honest value (winner recomputed),
strictly lower her utility.  Her semi best response is every admissible
vector within TOL of her best admissible utility; it is never empty, since
her honest vector is admissible.  A semi-strategic equilibrium is a profile
with no (1+eps)-improving unilateral deviation in which every expert is
admissible.  The per-profile route reads all of these from one table per
expert: her utility for each of her 2^k vectors against the rest of the
profile.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import params
from .core import (
    MODES,
    TOL,
    Instance,
    RewardSchedule,
    VotingProfile,
    _check_dims,
    _check_vectors,
    _elect,
    _elect_arrays,
    _expected_branches,
    _honest_masses,
    _honest_votes,
    _integer,
    _normalized_external,
    _real,
    _ratio,
    _utility,
    _vote_vectors,
    opt_quality,
    utility,  # unused here; bench/tracing.py wraps it and winner in this module
    winner,
)
from .errors import ContractViolation, GuardRefusal

# Exhaustive enumeration is refused beyond this many profile bits, and
# where (n+1)*k exceeds ENUMERATION_GUARD_LOOP_BITS: each sweep loops in
# Python over the 2^k own vectors of every block of
# max(1, 2^_BLOCK_BITS / 2^k) rows, some n * 2^((n+1)*k - _BLOCK_BITS)
# passes in all.
ENUMERATION_GUARD_BITS = 24
ENUMERATION_GUARD_LOOP_BITS = 32


def _check_mode(mode):
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}, got {mode!r}")


@dataclass(frozen=True)
class EquilibriumQuery:
    """What to enumerate: expert model and multiplicative slack.  The
    deviation space is always all 2^k vote vectors per expert."""

    mode: str = "semi"
    epsilon: float = 0.0

    def __post_init__(self):
        _check_mode(self.mode)
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon", 0))


@dataclass(frozen=True)
class EquilibriumEntry:
    """An equilibrium's vote rows, its winner and that winner's ``qual``."""

    votes: tuple
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
    threshold.  ``eligible`` iff every cell whose belief is below T is
    safe; cells at or above T are not checked, so it does not imply the
    2-approximation (see ``safety_certificate``)."""

    safe: tuple
    eligible: bool


def _responses(instance, schedule, votes, expert_i):
    """Expert i's utility table: ``core.utility`` of the vote rows with her
    row replaced by each of her 2^k vote vectors, keyed in ascending
    binary order with coordinate 1 as the most significant bit."""
    head, tail = votes[:expert_i], votes[expert_i + 1:]
    return {
        vec: _utility(instance, schedule, head + (vec,) + tail, expert_i)
        for vec in _vote_vectors(instance.k)
    }


def _admissible(values, vec, honest):
    """Whether vote vector vec is semi-strategic-admissible under the
    expert's utility table: every dishonest coordinate strictly loses when
    flipped alone."""
    base = values[vec]
    return all(
        values[vec[:j] + (h,) + vec[j + 1:]] < base - TOL
        for j, h in enumerate(honest) if vec[j] != h
    )


def _optima(values, honest, mode):
    """The vectors within TOL of the best value in the utility table; in
    semi mode only admissible vectors compete.  Never empty: the honest
    vector has no dishonest coordinate, so it is always admissible."""
    candidates = list(values)
    if mode == "semi":
        candidates = [vec for vec in candidates if _admissible(values, vec, honest)]
    top = max(values[vec] for vec in candidates)
    return tuple(vec for vec in candidates if values[vec] >= top - TOL)


def is_admissible(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile) -> tuple:
    """Per-expert semi-strategic admissibility flags for a profile."""
    _check_dims(instance, profile)
    _check_vectors(instance.k)
    votes = profile.votes
    honest = _honest_votes(instance.beliefs, schedule.T)
    return tuple(
        _admissible(_responses(instance, schedule, votes, i), votes[i], honest[i])
        for i in range(instance.n)
    )


def best_response(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile, expert_i: int, mode: str) -> tuple:
    """The expert's optimal vote vectors against the rest of the profile.

    Searches all 2^k alternatives.  In strategic mode the result is every
    vector within tolerance of the maximum utility; in semi mode it is
    every admissible vector within tolerance of the best admissible
    utility, which always includes at least one vector.  Vectors are
    returned in ascending binary order with coordinate 1 as the most
    significant bit.
    """
    _check_mode(mode)
    expert_i = _integer(expert_i, "expert_i", 0, instance.n - 1)
    _check_dims(instance, profile)
    _check_vectors(instance.k)
    values = _responses(instance, schedule, profile.votes, expert_i)
    return _optima(values, _honest_votes(instance.beliefs, schedule.T)[expert_i], mode)


def is_approx_pne(instance: Instance, schedule: RewardSchedule,
                  profile: VotingProfile, query: EquilibriumQuery) -> bool:
    """Whether no expert has a unilateral deviation worth more than
    (1 + epsilon) times her current utility; in semi mode every expert
    must additionally be admissible."""
    _check_dims(instance, profile)
    _check_vectors(instance.k)
    factor = 1.0 + query.epsilon
    honest = _honest_votes(instance.beliefs, schedule.T)
    for i in range(instance.n):
        values = _responses(instance, schedule, profile.votes, i)
        current = profile.votes[i]
        bound = factor * values[current] + TOL
        if any(u > bound for vec, u in values.items() if vec != current):
            return False
        if query.mode == "semi" and not _admissible(values, current, honest[i]):
            return False
    return True


# ---------------------------------------------------------------------------
# Exhaustive enumeration (vectorized, one row sweep per expert)
# ---------------------------------------------------------------------------

# Each row block covers about 2^_BLOCK_BITS profiles (at least one row).
_BLOCK_BITS = 15


def _block_utilities(low, high, table):
    """An expert's utilities on a block of rows, as a (2^k, rows) array: row
    d holds ``table[d]`` at each row's winner (core._elect_arrays), bit j of
    d picking proposal j+1's mass from ``high[j]`` or ``low[j]``."""
    k, size = low.shape
    u = np.empty((1 << k, size))
    for d in range(1 << k):
        masses = [high[j] if d >> j & 1 else low[j] for j in range(k)]
        _elect_arrays(masses, table[d], u[d])
    return u


def _utilities_for(p_row, ghat_row, schedule):
    """One expert's utility by (her vote vector d, winner index + 1), with
    her vote on proposal j+1 at bit j of d.  Column 0 is the dummy, worth
    0; every entry is the value core.utility computes."""
    k = len(p_row)
    own = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    approve, reject = _expected_branches(p_row, schedule)
    table = np.zeros((1 << k, k + 1))
    table[:, 1:] = p_row * ghat_row + np.where(own == 1, approve, reject)
    return table


def _row_masses(i, ctx, w, k):
    """Each row's masses for expert i's sweep, as (k, rows) arrays: without
    her weight (low) and with it (high).  ``ctx`` holds each row's context:
    the other experts' votes, with expert e's vote on proposal j+1 at bit
    e'*k + j, where e' skips expert i."""
    n = len(w)
    others = (ctx >> np.arange((n - 1) * k)[:, None]) & 1
    others = others.reshape(n - 1, k, len(ctx))
    # Masses add the experts in index order, as core.winner does; expert
    # i's vote on proposal j only chooses between two running sums.
    low = np.zeros((k, len(ctx)))
    for e in range(i):
        low += w[e] * others[e]
    high = low + w[i]
    for e in range(i + 1, n):
        low += w[e] * others[e - 1]
        high += w[e] * others[e - 1]
    return low, high


def _first_blocks(w, k):
    """Expert 0's sweep in blocks of 2^B consecutive rows, with B =
    clip(_BLOCK_BITS - k, 0, (n-1)*k).  Yields each block's first row and
    its low and high masses, as ``_row_masses`` gives them for expert 0.

    Within a block the low B context bits vary and the rest are fixed.  So
    the masses start from two tables over the low B bits, built once by
    doubling over those bits in order, and the block's fixed approvers are
    added after them, also in bit order.  Bit b is expert b//k + 1's vote
    on proposal b%k + 1, so each mass adds exactly its approving weights,
    left to right in expert order from 0.0 (low) or w_0 (high), as
    core.winner does.
    """
    bits = (len(w) - 1) * k
    size = min(max(_BLOCK_BITS - k, 0), bits)
    tables = np.empty((2, k, 1))
    tables[0], tables[1] = 0.0, w[0]
    for b in range(size):
        tables = np.concatenate((tables, tables), axis=2)
        tables[:, b % k, 1 << b:] += w[b // k + 1]
    for start in range(0, 1 << bits, 1 << size):
        masses = tables.copy()
        for b in range(size, bits):
            if start >> b & 1:
                masses[:, b % k] += w[b // k + 1]
        yield start, masses[0], masses[1]


def _row_checks(low, high, table, honest_row, factor, semi):
    """An expert's checks on a block of rows, from their low and high
    masses.  Returns one bool per (own vector d, row): True where she has
    no (1+eps)-improving deviation and, in semi mode, is admissible.
    ``honest_row`` is her 0/1 honest vote; her own vector d has her vote on
    proposal j+1 at bit j.
    """
    u = _block_utilities(low, high, table)
    # The best deviation from d is the row's best value over the other
    # vectors: the row maximum, or the runner-up where d holds it.
    best = u[0].copy()
    runner_up, pair_min = np.full_like(best, -np.inf), np.empty_like(best)
    for d in range(1, len(u)):
        np.minimum(best, u[d], out=pair_min)
        np.maximum(runner_up, pair_min, out=runner_up)
        np.maximum(best, u[d], out=best)
    ok = ~(np.where(u == best, runner_up, best) > factor * u + TOL)
    if semi:
        # Flipping coordinate j of her vector is vector d ^ (1 << j).  Axis 1
        # of the (.., 2, 2^j, rows) views is bit j, and only the half of her
        # vectors that differ from her honest vote on j is checked.
        lower = u - TOL
        for j, h in enumerate(honest_row.tolist()):
            cut = (-1, 2, 1 << j, best.size)
            ok.reshape(cut)[:, 1 - h] &= u.reshape(cut)[:, h] < lower.reshape(cut)[:, 1 - h]
    return ok


def _live_rows(live, block):
    """The indices of ``live``'s True entries in ascending order, in blocks
    of ``block`` (the last may be shorter).  The mask is read 2^_BLOCK_BITS
    entries at a time, so no index array spans all of it."""
    chunk = 1 << _BLOCK_BITS
    rest = np.empty(0, dtype=np.int64)
    for start in range(0, len(live), chunk):
        rows = np.concatenate((rest, np.flatnonzero(live[start:start + chunk]) + start))
        cut = len(rows) if start + chunk >= len(live) else len(rows) - len(rows) % block
        for first in range(0, cut, block):
            yield rows[first:first + block]
        rest = rows[cut:]


def enumerate_equilibria(instance: Instance, schedule: RewardSchedule,
                         query: EquilibriumQuery) -> EquilibriumReport:
    """Brute-force every profile in {0,1}^(n*k) and keep the equilibria,
    listed in ascending profile index; bit (i*k + j) of the index is
    expert i's vote on proposal j+1.

    Refuses instances with more than ENUMERATION_GUARD_BITS profile bits
    or with (n+1)*k above ENUMERATION_GUARD_LOOP_BITS.
    Makes one sweep per expert over the rows still in the running, in
    blocks, as the module docstring describes; the result does not depend
    on the block size.
    """
    n, k = instance.n, instance.k
    bits = n * k
    if bits > ENUMERATION_GUARD_BITS:
        raise GuardRefusal(
            f"profile space has {bits} bits; exhaustive enumeration is capped "
            f"at {ENUMERATION_GUARD_BITS}"
        )
    if bits + k > ENUMERATION_GUARD_LOOP_BITS:
        raise GuardRefusal(
            f"(n+1)*k = {bits + k} at n = {n}, k = {k}; exhaustive enumeration "
            f"is capped at {ENUMERATION_GUARD_LOOP_BITS}"
        )
    w = np.asarray(instance.weights)
    p = np.asarray(instance.beliefs)
    ghat = np.array([
        [_normalized_external(instance, i, j) for j in range(1, k + 1)]
        for i in range(n)
    ])
    honest = _honest_votes(p, schedule.T)
    factor = 1.0 + query.epsilon
    semi = query.mode == "semi"

    ok = np.ones(1 << bits, dtype=bool)
    n_rows = 1 << (bits - k)
    block = max(1, (1 << _BLOCK_BITS) >> k)
    cols = np.arange(1 << k, dtype=np.int64)
    live = np.empty(n_rows, dtype=bool)
    for i in range(n):
        checks = (_utilities_for(p[i], ghat[i], schedule), honest[i], factor, semi)
        if i == 0:
            # Expert 0's vector is a profile's low k bits: row ctx of this
            # view is context ctx, and its columns are her vectors.
            rows = ok.reshape(-1, 1 << k)
            for start, low, high in _first_blocks(w, k):
                view = rows[start:start + low.shape[1]].T
                view &= _row_checks(low, high, *checks)
            continue
        below = (1 << (i * k)) - 1
        # Viewed as (hi, her vector, lo), ok holds each row's columns on
        # axis 1, and the rows come out in context order hi * 2^(i*k) + lo.
        # A row is live while one of its columns is in the running.  OR-ing
        # the 2^k column slices in place beats a reduction over axis 1.
        view = ok.reshape(-1, 1 << k, 1 << (i * k))
        marks = live.reshape(-1, 1 << (i * k))
        np.copyto(marks, view[:, 0])
        for d in range(1, 1 << k):
            np.logical_or(marks, view[:, d], out=marks)
        for ctx in _live_rows(live, block):
            # A profile's index is its row's context with i's k bits
            # inserted at bit i*k.
            base = (ctx & below) | ((ctx >> (i * k)) << ((i + 1) * k))
            idx = (cols << (i * k))[:, None] | base
            ok[idx] &= _row_checks(*_row_masses(i, ctx, w, k), *checks)

    found_bits = (np.flatnonzero(ok)[:, None] >> np.arange(bits)) & 1
    quality = (0.0,) + _honest_masses(instance, schedule.T)
    found = []
    for rows in found_bits.reshape(-1, n, k).tolist():
        votes = tuple(map(tuple, rows))
        j = _elect(instance.weights, votes)[0]
        found.append(EquilibriumEntry(votes, j, quality[j]))

    opt = opt_quality(instance, schedule.T)
    poa = pos = None
    if found:
        qualities = [e.winner_quality for e in found]
        poa, pos = _ratio(opt[1], min(qualities)), _ratio(opt[1], max(qualities))
    return EquilibriumReport(
        equilibria=tuple(found), opt=opt, poa=poa, pos=pos, query=query
    )


# ---------------------------------------------------------------------------
# Constructive equilibrium, dynamics, certificate
# ---------------------------------------------------------------------------


def constructive_pne(instance: Instance, schedule: RewardSchedule) -> VotingProfile:
    """Build a pure Nash equilibrium for purely strategic experts.

    If no expert gets positive utility from any single-approval profile,
    everyone voting no is an equilibrium.  Otherwise the heaviest such
    expert approves her best proposal and everyone else votes no.
    """
    n, k = instance.n, instance.k
    zeros = ((0,) * k,) * n

    def alone(i, j):  # the rows where only expert i approves, and only proposal j
        return zeros[:i] + ((0,) * (j - 1) + (1,) + (0,) * (k - j),) + zeros[i + 1:]

    best_for = {}
    for i in range(n):
        options = [(_utility(instance, schedule, alone(i, j), i), j) for j in range(1, k + 1)]
        u, j = max(options, key=lambda t: (t[0], -t[1]))
        if u > TOL:
            best_for[i] = (u, j)
    if not best_for:
        return VotingProfile(zeros)
    i_star = max(best_for, key=lambda i: (instance.weights[i], -i))
    return VotingProfile(alone(i_star, best_for[i_star][1]))


def best_response_dynamics(instance: Instance, schedule: RewardSchedule,
                           start_profile: VotingProfile, mode: str,
                           max_steps: int) -> DynamicsTrace:
    """Iterate single-expert best responses from a starting profile.

    The mover is the lowest-index expert with a strictly improving move or,
    in semi mode, an inadmissible current vector; she switches to the
    lowest-binary-value optimum.  Terminates at a fixed point, on state
    recurrence (cycle, with its length), or at the step limit.
    """
    _check_mode(mode)
    max_steps = _integer(max_steps, "max_steps", 1)
    _check_dims(instance, start_profile)
    _check_vectors(instance.k)
    honest = _honest_votes(instance.beliefs, schedule.T)
    votes = start_profile.votes
    seen = {votes: 0}
    path = []
    for step in range(1, max_steps + 1):
        move = None
        for i in range(instance.n):
            values = _responses(instance, schedule, votes, i)
            current = votes[i]
            target = _optima(values, honest[i], mode)[0]
            forced = mode == "semi" and not _admissible(values, current, honest[i])
            if (values[target] > values[current] + TOL or forced) and target != current:
                move = (i, target)
                break
        if move is None:
            return DynamicsTrace(path=tuple(path), terminal="fixed_point")
        i, target = move
        old = votes[i]
        votes = votes[:i] + (target,) + votes[i + 1:]
        path.append(MoveRecord(
            expert=i, old_votes=old, new_votes=target,
            winner=_elect(instance.weights, votes)[0],
        ))
        if votes in seen:
            return DynamicsTrace(
                path=tuple(path), terminal="cycle",
                cycle_length=step - seen[votes],
            )
        seen[votes] = step
    return DynamicsTrace(path=tuple(path), terminal="step_limit")


def safety_certificate(instance: Instance, schedule: RewardSchedule) -> SafetyCertificate:
    """Flag each (expert, proposal) cell as safe iff the belief lies below
    the deviation-safety threshold for that cell's normalized external
    reward.  The instance is eligible iff every cell whose belief is below
    T, one the expert honestly disapproves, is safe.

    Eligibility checks only those cells and is not the 2-approximation
    guarantee: an expert whose belief is at or above T may admissibly
    withhold an approval, and ``tests/test_analysis.py::
    test_anarchy_bound_fails_for_marginally_attached_pivotal_expert`` pins
    an eligible instance with a semi-strategic equilibrium whose ratio to
    the optimum exceeds 2."""
    honest = _honest_votes(instance.beliefs, schedule.T)
    safe = []
    eligible = True
    for i in range(instance.n):
        row = []
        for j in range(instance.k):
            ghat = _normalized_external(instance, i, j + 1)
            envelope = params.deviation_safety_threshold(schedule, ghat)
            cell_safe = instance.beliefs[i][j] < envelope.effective_threshold
            row.append(cell_safe)
            if not honest[i][j] and not cell_safe:
                eligible = False
        safe.append(tuple(row))
    return SafetyCertificate(safe=tuple(safe), eligible=eligible)
