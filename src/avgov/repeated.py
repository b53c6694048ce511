"""The repeated update-selection game with delayed reputation weights.

Each round draws a fresh batch of proposals, experts vote (honestly, or
with one designated deviator following a per-round plan), the winner is
implemented and only its quality revealed, rewards are paid in proportion
to current weights, and weights move toward each expert's empirical
correct-prediction rate under a multiplicative step cap.

Round draws do not depend on play, so everything the rest of a run depends
on after round t is one game state: the weight vector, the correct counts
and the number of revealed rounds.  A run draws every round and builds
every vote at once as arrays.  The arrays it plays on and computes are the
ones ``RepeatedTrace`` holds, made read-only.  A round's transition has
two homes that agree bit for bit.  ``_step`` works on one state's plain
rows: the winner (``core._elect``), the correct counts, one list of
target rates and one row-wise capped step (``_delayed_update``).
``_step_rows`` applies the same rules to arrays of states, one row per
state, with the winners from ``core._elect_arrays``.  ``_play`` steps a run
in chunks of rounds: it guesses every round's entering state from the
state entering the chunk, steps all the guesses at once with
``_step_rows``, and commits the rounds up to the first guess that the
exact step contradicts, so each round's winner and weights are
bit-identical to a replay of ``_step``.  The payouts are computed as
arrays afterwards in ``_payouts``, and the discounted totals as array
columns in ``discounted_total``.  The single-deviator search
(``deviation_gap``) builds no trace: it plays every round, honest play's
included, through ``_expand``, which steps with the same ``_step`` and
pays each child state as floats through ``_subjective``, the arithmetic
``_payouts`` applies to arrays.  It walks states forward instead of
replaying every plan: plan prefixes that reach the same state share their
future, so each state keeps one prefix, the one with the largest total,
and each kept entry links to its parent instead of copying its prefix.  The
entries it expands over all rounds are capped by STATE_GUARD.  It also
drops every prefix that cannot beat honest play: a weight never exceeds 1
and grows by at most (1+zeta) per round, which bounds what any suffix can
add.

A run's state is sequential, but it is checked, not computed, in order:
once the weights track the rates, a chunk's guessed states are exact and
a whole chunk costs a few array operations.  Independent runs (different
seeds or deviation plans) are pure functions of their arguments and can
execute concurrently.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    DUMMY,
    Instance,  # unused here; bench/tracing.py wraps it and winner in this module
    RewardSchedule,
    _bit_row,
    _check_vectors,
    _elect,
    _elect_arrays,
    _expected_branches,
    _honest_votes,
    _integer,
    _ratio,
    _real,
    _reals,
    _reward,
    _vote_vectors,
    winner,
)
from .errors import ContractViolation, GuardRefusal
from .params import max_discount

INITIAL_WEIGHT = 0.5

# The deviation search is refused as soon as it would expand more than this
# many kept entries over all rounds; each costs up to 2^k plays and children.
STATE_GUARD = 1 << 16

# ``run`` is refused when its draw array, horizon * (k + n*k) doubles, is
# larger than this.  A CLI run with --out peaks at up to about 82 bytes of
# RSS per draw (n = k = 1; about 46 at n = 5, k = 3), so near 400 MB at
# most: 390 MB at n = k = 1 and 2.5 million rounds, measured on a 2-core
# x86 host with Python 3.11 and numpy 2.4.
RUN_GUARD_DRAWS = 5_000_000

# ``run`` commits rounds in guessed-then-checked chunks of up to _CHUNK.
# Below 1024 rounds a guessed (1 + zeta)^s * w, with zeta < 1 and w <= 1,
# stays finite.
_CHUNK = 512


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
        expertise = _reals(self.expertise, map("expertise[{}]".format, itertools.count()),
                           0, 1)
        if not expertise:
            raise ContractViolation("need at least one expert")
        object.__setattr__(self, "expertise", expertise)
        object.__setattr__(self, "good_prior", _real(self.good_prior, "good_prior", 0, 1))
        object.__setattr__(self, "proposals_per_round",
                           _integer(self.proposals_per_round, "proposals_per_round", 1))
        object.__setattr__(self, "zeta", _real(self.zeta, "zeta", 0, 1, "()"))
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma", 0, 1, "[)"))
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))

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
        object.__setattr__(self, "expert", _integer(self.expert, "expert"))
        object.__setattr__(
            self, "plan", tuple(_bit_row(row, "plan", t) for t, row in enumerate(self.plan))
        )


@dataclass(frozen=True)
class RepeatedTrace:
    """Per-round record of a run plus cumulative discounted totals.

    The per-round fields are the run's own arrays, read-only, for H rounds,
    n experts and k proposals: ``votes`` (H, n, k) int8, ``votes[t, i]``
    expert i's vote row in round t; ``winners`` (H,) int64, 0 for the
    dummy; ``revealed`` (H,) int64, the winner's quality bit or -1 on dummy
    rounds; ``realized`` and ``subjective`` (H, n) float64; ``weights``
    (H + 1, n) float64, row t entering round t.  ``==`` on two traces
    raises: compare the arrays with ``np.array_equal``.  Correctness
    counters only advance on rounds with a revealed winner.
    """

    votes: np.ndarray
    winners: np.ndarray
    revealed: np.ndarray
    realized: np.ndarray
    subjective: np.ndarray
    weights: np.ndarray
    discounted_realized: tuple
    discounted_subjective: tuple
    correct: tuple
    revealed_rounds: int
    gamma_warning: bool


def correct_fraction(correct_count: int, revealed_rounds: int) -> float:
    """Empirical correct-prediction rate; defaults to the initial weight
    1/2 while nothing has been revealed yet."""
    correct_count = _integer(correct_count, "correct_count")
    revealed_rounds = _integer(revealed_rounds, "revealed_rounds")
    if revealed_rounds < 0 or not 0 <= correct_count <= revealed_rounds:
        raise ContractViolation(
            f"need 0 <= correct ({correct_count}) <= revealed ({revealed_rounds})"
        )
    return _correct_fractions((correct_count,), revealed_rounds)[0]


def _correct_fractions(correct, revealed_rounds):
    """``correct_fraction`` unchecked, for a row of correct counts."""
    if not revealed_rounds:
        return [INITIAL_WEIGHT] * len(correct)
    return [c / revealed_rounds for c in correct]


def delayed_update(w: float, omega: float, zeta: float) -> float:
    """Move a weight toward the target rate, capped at a (1 +/- zeta)
    multiplicative step per round.  A weight of 0, which a run reaches by
    underflow, stays 0."""
    return _delayed_update((_real(w, "w", 0),), (_real(omega, "omega", 0, 1),),
                           _real(zeta, "zeta", 0, 1, "()"))[0]


def _delayed_update(weights, rates, zeta):
    """``delayed_update`` unchecked, for a row of weights and their target
    rates; returns the row of stepped weights.  A weight w at or below its
    rate becomes min(rate, (1 + zeta) * w), one above it
    max(rate, (1 - zeta) * w).  A weight of 0, which (1 - zeta) * w reaches
    by underflow toward a rate of 0 once zeta >= 1/2, stays 0."""
    up, down = 1.0 + zeta, 1.0 - zeta
    # min and max written as conditionals, which keep the rate on a tie as
    # they do, to save two calls per weight and round.
    return tuple([
        (x if (x := up * w) < omega else omega) if w <= omega
        else (x if (x := down * w) > omega else omega)
        for w, omega in zip(weights, rates)
    ])


def sample_round(world: WorldConfig, rng: np.random.Generator) -> tuple:
    """Draw one round: true qualities, per-expert degenerate belief signals
    and (all-zero) external rewards.

    Each proposal is good with probability ``good_prior``; expert i's
    signal about each proposal independently equals the truth with
    probability ``expertise[i]`` and is inverted otherwise.
    """
    n, k = world.n, world.proposals_per_round
    qualities, beliefs = _draw(world, rng.random((1, k + n * k)))
    return (tuple(qualities[0].tolist()), tuple(map(tuple, beliefs[0].tolist())),
            tuple((0.0,) * k for _ in range(n)))


def discounted_total(values, gamma: float):
    """Sum of per-round values with value at round t scaled by gamma^t: a
    float for a sequence of values, a tuple of floats for an (m, n) array,
    one total per column.

    Each total is bit-identical to the loop ``total += factor * v;
    factor *= gamma`` from total 0.0 and factor 1.0.  The factors come from
    ``_discount_factors`` and the sum from ``np.add.accumulate`` over a
    leading 0.0; both are sequential, left to right, unlike ``np.sum``
    (pairwise) or ``sum`` (compensated from Python 3.12).  The leading 0.0
    turns a first term of -0.0 into 0.0, as the loop does.
    """
    values = np.asarray(values, dtype=float)
    factors = _discount_factors(len(values), _real(gamma, "gamma", 0, 1, "[)"))
    terms = factors.reshape((-1,) + (1,) * (values.ndim - 1)) * values
    totals = np.add.accumulate(
        np.concatenate((np.zeros((1,) + values.shape[1:]), terms)))[-1]
    return tuple(totals.tolist()) if values.ndim > 1 else float(totals)


def _discount_factors(m, gamma):
    """gamma^t for t < m as an array: 1.0, then one multiplication by gamma
    per round, in ``np.multiply.accumulate``'s sequential order."""
    factors = np.full(m, gamma)
    factors[:1] = 1.0
    return np.multiply.accumulate(factors)


def _draw(world, u):
    """Threshold an (m, k + n*k) array of uniforms into m rounds' (m, k)
    quality bits and (m, n, k) beliefs.

    Row t's first k entries decide the qualities and the rest, read as an
    (n, k) block, decide whether each expert's signal keeps or inverts the
    truth; this is the sampling rule ``sample_round`` documents.  External
    rewards are 0 in every round.
    """
    n, k = world.n, world.proposals_per_round
    good = u[:, :k] < world.good_prior
    hit = u[:, k:].reshape(-1, n, k) < np.array(world.expertise)[:, None]
    beliefs = np.where(hit, good[:, None, :], ~good[:, None, :]).astype(float)
    return good.astype(int), beliefs


def _presample(world):
    """All rounds' qualities and beliefs from one ``rng.random((H, k + n*k))``
    call.

    The generator yields the same doubles whether they are asked for one
    round at a time or all at once, so the draws equal ``horizon``
    successive ``sample_round`` calls on a generator seeded alike.
    """
    n, k = world.n, world.proposals_per_round
    u = np.random.default_rng(world.seed).random((world.horizon, k + n * k))
    return _draw(world, u)


def _step(zeta, state, votes, qualities):
    """One round's transition on checked rows: the winner, then the correct
    counts against its revealed quality, then every weight's capped step.
    Returns the winner and the state entering the next round."""
    weights, correct, revealed_rounds = state
    js = _elect(weights, votes)[0]
    if js != DUMMY:
        q = qualities[js - 1]
        correct = tuple([c + (row[js - 1] == q) for c, row in zip(correct, votes)])
        revealed_rounds += 1
    weights = _delayed_update(weights, _correct_fractions(correct, revealed_rounds), zeta)
    return js, (weights, correct, revealed_rounds)


def _payouts(schedule, winners, weights, votes, beliefs, qualities):
    """Realized and subjective payouts of m rounds as (m, n) arrays, from
    the winners (m,), the weights entering each round (m, n), the votes and
    beliefs (m, n, k) and the qualities (m, k).  Dummy rounds pay 0.0.

    Every draw's external rewards are 0.  The subjective payout keeps its
    external term p * 0.0, which turns a zero weight's -0.0 into 0.0.
    """
    won = (winners != DUMMY)[:, None]
    vote, p = _on_winners(winners, votes), _on_winners(winners, beliefs)
    q = _on_winners(winners, qualities)[:, None]
    approve, reject = _expected_branches(p, schedule)
    realized = _reward(vote, q, schedule, weights)
    subjective = _subjective(weights, np.where(vote == 1, approve, reject), p)
    return np.where(won, realized, 0.0), np.where(won, subjective, 0.0)


def _subjective(weight, branch, p):
    """A voter's subjective payout on a revealed round, from the voter's
    weight, the weight-1 branch of ``_expected_branches`` for the vote cast
    and the belief p in the winner; floats or numpy arrays alike.  The
    external reward is 0, but its term p * 0.0 stays: it turns a zero
    weight's -0.0 into 0.0."""
    return weight * branch + p * 0.0


def _round_cap(schedule):
    """The most one round pays an expert of weight 1 without external
    rewards: p*a - (1-p)*s <= a for an approval, (1-p)*a' <= a' otherwise."""
    return max(schedule.a, schedule.a_prime)


def _initial_state(n):
    return (INITIAL_WEIGHT,) * n, (0,) * n, 0


def _elect_rows(weights, votes):
    """``_elect``'s winners for m rows: weights (m, n), or one (n,) row for
    every round, and votes (m, n, k).  Each mass is summed expert by expert
    from 0.0, as ``_elect`` sums it; a weight is never negative, so w * 0
    adds +0.0, which leaves the non-negative sum unchanged.  The winners
    are core._elect_arrays' on these masses."""
    weights = np.broadcast_to(weights, votes.shape[:2])
    masses = np.zeros((len(votes), votes.shape[2]))
    for i in range(votes.shape[1]):
        masses += weights[:, i, None] * votes[:, i]
    return _elect_arrays(masses.T, np.arange(votes.shape[2] + 1),
                         np.empty(len(votes), dtype=np.int64))


def _on_winners(winners, array):
    """Each round's entries on its winner: an (m, n, k) array gives (m, n)
    and an (m, k) array (m,), read from proposal 1 on dummy rounds."""
    col = np.maximum(winners - 1, 0).reshape((-1,) + (1,) * (array.ndim - 1))
    return np.take_along_axis(array, col, axis=-1)[..., 0]


def _hits(winners, votes, qualities):
    """(m, n) bools: whether each vote on the round's winner matches its
    revealed quality; all False on dummy rounds."""
    hits = _on_winners(winners, votes) == _on_winners(winners, qualities)[:, None]
    return hits & (winners != DUMMY)[:, None]


def _rates(correct, revealed):
    """``_correct_fractions`` for (m, n) correct counts and (m,) revealed
    rounds: c / r, an exact int-to-float division as in Python, or the
    initial weight while nothing is revealed."""
    return np.where(revealed[:, None] > 0, correct / np.maximum(revealed, 1)[:, None],
                    INITIAL_WEIGHT)


def _step_rows(zeta, weights, correct, revealed, votes, qualities):
    """``_step`` for m independent rows of states: weights (m, n), correct
    counts (m, n) and revealed rounds (m,), each row with its round's votes
    (m, n, k) and qualities (m, k).  Returns the winners (m,) and the three
    arrays of the states entering the next round, bit for bit ``_step``'s.
    ``_delayed_update``'s conditionals are minimum and maximum over the same
    products, which agree with them on a tie: no weight or rate is -0.0."""
    winners = _elect_rows(weights, votes)
    correct = correct + _hits(winners, votes, qualities)
    revealed = revealed + (winners != DUMMY)
    rates = _rates(correct, revealed)
    weights = np.where(weights <= rates, np.minimum((1.0 + zeta) * weights, rates),
                       np.maximum((1.0 - zeta) * weights, rates))
    return winners, weights, correct, revealed


def _play(zeta, votes, qualities):
    """Every round's winner (H,) and the weights entering each round
    (H + 1, n), with the final correct counts and revealed rounds, from the
    initial state; bit for bit a replay of ``_step`` round by round.

    Rounds are committed in chunks of up to _CHUNK, each guessed and then
    checked.  The guess elects every round of the chunk at the weights
    entering it and counts the correct votes and revealed rounds as
    cumsums.  It takes the weight entering each later round to be the rate
    the round before reached, as it is once the step cap stops binding,
    clipped to the weights that s capped steps down or up reach from the
    chunk's first weight w, (1 - zeta)^s * w and (1 + zeta)^s * w as
    ``_delayed_update`` forms them, one product per round: a weight decays
    or grows along them while the cap binds the same way.  One
    ``_step_rows`` call then steps every guessed state exactly.  Row 0
    enters at the true state, and each row whose exact next state equals
    the next row's guess hands a true state on; so the rows up to the first
    mismatch are true, and their checked winners and next states are
    committed.  A chunk commits at least one round.  It may commit few
    while the rates jump and the cap binds both ways, as in the first
    rounds, and for longer at small zeta."""
    horizon, n = votes.shape[:2]
    winners = np.empty(horizon, dtype=np.int64)
    weights = np.empty((horizon + 1, n))
    weights[0] = INITIAL_WEIGHT
    w, c, r = weights[0], np.zeros(n, dtype=np.int64), 0
    t = 0
    while t < horizon:
        end = min(t + _CHUNK, horizon)
        v, q = votes[t:end], qualities[t:end]
        guess = _elect_rows(w, v)
        correct = c + np.cumsum(_hits(guess, v, q), axis=0)
        revealed = r + np.cumsum(guess != DUMMY)
        low, high = (np.multiply.accumulate(np.vstack((w, np.full((end - t, n), f))))[1:-1]
                     for f in (1.0 - zeta, 1.0 + zeta))
        guessed = np.clip(_rates(correct, revealed)[:-1], low, high)
        js, w_next, c_next, r_next = _step_rows(
            zeta, np.vstack((w, guessed)), np.vstack((c, correct[:-1])),
            np.concatenate(([r], revealed[:-1])), v, q)
        wrong = ((w_next[:-1] != guessed).any(axis=1)
                 | (c_next[:-1] != correct[:-1]).any(axis=1)
                 | (r_next[:-1] != revealed[:-1]))
        m = int(wrong.argmax()) + 1 if wrong.any() else end - t
        winners[t:t + m] = js[:m]
        weights[t + 1:t + m + 1] = w_next[:m]
        w, c, r = w_next[m - 1], c_next[m - 1], int(r_next[m - 1])
        t += m
    return winners, weights, tuple(c.tolist()), r


def run(world: WorldConfig, schedule: RewardSchedule,
        policy=HonestPolicy()) -> RepeatedTrace:
    """Simulate the repeated game; deterministic given the world seed.

    Round draws are independent of play, so runs with the same seed see
    identical proposals and signals whatever the policy does.  A deviator's
    plan is fixed in advance, so it is written into the vote array up
    front.  Then every vote is known before play, and ``_play`` steps the
    rounds in guessed-then-checked chunks; the trace is bit-identical to
    one that steps every round with ``_step``.  A discount factor at or
    above the theoretical cap only sets ``gamma_warning``.  A world whose draw array
    exceeds RUN_GUARD_DRAWS is refused (GuardRefusal) before any draw.
    """
    if isinstance(policy, SingleDeviatorPolicy):
        _integer(policy.expert, "policy.expert", 0, world.n - 1)
        for row in policy.plan:
            if len(row) != world.proposals_per_round:
                raise ContractViolation("deviation plan rows must be k-bit vectors")
    elif not isinstance(policy, HonestPolicy):
        raise ContractViolation(f"unsupported policy {policy!r}")
    draws = world.horizon * world.proposals_per_round * (1 + world.n)
    if draws > RUN_GUARD_DRAWS:
        raise GuardRefusal(f"horizon * (k + n*k) = {draws} draws, capped at {RUN_GUARD_DRAWS}")
    qualities, beliefs = _presample(world)
    votes = _honest_votes(beliefs, schedule.T)
    if isinstance(policy, SingleDeviatorPolicy) and policy.plan:
        plan = policy.plan[:world.horizon]
        votes[:len(plan), policy.expert] = plan
    winners, weights, correct, revealed_rounds = _play(world.zeta, votes, qualities)
    realized, subjective = _payouts(schedule, winners, weights[:-1], votes, beliefs,
                                    qualities)
    revealed = np.where(winners != DUMMY, _on_winners(winners, qualities), -1)
    for array in (votes, winners, revealed, realized, subjective, weights):
        array.flags.writeable = False

    gamma_warning = world.gamma >= max_discount(schedule.epsilon, world.zeta)
    return RepeatedTrace(
        votes=votes, winners=winners, revealed=revealed, realized=realized,
        subjective=subjective, weights=weights,
        discounted_realized=discounted_total(realized, world.gamma),
        discounted_subjective=discounted_total(subjective, world.gamma),
        correct=correct,
        revealed_rounds=revealed_rounds,
        gamma_warning=gamma_warning,
    )


def _expand(schedule, zeta, expert, states, votes, beliefs, qualities, vectors):
    """Play one round from each state once per vote vector of the deviator,
    the others voting ``votes``: for each state, the (child state, the
    deviator's subjective payout) of each vector in order.

    The payouts are ``_payouts``'s, bit for bit, as floats: each proposal's
    weight-1 branches are formed once per round, each revealed child pays
    ``_subjective`` of its state's weight, and a dummy round pays 0.0."""
    own = beliefs[expert].tolist()
    # branches[j][bit]: the weight-1 payout of voting bit on proposal j+1.
    branches = [(reject, approve)
                for approve, reject in (_expected_branches(p, schedule) for p in own)]
    profiles = [(*votes[:expert], v, *votes[expert + 1:]) for v in vectors]
    rows = []
    for state in states:
        weight = state[0][expert]
        row = []
        for v, profile in zip(vectors, profiles):
            js, child = _step(zeta, state, profile, qualities)
            if js == DUMMY:
                row.append((child, 0.0))
            else:
                j = js - 1
                row.append((child, _subjective(weight, branches[j][v[j]], own[j])))
        rows.append(row)
    return rows


@dataclass(frozen=True)
class DeviationGapResult:
    """Best single-deviator discounted subjective total relative to honest
    play, over the whole plan space of a truncated horizon.

    ``plan_count`` is the size of that space, (2^k)^H; ``best_plan`` is a
    plan that reaches ``best_total``: the first in ``itertools.product``
    order among the plans the search keeps, each of which holds, at every
    game state it passes, the prefix with the largest total there (the
    earliest on a tie).  It is the first plan in product order that reaches
    ``best_total`` unless float rounding absorbs the gap between two
    prefixes at one state; then it goes through the larger prefix.
    """

    ratio: float
    honest_total: float
    best_total: float
    best_plan: tuple
    plan_count: int


def deviation_gap(world: WorldConfig, schedule: RewardSchedule, expert_i: int,
                  horizon_H: int) -> DeviationGapResult:
    """Search all of expert_i's per-round vote plans over a truncated
    horizon, everyone else honest, and return the ratio of the best
    deviation's discounted subjective total to the honest one.

    The search is exact without replaying each plan.  Round draws do not
    depend on play, so plan prefixes that reach the same game state
    (weights, correct counts and revealed rounds, compared exactly) have
    the same future.  Each round expands every live state by the
    deviator's 2^k vote vectors, visiting prefixes in product order, and
    each child state keeps one prefix: the one with the largest total, the
    earliest in product order on a tie.  Float addition is monotone, so
    the kept prefix followed by any suffix totals at least as much as any
    other prefix at that state followed by the same suffix.  Totals
    accumulate in ``discounted_total``'s order, from 0.0, so each one is
    bit-identical to a replay of its plan.

    Each state's kept entry is its total, its parent entry in the round
    before and its last vote vector; ``best_plan`` is read back along the
    parent entries, so an entry costs O(1) whatever its round.

    Two drops, one answer.  A prefix p is dropped only when, for every
    suffix, p followed by it totals at most as much as the prefix kept at
    p's state followed by it (the merge), or less than honest play (the
    honest-play prune).  So some kept plan totals the maximum M over all
    plans.  Take a kept prefix with a completion that totals M, as the
    empty prefix has.  Its child along that completion either is kept or
    merges into a kept prefix whose completion totals at least, hence
    exactly, M.  The prune never drops either, since M >= honest_total.
    ``best_total`` is M and ``best_plan`` the first kept plan in product
    order that totals M.  Let P be the first plan in product order that
    totals M.  A prefix of P merges only into one with a strictly larger
    total: an earlier one with an equal total would give an earlier plan
    of total M.  So ``best_plan`` is P unless rounding absorbs such a gap.

    The search also prunes against honest play.  The honest plan is one
    complete plan, and ``honest_total`` is the search's own total for it:
    honest play is walked first with the same ``_expand`` and the same
    additions.  So best_total >= honest_total.  Before round t is
    expanded, an entry with total x at a state where the deviator's weight
    is w is dropped when x + b < honest_total - margin, where

        b = sum over s = t..H-1 of gamma^s * min(1, w*(1+zeta)^(s-t)) * max(a, a').

    Every completion of a dropped prefix totals less than honest_total, so
    none is maximal.  b depends only on the state, so it is computed once
    per state and round.

    Why b bounds every suffix, exactly in floats.  A round pays the
    deviator w times p*a - (1-p)*s <= a or (1-p)*a' <= a', or 0 on a dummy
    round, and the draws pay no external rewards.  ``_delayed_update``
    never moves a weight past max(omega, w), and omega <= 1, so a weight
    that starts at 0.5 stays <= 1; it grows by at most the factor
    (1.0 + zeta) per round.  b is formed with the search's own float
    operations, (1.0 + zeta) * w and gamma^s * (w * max(a, a')), and
    rounding is monotone.  So each term of b is at least the search's term
    for that round, whatever the plan.

    Why the margin covers the rounding.  Let u = 2^-53,
    g_m = m*u/(1-m*u), n = H - t, g = g_n and S = |x| + b + |honest_total|;
    the margin is (n+1) * 2^-51 * S = 4(n+1)*u*S.  A float sum of m terms,
    in any order, is off by at most g_(m-1) times the sum of their
    magnitudes.  So the exact sum of b's n terms is at most b / (1 - g).  A
    completion adds to x, one by one, n terms each no larger than b's;
    float addition is monotone, so it totals at most the same float sum
    over b's terms, which is at most x + b + 3g*S.  The test rounds x + b,
    the two additions of S, the product and honest_total - margin, so a
    passing test means x + b < honest_total - (4(n+1)*u*(1-u)^4 - u)*S.
    For every n < 2^50 that slack exceeds 3g*S, so every completion totals
    less than honest_total.  The margin is relative: scaling all rewards by
    a power of two scales every payout, total, bound and margin exactly, so
    the search prunes the same states at every scale, given S >= 2^-972.

    Refuses (GuardRefusal) as soon as it would expand more than STATE_GUARD
    kept entries, counted over all rounds.  Each expanded state holds
    exactly one entry, so the count is the number of states expanded, and
    each entry keeps at most 2^k children.  Only the entries that a live
    entry descends from stay alive; the others are freed as soon as no
    kept child points at them.  So the work and the memory before an
    answer or a refusal are both bounded.  Each round expands at least
    one entry: the prefix kept at honest play's state totals at least the
    honest prefix, so honest play's suffix takes it to honest_total or
    more and the prune never drops it.  So a horizon above STATE_GUARD is
    refused before anything is sampled, as is a world whose k exceeds
    core.VECTOR_GUARD_BITS.  Whether a shorter horizon passes the cap is
    known only by searching.
    """
    expert_i = _integer(expert_i, "expert_i", 0, world.n - 1)
    horizon_H = _integer(horizon_H, "horizon_H", 1)
    cap = max_discount(schedule.epsilon, world.zeta)
    if world.gamma > cap:
        raise ContractViolation(f"gamma = {world.gamma} exceeds max_discount = {cap}")
    _check_vectors(world.proposals_per_round)
    if horizon_H > STATE_GUARD:
        raise GuardRefusal(
            f"deviation search would pass {STATE_GUARD} kept entries: "
            f"horizon_H = {horizon_H} expands at least one per round"
        )
    qualities, beliefs = _presample(dataclasses.replace(world, horizon=horizon_H))
    votes = _honest_votes(beliefs, schedule.T).tolist()
    quality_rows = qualities.tolist()

    # factors[t] is gamma^t as discounted_total forms it, capped[t] the
    # bound on rounds t..H-1 at weight 1.
    top = _round_cap(schedule)
    factors = _discount_factors(horizon_H, world.gamma).tolist()
    capped = [0.0] * (horizon_H + 1)
    for t in reversed(range(horizon_H)):
        capped[t] = factors[t] * top + capped[t + 1]

    def suffix_bound(w, t):
        bound = 0.0
        while t < horizon_H and w < 1.0:
            bound += factors[t] * (w * top)
            w = min(1.0, (1.0 + world.zeta) * w)
            t += 1
        return bound + capped[t]

    # Honest play, walked as the search walks every plan.
    state, honest_total = _initial_state(world.n), 0.0
    for t in range(horizon_H):
        [[(state, value)]] = _expand(schedule, world.zeta, expert_i, [state], votes[t],
                                     beliefs[t], quality_rows[t], [votes[t][expert_i]])
        honest_total += factors[t] * value

    vectors = _vote_vectors(world.proposals_per_round)
    # state -> its kept entry (discounted total, parent entry, vote vector),
    # in product order of the kept prefixes; the root entry has no parent.
    frontier = {_initial_state(world.n): (0.0, None, None)}
    entries = 0
    for t in range(horizon_H):
        # Drop the entries that cannot reach honest play (see the docstring).
        rel_margin = (horizon_H - t + 1) * 2.0 ** -51
        frontier = {
            state: entry for state, entry in frontier.items()
            if not entry[0] + (bound := suffix_bound(state[0][expert_i], t))
            < honest_total - rel_margin * (abs(entry[0]) + bound + abs(honest_total))
        }
        entries += len(frontier)
        if entries > STATE_GUARD:
            raise GuardRefusal(
                f"deviation search passed {STATE_GUARD} kept entries "
                f"in round {t + 1} of {horizon_H}"
            )
        moves = _expand(schedule, world.zeta, expert_i, list(frontier), votes[t],
                        beliefs[t], quality_rows[t], vectors)
        factor = factors[t]
        # Each child keeps its largest total, the earliest prefix on a tie;
        # a child that improves moves to the end, so the dict stays in
        # product order of the kept prefixes.
        kept = {}
        for entry, row in zip(frontier.values(), moves):
            for v, (child, value) in zip(vectors, row):
                child_total = entry[0] + factor * value
                if child in kept and child_total <= kept[child][0]:
                    continue
                kept.pop(child, None)
                kept[child] = (child_total, entry, v)
        frontier = kept

    entry = max(frontier.values(), key=lambda entry: entry[0])
    best_total, best_plan = entry[0], []
    while entry[1] is not None:
        best_plan.append(entry[2])
        entry = entry[1]
    return DeviationGapResult(
        ratio=_ratio(best_total, honest_total), honest_total=honest_total,
        best_total=best_total, best_plan=tuple(reversed(best_plan)),
        plan_count=(2 ** world.proposals_per_round) ** horizon_H,
    )


def deviation_tail_bound(schedule: RewardSchedule, zeta: float, gamma: float,
                         horizon_H: int) -> float:
    """Analytic cap on any single deviator's discounted subjective total
    beyond a truncated horizon: per round at most (1+delta) * weight *
    max(a, a'), with the weight starting at INITIAL_WEIGHT and growing at
    most (1+zeta) per round.  zeta and gamma must lie in the ranges
    WorldConfig enforces, and horizon_H must be >= 0."""
    zeta = _real(zeta, "zeta", 0, 1, "()")
    gamma = _real(gamma, "gamma", 0, 1, "[)")
    horizon_H = _integer(horizon_H, "horizon_H", 0)
    growth = (1.0 + zeta) * gamma
    if growth >= 1.0:
        raise ContractViolation(f"(1+zeta)*gamma = {growth} must be < 1 for the tail sum")
    per_round = (1.0 + schedule.delta) * INITIAL_WEIGHT * _round_cap(schedule)
    return per_round * growth ** horizon_H / (1.0 - growth)
