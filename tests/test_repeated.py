"""Delayed weight updates, round sampling, full runs and the exact
single-deviator search, checked against a replay of every plan."""

import dataclasses
import hashlib
import itertools
import math
import operator
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avgov import (
    ContractViolation,
    DeviationGapResult,
    GuardRefusal,
    HonestPolicy,
    Instance,
    RewardSchedule,
    SingleDeviatorPolicy,
    WorldConfig,
    correct_fraction,
    delayed_update,
    derive_schedule,
    deviation_gap,
    deviation_tail_bound,
    discounted_total,
    expected_reward,
    honest_profile,
    max_discount,
    reward,
    run_repeated,
    sample_round,
    winner,
)
from avgov import cli, repeated

SCHED = derive_schedule(0.9, 19.0, 1.0)
# A reward near the float limit: each round may pay up to 1e308.
HUGE = RewardSchedule(a=1e308, a_prime=1.0, s=1e307, T=1 / 11, epsilon=1e308)
EXAMPLES = Path(__file__).parent.parent / "examples"


def world(**kw):
    base = dict(expertise=(0.9, 0.6), good_prior=0.5, proposals_per_round=2,
                zeta=0.05, gamma=0.5, horizon=50, seed=0)
    base.update(kw)
    return WorldConfig(**base)


def tuple_form(trace):
    """``trace`` with its per-round arrays as nested tuples of plain ints
    and floats: each round a tuple of vote-row tuples, None for a dummy
    round's revealed quality.  Tuples compare with ``==`` and print in
    full, so this is the form that exact comparisons and pins read."""
    return dataclasses.replace(
        trace,
        votes=tuple(tuple(map(tuple, rows)) for rows in trace.votes.tolist()),
        winners=tuple(trace.winners.tolist()),
        revealed=tuple(None if q < 0 else q for q in trace.revealed.tolist()),
        realized=tuple(map(tuple, trace.realized.tolist())),
        subjective=tuple(map(tuple, trace.subjective.tolist())),
        weights=tuple(map(tuple, trace.weights.tolist())),
    )


# ---------------------------------------------------------------------------
# correct_fraction / delayed_update / discounting
# ---------------------------------------------------------------------------


def test_correct_fraction():
    assert correct_fraction(3, 4) == 0.75
    assert correct_fraction(0, 0) == 0.5
    assert correct_fraction(10, 10) == 1.0
    with pytest.raises(ContractViolation):
        correct_fraction(5, 4)
    with pytest.raises(ContractViolation):
        correct_fraction(-1, 4)


def test_delayed_update_examples():
    assert delayed_update(0.5, 0.9, 0.1) == pytest.approx(0.55)
    assert delayed_update(0.5, 0.5, 0.3) == 0.5
    assert delayed_update(0.8, 0.2, 0.1) == pytest.approx(0.72)
    # A weight of 0, which a run reaches by underflow, stays 0.
    assert delayed_update(0.0, 0.0, 0.6) == delayed_update(0.0, 0.5, 0.1) == 0.0


@given(
    w=st.floats(min_value=0.01, max_value=1.0),
    omega=st.floats(min_value=0.0, max_value=1.0),
    zeta=st.floats(min_value=0.01, max_value=0.99),
)
def test_delayed_update_bracket_and_direction(w, omega, zeta):
    new = delayed_update(w, omega, zeta)
    assert (1.0 - zeta) * w <= new <= (1.0 + zeta) * w
    assert min(w, omega) <= new <= max(w, omega)


def test_discounted_total():
    assert discounted_total([1.0, 1.0, 1.0], 0.5) == 1.75
    assert discounted_total([2.0, 5.0, 7.0], 0.0) == 2.0
    assert discounted_total([], 0.9) == 0.0
    assert discounted_total(np.zeros((0, 2)), 0.9) == (0.0, 0.0)


def loop_discounted_total(values, gamma):
    """The plain loop whose every bit discounted_total must reproduce."""
    total = 0.0
    factor = 1.0
    for v in values:
        total += factor * v
        factor *= gamma
    return total


# Values whose sums round differently in another order, signed zeros and
# subnormals among them.
DISCOUNT_VALUES = st.floats(-1e3, 1e3) | st.sampled_from(
    (-0.0, 0.0, 1.0, 2.0 ** -53, -(2.0 ** -53), 5e-324, 0.1, 1e16))
DISCOUNT_GAMMAS = st.sampled_from((0.0, 0.5, 0.1, 1.0 - 2.0 ** -53)) | st.floats(
    0.0, 1.0, exclude_max=True)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(columns=st.lists(st.lists(DISCOUNT_VALUES, max_size=40), min_size=1, max_size=4),
       gamma=DISCOUNT_GAMMAS)
@example(columns=[[-0.0]], gamma=0.5)
@example(columns=[[-0.0, -0.0], [-0.0, 1.0]], gamma=0.0)
@example(columns=[[]], gamma=0.9)
@example(columns=[[2.0 ** -53], [1.0]], gamma=0.0)
def test_discounted_total_equals_the_loop_bit_for_bit(columns, gamma):
    rows = min(map(len, columns))
    columns = [column[:rows] for column in columns]
    expected = [loop_discounted_total(column, gamma).hex() for column in columns]
    assert [discounted_total(column, gamma).hex() for column in columns] == expected
    array = np.array(columns, dtype=float).T.reshape(rows, len(columns))
    assert [total.hex() for total in discounted_total(array, gamma)] == expected
    # The factors the deviation search reads: 1.0, then one product per round.
    factors = list(itertools.accumulate([1.0] + [gamma] * rows, operator.mul))[:rows]
    assert repeated._discount_factors(rows, gamma).tolist() == factors


# ---------------------------------------------------------------------------
# sample_round
# ---------------------------------------------------------------------------


def test_sample_round_perfect_and_inverted_experts():
    w = world(expertise=(1.0, 0.0), proposals_per_round=3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        q, p, g = sample_round(w, rng)
        assert p[0] == tuple(float(x) for x in q)
        assert p[1] == tuple(float(1 - x) for x in q)
        assert g == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_sample_round_correctness_frequency():
    w = world(expertise=(0.8,), proposals_per_round=1, zeta=0.1)
    rng = np.random.default_rng(2024)
    hits = 0
    trials = 10000
    for _ in range(trials):
        q, p, _ = sample_round(w, rng)
        vote = 1 if p[0][0] >= SCHED.T else 0
        hits += vote == q[0]
    assert abs(hits / trials - 0.8) <= 0.02


def test_sample_round_prior_extremes():
    rng = np.random.default_rng(9)
    all_good = world(good_prior=1.0)
    q, _, _ = sample_round(all_good, rng)
    assert q == (1, 1)
    all_bad = world(good_prior=0.0)
    q, _, _ = sample_round(all_bad, rng)
    assert q == (0, 0)


def scalar_round(w, rng):
    """The per-round sampling rule drawn and thresholded one value at a
    time: k quality uniforms, then an (n, k) block of signal uniforms."""
    n, k = w.n, w.proposals_per_round
    qualities = tuple(int(x < w.good_prior) for x in rng.random(k))
    hit = rng.random((n, k))
    beliefs = tuple(
        tuple(
            float(qualities[j]) if hit[i, j] < w.expertise[i]
            else float(1 - qualities[j])
            for j in range(k)
        )
        for i in range(n)
    )
    return qualities, beliefs, tuple((0.0,) * k for _ in range(n))


@pytest.mark.parametrize("n, k, horizon", [(5, 3, 1000), (3, 2, 500), (1, 1, 50)])
def test_presample_equals_successive_sample_rounds(n, k, horizon):
    expertise = tuple(np.linspace(0.5, 1.0, n))
    w = world(expertise=expertise, proposals_per_round=k, horizon=horizon, seed=31)
    scalar_rng = np.random.default_rng(w.seed)
    expected = tuple(scalar_round(w, scalar_rng) for _ in range(horizon))
    rng = np.random.default_rng(w.seed)
    assert tuple(sample_round(w, rng) for _ in range(horizon)) == expected
    qualities, beliefs = repeated._presample(w, horizon)
    assert qualities.tolist() == [list(q) for q, _, _ in expected]
    assert beliefs.tolist() == [[list(row) for row in b] for _, b, _ in expected]


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_starts_at_half_and_brackets_weights():
    w = world(horizon=300, zeta=0.1)
    trace = tuple_form(run_repeated(w, SCHED))
    assert trace.weights[0] == (0.5, 0.5)
    for t in range(w.horizon):
        for i in range(w.n):
            before, after = trace.weights[t][i], trace.weights[t + 1][i]
            assert (1.0 - w.zeta) * before <= after <= (1.0 + w.zeta) * before
            assert 0.0 < after <= 1.0


def test_run_deterministic_given_seed():
    w = world(horizon=120, seed=77)
    a = tuple_form(run_repeated(w, SCHED))
    b = tuple_form(run_repeated(w, SCHED))
    assert a == b
    c = tuple_form(run_repeated(world(horizon=120, seed=78), SCHED))
    assert a != c


def test_run_weights_converge_to_expertise():
    w = world(horizon=2000, seed=7)
    trace = run_repeated(w, SCHED)
    for i, target in enumerate(w.expertise):
        assert abs(trace.weights[-1][i] - target) <= 0.05


def test_run_counters_only_advance_on_revealed_rounds():
    w = world(horizon=200, seed=3)
    trace = tuple_form(run_repeated(w, SCHED))
    revealed = sum(1 for r in trace.revealed if r is not None)
    assert revealed == trace.revealed_rounds
    assert all(0 <= c <= trace.revealed_rounds for c in trace.correct)
    dummies = [t for t, x in enumerate(trace.winners) if x == 0]
    assert all(trace.revealed[t] is None for t in dummies)


def test_run_honest_subjective_floor_on_revealed_rounds():
    # Whenever a proposal is implemented, an honest expert's subjective
    # expected reward is at least w * (1-T) * a'.
    w = world(horizon=400, seed=13)
    trace = tuple_form(run_repeated(w, SCHED))
    floor = (1.0 - SCHED.T) * SCHED.a_prime
    for t in range(w.horizon):
        if trace.revealed[t] is None:
            continue
        for i in range(w.n):
            normalized = trace.subjective[t][i] / trace.weights[t][i]
            assert normalized >= floor - 1e-12


def test_run_realized_rewards_match_schedule_cases():
    w = world(horizon=100, seed=21)
    trace = tuple_form(run_repeated(w, SCHED))
    for t in range(w.horizon):
        q = trace.revealed[t]
        if q is None:
            assert trace.realized[t] == (0.0, 0.0)
            continue
        js = trace.winners[t]
        for i in range(w.n):
            vote = trace.votes[t][i][js - 1]
            weight = trace.weights[t][i]
            expected = {
                (1, 1): weight * SCHED.a,
                (1, 0): -weight * SCHED.s,
                (0, 0): weight * SCHED.a_prime,
                (0, 1): 0.0,
            }[(vote, q)]
            assert trace.realized[t][i] == pytest.approx(expected)


def test_run_gamma_warning_flag():
    cap = max_discount(SCHED.epsilon, 0.05)
    assert not run_repeated(world(horizon=5, gamma=0.5), SCHED).gamma_warning
    hot = world(horizon=5, gamma=min(0.99, cap + 0.01))
    assert run_repeated(hot, SCHED).gamma_warning


def test_run_trace_is_read_only_arrays_of_run():
    w = world(expertise=(0.9, 0.8, 0.7), proposals_per_round=3, good_prior=0.1,
              horizon=40, seed=4)
    trace = run_repeated(w, SCHED)
    shapes = {"votes": ((40, 3, 3), np.int8), "winners": ((40,), np.int64),
              "revealed": ((40,), np.int64), "realized": ((40, 3), np.float64),
              "subjective": ((40, 3), np.float64), "weights": ((41, 3), np.float64)}
    for name, (shape, dtype) in shapes.items():
        array = getattr(trace, name)
        assert (array.shape, array.dtype) == (shape, dtype), name
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            array[...] += 1
    # -1 marks exactly the dummy rounds, and this world has some.
    assert ((trace.revealed == -1) == (trace.winners == 0)).all()
    assert 0 < (trace.winners == 0).sum() < w.horizon


def test_run_single_deviator_plan_respected():
    w = world(horizon=4, seed=1)
    plan = ((1, 1), (0, 0), (1, 0), (0, 1))
    trace = tuple_form(run_repeated(w, SCHED, SingleDeviatorPolicy(expert=1, plan=plan)))
    for t in range(4):
        assert trace.votes[t][1] == plan[t]


def reference_run(w, schedule, policy):
    """A whole run on the checked public route: successive sample_round
    draws, a validated Instance and VotingProfile every round, then winner,
    reward, expected_reward, correct_fraction and delayed_update.  The
    independent route that run's arrays must agree with."""
    rng = np.random.default_rng(w.seed)
    plan = policy.plan if isinstance(policy, SingleDeviatorPolicy) else ()
    weights, correct, revealed_rounds = (0.5,) * w.n, (0,) * w.n, 0
    votes, winners, revealed, realized, subjective = [], [], [], [], []
    weight_rows = [weights]
    for t in range(w.horizon):
        qualities, beliefs, external = sample_round(w, rng)
        instance = Instance(weights=weights, beliefs=beliefs, external=external)
        profile = honest_profile(instance, schedule.T)
        if t < len(plan):
            profile = profile.replace_row(policy.expert, plan[t])
        js = winner(instance, profile).winner
        paid = [0.0] * w.n
        expected = [0.0] * w.n
        q = None
        if js != 0:
            q = qualities[js - 1]
            correct = list(correct)
            for i in range(w.n):
                vote = profile.votes[i][js - 1]
                paid[i] = reward(vote, q, schedule, weights[i])
                p = beliefs[i][js - 1]
                expected[i] = (weights[i] * expected_reward(vote, p, schedule)
                               + p * external[i][js - 1])
                if vote == q:
                    correct[i] += 1
            correct = tuple(correct)
            revealed_rounds += 1
        weights = tuple(
            delayed_update(weights[i], correct_fraction(correct[i], revealed_rounds), w.zeta)
            for i in range(w.n)
        )
        votes.append(profile.votes)
        winners.append(js)
        revealed.append(q)
        realized.append(tuple(paid))
        subjective.append(tuple(expected))
        weight_rows.append(weights)
    return repeated.RepeatedTrace(
        votes=tuple(votes), winners=tuple(winners), revealed=tuple(revealed),
        realized=tuple(realized), subjective=tuple(subjective),
        weights=tuple(weight_rows),
        discounted_realized=tuple(discounted_total(c, w.gamma) for c in zip(*realized)),
        discounted_subjective=tuple(discounted_total(c, w.gamma) for c in zip(*subjective)),
        correct=correct, revealed_rounds=revealed_rounds,
        gamma_warning=w.gamma >= max_discount(schedule.epsilon, w.zeta),
    )


@st.composite
def small_runs(draw):
    T, eps = draw(st.sampled_from(((0.75, 4.0), (0.9, 19.0), (0.95, 39.0))))
    schedule = derive_schedule(T, eps, 1.0)
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    level = st.sampled_from((0.5, 1.0)) | st.floats(0.0, 1.0)
    w = WorldConfig(
        expertise=tuple(draw(level) for _ in range(n)),
        good_prior=draw(level), proposals_per_round=k,
        zeta=draw(st.floats(0.01, 0.3)), gamma=draw(st.floats(0.0, 0.99)),
        horizon=draw(st.integers(1, 40)), seed=draw(st.integers(0, 1 << 16)),
    )
    policy = HonestPolicy()
    if draw(st.booleans()):
        row = st.tuples(*[st.integers(0, 1)] * k)
        plan = draw(st.lists(row, max_size=w.horizon + 2))
        policy = SingleDeviatorPolicy(expert=draw(st.integers(0, n - 1)), plan=plan)
    return w, schedule, policy


@settings(derandomize=True, max_examples=60, deadline=None)
@given(small_runs())
# Expert 0's rate is 0, so from round 1 expert 0's weight decays by
# (1 - zeta) = 0.4 per round and underflows to 0.0, which the public
# delayed_update must step too (the world of the golden case repeat-decay).
@example((world(expertise=(0.0, 1.0), zeta=0.6, horizon=3000, seed=1), SCHED,
          HonestPolicy()))
def test_run_equals_reference_round_on_public_route(case):
    w, schedule, policy = case
    assert repr(tuple_form(run_repeated(w, schedule, policy))) == repr(
        reference_run(w, schedule, policy))


def step_replay(zeta, votes, qualities):
    """``repeated._play``'s answer from the scalar ``_step``, one round at a
    time."""
    state = repeated._initial_state(votes.shape[1])
    winners, weights = [], [state[0]]
    for votes_t, qualities_t in zip(votes.tolist(), qualities.tolist()):
        js, state = repeated._step(zeta, state, votes_t, qualities_t)
        winners.append(js)
        weights.append(state[0])
    return np.array(winners, dtype=np.int64), np.array(weights), state[1], state[2]


@st.composite
def long_runs(draw):
    # Horizons of one to four chunks that end mid-chunk; zeta >= 1/2 lets a
    # weight whose rate is 0 underflow to 0.0, good_prior 0 or 1 gives runs
    # of dummy rounds, and near-equal expertise keeps the weights close, so
    # that winners flip inside a chunk.
    chunk = repeated._CHUNK
    T, eps = draw(st.sampled_from(((0.75, 4.0), (0.9, 19.0), (0.95, 39.0))))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    if draw(st.booleans()):
        base = draw(st.floats(0.5, 0.95))
        expertise = tuple(base + draw(st.floats(0.0, 0.02)) for _ in range(n))
    else:
        expertise = tuple(draw(st.sampled_from((0.0, 1.0, 0.1, 0.9)) | st.floats(0.0, 1.0))
                          for _ in range(n))
    horizon = draw(st.integers(1, 4)) * chunk + draw(st.integers(1, chunk - 1))
    w = WorldConfig(
        expertise=expertise,
        good_prior=draw(st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1.0)),
        proposals_per_round=k,
        zeta=draw(st.sampled_from((0.01, 0.05, 0.5, 0.6, 0.9)) | st.floats(0.01, 0.95)),
        gamma=draw(st.floats(0.0, 0.99)), horizon=horizon,
        seed=draw(st.integers(0, 1 << 16)),
    )
    policy = HonestPolicy()
    if draw(st.booleans()):
        # A plan that ends anywhere, mid-chunk or past the horizon.
        bits = np.random.default_rng(draw(st.integers(0, 1 << 16))).integers(
            0, 2, (draw(st.integers(0, horizon + 2)), k))
        policy = SingleDeviatorPolicy(expert=draw(st.integers(0, n - 1)),
                                      plan=tuple(map(tuple, bits.tolist())))
    return w, derive_schedule(T, eps, 1.0), policy


@settings(derandomize=True, max_examples=40, deadline=None)
@given(long_runs())
# Only the revealed rounds tell a guess from the truth: a lone expert who is
# always wrong keeps 0 correct votes, and once her weight underflows to 0.0
# the chunk's rounds elect the dummy.
@example((world(expertise=(0.0,), good_prior=0.25, proposals_per_round=1, zeta=0.6,
                horizon=1100, seed=5999), SCHED, HonestPolicy()))
# Only the correct counts do: winners differ between guess and truth while
# the weights they would move are held by the cap.
@example((world(expertise=(0.1, 1.0, 0.1), proposals_per_round=3, horizon=1100,
                seed=20736), derive_schedule(0.95, 39.0, 1.0), HonestPolicy()))
# At small zeta the cap binds for hundreds of rounds, so the first chunks
# commit few rounds each (the strategy draws zeta >= 0.01).
@example((world(expertise=(0.85, 0.875, 0.9, 0.925, 0.95), proposals_per_round=3,
                zeta=0.001, gamma=0.8, horizon=1100, seed=23), SCHED, HonestPolicy()))
@example((world(expertise=(0.85, 0.875, 0.9, 0.925, 0.95), proposals_per_round=3,
                zeta=0.01, gamma=0.8, horizon=1100, seed=23), SCHED, HonestPolicy()))
def test_run_equals_step_replay_over_many_chunks(case):
    w, schedule, policy = case
    with mock.patch.object(repeated, "_play", step_replay):
        expected = repr(tuple_form(run_repeated(w, schedule, policy)))
    assert repr(tuple_form(run_repeated(w, schedule, policy))) == expected


def test_run_steps_every_round_in_array_chunks(monkeypatch):
    # run never falls back to the scalar _step, and its chunks stay few on
    # both sides of zeta: a benchmark-shaped world (n=5, k=3, zeta 0.05,
    # 20,000 rounds) and the same world at zeta 0.001, where the cap binds
    # for many rounds and the early chunks commit few rounds each.
    def scalar_step(*args):
        raise AssertionError("run stepped a round with the scalar _step")

    calls = []
    step_rows = repeated._step_rows

    def counted(*args):
        calls.append(None)
        return step_rows(*args)

    monkeypatch.setattr(repeated, "_step", scalar_step)
    monkeypatch.setattr(repeated, "_step_rows", counted)
    scenario = cli.load_scenario(EXAMPLES / "repeat_k3.json")
    base = cli._read_world(scenario.world)
    small_zeta = dataclasses.replace(base, zeta=0.001)
    for w, most_calls in ((base, 100), (small_zeta, 400)):
        calls.clear()
        trace = repeated.run(w, scenario.schedule)
        assert len(trace.winners) == w.horizon == 20000
        assert len(calls) <= most_calls


def test_integral_deviator_index_is_an_int():
    # An index of 1.0 plays as 1: only expert 1's row follows the plan.
    w = world(expertise=(0.9, 0.8, 0.7), horizon=4, seed=1)
    policy = SingleDeviatorPolicy(expert=1.0, plan=((0, 0),))
    assert type(policy.expert) is int
    assert tuple_form(run_repeated(w, SCHED, policy)) == tuple_form(run_repeated(
        w, SCHED, SingleDeviatorPolicy(expert=1, plan=((0, 0),))))
    assert deviation_gap(w, SCHED, 1.0, 3.0) == deviation_gap(w, SCHED, 1, 3)


def test_run_rejects_bad_policy():
    w = world()
    with pytest.raises(ContractViolation):
        run_repeated(w, SCHED, SingleDeviatorPolicy(expert=5, plan=((1, 1),)))
    with pytest.raises(ContractViolation):
        run_repeated(w, SCHED, SingleDeviatorPolicy(expert=0, plan=((1, 1, 1),)))


def test_world_config_validation():
    with pytest.raises(ContractViolation):
        world(zeta=0.0)
    with pytest.raises(ContractViolation):
        world(gamma=1.0)
    with pytest.raises(ContractViolation):
        world(horizon=0)
    with pytest.raises(ContractViolation):
        world(expertise=(1.5,))
    for field in ("proposals_per_round", "horizon", "seed"):
        for value in (2.5, True):
            with pytest.raises(ContractViolation, match=f"{field} = {value} is not"):
                world(**{field: value})
    integral = world(proposals_per_round=2.0, horizon=4.0, seed=1.0)
    assert (integral.proposals_per_round, integral.horizon, integral.seed) == (2, 4, 1)
    assert {type(integral.proposals_per_round), type(integral.horizon),
            type(integral.seed)} == {int}


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: world(expertise=()), "at least one expert", id="no-experts"),
    pytest.param(lambda: world(good_prior=1.5), "good_prior", id="good-prior"),
    pytest.param(lambda: world(proposals_per_round=0), "proposals_per_round",
                 id="no-proposals"),
    pytest.param(lambda: delayed_update(-0.5, 0.5, 0.1), "w = -0.5", id="update-w"),
    pytest.param(lambda: delayed_update(math.nan, 0.5, 0.1), "w = nan", id="update-w-nan"),
    pytest.param(lambda: delayed_update(0.5, 1.5, 0.1), "omega = 1.5", id="update-omega"),
    pytest.param(lambda: delayed_update(0.5, 0.5, 0.0), "zeta = 0.0", id="update-zeta"),
    pytest.param(lambda: run_repeated(world(), SCHED, policy="greedy"),
                 "unsupported policy", id="run-policy"),
    pytest.param(lambda: deviation_gap(world(), SCHED, 2, 3), r"expert_i = 2 outside \[0, 1\]",
                 id="gap-expert"),
    pytest.param(lambda: deviation_gap(world(), SCHED, 0, 0), "horizon_H", id="gap-H"),
    pytest.param(lambda: deviation_gap(world(), SCHED, True, 3),
                 "expert_i = True is not an integer", id="gap-expert-bool"),
    pytest.param(lambda: deviation_gap(world(), SCHED, 0.5, 3),
                 "expert_i = 0.5 is not an integer", id="gap-expert-fractional"),
    pytest.param(lambda: deviation_gap(world(), SCHED, 0, 2.5),
                 "horizon_H = 2.5 is not an integer", id="gap-H-fractional"),
    # Rewards near the float limit: 1e308 * (1 + 0.5 + 0.25) is finite,
    # and the fourth round's term makes the sum of gamma^t * max(a, a', s)
    # overflow (three rounds are searched in test_deviation_gap_near_float_limit).
    pytest.param(lambda: deviation_gap(world(), HUGE, 0, 4),
                 r"^rewards would overflow: .* over 4 rounds is not finite$",
                 id="gap-overflow"),
    pytest.param(lambda: SingleDeviatorPolicy(expert=True, plan=((0, 0),)),
                 "expert = True is not an integer", id="deviator-bool"),
    pytest.param(lambda: SingleDeviatorPolicy(expert=1.5, plan=((0, 0),)),
                 "expert = 1.5 is not an integer", id="deviator-fractional"),
    pytest.param(lambda: SingleDeviatorPolicy(expert=0, plan=((0.6, 1.9),)),
                 r"plan\[0\]\[0\] = 0.6 is not a bit", id="fractional-plan"),
    pytest.param(lambda: SingleDeviatorPolicy(expert=0, plan=((1, 0), (math.nan, 0))),
                 r"plan\[1\]\[0\] = nan is not a bit", id="nan-plan"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.5, 0.9, 4), "must be < 1",
                 id="tail-growth"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.05, math.nan, 4), "gamma = nan",
                 id="tail-gamma-nan"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.05, -0.5, 4), "gamma = -0.5",
                 id="tail-gamma-negative"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.05, 1.0, 4), "gamma = 1.0",
                 id="tail-gamma-one"),
    pytest.param(lambda: deviation_tail_bound(SCHED, math.nan, 0.5, 4), "zeta = nan",
                 id="tail-zeta-nan"),
    pytest.param(lambda: deviation_tail_bound(SCHED, -0.2, 0.5, 4), "zeta = -0.2",
                 id="tail-zeta-negative"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.0, 0.5, 4), "zeta = 0.0",
                 id="tail-zeta-zero"),
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.05, 0.5, -1), "horizon_H = -1",
                 id="tail-H-negative"),
    # Counts are integers: a bool is not read as 0 or 1, and a fractional or
    # non-numeric value is refused, not truncated, parsed or a TypeError.
    pytest.param(lambda: deviation_tail_bound(SCHED, 0.05, 0.5, 2.5),
                 "horizon_H = 2.5 is not an integer", id="tail-H-fractional"),
    pytest.param(lambda: correct_fraction(1.5, 2), "correct_count = 1.5 is not an integer",
                 id="fraction-correct-fractional"),
    pytest.param(lambda: correct_fraction(1, True), "revealed_rounds = True is not an integer",
                 id="fraction-revealed-bool"),
    pytest.param(lambda: world(horizon="7"), "horizon = '7' is not an integer",
                 id="world-horizon-string"),
    pytest.param(lambda: world(horizon="1e3"), "horizon = '1e3' is not an integer",
                 id="world-horizon-exponent-string"),
    pytest.param(lambda: world(seed=np.True_), r"seed = (np\.True_|True) is not an integer",
                 id="world-seed-numpy-bool"),
    pytest.param(lambda: world(horizon=0), r"^horizon = 0 outside \[1, inf\)$",
                 id="world-horizon-0"),
    pytest.param(lambda: world(seed=-1), r"^seed = -1 outside \[0, inf\)$",
                 id="world-seed-negative"),
    # A real is a number: not parsed from a string, not read from a bool.
    pytest.param(lambda: world(zeta="0.1"), "^zeta = '0.1' is not a number$",
                 id="world-zeta-string"),
    pytest.param(lambda: world(good_prior=True), "^good_prior = True is not a number$",
                 id="world-good-prior-bool"),
    pytest.param(lambda: world(expertise=("0.9",)), r"^expertise\[0\] = '0.9' is not a number$",
                 id="world-expertise-string"),
    pytest.param(lambda: world(gamma=1), r"^gamma = 1\.0 outside \[0, 1\)$",
                 id="world-gamma-1"),
    # An infinite weight stepped to inf, and a NaN or string gamma summed.
    pytest.param(lambda: delayed_update(math.inf, 0.5, 0.1), "^w = inf is not a finite number$",
                 id="update-w-inf"),
    pytest.param(lambda: discounted_total([1, 2], math.nan),
                 "^gamma = nan is not a finite number$", id="total-gamma-nan"),
    pytest.param(lambda: discounted_total([1, 2], "0.5"), "^gamma = '0.5' is not a number$",
                 id="total-gamma-string"),
    pytest.param(lambda: discounted_total([1, 2], 1.0), r"^gamma = 1\.0 outside \[0, 1\)$",
                 id="total-gamma-1"),
    pytest.param(lambda: run_repeated(world(), SCHED, SingleDeviatorPolicy(expert=2, plan=())),
                 r"^policy\.expert = 2 outside \[0, 1\]$", id="run-deviator-past-end"),
    pytest.param(lambda: run_repeated(world(), SCHED, SingleDeviatorPolicy(expert=-1, plan=())),
                 r"^policy\.expert = -1 outside \[0, 1\]$", id="run-deviator-negative"),
])
def test_input_checks_raise(call, match):
    with pytest.raises(ContractViolation, match=match):
        call()


def test_deviation_gap_near_float_limit():
    result = deviation_gap(world(), HUGE, 0, 3)
    assert math.isfinite(result.honest_total) and math.isfinite(result.best_total)
    assert result.ratio == 1.0


def test_run_refuses_rewards_that_overflow_before_sampling(monkeypatch):
    # As deviation_gap does (gap-overflow): the fourth round's term makes
    # the sum of gamma^t * max(a, a', s) overflow.
    def no_draws(world, horizon):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(repeated, "_presample", no_draws)
    with pytest.raises(ContractViolation,
                       match=r"^rewards would overflow: .* over 4 rounds is not finite$"):
        run_repeated(world(horizon=4), HUGE)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(a=st.floats(1e306, 1.7976931348623157e308), s=st.floats(0.0, 1e308),
       gamma=st.floats(0.0, 1.0, exclude_max=True), horizon=st.integers(1, 64))
@example(a=1e308, s=1e307, gamma=0.5, horizon=3)
@example(a=1e308, s=1e307, gamma=0.5, horizon=4)
def test_check_reach_refuses_as_the_round_loop(a, s, gamma, horizon):
    # Refused exactly when the loop over rounds, from 0.0, reaches inf.
    schedule = dataclasses.replace(HUGE, a=a, s=s)
    reach, factor = 0.0, 1.0
    for _ in range(horizon):
        reach += factor * max(a, 1.0, s)
        factor *= gamma
    if math.isfinite(reach):
        factors = repeated._check_reach(schedule, gamma, horizon)
        assert factors.tolist() == repeated._discount_factors(horizon, gamma).tolist()
    else:
        with pytest.raises(ContractViolation, match="rewards would overflow"):
            repeated._check_reach(schedule, gamma, horizon)


def test_run_near_float_limit():
    trace = run_repeated(world(horizon=3), HUGE)
    totals = trace.discounted_realized + trace.discounted_subjective
    assert all(map(math.isfinite, totals))


# The deviator's weight: zeros, the smallest subnormal, a subnormal, the
# smallest normal and 1.0 among uniform draws.
WEIGHTS = st.sampled_from((0.0, 5e-324, 2.0 ** -1060, 2.0 ** -1022, 1.0)) | st.floats(0.0, 1.0)
BELIEFS = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3), k=st.integers(1, 3),
       rewards=st.sampled_from(((0.75, 4.0, 1.0), (0.9, 19.0, 1.0), (0.6, 1.5, 2.0 ** -40))))
def test_expand_pays_as_payouts_bit_for_bit(data, n, k, rewards):
    # _expand's float payouts equal _payouts' array ones, down to the sign
    # of a zero, for each vote vector of the deviator from one state.  The
    # others vote at random, so some vectors elect the dummy (n = 1 always
    # does for the all-zero vector).
    schedule = derive_schedule(*rewards)
    expert = data.draw(st.integers(0, n - 1))
    weights = tuple(data.draw(WEIGHTS) for _ in range(n))
    votes = tuple(data.draw(st.tuples(*[st.integers(0, 1)] * k)) for _ in range(n))
    beliefs = np.array([[data.draw(BELIEFS) for _ in range(k)] for _ in range(n)])
    qualities = data.draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    vectors = tuple(itertools.product((0, 1), repeat=k))
    state = (weights, (0,) * n, 0)
    (row,) = repeated._expand(schedule, 0.05, expert, [state], votes, beliefs,
                              qualities, vectors)
    for v, (child, value) in zip(vectors, row):
        profile = votes[:expert] + (v,) + votes[expert + 1:]
        js, expected_child = repeated._step(0.05, state, profile, qualities)
        _, subjective = repeated._payouts(
            schedule, np.array([js]), np.array([[weights[expert]]]), np.array([[v]]),
            beliefs[None, expert:expert + 1], np.array([qualities]))
        assert child == expected_child
        assert value.hex() == subjective[0, 0].item().hex()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(1, 3), m=st.integers(1, 6),
       zeta=st.sampled_from((0.05, 0.5, 0.9)) | st.floats(0.01, 0.99))
def test_step_rows_equals_step_row_by_row(data, n, k, m, zeta):
    # Each row of states steps as _step steps it alone, down to the last
    # bit; WEIGHTS holds zeros, subnormals and ties.
    states = []
    for _ in range(m):
        revealed = data.draw(st.integers(0, 50))
        correct = tuple(data.draw(st.integers(0, revealed)) for _ in range(n))
        states.append((tuple(data.draw(WEIGHTS) for _ in range(n)), correct, revealed))
    bits = st.integers(0, 1)
    votes = np.array(data.draw(st.lists(st.lists(st.lists(bits, min_size=k, max_size=k),
                                                 min_size=n, max_size=n),
                                        min_size=m, max_size=m)), dtype=np.int8)
    qualities = np.array(data.draw(st.lists(st.lists(bits, min_size=k, max_size=k),
                                            min_size=m, max_size=m)))
    weights, correct, revealed = (np.array(column) for column in zip(*states))
    rows = repeated._step_rows(zeta, weights, correct, revealed, votes, qualities)
    for t, state in enumerate(states):
        js, expected = repeated._step(zeta, state, tuple(map(tuple, votes[t].tolist())),
                                      qualities[t].tolist())
        js_t, weights_t, correct_t, revealed_t = (column[t].tolist() for column in rows)
        assert repr((js_t, (tuple(weights_t), tuple(correct_t), revealed_t))) == repr(
            (js, expected))


# ---------------------------------------------------------------------------
# deviation_gap
# ---------------------------------------------------------------------------


def test_deviation_gap_honest_plan_is_in_search_space():
    w = world(expertise=(0.9, 0.8, 0.7), gamma=0.0, horizon=2, seed=3)
    result = deviation_gap(w, SCHED, 0, 2)
    assert result.plan_count == 16
    assert result.ratio >= 1.0


def test_deviation_gap_gamma_zero_single_shot_bound():
    for seed in (3, 11, 29):
        w = world(expertise=(0.9, 0.8, 0.7), gamma=0.0, horizon=3, seed=seed)
        for i in range(3):
            result = deviation_gap(w, SCHED, i, 3)
            assert result.ratio <= (1.0 + SCHED.epsilon) * (1.0 + SCHED.delta) + 1e-9


def brute_force_gap(w, schedule, expert, horizon):
    """Replay every plan in itertools.product order and keep the first one
    with the largest discounted subjective total: the independent route
    that deviation_gap's state search must agree with."""
    short = dataclasses.replace(w, horizon=horizon)
    honest = run_repeated(short, schedule).discounted_subjective[expert]
    vectors = tuple(itertools.product((0, 1), repeat=w.proposals_per_round))
    best_total, best_plan = -np.inf, None
    for plan in itertools.product(vectors, repeat=horizon):
        policy = SingleDeviatorPolicy(expert=expert, plan=plan)
        total = run_repeated(short, schedule, policy).discounted_subjective[expert]
        if total > best_total:
            best_total, best_plan = total, plan
    return DeviationGapResult(
        ratio=best_total / honest if honest > 0.0 else float("inf"),
        honest_total=honest, best_total=best_total, best_plan=best_plan,
        plan_count=len(vectors) ** horizon,
    )


@st.composite
def small_searches(draw):
    # Expertise and priors partly at 0.5 and 1.0, and gamma at 0 and at the
    # cap, make many plans reach equal states and equal totals.
    T, eps = draw(st.sampled_from(((0.75, 4.0), (0.9, 19.0), (0.95, 39.0))))
    schedule = derive_schedule(T, eps, 1.0)
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 2))
    horizon = draw(st.integers(1, 6))
    level = st.sampled_from((0.5, 1.0)) | st.floats(0.0, 1.0)
    zeta = draw(st.floats(0.01, 0.3))
    cap = max_discount(schedule.epsilon, zeta)
    gamma = draw(st.sampled_from((0.0, None, cap)))
    if gamma is None:
        gamma = draw(st.floats(0.01, 0.99)) * cap
    w = WorldConfig(
        expertise=tuple(draw(level) for _ in range(n)),
        good_prior=draw(level), proposals_per_round=k, zeta=zeta,
        gamma=gamma, horizon=horizon, seed=draw(st.integers(0, 1 << 16)),
    )
    return w, schedule, draw(st.integers(0, n - 1)), horizon


@settings(derandomize=True, max_examples=30, deadline=None)
@given(small_searches())
def test_deviation_gap_equals_replay_of_every_plan(search):
    w, schedule, expert, horizon = search
    assert deviation_gap(w, schedule, expert, horizon) == \
        brute_force_gap(w, schedule, expert, horizon)


# name -> (world overrides, deviator) for three experts at H=6.
REPLAY_WORLDS = {
    "benchmark": (dict(gamma=0.9 * max_discount(SCHED.epsilon, 0.05), seed=4), 2),
    # Deviating pays here, so the best plan beats the honest incumbent.
    "profitable": (dict(zeta=0.1, gamma=0.9 * max_discount(SCHED.epsilon, 0.1),
                        seed=56), 1),
    "gamma-at-cap": (dict(gamma=max_discount(SCHED.epsilon, 0.05), seed=4), 2),
}


@pytest.mark.parametrize("name", sorted(REPLAY_WORLDS))
def test_deviation_gap_equals_replay_at_benchmark_shape(name):
    overrides, expert = REPLAY_WORLDS[name]
    w = world(expertise=(0.9, 0.8, 0.7), horizon=6, **overrides)
    result = deviation_gap(w, SCHED, expert, 6)
    assert result == brute_force_gap(w, SCHED, expert, 6)
    assert (result.ratio > 1.0) == (name == "profitable")


@pytest.mark.parametrize("name", sorted(REPLAY_WORLDS))
def test_deviation_gap_walks_honest_play_without_the_trace(monkeypatch, name):
    # honest_total is the search's own total for the honest plan, so the
    # search never reads run's array payouts or discounted totals.
    overrides, expert = REPLAY_WORLDS[name]
    w = world(expertise=(0.9, 0.8, 0.7), horizon=6, **overrides)
    expected = deviation_gap(w, SCHED, expert, 6)

    def refuse(*args):
        raise AssertionError("the search read the trace's payouts")

    monkeypatch.setattr(repeated, "_payouts", refuse)
    monkeypatch.setattr(repeated, "discounted_total", refuse)
    assert deviation_gap(w, SCHED, expert, 6) == expected


def test_deviation_gap_prunes_alike_at_every_scale(monkeypatch):
    # Rewards scaled by 2^m scale every payout, total and bound exactly, and
    # the pruning margin is relative to the totals, so the search expands
    # the same states at every scale.
    scenario = cli.load_scenario(EXAMPLES / "deviation.json")
    w = cli._read_world(scenario.world)
    rounds = []
    expand = repeated._expand

    def recorded_expand(schedule, zeta, expert, states, *args):
        rounds.append(tuple(states))
        return expand(schedule, zeta, expert, states, *args)

    monkeypatch.setattr(repeated, "_expand", recorded_expand)
    for expert in range(3):
        seen = set()
        for m in (-40, 0, 40):
            rounds.clear()
            scale = 2.0 ** m
            result = deviation_gap(w, derive_schedule(0.9, 19.0, scale),
                                   expert, 12)
            seen.add((result.best_plan, result.best_total / scale, tuple(rounds)))
        assert len(seen) == 1
        if expert == 0:
            # Without pruning the search expands 1,860 states here.
            assert sum(map(len, rounds)) < 1860


@pytest.mark.parametrize("horizon, gamma", [(10, 0.5), (12, 0.0)])
def test_deviation_gap_answers_beyond_old_plan_cap(horizon, gamma):
    # 4^10 and 4^12 plans: far too many to replay, few distinct states.
    w = world(gamma=gamma, horizon=horizon)
    result = deviation_gap(w, SCHED, 0, horizon)
    assert result.plan_count == 4 ** horizon
    assert len(result.best_plan) == horizon
    replay = run_repeated(w, SCHED, SingleDeviatorPolicy(expert=0, plan=result.best_plan))
    assert replay.discounted_subjective[0] == result.best_total
    assert result.best_total >= result.honest_total


def two_round_expand(first):
    """A fake ``_expand`` for one expert and k = 1: both votes reach one
    state each round; round 1 pays ``first[v]`` for vote v and round 2
    pays 2.0 for vote 0 and 0.0 for vote 1."""
    def fake_expand(schedule, zeta, expert, states, votes, beliefs, qualities, vectors):
        values = (first, (2.0, 0.0))
        return [[(((0.5,), (0,), t + 1), values[t][v[0]]) for v in vectors]
                for t in (state[2] for state in states)]
    return fake_expand


def test_deviation_gap_keeps_the_larger_prefix_when_rounding_absorbs_the_gap(monkeypatch):
    # Both first-round votes reach one state, vote 1 by one ulp more, so
    # the state keeps vote 1's prefix alone.  The second round adds 1.0,
    # which absorbs that ulp: plans 0,0 and 1,0 both total 2.0, and the
    # plan through the kept prefix is reported.
    monkeypatch.setattr(repeated, "_expand",
                        two_round_expand((1.0, math.nextafter(1.0, 2.0))))
    w = world(expertise=(0.9,), proposals_per_round=1, gamma=0.5, horizon=2)
    result = deviation_gap(w, SCHED, 0, 2)
    assert result.best_total == 2.0
    assert result.best_plan == ((1,), (0,))


def test_deviation_gap_guard_counts_one_entry_per_state(monkeypatch):
    # At gamma 0.5, round 1's two totals reach one state, which keeps the
    # larger alone, however small the gap: 2 entries over 2 rounds pass a
    # guard of 2, for a gap of 2^-30 and for one of one ulp.
    w = world(expertise=(0.9,), proposals_per_round=1, gamma=0.5, horizon=2)
    monkeypatch.setattr(repeated, "STATE_GUARD", 2)
    for first, best_total in [((1.0, 1.0 + 2.0 ** -30), 2.0 + 2.0 ** -30),
                              ((1.0, math.nextafter(1.0, 2.0)), 2.0)]:
        monkeypatch.setattr(repeated, "_expand", two_round_expand(first))
        result = deviation_gap(w, SCHED, 0, 2)
        assert result.best_total == best_total
        assert result.best_plan == ((1,), (0,))


def test_deviation_gap_at_the_cap_agrees_with_replay():
    # At the discount cap several prefixes meet at one state before the
    # last round, where rounds are still left to add; the answer is still
    # the replay's.
    w = world(expertise=(0.9, 0.8, 0.7), gamma=max_discount(SCHED.epsilon, 0.05),
              horizon=4, seed=3)
    assert deviation_gap(w, SCHED, 0, 4) == brute_force_gap(w, SCHED, 0, 4)


def test_deviation_gap_guard(monkeypatch):
    # At gamma 0.9 pruning keeps several entries in some rounds (26 over 10
    # rounds), so a guard of 12 is passed in round 6.
    monkeypatch.setattr(repeated, "STATE_GUARD", 12)
    w = world(proposals_per_round=2, gamma=0.9, horizon=10)
    with pytest.raises(GuardRefusal, match="passed 12 kept entries in round 6 of 10"):
        deviation_gap(w, SCHED, 0, 10)


def test_deviation_gap_refuses_horizon_above_guard_before_sampling(monkeypatch):
    # Each round expands at least one state, so such a horizon cannot pass.
    def no_draws(world, horizon):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(repeated, "_presample", no_draws)
    with pytest.raises(GuardRefusal, match="expands at least one per round"):
        deviation_gap(world(), SCHED, 0, repeated.STATE_GUARD + 1)


@pytest.mark.parametrize("k, refused", [(16, False), (17, True)])
def test_deviation_gap_refuses_k_above_16_before_sampling(monkeypatch, k, refused):
    class Sampled(Exception):
        pass

    def refuse(*args):
        raise Sampled

    monkeypatch.setattr(repeated, "_presample", refuse)
    monkeypatch.setattr(repeated, "_vote_vectors", refuse)
    with pytest.raises(GuardRefusal if refused else Sampled):
        deviation_gap(world(proposals_per_round=k), SCHED, 0, 1)


def test_deviation_gap_guard_counts_states_over_all_rounds(monkeypatch):
    # Each expanded state steps its round once per vote vector, and the walk
    # of honest play steps each of the H rounds once more.  This world
    # expands more states than it has rounds, so a guard one short of them
    # is not refused up front.
    calls = []
    step = repeated._step
    monkeypatch.setattr(repeated, "_step", lambda *args: calls.append(1) or step(*args))
    w = world(proposals_per_round=2, gamma=0.9, horizon=10)
    answer = deviation_gap(w, SCHED, 0, 10)
    expanded = (len(calls) - 10) // 4
    monkeypatch.setattr(repeated, "_step", step)
    monkeypatch.setattr(repeated, "STATE_GUARD", expanded)
    assert deviation_gap(w, SCHED, 0, 10) == answer
    monkeypatch.setattr(repeated, "STATE_GUARD", expanded - 1)
    with pytest.raises(GuardRefusal, match="in round 10 of 10"):
        deviation_gap(w, SCHED, 0, 10)


def test_deviation_gap_rejects_gamma_above_cap():
    cap = max_discount(SCHED.epsilon, 0.05)
    w = world(gamma=min(0.99, cap + 0.01), horizon=2)
    with pytest.raises(ContractViolation):
        deviation_gap(w, SCHED, 0, 2)


def test_deviation_gap_profitable_case_stays_within_bound():
    gamma = 0.9 * max_discount(SCHED.epsilon, 0.1)
    w = world(expertise=(0.9, 0.8, 0.7), zeta=0.1, gamma=gamma, horizon=3, seed=56)
    result = deviation_gap(w, SCHED, 1, 3)
    assert result.ratio > 1.0
    tail = deviation_tail_bound(SCHED, w.zeta, gamma, 3)
    bound = (1.0 + 3.0 * SCHED.epsilon) * (1.0 + SCHED.delta)
    assert (result.best_total + tail) / result.honest_total <= bound


def test_tail_bound_covers_honest_play_when_a_prime_exceeds_a():
    # An explicit schedule may pay a' > a for a correct disapproval, so a
    # round is capped by max(a, a'), not by a.
    sched = RewardSchedule(a=1.0, a_prime=2.0, s=0.0, T=2.0 / 3.0, epsilon=0.5)
    scenario = cli.load_scenario(str(EXAMPLES / "deviation.json"))
    w = dataclasses.replace(cli._read_world(scenario.world), gamma=0.75, horizon=200)
    after = [row[0] for row in run_repeated(w, sched).subjective[8:]]
    tail = discounted_total([0.0] * 8 + after, w.gamma)
    assert tail <= deviation_tail_bound(sched, w.zeta, w.gamma, 8)


def test_geometric_bounds_on_dummy_free_world():
    # With certainly-good proposals and perfect experts every round reveals,
    # so the discounted honest total dominates the closed-form floor and any
    # single-deviator total stays under the growth-capped ceiling.
    w = world(expertise=(1.0, 1.0), good_prior=1.0, zeta=0.1, gamma=0.5,
              horizon=6, seed=5)
    trace = run_repeated(w, SCHED)
    assert trace.revealed_rounds == w.horizon
    floor_per_round = 0.5 * (1.0 - SCHED.T) * SCHED.a_prime
    lower = sum(floor_per_round * ((1.0 - w.zeta) * w.gamma) ** t
                for t in range(w.horizon))
    ceiling = sum(
        (1.0 + SCHED.delta) * 0.5 * SCHED.a * ((1.0 + w.zeta) * w.gamma) ** t
        for t in range(w.horizon)
    )
    for i in range(w.n):
        assert trace.discounted_subjective[i] >= lower - 1e-12
    import itertools
    vectors = tuple(itertools.product((0, 1), repeat=2))
    for plan in itertools.product(vectors, repeat=3):
        padded = plan + (((1, 1),) * 3)
        dev = run_repeated(w, SCHED, SingleDeviatorPolicy(expert=0, plan=padded))
        assert dev.discounted_subjective[0] <= ceiling + 1e-12


def test_deviator_playing_honest_plan_reproduces_honest_run():
    w = world(expertise=(0.9, 0.8), gamma=0.5, horizon=4, seed=19)
    honest_trace = tuple_form(run_repeated(w, SCHED))
    plan = tuple(honest_trace.votes[t][0] for t in range(w.horizon))
    mirrored = tuple_form(run_repeated(w, SCHED, SingleDeviatorPolicy(expert=0, plan=plan)))
    assert mirrored == honest_trace
    assert mirrored.discounted_subjective[0] == honest_trace.discounted_subjective[0]


# ---------------------------------------------------------------------------
# byte pins
# ---------------------------------------------------------------------------

# Recorded before the repeated game moved onto arrays.  The CLI's pinned
# outputs live in cli_golden.json.
PIN_DEVIATOR_SHA256 = "d6f05bb022c83052b36cb0334c600faa2e9e40ff2dde1938ebb0ea879a79b594"


def test_deviator_run_repr_pinned():
    w = world(expertise=(0.9, 0.8, 0.7), proposals_per_round=2, horizon=300, seed=8)
    plan = tuple(itertools.islice(itertools.cycle(((1, 1), (0, 1), (0, 0), (1, 0))), 120))
    trace = run_repeated(w, SCHED, SingleDeviatorPolicy(expert=1, plan=plan))
    # Every field, the vote rows first, as plain tuples.
    digest = hashlib.sha256(repr(dataclasses.astuple(tuple_form(trace))).encode()).hexdigest()
    assert digest == PIN_DEVIATOR_SHA256
