"""Acceptance suite: exact reproduction of the named finite instances plus
the seeded property suites, one criterion per test, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Two samplers make implicit hypotheses of the guarantees they exercise
explicit; both are deliberate:

* the honest-profile suite (criterion 4) redraws instances whose honest
  profile elects nobody, since a profile with zero utility for everyone
  admits no multiplicative guarantee;
* the anarchy-bound suite (criterion 5) draws beliefs outside the
  indifference band [s/(a+s), (a'+s)/(a+s)).  Inside that band a pivotal
  expert may admissibly withhold approval from the best proposal (see
  test_analysis.py::test_anarchy_bound_fails_for_marginally_attached_pivotal_expert),
  and the 2-approximation provably fails on such instances.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from avgov import (
    EquilibriumQuery,
    Instance,
    SingleDeviatorPolicy,
    VotingProfile,
    WorldConfig,
    best_response_dynamics,
    constructive_pne,
    derive_schedule,
    deviation_gap,
    deviation_tail_bound,
    enumerate_equilibria,
    honest_profile,
    is_approx_pne,
    max_discount,
    opt_quality,
    qual,
    run_repeated,
    safety_certificate,
    validate_schedule,
    winner,
)
from avgov.claims import prop3_scenario, prop4_scenario, thm6_scenario

SEMI0 = EquilibriumQuery(mode="semi", epsilon=0.0)
STRAT0 = EquilibriumQuery(mode="strategic", epsilon=0.0)

# (T, epsilon) pairs satisfying 1/(1+eps) < T <= eps/(1+eps).
BULLET_GRID = [(0.55, 1.5), (2.0 / 3.0, 3.0), (0.75, 4.0), (0.8, 9.0),
               (0.9, 19.0), (0.95, 39.0)]
# High-threshold subset used where the indifference band must stay narrow.
HIGH_T_GRID = [(0.8, 9.0), (0.9, 19.0), (0.95, 39.0)]


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_acceptance_1_no_equilibrium_instance_and_cycle():
    with criterion(1, "cycle instance: no semi equilibrium, 4-move cycle"):
        start_time = time.perf_counter()
        sc = prop4_scenario()
        assert sc.instance.weights == (0.49, 0.41, 0.10)
        report = enumerate_equilibria(sc.instance, sc.schedule, SEMI0)
        assert report.equilibria == ()
        honest = honest_profile(sc.instance, sc.schedule.T)
        trace = best_response_dynamics(sc.instance, sc.schedule, honest,
                                       "semi", 64)
        assert trace.terminal == "cycle"
        assert trace.cycle_length == 4
        moves = [(m.expert, m.old_votes, m.new_votes) for m in trace.path]
        assert moves == [
            (0, (1, 1), (0, 1)),   # expert 1 drops the first proposal
            (1, (1, 1), (1, 0)),   # expert 2 drops the second
            (0, (0, 1), (1, 1)),   # expert 1 must return to honesty
            (1, (1, 0), (1, 1)),   # expert 2 must return to honesty
        ]
        assert time.perf_counter() - start_time < 1.0


def test_acceptance_2_two_expert_anarchy_witness():
    with criterion(2, "two-expert witness: ratio 20/11, ->2 as slack->0"):
        sc = thm6_scenario(0.1)
        profile = VotingProfile(((0, 1), (1, 0)))
        assert is_approx_pne(sc.instance, sc.schedule, profile, SEMI0)
        outcome = winner(sc.instance, profile)
        quality = qual(sc.instance, sc.schedule.T, outcome.winner)
        best = opt_quality(sc.instance, sc.schedule.T)
        assert quality == pytest.approx(1.1, abs=1e-9)
        assert best[1] == pytest.approx(2.0, abs=1e-9)
        assert best[1] / quality == pytest.approx(20.0 / 11.0, abs=1e-9)

        tight = thm6_scenario(0.01)
        assert is_approx_pne(tight.instance, tight.schedule, profile, SEMI0)
        ratio = (opt_quality(tight.instance, tight.schedule.T)[1]
                 / qual(tight.instance, tight.schedule.T, 2))
        assert ratio > 1.98


def test_acceptance_3_constructive_equilibrium_scales_with_n():
    with criterion(3, "constructive equilibrium: ratio 1/(1/n + 0.01)"):
        expected_minimums = {3: 2.9, 4: 3.8, 5: 4.7}
        for n, minimum in expected_minimums.items():
            sc = prop3_scenario(n)
            profile = constructive_pne(sc.instance, sc.schedule)
            assert profile.votes[0] == (1, 0)
            assert all(row == (0, 0) for row in profile.votes[1:])
            assert is_approx_pne(sc.instance, sc.schedule, profile, STRAT0)
            outcome = winner(sc.instance, profile)
            quality = qual(sc.instance, sc.schedule.T, outcome.winner)
            best = opt_quality(sc.instance, sc.schedule.T)
            ratio = best[1] / quality
            assert ratio == pytest.approx(1.0 / (1.0 / n + 0.01), abs=1e-9)
            assert ratio >= minimum


def test_acceptance_4_honest_profile_approximation_suite():
    with criterion(4, "honest profile is a (1+eps)(1+0.1)-equilibrium, 1000x"):
        start_time = time.perf_counter()
        rng = np.random.default_rng(2024_04)
        failures = 0
        for _ in range(1000):
            T, eps = BULLET_GRID[rng.integers(len(BULLET_GRID))]
            schedule = derive_schedule(T, eps, 1.0, delta=0.1)
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            weights = rng.uniform(0.05, 1.0, n)
            while True:
                beliefs = rng.uniform(0.0, 1.0, (n, k))
                if np.any(beliefs >= T):
                    break  # the honest profile must elect a proposal
            external = rng.uniform(0.0, 1.0, (n, k)) * (
                0.1 * schedule.a * weights[:, None]
            )
            instance = Instance(
                weights=tuple(weights),
                beliefs=tuple(tuple(row) for row in beliefs),
                external=tuple(tuple(row) for row in external),
            )
            honest = honest_profile(instance, T)
            assert winner(instance, honest).winner != 0
            slack = (1.0 + eps) * 1.1 - 1.0
            query = EquilibriumQuery(mode="semi", epsilon=slack)
            if not is_approx_pne(instance, schedule, honest, query):
                failures += 1
        assert failures == 0
        assert time.perf_counter() - start_time < 30.0


def test_acceptance_5_anarchy_bound_suite():
    with criterion(5, "every semi equilibrium within factor 2 of OPT, 500x"):
        rng = np.random.default_rng(2024_05)
        checked = 0
        failures = 0
        while checked < 500:
            T, eps = HIGH_T_GRID[rng.integers(len(HIGH_T_GRID))]
            schedule = derive_schedule(T, eps, 1.0)
            lo = schedule.s / (schedule.a + schedule.s)
            hi = (schedule.a_prime + schedule.s) / (schedule.a + schedule.s)
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            weights = tuple(rng.uniform(0.05, 1.0, n))
            beliefs = rng.uniform(0.0, 1.0, (n, k))
            if np.any((beliefs >= lo) & (beliefs < hi)):
                continue  # keep clear of the pivotal-indifference band
            instance = Instance(weights=weights,
                                beliefs=tuple(tuple(row) for row in beliefs))
            assert safety_certificate(instance, schedule).eligible
            checked += 1
            report = enumerate_equilibria(
                instance, schedule,
                EquilibriumQuery(mode="semi", epsilon=schedule.epsilon),
            )
            for entry in report.equilibria:
                if entry.winner == 0:
                    continue
                if entry.winner_quality < report.opt[1] / 2.0 - 1e-9:
                    failures += 1
                    break
        assert failures == 0


def test_acceptance_6_schedule_identities():
    with criterion(6, "derive/validate identities on a 200+ point grid"):
        points = 0
        for T0, eps in BULLET_GRID:
            lo, hi = 1.0 / (eps + 1.0), eps / (eps + 1.0)
            for frac in np.linspace(0.05, 0.95, 12):
                T = lo + (hi - lo) * float(frac)
                for a_prime in (0.5, 1.0, 3.0):
                    diagnostics = validate_schedule(
                        derive_schedule(T, eps, a_prime)
                    )
                    assert diagnostics.threshold_identity_residual <= 1e-12
                    assert diagnostics.inflection_residual <= 1e-12
                    points += 1
        assert points >= 200

        schedule = derive_schedule(0.9, 19.0, 1.0)
        assert schedule.a == pytest.approx(2.0, abs=1e-12)
        assert schedule.s == pytest.approx(17.0, abs=1e-12)
        identity = (schedule.a_prime + schedule.s) / (
            schedule.a_prime + schedule.s + schedule.a
        )
        assert identity == pytest.approx(18.0 / 20.0, abs=1e-12)


def test_acceptance_7_reputation_weights_track_expertise():
    with criterion(7, "weights track expertise within 0.05, bracket exact"):
        world = WorldConfig(expertise=(0.9, 0.6), good_prior=0.5,
                            proposals_per_round=2, zeta=0.05, gamma=0.5,
                            horizon=2000, seed=7)
        schedule = derive_schedule(0.9, 19.0, 1.0)
        trace = run_repeated(world, schedule)
        for i, target in enumerate(world.expertise):
            assert abs(trace.weights[-1][i] - target) <= 0.05
        violations = 0
        for t in range(world.horizon):
            for i in range(world.n):
                before = trace.weights[t][i]
                after = trace.weights[t + 1][i]
                if not ((1.0 - world.zeta) * before <= after
                        <= (1.0 + world.zeta) * before):
                    violations += 1
        assert violations == 0


def test_acceptance_8_truncated_repeated_deviation_bound():
    with criterion(8, "single-deviator search within (1+3eps)(1+delta)"):
        start_time = time.perf_counter()
        schedule = derive_schedule(0.9, 19.0, 1.0)
        zeta = 0.1
        cap = max_discount(schedule.epsilon, zeta)
        gamma = 0.9 * cap
        horizon = 3
        bound = (1.0 + 3.0 * schedule.epsilon) * (1.0 + schedule.delta)
        tail = deviation_tail_bound(schedule, zeta, gamma, horizon)
        plans_total = 0
        for seed in (11, 56):
            world = WorldConfig(expertise=(0.9, 0.8, 0.7), good_prior=0.5,
                                proposals_per_round=2, zeta=zeta, gamma=gamma,
                                horizon=horizon, seed=seed)
            for expert in range(3):
                result = deviation_gap(world, schedule, expert, horizon)
                plans_total += result.plan_count
                assert result.plan_count <= 4096
                padded = (result.best_total + tail) / result.honest_total
                assert padded <= bound
        assert plans_total <= 4096

        # gamma = 0 collapses to the one-shot game and its tighter bound
        single_shot = (1.0 + schedule.epsilon) * (1.0 + schedule.delta)
        world0 = WorldConfig(expertise=(0.9, 0.8, 0.7), good_prior=0.5,
                             proposals_per_round=2, zeta=zeta, gamma=0.0,
                             horizon=horizon, seed=11)
        for expert in range(3):
            result = deviation_gap(world0, schedule, expert, horizon)
            assert result.ratio <= single_shot + 1e-9
        assert time.perf_counter() - start_time < 10.0


def test_acceptance_9_enumeration_agrees_with_membership_check():
    with criterion(9, "enumeration vs per-profile check, 50 instances"):
        rng = np.random.default_rng(2024_09)
        schedule = derive_schedule(0.9, 19.0, 1.0)
        for trial in range(50):
            n = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            instance = Instance(
                weights=tuple(rng.uniform(0.05, 1.0, n)),
                beliefs=tuple(tuple(row) for row in rng.uniform(0, 1, (n, k))),
            )
            query = EquilibriumQuery(
                mode="semi" if trial % 2 else "strategic",
                epsilon=0.0 if trial % 4 < 2 else schedule.epsilon,
            )
            report = enumerate_equilibria(instance, schedule, query)
            enumerated = {e.votes for e in report.equilibria}
            brute = set()
            for bits in range(1 << (n * k)):
                votes = tuple(
                    tuple((bits >> (i * k + j)) & 1 for j in range(k))
                    for i in range(n)
                )
                profile = VotingProfile(votes)
                if is_approx_pne(instance, schedule, profile, query):
                    brute.add(votes)
            assert enumerated == brute, (instance, query)
