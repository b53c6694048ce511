"""Best responses, admissibility, equilibrium checks and enumeration,
the constructive equilibrium, dynamics and the safety certificate."""

import hashlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from avgov import (
    ContractViolation,
    EquilibriumQuery,
    GuardRefusal,
    Instance,
    RewardSchedule,
    VotingProfile,
    best_response,
    best_response_dynamics,
    constructive_pne,
    derive_schedule,
    enumerate_equilibria,
    honest_profile,
    is_admissible,
    is_approx_pne,
    opt_quality,
    qual,
    safety_certificate,
    utility,
    winner,
)
from avgov import analysis
from avgov.claims import prop3_scenario, prop4_scenario, thm6_scenario
from avgov.core import TOL, _elect, _utility

SEMI0 = EquilibriumQuery(mode="semi", epsilon=0.0)
STRAT0 = EquilibriumQuery(mode="strategic", epsilon=0.0)


@pytest.fixture
def prop4():
    sc = prop4_scenario()
    return sc.instance, sc.schedule


@pytest.fixture
def thm6():
    sc = thm6_scenario(0.1)
    return sc.instance, sc.schedule


def random_instance(rng, n=None, k=None, max_n=4, max_k=3, externals=None):
    n = n or int(rng.integers(1, max_n + 1))
    k = k or int(rng.integers(1, max_k + 1))
    weights = tuple(rng.uniform(0.05, 1.0, n))
    beliefs = tuple(tuple(row) for row in rng.uniform(0.0, 1.0, (n, k)))
    external = None
    if externals is not None:
        external = tuple(
            tuple(rng.uniform(0.0, externals * weights[i]) for _ in range(k))
            for i in range(n)
        )
    return Instance(weights=weights, beliefs=beliefs, external=external)


# ---------------------------------------------------------------------------
# best_response
# ---------------------------------------------------------------------------


def test_best_response_prop4_expert1_drops_winner(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    assert best_response(instance, schedule, honest, 0, "semi") == ((0, 1),)


def test_best_response_thm6_nonpivotal_forced_honest(thm6):
    instance, schedule = thm6
    profile = VotingProfile(((0, 1), (1, 0)))
    # (0,0) ties on utility but leaves a loss-free dishonest coordinate
    assert best_response(instance, schedule, profile, 1, "semi") == ((1, 0),)
    strategic = best_response(instance, schedule, profile, 1, "strategic")
    assert set(strategic) == {(0, 0), (1, 0)}


def test_best_response_single_expert_approves_good_proposal():
    instance = Instance(weights=(1.0,), beliefs=((0.95,),))
    sched = derive_schedule(0.9, 19.0, 1.0)
    profile = VotingProfile(((0,),))
    for mode in ("semi", "strategic"):
        assert best_response(instance, sched, profile, 0, mode) == ((1,),)


def test_best_response_semi_when_no_strategic_optimum_is_admissible():
    # Expert 0 believes every proposal sits exactly at T, so her utility is
    # set by her external reward for the winner, and those differ by less
    # than a few TOL.  Each strategic optimum keeps a dishonest coordinate
    # whose flip costs her less than TOL, so none is admissible; her only
    # admissible vector, the honest one, is her semi best response.
    sched = derive_schedule(0.9, 19, 1)
    instance = Instance(
        weights=(1.0, 0.5),
        beliefs=((0.9, 0.9, 0.9),
                 (0.5052403477902054, 0.12035012637450515, 0.13378614402282085)),
        external=((0.9999999983333333, 0.9999999992222223, 0.9999999995555555),
                  (0, 0, 0)),
    )
    profile = VotingProfile(((1, 0, 1), (1, 1, 0)))
    assert best_response(instance, sched, profile, 0, "semi") == ((1, 1, 1),)
    assert best_response(instance, sched, profile, 0, "strategic") == \
        ((0, 0, 1), (0, 1, 0), (0, 1, 1))


@pytest.mark.parametrize("call", [
    lambda inst, sched, prof: best_response(inst, sched, prof, 0, "semi"),
    lambda inst, sched, prof: is_admissible(inst, sched, prof),
    lambda inst, sched, prof: is_approx_pne(inst, sched, prof, SEMI0),
    lambda inst, sched, prof: best_response_dynamics(inst, sched, prof, "semi", 4),
], ids=["best_response", "is_admissible", "is_approx_pne", "dynamics"])
def test_per_profile_route_rejects_a_profile_of_the_wrong_shape(call):
    instance = Instance(weights=(1.0,), beliefs=((0.95,),))
    with pytest.raises(ContractViolation):
        call(instance, derive_schedule(0.9, 19.0, 1.0), VotingProfile(((0, 1),)))


def test_analysis_checks_each_input_once(monkeypatch, prop4):
    # Public functions check their profile once, and everything below them
    # runs on plain vote rows: a VotingProfile is built only for an answer.
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    counts = {}
    check_dims, post_init = analysis._check_dims, VotingProfile.__post_init__

    def counting_check_dims(inst, profile):
        counts["dims"] += 1
        check_dims(inst, profile)

    def counting_post_init(self):
        counts["profiles"] += 1
        post_init(self)

    monkeypatch.setattr(analysis, "_check_dims", counting_check_dims)
    monkeypatch.setattr(VotingProfile, "__post_init__", counting_post_init)

    def counted(call):
        counts.update(dims=0, profiles=0)
        return call(), (counts["dims"], counts["profiles"])

    for call in (
        lambda: is_admissible(instance, schedule, honest),
        lambda: best_response(instance, schedule, honest, 0, "semi"),
        lambda: is_approx_pne(instance, schedule, honest, SEMI0),
    ):
        assert counted(call)[1] == (1, 0)
    trace, checks = counted(
        lambda: best_response_dynamics(instance, schedule, honest, "semi", 64)
    )
    assert len(trace.path) == 4 and checks == (1, 0)
    assert counted(lambda: constructive_pne(instance, schedule))[1] == (0, 1)
    report, checks = counted(lambda: enumerate_equilibria(
        instance, schedule, EquilibriumQuery("strategic", schedule.epsilon)
    ))
    assert report.equilibria and checks == (0, 0)


@pytest.mark.parametrize("call", [
    lambda i, s, p: best_response(i, s, p, 0, "greedy"),
    lambda i, s, p: best_response_dynamics(i, s, p, "greedy", 8),
    lambda i, s, p: EquilibriumQuery(mode="greedy"),
], ids=["best_response", "dynamics", "query"])
def test_unknown_mode_is_rejected(prop4, call):
    instance, schedule = prop4
    with pytest.raises(ContractViolation, match="mode must be one of"):
        call(instance, schedule, honest_profile(instance, 0.9))


@pytest.mark.parametrize("call", [
    lambda i, s, p: is_admissible(i, s, p),
    lambda i, s, p: best_response(i, s, p, 0, "semi"),
    lambda i, s, p: is_approx_pne(i, s, p, SEMI0),
    lambda i, s, p: best_response_dynamics(i, s, p, "semi", 8),
], ids=["is_admissible", "best_response", "is_approx_pne", "dynamics"])
@pytest.mark.parametrize("k, refused", [(16, False), (17, True)])
def test_vote_vector_searches_refuse_k_above_16(monkeypatch, call, k, refused):
    class Listed(Exception):
        pass

    def no_vectors(k):
        raise Listed

    monkeypatch.setattr(analysis, "_vote_vectors", no_vectors)
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0, 1.0), beliefs=((0.5,) * k,) * 2)
    with pytest.raises(GuardRefusal if refused else Listed):
        call(instance, sched, VotingProfile.zeros(2, k))


@pytest.mark.parametrize("expert", [-1, 3])
def test_best_response_rejects_expert_out_of_range(prop4, expert):
    instance, schedule = prop4
    with pytest.raises(ContractViolation, match=rf"expert_i = {expert} outside \[0, 2\]"):
        best_response(instance, schedule, honest_profile(instance, 0.9), expert, "semi")


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda i, s, p: best_response(i, s, p, True, "semi"),
                 "expert_i = True is not an integer", id="best-response-expert-bool"),
    pytest.param(lambda i, s, p: best_response(i, s, p, 1.5, "semi"),
                 "expert_i = 1.5 is not an integer", id="best-response-expert-fractional"),
    pytest.param(lambda i, s, p: best_response_dynamics(i, s, p, "semi", True),
                 "max_steps = True is not an integer", id="dynamics-steps-bool"),
    pytest.param(lambda i, s, p: best_response_dynamics(i, s, p, "semi", 2.5),
                 "max_steps = 2.5 is not an integer", id="dynamics-steps-fractional"),
    pytest.param(lambda i, s, p: best_response_dynamics(i, s, p, "semi", 0),
                 r"^max_steps = 0 outside \[1, inf\)$", id="dynamics-steps-0"),
])
def test_input_checks_raise(prop4, call, match):
    instance, schedule = prop4
    with pytest.raises(ContractViolation, match=match):
        call(instance, schedule, honest_profile(instance, schedule.T))


def test_integral_expert_and_steps_are_ints(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    assert best_response(instance, schedule, honest, 1.0, "semi") == \
        best_response(instance, schedule, honest, 1, "semi")
    assert best_response_dynamics(instance, schedule, honest, "semi", 2.0) == \
        best_response_dynamics(instance, schedule, honest, "semi", 2)


# ---------------------------------------------------------------------------
# is_admissible
# ---------------------------------------------------------------------------


def test_admissible_thm6_justified_lie(thm6):
    instance, schedule = thm6
    # Expert 0 rejects proposal 1 although p = T; flipping back would elect
    # proposal 1 and drop her utility from 2.0 to 0.1.
    profile = VotingProfile(((0, 1), (1, 0)))
    assert is_admissible(instance, schedule, profile) == (True, True)


def test_admissible_honest_profile_everywhere():
    rng = np.random.default_rng(3)
    sched = derive_schedule(0.9, 19.0, 1.0)
    for _ in range(50):
        instance = random_instance(rng)
        honest = honest_profile(instance, sched.T)
        assert all(is_admissible(instance, sched, honest))


def test_admissible_prop4_pointless_lie_rejected(prop4):
    instance, schedule = prop4
    # After expert 1 counter-moves, expert 0's withheld approval no longer
    # changes the winner, so the lie stops being justified.
    profile = VotingProfile(((0, 1), (1, 0), (1, 0)))
    assert is_admissible(instance, schedule, profile) == (False, True, True)


def _admissible_by_definition(instance, schedule, profile, i):
    honest = honest_profile(instance, schedule.T).votes[i]
    base = utility(instance, schedule, profile, i)
    return all(
        utility(instance, schedule, profile.flip(i, j + 1), i) < base - TOL
        for j in range(instance.k) if profile.votes[i][j] != honest[j]
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_semi_best_response_is_admissible_on_near_ties(data):
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = data.draw(tie_prone_instances(
        pool=(0.0, 0.5, sched.T, 0.95, 1.0),
        near_tie_external=data.draw(st.booleans()),
    ))
    row = st.tuples(*[st.integers(0, 1)] * instance.k)
    profile = VotingProfile(data.draw(st.tuples(*[row] * instance.n)))
    assert is_admissible(instance, sched, profile) == tuple(
        _admissible_by_definition(instance, sched, profile, i)
        for i in range(instance.n)
    )
    for i in range(instance.n):
        response = best_response(instance, sched, profile, i, "semi")
        assert response
        for vec in response:
            assert _admissible_by_definition(
                instance, sched, profile.replace_row(i, vec), i
            )


# ---------------------------------------------------------------------------
# is_approx_pne
# ---------------------------------------------------------------------------


def test_pne_thm6_profile(thm6):
    instance, schedule = thm6
    profile = VotingProfile(((0, 1), (1, 0)))
    assert is_approx_pne(instance, schedule, profile, SEMI0)


def test_pne_prop4_honest_fails(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    assert not is_approx_pne(instance, schedule, honest, SEMI0)


def test_pne_honest_when_nobody_pivotal():
    # One heavy expert fixes the winner whatever anyone else does.
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(
        weights=(10.0, 1.0, 1.0),
        beliefs=((1.0, 0.2), (0.95, 0.3), (0.1, 0.97)),
    )
    honest = honest_profile(instance, sched.T)
    for query in (SEMI0, STRAT0):
        assert is_approx_pne(instance, sched, honest, query)


def test_pne_epsilon_widens_the_set(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    # expert 0's best deviation roughly doubles her utility, so slack above
    # that ratio admits the honest profile in strategic mode
    assert not is_approx_pne(instance, schedule, honest,
                             EquilibriumQuery("strategic", 0.5))
    assert is_approx_pne(instance, schedule, honest,
                         EquilibriumQuery("strategic", 1.0))


# ---------------------------------------------------------------------------
# enumerate_equilibria
# ---------------------------------------------------------------------------


def test_enumerate_prop4_semi_empty(prop4):
    instance, schedule = prop4
    report = enumerate_equilibria(instance, schedule, SEMI0)
    assert report.equilibria == ()
    assert report.poa is None and report.pos is None
    assert report.opt == (1, pytest.approx(1.0))


def test_enumerate_prop3_contains_constructive():
    sc = prop3_scenario(4)
    report = enumerate_equilibria(sc.instance, sc.schedule, STRAT0)
    built = constructive_pne(sc.instance, sc.schedule)
    assert any(e.votes == built.votes for e in report.equilibria)
    assert report.poa == pytest.approx(1.0 / 0.26)
    assert report.pos == pytest.approx(1.0)


def test_enumerate_single_cell():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0,), beliefs=((0.95,),))
    for query in (SEMI0, STRAT0):
        report = enumerate_equilibria(instance, sched, query)
        assert [e.votes for e in report.equilibria] == [((1,),)]
        assert report.poa == pytest.approx(1.0)
        assert report.pos == pytest.approx(1.0)


def test_enumerate_guard():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(
        weights=(1.0,) * 13, beliefs=tuple((0.5, 0.5) for _ in range(13))
    )
    with pytest.raises(GuardRefusal):
        enumerate_equilibria(instance, sched, SEMI0)


@pytest.mark.parametrize("n, k, refused", [(2, 12, True), (2, 11, True), (1, 17, True),
                                            (1, 16, False), (3, 8, False)])
def test_enumerate_refuses_wide_rows_before_sweeping(n, k, refused):
    # (n+1)*k above 32 is refused before any sweep; 32 itself is swept.
    class Swept(Exception):
        pass

    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0,) * n, beliefs=((0.5,) * k,) * n)
    with mock.patch.object(analysis, "_first_blocks", side_effect=Swept), \
            mock.patch.object(analysis, "_row_checks", side_effect=Swept), \
            pytest.raises(GuardRefusal if refused else Swept):
        enumerate_equilibria(instance, sched, SEMI0)


def test_enumerate_epsilon_monotone():
    rng = np.random.default_rng(11)
    sched = derive_schedule(0.9, 19.0, 1.0)
    for _ in range(10):
        instance = random_instance(rng, max_n=3, max_k=2)
        previous = None
        for eps in (0.0, 0.5, 19.0):
            report = enumerate_equilibria(
                instance, sched, EquilibriumQuery("semi", eps)
            )
            profiles = {e.votes for e in report.equilibria}
            if previous is not None:
                assert previous <= profiles
            previous = profiles


def _assert_entries_match_public(instance, schedule, report):
    # Each entry's winner and quality are what the public winner and qual
    # give on its vote rows, down to the repr, and poa/pos divide
    # opt_quality by the worst/best of those qualities.
    qualities = []
    for e in report.equilibria:
        j = winner(instance, VotingProfile(e.votes)).winner
        qualities.append(qual(instance, schedule.T, j))
        assert (e.winner, repr(e.winner_quality)) == (j, repr(qualities[-1]))
    expected = [None, None]
    if qualities:
        opt = opt_quality(instance, schedule.T)[1]
        expected = [opt / q if q > 0 else math.inf for q in (min(qualities), max(qualities))]
    assert [report.poa, report.pos] == expected


# Expert 2's side payment makes her elect proposal 1, which nobody believes
# in at or above T = 0.9, so every equilibrium's winner quality is 0.0 with
# no approving mass.
UNAPPROVED_WINNER = Instance(
    weights=(0.31, 0.59, 0.43),
    beliefs=((0.72, 0.74), (0.35, 0.31), (0.89, 0.48)),
    external=((0.0, 1.09), (0.0, 0.0), (2.99, 0.0)),
)


def test_enumerate_matches_per_profile_check():
    # Independent-route cross-check on small instances, both modes.
    rng = np.random.default_rng(5)
    sched = derive_schedule(0.9, 19.0, 1.0)
    cases = [
        (random_instance(rng, max_n=3, max_k=2), EquilibriumQuery(
            mode="semi" if trial % 2 else "strategic",
            epsilon=0.0 if trial < 3 else sched.epsilon,
        ))
        for trial in range(6)
    ]
    cases += [(UNAPPROVED_WINNER, EquilibriumQuery(mode, eps))
              for mode in analysis.MODES for eps in (0.0, sched.epsilon)]
    qualities = set()
    for instance, query in cases:
        report = enumerate_equilibria(instance, sched, query)
        _assert_entries_match_public(instance, sched, report)
        qualities |= {repr(e.winner_quality) for e in report.equilibria}
        assert {e.votes for e in report.equilibria} == \
            _brute_force_equilibria(instance, sched, query)
    assert "0.0" in qualities


def _brute_force_equilibria(instance, schedule, query):
    n, k = instance.n, instance.k
    found = set()
    for bits in range(1 << (n * k)):
        votes = tuple(
            tuple((bits >> (i * k + j)) & 1 for j in range(k)) for i in range(n)
        )
        if is_approx_pne(instance, schedule, VotingProfile(votes), query):
            found.add(votes)
    return found


def test_enumerate_breaks_deviation_ties_like_winner():
    # Expert 1's deviation to 00 leaves both proposals with expert 0's
    # weight alone; core.winner elects proposal 1 on that tie, which lifts
    # her utility from 0.48 to 1.0, so 11|01 is no equilibrium.
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(0.1, 0.2), beliefs=((0.5, 0.95), (0.0, 0.92)))
    profile = VotingProfile(((1, 1), (0, 1)))
    assert not is_approx_pne(instance, sched, profile, STRAT0)
    report = enumerate_equilibria(instance, sched, STRAT0)
    assert profile.votes not in {e.votes for e in report.equilibria}
    assert {e.votes for e in report.equilibria} == \
        _brute_force_equilibria(instance, sched, STRAT0)


@st.composite
def tie_prone_instances(draw, pool=(0.0, 0.5, 0.92, 0.95, 1.0), near_tie_external=False):
    # Weights from a small set of decimals make many float-sum ties.  Near-tie
    # external rewards differ across proposals by up to a few TOL.
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 9 // n if n > 1 else 3))
    weights = tuple(draw(st.sampled_from((0.1, 0.2, 0.3, 0.5))) for _ in range(n))
    belief = st.one_of(st.sampled_from(pool), st.floats(0.0, 1.0))
    beliefs = tuple(tuple(draw(belief) for _ in range(k)) for _ in range(n))
    external = None
    if near_tie_external:
        gap = st.sampled_from((0.0, 0.5, 1.0, 1.5, 2.0, 2.5))
        external = tuple(tuple(w * (1.0 - draw(gap) * TOL) for _ in range(k))
                         for w in weights)
    return Instance(weights=weights, beliefs=beliefs, external=external)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_utility_table_equals_public_utility(data):
    # The table splices vote rows into the unchecked kernel; every entry must
    # equal core.utility on a validated profile, bit for bit.
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = data.draw(tie_prone_instances(
        near_tie_external=data.draw(st.booleans()),
    ))
    row = st.tuples(*[st.integers(0, 1)] * instance.k)
    profile = VotingProfile(data.draw(st.tuples(*[row] * instance.n)))
    for i in range(instance.n):
        table = analysis._responses(instance, sched, profile.votes, i)
        expected = [
            (vec, utility(instance, sched, profile.replace_row(i, vec), i).hex())
            for vec in itertools.product((0, 1), repeat=instance.k)
        ]
        assert [(vec, u.hex()) for vec, u in table.items()] == expected


@settings(derandomize=True, max_examples=40, deadline=None)
@given(tie_prone_instances())
def test_enumerate_equals_per_profile_check_on_ties(instance):
    sched = derive_schedule(0.9, 19.0, 1.0)
    for mode in ("strategic", "semi"):
        for eps in (0.0, sched.epsilon):
            query = EquilibriumQuery(mode, eps)
            report = enumerate_equilibria(instance, sched, query)
            _assert_entries_match_public(instance, sched, report)
            assert {e.votes for e in report.equilibria} == \
                _brute_force_equilibria(instance, sched, query)


@pytest.mark.parametrize("block_bits", [0, 1, 3])
def test_enumerate_does_not_depend_on_block_size(monkeypatch, block_bits):
    rng = np.random.default_rng(17)
    sched = derive_schedule(0.9, 19.0, 1.0)
    cases = [(random_instance(rng, n=n, k=k), query)
             for n, k in ((4, 2), (3, 3), (5, 1))
             for query in (SEMI0, STRAT0, EquilibriumQuery("semi", sched.epsilon))]
    expected = [enumerate_equilibria(inst, sched, query) for inst, query in cases]
    monkeypatch.setattr(analysis, "_BLOCK_BITS", block_bits)
    assert [enumerate_equilibria(inst, sched, query)
            for inst, query in cases] == expected


@pytest.mark.parametrize("block_bits", [analysis._BLOCK_BITS, 4])
@pytest.mark.parametrize("mode", analysis.MODES)
def test_enumerate_sweeps_only_rows_with_a_live_profile(monkeypatch, mode, block_bits):
    # Replays each sweep's verdicts on the set of live profile indices.
    # Sweep 0 gets every context in order, in blocks of 2^B rows with
    # B = clip(block_bits - k, 0, (n-1)*k).  A later sweep must get exactly
    # the contexts that still hold a live profile, each once and in
    # ascending order, in full blocks but its last one; so a sweep with
    # none makes no call.
    calls = []
    first_blocks, row_masses, row_checks = (
        analysis._first_blocks, analysis._row_masses, analysis._row_checks)

    def first(w, k):
        for start, low, high in first_blocks(w, k):
            calls.append([0, list(range(start, start + low.shape[1]))])
            yield start, low, high

    def masses(i, ctx, *args):
        calls.append([i, ctx.tolist()])
        return row_masses(i, ctx, *args)

    def checks(*args):
        ok = row_checks(*args)
        calls[-1].append(ok)
        return ok

    monkeypatch.setattr(analysis, "_first_blocks", first)
    monkeypatch.setattr(analysis, "_row_masses", masses)
    monkeypatch.setattr(analysis, "_row_checks", checks)
    monkeypatch.setattr(analysis, "_BLOCK_BITS", block_bits)
    rng = np.random.default_rng(23)
    sched = derive_schedule(0.9, 19.0, 1.0)
    cases = [(random_instance(rng, n=n, k=k), eps)
             for n, k in ((6, 2), (4, 3), (3, 4)) for eps in (0.0, sched.epsilon)]
    # Proposition 4's experts and three light bystanders: in semi mode no
    # profile survives the sweep of expert 3, so sweeps 4 and 5 have none.
    bystanders = Instance(weights=(0.49, 0.41, 0.10) + (0.01,) * 3,
                          beliefs=((0.95, 1.0), (1.0, 0.95), (1.0, 0.0)) + ((0.5, 0.2),) * 3)
    cases.append((bystanders, 0.0))
    emptied = 0
    for instance, eps in cases:
        n, k = instance.n, instance.k
        block = max(1, (1 << block_bits) >> k)
        first_rows = 1 << min(max(block_bits - k, 0), (n - 1) * k)
        calls.clear()
        report = enumerate_equilibria(instance, sched, EquilibriumQuery(mode, eps))
        alive = set(range(1 << (n * k)))
        for i in range(n):
            # A profile's index is its context with i's k bits at bit i*k.
            below, at = (1 << (i * k)) - 1, i * k
            sweep = [call for call in calls if call[0] == i]
            contexts = [ctx for _, rows, _ in sweep for ctx in rows]
            if i == 0:
                assert contexts == list(range(1 << ((n - 1) * k)))
                assert all(len(rows) == first_rows for _, rows, _ in sweep)
            else:
                assert len(contexts) <= len(alive)
                assert contexts == sorted({(idx & below) | ((idx >> (at + k)) << at)
                                           for idx in alive})
                assert all(len(rows) == block for _, rows, _ in sweep[:-1])
                assert all(0 < len(rows) <= block for _, rows, _ in sweep)
            for _, rows, ok in sweep:
                alive -= {(ctx & below) | (d << at) | ((ctx >> at) << (at + k))
                          for col, ctx in enumerate(rows)
                          for d in range(1 << k) if not ok[d, col]}
            emptied += not alive and i < n - 1
        assert alive == {
            sum(v << (e * k + j) for e, row in enumerate(entry.votes)
                for j, v in enumerate(row))
            for entry in report.equilibria
        }
    if mode == "semi":
        assert emptied


# Weights whose left-to-right sums round: zeros, subnormals, values near
# 1e300 and decimals, drawn from a small pool so that values repeat.
_odd_weights = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 0.1, 0.2, 0.3, 1.0 / 3, 1.0, 1e300, 9.999e299]),
    st.floats(min_value=0.0, max_value=1e300),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_first_sweep_masses_equal_decode_and_elect(data):
    # Sweep 0's masses come from prefix tables; they must be the floats the
    # per-row decode and core._elect sum, bit for bit, at every block size.
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    block_bits = data.draw(st.sampled_from([0, 1, 3, analysis._BLOCK_BITS]))
    bits = (n - 1) * k
    size = min(max(block_bits - k, 0), bits)
    # Keep the number of blocks small enough to walk them all.
    assume(bits - size <= 10)
    pool = data.draw(st.lists(_odd_weights, min_size=1, max_size=3))
    weights = tuple(data.draw(st.lists(st.one_of(st.sampled_from(pool), _odd_weights),
                                       min_size=n, max_size=n)))
    w = np.asarray(weights)
    starts = []
    with mock.patch.object(analysis, "_BLOCK_BITS", block_bits):
        for start, low, high in analysis._first_blocks(w, k):
            starts.append(start)
            assert low.shape == high.shape == (k, 1 << size)
            ctx = np.arange(start, start + (1 << size))
            decoded = analysis._row_masses(0, ctx, w, k)
            for got, want in zip((low, high), decoded):
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            for r in {0, (1 << size) // 2, (1 << size) - 1}:
                rest = tuple(tuple((int(ctx[r]) >> (e * k + j)) & 1 for j in range(k))
                             for e in range(n - 1))
                for own, got in ((0, low), (1, high)):
                    masses = _elect(weights, ((own,) * k,) + rest)[1]
                    assert [m.hex() for m in masses] == [float(x).hex() for x in got[:, r]]
    assert starts == list(range(0, 1 << bits, 1 << size))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.data())
def test_block_utilities_equal_utility_on_decoded_rows(data):
    # Each own vector's utilities are written by masked copies, proposal by
    # proposal.  On blocks from both mass sources every entry must be
    # core._utility on the decoded vote rows, bit for bit: zero weights make
    # dummy rows, and weights repeated from a small pool make exact mass ties.
    k = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(1, 1 + 8 // k))
    i = data.draw(st.integers(0, n - 1))
    pool = data.draw(st.lists(_odd_weights, min_size=1, max_size=3))
    weights = tuple(data.draw(st.lists(st.one_of(st.sampled_from(pool), _odd_weights),
                                       min_size=n, max_size=n)))
    belief = st.floats(0.0, 1.0)
    instance = Instance(weights=weights, beliefs=tuple(
        tuple(data.draw(belief) for _ in range(k)) for _ in range(n)))
    sched = derive_schedule(0.9, 19.0, 1.0)
    w, bits = np.asarray(weights), (n - 1) * k
    table = analysis._utilities_for(np.asarray(instance.beliefs[i]), np.zeros(k), sched)
    if i == 0:
        block_bits = data.draw(st.sampled_from([0, 3, analysis._BLOCK_BITS]))
        with mock.patch.object(analysis, "_BLOCK_BITS", block_bits):
            blocks = [(np.arange(start, start + low.shape[1]), low, high)
                      for start, low, high in analysis._first_blocks(w, k)]
    else:
        ctx = np.arange(1 << bits)
        blocks = [(ctx, *analysis._row_masses(i, ctx, w, k))]
    for ctx, low, high in blocks:
        u = analysis._block_utilities(low, high, table)
        assert u.shape == (1 << k, len(ctx))
        for r, c in enumerate(ctx.tolist()):
            others = [tuple((c >> (e * k + j)) & 1 for j in range(k)) for e in range(n - 1)]
            for d in range(1 << k):
                votes = tuple(others[:i] + [tuple((d >> j) & 1 for j in range(k))] + others[i:])
                assert float(u[d, r]).hex() == _utility(instance, sched, votes, i).hex()


def test_enumerate_prop3_ties_pinned():
    # Proposition 3's n identical weights make exact mass ties on every
    # split of the crowd; count and sha256 of repr(report) recorded before
    # the first sweep read its masses from prefix tables.
    sc = prop3_scenario(9)
    report = enumerate_equilibria(sc.instance, sc.schedule, STRAT0)
    assert len(report.equilibria) == 1005
    assert hashlib.sha256(repr(report).encode()).hexdigest() == \
        "3ec5540d38a905bc73f175fd5ea9aebc9b53fd484538a17064b76d3ccdd8a5c5"


# sha256 of repr(enumerate_equilibria(...)) on 20-bit instances.  The
# digests first recorded, before the enumerator swept only live rows, were
# of entries that held a VotingProfile; these are the sha256 of those same
# reports with every `profile=VotingProfile(votes=X)` written `votes=X`.
# 2^20 profiles span several row blocks at the default block size.  The
# 21-bit (7, 3) digests, recorded before the sweeps' live marks and utility
# rows were reworked, pin k = 3 as well.
PIN_20BIT_SHA256 = {
    (10, 2, "semi", 0.0): "6d33d230c5301c45f56190dd67a303e65dfcc9d5a452e01ea52811e8ea34a15b",
    (10, 2, "semi", 19.0): "ae56c13e01d8edafc1d8023cf7f47022eb33a3593352897ebf0cb276cfcadc76",
    (10, 2, "strategic", 0.0): "5e9c7b3ae9af48b3b24cfcb9a85bf2d84e6cfc6fde4aef50da493f9737641b4f",
    (10, 2, "strategic", 19.0): "b8e5274af06002e225b3d9abcfd8668986a8b316ad6fd00711aa881fb3b254e8",
    (5, 4, "semi", 0.0): "c272afcaa96cef7f4f7ee897d04a7dda66999631c629f2a0c0bd45a5b2fbbc7c",
    (5, 4, "semi", 19.0): "c7c26f20ce7719a7a05a020fc41c1be75ffcc3937db4ccf594b80dcfff4b81c3",
    (5, 4, "strategic", 0.0): "181405ab5328a5581fac3ef3d3ae80bfa6b6cc3c0c59e5952dae37fdd480bce5",
    (5, 4, "strategic", 19.0): "7a5dcaa38e8668c1b2fd35dbc18416784485693c74650319b922d01cc9c0120d",
    (7, 3, "semi", 0.0): "8ac5bb29e58a0b0e050632a988fba34e07cbf0b6931f865f28b1a340c7844dbd",
    (7, 3, "semi", 19.0): "fbdece300f134164b7385d1528645803ee43e0dd5e9e08f247783bde55503840",
    (7, 3, "strategic", 0.0): "9d7fb504b187b671c6a8b0d53486e531992a8f60ebf80beae896a86c7cc62dab",
    (7, 3, "strategic", 19.0): "e667dee386ba1aa70f96fb21cf0890c1580b3d20bcdc16669c447cac4559f21b",
}


@pytest.mark.parametrize("n,k,seed", [(10, 2, 20), (5, 4, 21), (7, 3, 22)])
def test_enumerate_20_bit_reports_pinned(n, k, seed):
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = random_instance(np.random.default_rng(seed), n=n, k=k)
    for mode in ("semi", "strategic"):
        for eps in (0.0, sched.epsilon):
            report = enumerate_equilibria(instance, sched, EquilibriumQuery(mode, eps))
            digest = hashlib.sha256(repr(report).encode()).hexdigest()
            assert digest == PIN_20BIT_SHA256[n, k, mode, eps]


def test_enumerate_infinite_ratio_for_zero_quality_winner():
    # With generous slack a lone approver can sustain a winner whose belief
    # sits just under the threshold, so its estimated quality is zero while
    # a quality-5 proposal loses; the anarchy ratio degenerates to infinity.
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0, 5.0), beliefs=((0.897, 0.0), (0.0, 1.0)))
    report = enumerate_equilibria(instance, sched,
                                  EquilibriumQuery("strategic", 19.0))
    target = ((1, 0), (0, 0))
    entry = next(e for e in report.equilibria if e.votes == target)
    assert entry.winner == 1
    assert entry.winner_quality == 0.0
    assert report.opt == (2, pytest.approx(5.0))
    assert report.poa == math.inf


# ---------------------------------------------------------------------------
# constructive_pne
# ---------------------------------------------------------------------------


def test_constructive_prop3():
    sc = prop3_scenario(4)
    profile = constructive_pne(sc.instance, sc.schedule)
    assert profile.votes[0] == (1, 0)
    assert all(row == (0, 0) for row in profile.votes[1:])


def test_constructive_all_pessimists_vote_nothing():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0, 2.0), beliefs=((0.0, 0.0), (0.0, 0.0)))
    profile = constructive_pne(instance, sched)
    assert profile.votes == ((0, 0), (0, 0))
    assert is_approx_pne(instance, sched, profile, STRAT0)


def test_constructive_picks_higher_utility_proposal():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0,), beliefs=((0.95, 1.0),))
    profile = constructive_pne(instance, sched)
    assert profile.votes == ((0, 1),)


def test_constructive_pne_under_its_hypothesis():
    """The single-approver construction is an exact equilibrium whenever no
    other expert believes in the constructed winner above the threshold
    (otherwise that expert gains by approving the fixed winner, which the
    construction's winner-change argument does not cover).  The all-no case
    needs no hypothesis.
    """
    from avgov.core import winner as select

    rng = np.random.default_rng(17)
    sched = derive_schedule(0.9, 19.0, 1.0)
    checked = 0
    for _ in range(300):
        instance = random_instance(rng, externals=0.1 * sched.a)
        profile = constructive_pne(instance, sched)
        outcome = select(instance, profile)
        if outcome.winner == 0:
            assert is_approx_pne(instance, sched, profile, STRAT0)
            checked += 1
            continue
        i_star = next(i for i in range(instance.n) if any(profile.votes[i]))
        others_detached = all(
            instance.beliefs[i][outcome.winner - 1] <= sched.T
            for i in range(instance.n) if i != i_star
        )
        if others_detached:
            assert is_approx_pne(instance, sched, profile, STRAT0), instance
            checked += 1
    assert checked >= 100


def test_constructive_pne_gap_when_another_expert_likes_the_winner():
    # Exhibit of the hypothesis above: the lighter expert believes in the
    # constructed winner and profits from approving it.
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0, 0.5), beliefs=((0.95, 0.0), (0.96, 0.0)))
    profile = constructive_pne(instance, sched)
    assert profile.votes == ((1, 0), (0, 0))
    assert not is_approx_pne(instance, sched, profile, STRAT0)
    improved = profile.replace_row(1, (1, 0))
    assert utility(instance, sched, improved, 1) > utility(instance, sched, profile, 1)


# ---------------------------------------------------------------------------
# best_response_dynamics
# ---------------------------------------------------------------------------


def test_dynamics_prop4_cycle(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    trace = best_response_dynamics(instance, schedule, honest, "semi", 64)
    assert trace.terminal == "cycle"
    assert trace.cycle_length == 4
    moves = [(m.expert, m.new_votes) for m in trace.path]
    assert moves == [(0, (0, 1)), (1, (1, 0)), (0, (1, 1)), (1, (1, 1))]
    winners = [m.winner for m in trace.path]
    assert winners == [2, 1, 1, 1]


def test_dynamics_fixed_point_at_pne(thm6):
    instance, schedule = thm6
    pne = VotingProfile(((0, 1), (1, 0)))
    trace = best_response_dynamics(instance, schedule, pne, "semi", 64)
    assert trace.terminal == "fixed_point"
    assert trace.path == ()


def test_dynamics_thm6_one_move_to_rest(thm6):
    instance, schedule = thm6
    honest = honest_profile(instance, schedule.T)
    trace = best_response_dynamics(instance, schedule, honest, "semi", 64)
    assert trace.terminal == "fixed_point"
    assert len(trace.path) == 1
    assert trace.path[0].expert == 0
    assert trace.path[0].new_votes == (0, 1)


def test_dynamics_consecutive_states_differ_in_one_expert(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    trace = best_response_dynamics(instance, schedule, honest, "semi", 64)
    for move in trace.path:
        assert move.old_votes != move.new_votes


def test_dynamics_step_limit(prop4):
    instance, schedule = prop4
    honest = honest_profile(instance, schedule.T)
    trace = best_response_dynamics(instance, schedule, honest, "semi", 2)
    assert trace.terminal == "step_limit"
    assert len(trace.path) == 2


def test_dynamics_rejects_bad_steps(prop4):
    instance, schedule = prop4
    with pytest.raises(ContractViolation):
        best_response_dynamics(instance, schedule,
                               honest_profile(instance, 0.9), "semi", 0)


# ---------------------------------------------------------------------------
# safety_certificate
# ---------------------------------------------------------------------------


def test_certificate_unbribed_instances_fully_safe_below_threshold():
    rng = np.random.default_rng(23)
    sched = derive_schedule(0.9, 19.0, 1.0)
    for _ in range(20):
        instance = random_instance(rng)
        cert = safety_certificate(instance, sched)
        assert cert.eligible
        for i in range(instance.n):
            for j in range(instance.k):
                expected = instance.beliefs[i][j] < sched.T
                assert cert.safe[i][j] == expected


def test_certificate_flags_bribed_cell():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(
        weights=(1.0,), beliefs=((0.85,),), external=((2.0,),)
    )
    cert = safety_certificate(instance, sched)
    assert cert.safe == ((False,),)
    assert not cert.eligible


def test_certificate_zero_belief_always_safe():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0,), beliefs=((0.0,),), external=((100.0,),))
    cert = safety_certificate(instance, sched)
    assert cert.safe == ((True,),)


# ---------------------------------------------------------------------------
# Boundary of the anarchy bound
# ---------------------------------------------------------------------------


def test_anarchy_bound_fails_for_marginally_attached_pivotal_expert():
    """A heavy expert whose belief in the best proposal sits just above the
    approval threshold admissibly withholds support: electing it would pay
    p*a - (1-p)*s, strictly less than the sure a' she collects disapproving
    the low-quality winner.  The resulting profile is an exact
    semi-strategic equilibrium whose quality ratio exceeds 2, so the
    2-approximation only holds when no belief falls in the indifference
    band [s/(a+s), (a'+s)/(a+s)).  The acceptance suite samples outside
    that band; this test pins the behavior inside it.
    """
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(10.0, 1.0), beliefs=((0.0, 0.92), (1.0, 0.0)))
    profile = VotingProfile(((0, 0), (1, 0)))

    # The withheld approval is a justified lie: flipping it elects
    # proposal 2 and strictly hurts expert 0.
    flip = profile.flip(0, 2)
    assert utility(instance, sched, flip, 0) < utility(instance, sched, profile, 0)
    assert is_admissible(instance, sched, profile) == (True, True)
    assert is_approx_pne(instance, sched, profile, SEMI0)

    # Eligibility does not exclude the instance, yet the ratio blows up.
    assert safety_certificate(instance, sched).eligible
    quality = qual(instance, sched.T, 1)
    best = opt_quality(instance, sched.T)
    assert best[1] / quality > 2.0

    lo = sched.s / (sched.a + sched.s)
    hi = (sched.a_prime + sched.s) / (sched.a + sched.s)
    assert lo <= 0.92 < hi
