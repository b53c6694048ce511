"""Core mechanics: winner selection, rewards, utilities, honest strategy,
estimated quality and the reward curve."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from avgov import (
    ContractViolation,
    EquilibriumQuery,
    GuardRefusal,
    Instance,
    NormalizationError,
    RewardSchedule,
    VotingProfile,
    WorldConfig,
    delayed_update,
    deviation_safety_threshold,
    deviation_tail_bound,
    discounted_total,
    expected_reward,
    honest_profile,
    max_discount,
    opt_quality,
    qual,
    reward,
    reward_curve,
    utility,
    winner,
)
from avgov import core
from avgov.claims import prop3_scenario, prop4_scenario, thm6_scenario
from avgov.core import _elect, _elect_arrays, _integer, _real, _reals

SCHED = RewardSchedule(a=2.0, a_prime=1.0, s=17.0, T=0.9, epsilon=19.0)


@pytest.fixture
def prop4():
    sc = prop4_scenario()
    return sc.instance, sc.schedule


@pytest.fixture
def thm6():
    sc = thm6_scenario(0.1)
    return sc.instance, sc.schedule


# ---------------------------------------------------------------------------
# Type invariants
# ---------------------------------------------------------------------------


def test_instance_validation():
    with pytest.raises(ContractViolation):
        Instance(weights=(), beliefs=())
    with pytest.raises(ContractViolation, match=r"beliefs\[0\]\[1\]"):
        Instance(weights=(1.0,), beliefs=((0.5, 1.2),))
    with pytest.raises(ContractViolation, match=r"weights\[0\]"):
        Instance(weights=(-0.1,), beliefs=((0.5,),))
    with pytest.raises(ContractViolation, match=r"external\[0\]\[0\]"):
        Instance(weights=(1.0,), beliefs=((0.5,),), external=((-1.0,),))
    with pytest.raises(ContractViolation):
        Instance(weights=(1.0, 1.0), beliefs=((0.5,),))


def test_schedule_validation():
    with pytest.raises(ContractViolation):
        RewardSchedule(a=0.0, a_prime=1.0, s=1.0, T=0.5)
    with pytest.raises(ContractViolation):
        RewardSchedule(a=1.0, a_prime=1.0, s=1.0, T=1.0)
    with pytest.raises(ContractViolation):
        RewardSchedule(a=1.0, a_prime=-1.0, s=1.0, T=0.5)


WORLD = WorldConfig(expertise=(0.9, 0.6), good_prior=0.5, proposals_per_round=2,
                    zeta=0.05, gamma=0.5, horizon=4)

# Every real argument of the public API: the name its refusal gives it,
# and a call that passes it.  Each must be a finite number: Python's JSON
# reader accepts Infinity, which passes a ">= 0" range check, and float()
# reads "1" and True.
NON_FINITE_BUILDERS = {
    "weights": ("weights[0]", lambda v: Instance(weights=(v,), beliefs=((0.5,),))),
    "beliefs": ("beliefs[0][1]", lambda v: Instance(weights=(1.0,), beliefs=((0.5, v),))),
    "external": ("external[0][0]", lambda v: Instance(weights=(1.0,), beliefs=((0.5,),),
                                                      external=((v,),))),
    "a": ("a", lambda v: dataclasses.replace(SCHED, a=v)),
    "a_prime": ("a_prime", lambda v: dataclasses.replace(SCHED, a_prime=v)),
    "s": ("s", lambda v: dataclasses.replace(SCHED, s=v)),
    "T": ("T", lambda v: dataclasses.replace(SCHED, T=v)),
    "epsilon": ("epsilon", lambda v: dataclasses.replace(SCHED, epsilon=v)),
    "delta": ("delta", lambda v: dataclasses.replace(SCHED, delta=v)),
    "reward.weight": ("weight", lambda v: reward(0, 1, SCHED, v)),
    "expected_reward.belief_p": ("belief_p", lambda v: expected_reward(1, v, SCHED)),
    "honest_profile.T": ("T", lambda v: honest_profile(ONE_EXPERT, v)),
    "qual.T": ("T", lambda v: qual(ONE_EXPERT, v, 1)),
    "opt_quality.T": ("T", lambda v: opt_quality(ONE_EXPERT, v)),
    "query.epsilon": ("epsilon", lambda v: EquilibriumQuery(epsilon=v)),
    "safety.g": ("g", lambda v: deviation_safety_threshold(SCHED, v)),
    "max_discount.epsilon": ("epsilon", lambda v: max_discount(v, 0.05)),
    "max_discount.zeta": ("zeta", lambda v: max_discount(19.0, v)),
    "world.expertise": ("expertise[1]", lambda v: dataclasses.replace(WORLD,
                                                                      expertise=(0.9, v))),
    "world.good_prior": ("good_prior", lambda v: dataclasses.replace(WORLD, good_prior=v)),
    "world.zeta": ("zeta", lambda v: dataclasses.replace(WORLD, zeta=v)),
    "world.gamma": ("gamma", lambda v: dataclasses.replace(WORLD, gamma=v)),
    "delayed_update.w": ("w", lambda v: delayed_update(v, 0.5, 0.1)),
    "delayed_update.omega": ("omega", lambda v: delayed_update(0.5, v, 0.1)),
    "delayed_update.zeta": ("zeta", lambda v: delayed_update(0.5, 0.5, v)),
    "discounted_total.gamma": ("gamma", lambda v: discounted_total([1.0, 2.0], v)),
    "tail_bound.zeta": ("zeta", lambda v: deviation_tail_bound(SCHED, v, 0.5, 4)),
    "tail_bound.gamma": ("gamma", lambda v: deviation_tail_bound(SCHED, 0.05, v, 4)),
    "thm6.weight_slack": ("weight_slack", thm6_scenario),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, -math.inf])
@pytest.mark.parametrize("field", sorted(NON_FINITE_BUILDERS))
def test_constructors_reject_non_finite_numbers(field, value):
    name, build = NON_FINITE_BUILDERS[field]
    with pytest.raises(ContractViolation) as refusal:
        build(value)
    assert str(refusal.value) == f"{name} = {value} is not a finite number"


@pytest.mark.parametrize("value", [True, np.False_, "1", "0.5", None],
                         ids=["bool", "numpy-bool", "int-string", "float-string", "none"])
@pytest.mark.parametrize("field", sorted(NON_FINITE_BUILDERS))
def test_real_arguments_refuse_non_numbers(field, value):
    # Not read as 1, 0 or a parsed string, and not a TypeError either.
    name, build = NON_FINITE_BUILDERS[field]
    with pytest.raises(ContractViolation) as refusal:
        build(value)
    assert str(refusal.value) == f"{name} = {value!r} is not a number"


# Values of every kind the argument checks meet: floats (NaN, infinities,
# signed zeros and interval ends among them), ints, numpy scalars, bools
# and strings.
CHECKED_VALUES = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from((0.0, -0.0, 0.5, 1.0, -1.0, 2.0, 5e-324, math.inf, -math.inf, math.nan,
                       10 ** 308, -(10 ** 308)))
    | st.integers(-(2 ** 70), 2 ** 70) | st.integers(-3, 3)
    | st.builds(np.float64, st.floats()) | st.builds(np.int64, st.integers(-3, 3))
    | st.booleans() | st.sampled_from((np.True_, "1", "0.5", None))
)
INTERVAL_ENDS = st.sampled_from((-math.inf, -1.0, 0, 0.5, 1, 2.0, math.inf)) | st.floats(
    allow_nan=False)


def _is_number(value):
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer,
                                                               np.floating))


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(value=CHECKED_VALUES, low=INTERVAL_ENDS, high=INTERVAL_ENDS,
       ends=st.sampled_from(("[]", "[)", "(]", "()")))
def test_real_accepts_exactly_the_finite_numbers_in_its_interval(value, low, high, ends):
    x = float(value) if _is_number(value) else None
    inside = x is not None and (low < x or ends[0] == "[" and x == low) and (
        x < high or ends[1] == "]" and x == high)
    if x is not None and math.isfinite(x) and inside:
        checked = _real(value, "x", low, high, ends)
        assert type(checked) is float and checked == x
        return
    with pytest.raises(ContractViolation) as refusal:
        _real(value, "x", low, high, ends)
    message = str(refusal.value)
    if x is None:
        assert message == f"x = {value!r} is not a number"
    elif not math.isfinite(x):
        assert message == f"x = {x} is not a finite number"
    else:
        left = ends[0] if low != -math.inf else "("
        right = ends[1] if high != math.inf else ")"
        assert message == f"x = {x} outside {left}{low:g}, {high:g}{right}"


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(values=st.lists(CHECKED_VALUES, max_size=6), low=INTERVAL_ENDS, high=INTERVAL_ENDS)
# A non-finite value at an infinite end, and a NaN that min and max skip.
@example(values=[0.5, -math.inf], low=-math.inf, high=math.inf)
@example(values=[0.5, math.inf], low=0, high=math.inf)
@example(values=[0.5, math.nan, 1.0], low=0, high=1)
def test_reals_checks_each_value_as_real(values, low, high):
    # _reals decides as _real on each value, and a refusal names the first
    # refused value by its index in the row.
    try:
        expected = tuple(_real(v, f"v[{i}]", low, high) for i, v in enumerate(values))
    except ContractViolation as refusal:
        with pytest.raises(ContractViolation, match=f"^{re.escape(str(refusal))}$"):
            _reals(values, "v", low, high)
    else:
        assert _reals(values, "v", low, high) == expected


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(value=CHECKED_VALUES | st.floats(-4.0, 4.0).map(round).map(float),
       low=st.sampled_from((-math.inf, -2, 0, 1, 3)) | st.integers(-4, 4),
       high=st.sampled_from((math.inf, -1, 0, 2, 3)) | st.integers(-4, 4))
def test_integer_accepts_exactly_the_integers_in_its_range(value, low, high):
    if isinstance(value, (float, np.floating)):
        integral = math.isfinite(value) and float(value).is_integer()
    else:
        integral = _is_number(value)
    if integral and low <= int(value) <= high:
        checked = _integer(value, "i", low, high)
        assert type(checked) is int and checked == value
        return
    with pytest.raises(ContractViolation) as refusal:
        _integer(value, "i", low, high)
    if not integral:
        assert str(refusal.value) == f"i = {value!r} is not an integer"
    else:
        right = "]" if high != math.inf else ")"
        left = "[" if low != -math.inf else "("
        assert str(refusal.value) == f"i = {int(value)} outside {left}{low:g}, {high:g}{right}"


def test_profile_validation():
    with pytest.raises(ContractViolation):
        VotingProfile(((0, 2),))
    with pytest.raises(ContractViolation):
        VotingProfile(((0, 1), (0,)))
    profile = VotingProfile(((0, 1), (1, 0)))
    assert profile.replace_row(0, (1, 1)).votes == ((1, 1), (1, 0))
    assert profile.flip(1, 2).votes == ((0, 1), (1, 1))


ONE_EXPERT = Instance(weights=(1.0,), beliefs=((0.5,),))
TWO_EXPERTS = Instance(weights=(1.0, 2.0), beliefs=((0.95, 0.3), (0.6, 0.92)))
TWO_BY_TWO = VotingProfile(((0, 1), (1, 0)))


@pytest.mark.parametrize("build, match", [
    pytest.param(lambda: Instance(weights=(1.0, 1.0), beliefs=((0.5, 0.5), (0.5,))),
                 "unequal lengths", id="ragged-beliefs"),
    pytest.param(lambda: Instance(weights=(1.0,), beliefs=((0.5, 0.5),),
                                  external=((0.0,),)),
                 "must have 2 columns", id="external-columns"),
    pytest.param(lambda: Instance(weights=(1.0,), beliefs=((),)),
                 "at least one proposal", id="no-proposals"),
    pytest.param(lambda: Instance(weights=(1e308, 1e308), beliefs=((0.5,), (0.5,))),
                 "sum to inf", id="weights-sum-overflow"),
    # Every pair of these weights has a finite sum; all three do not.
    pytest.param(lambda: Instance(weights=(1e308, 5e307, 5e307),
                                  beliefs=((0.5,), (0.5,), (0.5,))),
                 "sum to inf", id="weights-three-sum-overflow"),
    # Integers that each fit a float, as a scenario file can give them.
    pytest.param(lambda: Instance(weights=(10 ** 308, 10 ** 308), beliefs=((0.5,), (0.5,))),
                 "^the weights sum to inf; it must be finite$", id="integer-weights-sum-overflow"),
    pytest.param(lambda: dataclasses.replace(SCHED, s=-1.0), "s = -1.0", id="negative-s"),
    pytest.param(lambda: dataclasses.replace(SCHED, epsilon=-1.0), "epsilon = -1.0",
                 id="negative-epsilon"),
    pytest.param(lambda: dataclasses.replace(SCHED, delta=-1.0), "delta = -1.0",
                 id="negative-delta"),
    pytest.param(lambda: VotingProfile(()), "non-empty", id="empty-profile"),
    # A vote that is not 0 or 1 is refused, not truncated by int().
    pytest.param(lambda: VotingProfile(((0.7, 1), (1, 0.2))), r"votes\[0\]\[0\] = 0.7 is not",
                 id="fractional-vote"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).replace_row(1, (0.0, 0.5)),
                 r"votes\[1\]\[1\] = 0.5 is not", id="fractional-replace-row"),
    pytest.param(lambda: VotingProfile(((1, math.nan),)), r"votes\[0\]\[1\] = nan is not",
                 id="nan-vote"),
    # Negative indices would pick a row or coordinate from the end.
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).replace_row(-1, (1, 1)),
                 r"expert = -1 outside \[0, 1\]", id="replace-row-negative"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).replace_row(2, (1, 1)),
                 r"expert = 2 outside \[0, 1\]", id="replace-row-past-end"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).flip(5, 1),
                 r"expert = 5 outside \[0, 1\]", id="flip-expert-past-end"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).flip(-1, 1),
                 r"expert = -1 outside \[0, 1\]", id="flip-expert-negative"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).flip(0, 0),
                 r"proposal_j = 0 outside \[1, 2\]", id="flip-proposal-0"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).flip(0, -1),
                 r"proposal_j = -1 outside \[1, 2\]", id="flip-proposal-negative"),
    pytest.param(lambda: VotingProfile(((0, 1), (1, 0))).flip(0, 3),
                 r"proposal_j = 3 outside \[1, 2\]", id="flip-proposal-past-end"),
    pytest.param(lambda: expected_reward(2, 0.5, SCHED), "must be a bit",
                 id="expected-reward-vote"),
    pytest.param(lambda: expected_reward(1, 1.5, SCHED), r"outside \[0, 1\]",
                 id="expected-reward-belief"),
    pytest.param(lambda: honest_profile(ONE_EXPERT, 0.0), r"T = 0.0 outside \(0, 1\)",
                 id="honest-T-0"),
    pytest.param(lambda: honest_profile(ONE_EXPERT, 1.0), r"T = 1.0 outside \(0, 1\)",
                 id="honest-T-1"),
    # qual and opt_quality read T as honest_profile does, the dummy's
    # quality included.
    pytest.param(lambda: qual(TWO_EXPERTS, 5.0, 1), r"T = 5.0 outside \(0, 1\)",
                 id="qual-T-above-1"),
    pytest.param(lambda: qual(TWO_EXPERTS, 0.0, 0), r"T = 0.0 outside \(0, 1\)",
                 id="qual-dummy-T-0"),
    pytest.param(lambda: qual(TWO_EXPERTS, math.nan, 2), "T = nan is not a finite number",
                 id="qual-T-nan"),
    pytest.param(lambda: opt_quality(TWO_EXPERTS, -1.0), r"T = -1.0 outside \(0, 1\)",
                 id="opt-quality-T-negative"),
    pytest.param(lambda: opt_quality(TWO_EXPERTS, 1.0), r"T = 1.0 outside \(0, 1\)",
                 id="opt-quality-T-1"),
    pytest.param(lambda: opt_quality(TWO_EXPERTS, math.nan), "T = nan is not a finite number",
                 id="opt-quality-T-nan"),
    # Indices and counts are integers: a bool is not read as 0 or 1, and a
    # fractional, non-finite or non-numeric value is refused, not a TypeError.
    pytest.param(lambda: utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, True),
                 "expert_i = True is not an integer", id="utility-expert-bool"),
    pytest.param(lambda: utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, 0.5),
                 "expert_i = 0.5 is not an integer", id="utility-expert-fractional"),
    pytest.param(lambda: utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, math.nan),
                 "expert_i = nan is not an integer", id="utility-expert-nan"),
    pytest.param(lambda: utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, "1"),
                 "expert_i = '1' is not an integer", id="utility-expert-string"),
    pytest.param(lambda: TWO_BY_TWO.replace_row(True, (1, 1)),
                 "expert = True is not an integer", id="replace-row-bool"),
    pytest.param(lambda: TWO_BY_TWO.replace_row(np.bool_(True), (1, 1)),
                 r"expert = (np\.True_|True) is not an integer",
                 id="replace-row-numpy-bool"),
    pytest.param(lambda: TWO_BY_TWO.flip(0, True),
                 "proposal_j = True is not an integer", id="flip-proposal-bool"),
    pytest.param(lambda: TWO_BY_TWO.flip(0, 1.5),
                 "proposal_j = 1.5 is not an integer", id="flip-proposal-fractional"),
    pytest.param(lambda: TWO_BY_TWO.flip(math.inf, 1),
                 "expert = inf is not an integer", id="flip-expert-inf"),
    pytest.param(lambda: VotingProfile.zeros(True, 2),
                 "n = True is not an integer", id="zeros-n-bool"),
    pytest.param(lambda: qual(TWO_EXPERTS, 0.5, True),
                 "proposal_j = True is not an integer", id="qual-proposal-bool"),
    pytest.param(lambda: qual(TWO_EXPERTS, 0.5, 1.5),
                 "proposal_j = 1.5 is not an integer", id="qual-proposal-fractional"),
    pytest.param(lambda: reward_curve(SCHED, 2.5),
                 "sample_count = 2.5 is not an integer", id="curve-count-fractional"),
    pytest.param(lambda: reward_curve(SCHED, True),
                 "sample_count = True is not an integer", id="curve-count-bool"),
    # A value of the right type outside its interval names the interval,
    # with an infinite end open.
    pytest.param(lambda: reward_curve(SCHED, 1), r"^sample_count = 1 outside \[2, inf\)$",
                 id="curve-count-1"),
    pytest.param(lambda: utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, 2),
                 r"^expert_i = 2 outside \[0, 1\]$", id="utility-expert-past-end"),
    pytest.param(lambda: qual(TWO_EXPERTS, 0.5, 3), r"^proposal_j = 3 outside \[0, 2\]$",
                 id="qual-proposal-past-end"),
    pytest.param(lambda: Instance(weights=(-1,), beliefs=((0.5,),)),
                 r"^weights\[0\] = -1\.0 outside \[0, inf\)$", id="negative-weight"),
    pytest.param(lambda: dataclasses.replace(SCHED, a=0), r"^a = 0\.0 outside \(0, inf\)$",
                 id="zero-a"),
    pytest.param(lambda: reward(1, 1, SCHED, -0.5), r"^weight = -0\.5 outside \[0, inf\)$",
                 id="reward-negative-weight"),
    pytest.param(lambda: EquilibriumQuery("semi", -1), r"^epsilon = -1\.0 outside \[0, inf\)$",
                 id="query-negative-epsilon"),
    pytest.param(lambda: thm6_scenario(1), r"^weight_slack = 1\.0 outside \(0, 1\)$",
                 id="thm6-slack-1"),
    pytest.param(lambda: prop3_scenario(0), r"^n = 0 outside \[1, inf\)$", id="prop3-n-0"),
    pytest.param(lambda: prop3_scenario(2.5), "^n = 2.5 is not an integer$",
                 id="prop3-n-fractional"),
    pytest.param(lambda: prop3_scenario(True), "^n = True is not an integer$",
                 id="prop3-n-bool"),
    # A string, bytes or mapping where a row of numbers belongs is refused
    # whole, not read character by character, byte by byte or key by key.
    pytest.param(lambda: Instance(weights="1", beliefs=((0.5,),)),
                 r"^weights = '1' is not a list$", id="weights-str"),
    pytest.param(lambda: Instance(weights=(1.0,), beliefs="0.5"),
                 r"^beliefs = '0\.5' is not a list$", id="beliefs-str"),
    pytest.param(lambda: Instance(weights=(1.0,), beliefs=("0.5",)),
                 r"^beliefs\[0\] = '0\.5' is not a list$", id="beliefs-row-str"),
    pytest.param(lambda: Instance(weights=(1.0, 1.0), beliefs=((0.5,), {"a": 0.5})),
                 r"^beliefs\[1\] = \{'a': 0\.5\} is not a list$",
                 id="beliefs-row-mapping"),
    pytest.param(lambda: Instance(weights=(1.0,), beliefs=((0.5,),), external=(b"\x00",)),
                 r"^external\[0\] = b'\\x00' is not a list$",
                 id="external-row-bytes"),
    pytest.param(lambda: WorldConfig(expertise="0.9", good_prior=0.5, proposals_per_round=1,
                                     zeta=0.1, gamma=0.5, horizon=1),
                 r"^expertise = '0\.9' is not a list$", id="expertise-str"),
])
def test_input_checks_raise(build, match):
    with pytest.raises(ContractViolation, match=match):
        build()


def test_integral_indices_and_counts_are_ints():
    # An integral float or a numpy integer reads as the int it equals.
    for one in (1.0, np.int64(1), np.float64(1.0)):
        assert utility(TWO_EXPERTS, SCHED, TWO_BY_TWO, one) == utility(
            TWO_EXPERTS, SCHED, TWO_BY_TWO, 1)
        assert TWO_BY_TWO.replace_row(one, (1, 1)) == TWO_BY_TWO.replace_row(1, (1, 1))
        assert TWO_BY_TWO.flip(0, one) == TWO_BY_TWO.flip(0, 1)
        assert qual(TWO_EXPERTS, 0.5, one) == qual(TWO_EXPERTS, 0.5, 1)
    assert reward_curve(SCHED, 3.0) == reward_curve(SCHED, 3)
    assert VotingProfile.zeros(2.0, np.int8(2)) == VotingProfile.zeros(2, 2)


def test_votes_equal_to_bits_pass():
    votes = ((True, 1.0), (np.int64(0), np.int8(1)))
    profile = VotingProfile(votes)
    assert profile.votes == ((1, 1), (0, 1))
    assert {type(v) for row in profile.votes for v in row} == {int}
    assert profile.replace_row(0, (np.float64(0.0), False)).votes == ((0, 0), (0, 1))


# ---------------------------------------------------------------------------
# winner
# ---------------------------------------------------------------------------


def test_winner_prop4_honest(prop4):
    instance, schedule = prop4
    profile = VotingProfile(((1, 1), (1, 1), (1, 0)))
    outcome = winner(instance, profile)
    assert outcome.winner == 1
    assert outcome.approval_mass[0] == pytest.approx(1.00)
    assert outcome.approval_mass[1] == pytest.approx(0.90)


def test_winner_all_zero_is_dummy(prop4):
    instance, _ = prop4
    outcome = winner(instance, VotingProfile.zeros(3, 2))
    assert outcome.winner == 0
    assert outcome.approval_mass == (0.0, 0.0)


def test_winner_thm6(thm6):
    instance, _ = thm6
    outcome = winner(instance, VotingProfile(((0, 1), (1, 0))))
    assert outcome.winner == 2
    assert outcome.approval_mass == pytest.approx((0.9, 1.1))


def test_winner_tie_breaks_to_smallest_index():
    instance = Instance(weights=(1.0, 1.0), beliefs=((1.0, 0.0), (0.0, 1.0)))
    outcome = winner(instance, VotingProfile(((1, 0), (0, 1))))
    assert outcome.winner == 1


def test_elect_sums_each_column_left_to_right():
    # 1 + 2^-53 rounds back to 1 twice; summed from the right, or exactly,
    # the two small weights would make 1 + 2^-52.
    weights = (1.0, 2.0 ** -53, 2.0 ** -53)
    assert _elect(weights, ((1,), (1,), (1,)))[1] == (1.0,)
    assert _elect(weights[::-1], ((1,), (1,), (1,)))[1] == (1.0 + 2.0 ** -52,)


# Weights at the scale where the order of a float sum changes its result.
ELECT_WEIGHTS = st.sampled_from(
    (1.0, 0.5, 0.75, 2.0 ** -53, 3 * 2.0 ** -54, 2.0 ** -54, 0.0)) | st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_elect_masses_are_left_to_right_sums_in_expert_order(data):
    n = data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, 3))
    weights = tuple(data.draw(ELECT_WEIGHTS) for _ in range(n))
    votes = tuple(data.draw(st.sampled_from(list(itertools.product((0, 1), repeat=k))))
                  for _ in range(n))
    expected = []
    for j in range(k):
        mass = 0.0
        for w, row in zip(weights, votes):
            if row[j]:
                mass += w
        expected.append(mass)
    winner_j, masses = _elect(weights, votes)
    assert [m.hex() for m in masses] == [m.hex() for m in expected]
    best = max(expected)
    assert winner_j == (0 if best <= 0.0 else expected.index(best) + 1)


# A small pool makes exact mass ties common; zero weights and all-zero vote
# rows elect the dummy, and subnormals give sums that round.
ARRAY_WEIGHTS = st.sampled_from((0.0, 5e-324, 2.0 ** -1060, 0.1, 0.2, 0.3, 0.5, 1.0))
VALUES = st.sampled_from((0.0, -0.0, 1.0)) | st.floats(-1e3, 1e3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.data())
def test_elect_arrays_elects_as_elect(data):
    # At every position the array rule writes the value of the winner that
    # _elect picks on the same masses: float values (utilities) down to the
    # sign of a zero, and int values (proposal indices).
    n, k, m = (data.draw(st.integers(1, top)) for top in (5, 4, 8))
    elected = []
    for _ in range(m):
        weights = tuple(data.draw(ARRAY_WEIGHTS) for _ in range(n))
        if data.draw(st.integers(0, 4)) == 0:
            votes = ((0,) * k,) * n
        else:
            votes = tuple(data.draw(st.tuples(*[st.integers(0, 1)] * k)) for _ in range(n))
        elected.append(_elect(weights, votes))
    masses = np.array([masses for _, masses in elected]).T
    floats = np.array([data.draw(VALUES) for _ in range(k + 1)])
    for values, out in ((floats, np.empty(m)), (np.arange(k + 1), np.empty(m, dtype=np.int64))):
        assert _elect_arrays(masses, values, out) is out
        assert [repr(x) for x in out.tolist()] == [repr(values[j].item()) for j, _ in elected]


def test_winner_dimension_mismatch(prop4):
    instance, _ = prop4
    with pytest.raises(ContractViolation):
        winner(instance, VotingProfile(((1, 1), (1, 1))))


@given(st.integers(0, 2 ** 6 - 1), st.sampled_from([2.0, 0.5, 10.0, 3.7]))
def test_winner_scale_invariance(bits, c):
    instance = prop4_scenario().instance
    scaled = Instance(
        weights=tuple(c * w for w in instance.weights),
        beliefs=instance.beliefs,
    )
    votes = tuple(
        tuple((bits >> (i * 2 + j)) & 1 for j in range(2)) for i in range(3)
    )
    profile = VotingProfile(votes)
    assert winner(instance, profile).winner == winner(scaled, profile).winner


# ---------------------------------------------------------------------------
# reward
# ---------------------------------------------------------------------------


def test_reward_examples():
    assert reward(1, 1, SCHED, 0.5) == pytest.approx(1.0)
    assert reward(0, 1, SCHED, 123.0) == 0.0
    assert reward(1, 0, SCHED, 1.0) == pytest.approx(-17.0)
    assert reward(0, 0, SCHED, 2.0) == pytest.approx(2.0)


def test_reward_table_all_cases():
    sched = RewardSchedule(a=3.0, a_prime=0.75, s=12.0, T=0.8)
    for w in (0.0, 0.25, 1.0, 4.0):
        table = {
            (1, 1): w * sched.a,
            (1, 0): -w * sched.s,
            (0, 0): w * sched.a_prime,
            (0, 1): 0.0,
        }
        for (v, q), expect in table.items():
            assert reward(v, q, sched, w) == pytest.approx(expect)


def test_reward_rejects_non_bits():
    with pytest.raises(ContractViolation):
        reward(2, 0, SCHED, 1.0)
    with pytest.raises(ContractViolation):
        reward(1, 1, SCHED, -1.0)


# ---------------------------------------------------------------------------
# expected_reward
# ---------------------------------------------------------------------------


def test_expected_reward_examples():
    assert expected_reward(1, 0.95, SCHED) == pytest.approx(1.05)
    assert expected_reward(1, 0.9, SCHED) == pytest.approx(0.1)
    assert expected_reward(0, 0.9, SCHED) == pytest.approx(0.1)
    assert expected_reward(0, 1.0, SCHED) == 0.0


def test_expected_reward_crossing_at_threshold():
    # Any schedule satisfying the inflection identity has the two branches
    # meet at p = T.
    from avgov import derive_schedule

    for T, eps in ((0.9, 19.0), (2.0 / 3.0, 3.0), (0.75, 4.0)):
        sched = derive_schedule(T, eps, 1.0)
        gap = expected_reward(1, T, sched) - expected_reward(0, T, sched)
        assert abs(gap) <= 1e-9


def test_expected_reward_monotone_branches():
    grid = [i / 40 for i in range(41)]
    yes = [expected_reward(1, p, SCHED) for p in grid]
    no = [expected_reward(0, p, SCHED) for p in grid]
    assert all(b > a for a, b in zip(yes, yes[1:]))
    assert all(b < a for a, b in zip(no, no[1:]))


def test_expected_reward_no_branch_flat_when_a_prime_zero():
    sched = RewardSchedule(a=1.0, a_prime=0.0, s=1.0, T=0.5)
    assert expected_reward(0, 0.2, sched) == expected_reward(0, 0.8, sched) == 0.0


# ---------------------------------------------------------------------------
# utility
# ---------------------------------------------------------------------------


def test_utility_prop4_examples(prop4):
    instance, schedule = prop4
    honest = VotingProfile(((1, 1), (1, 1), (1, 0)))
    assert utility(instance, schedule, honest, 0) == pytest.approx(1.05)
    assert utility(instance, schedule, honest, 2) == pytest.approx(2.0)


def test_utility_dummy_winner_is_zero(prop4):
    instance, schedule = prop4
    assert utility(instance, schedule, VotingProfile.zeros(3, 2), 1) == 0.0


def test_utility_normalizes_external_by_weight():
    instance = Instance(weights=(0.5,), beliefs=((1.0,),), external=((0.2,),))
    profile = VotingProfile(((1,),))
    # normalized external: 0.2 / 0.5 = 0.4, plus a for the certain approval
    assert utility(instance, SCHED, profile, 0) == pytest.approx(SCHED.a + 0.4)


def test_utility_zero_weight_with_external_errors():
    instance = Instance(weights=(0.0, 1.0), beliefs=((1.0,), (1.0,)),
                        external=((0.2,), (0.0,)))
    profile = VotingProfile(((1,), (1,)))
    with pytest.raises(NormalizationError):
        utility(instance, SCHED, profile, 0)


def test_utility_expert_index_out_of_range(prop4):
    instance, schedule = prop4
    with pytest.raises(ContractViolation):
        utility(instance, schedule, VotingProfile.zeros(3, 2), 3)


def test_honest_bit_optimal_when_not_pivotal():
    # A heavy expert fixes the winner; the light expert's vote on it never
    # changes the outcome, so her honest bit must maximize utility.
    for p in [i / 20 for i in range(21)]:
        instance = Instance(weights=(5.0, 1.0), beliefs=((1.0,), (p,)))
        approve = VotingProfile(((1,), (1,)))
        reject = VotingProfile(((1,), (0,)))
        u_yes = utility(instance, SCHED, approve, 1)
        u_no = utility(instance, SCHED, reject, 1)
        honest_u = u_yes if p >= SCHED.T else u_no
        assert honest_u >= max(u_yes, u_no) - 1e-12


# ---------------------------------------------------------------------------
# honest_profile / qual / opt_quality
# ---------------------------------------------------------------------------


def test_honest_profile_prop4(prop4):
    instance, schedule = prop4
    assert honest_profile(instance, schedule.T).votes == ((1, 1), (1, 1), (1, 0))


def test_honest_profile_all_low_beliefs():
    instance = Instance(weights=(1.0, 1.0), beliefs=((0.0, 0.0), (0.0, 0.0)))
    assert honest_profile(instance, 0.9).votes == ((0, 0), (0, 0))


def test_honest_profile_thm6_boundary(thm6):
    # p = T counts as an approval.
    instance, schedule = thm6
    assert honest_profile(instance, schedule.T).votes == ((1, 1), (1, 0))


def test_qual_prop4(prop4):
    instance, schedule = prop4
    assert qual(instance, schedule.T, 1) == pytest.approx(1.00)
    assert qual(instance, schedule.T, 2) == pytest.approx(0.90)
    assert qual(instance, schedule.T, 0) == 0.0


def test_qual_prop3_n4():
    sc = prop3_scenario(4)
    assert sc.instance.weights[0] == pytest.approx(0.26)
    assert qual(sc.instance, sc.schedule.T, 2) == pytest.approx(1.0)


def test_qual_rejects_bad_index(prop4):
    instance, schedule = prop4
    with pytest.raises(ContractViolation):
        qual(instance, schedule.T, 3)


def test_qual_additive_over_singletons(prop4):
    instance, schedule = prop4
    for j in (1, 2):
        parts = sum(
            qual(
                Instance(weights=(instance.weights[i],),
                         beliefs=(instance.beliefs[i],)),
                schedule.T, j,
            )
            for i in range(instance.n)
        )
        assert parts == pytest.approx(qual(instance, schedule.T, j))


def test_opt_quality(prop4, thm6):
    instance, schedule = prop4
    assert opt_quality(instance, schedule.T) == (1, pytest.approx(1.00))
    instance6, schedule6 = thm6
    assert opt_quality(instance6, schedule6.T) == (1, pytest.approx(2.0))
    single = Instance(weights=(0.7,), beliefs=((0.95,),))
    assert opt_quality(single, 0.9) == (1, pytest.approx(0.7))


def test_opt_quality_tie_breaks_to_smallest_index():
    instance = Instance(weights=(1.0,), beliefs=((1.0, 1.0),))
    assert opt_quality(instance, 0.5)[0] == 1


def test_qual_adds_weights_left_to_right():
    # Ten weights of 0.1 sum to 0.9999999999999999 left to right, as _elect
    # adds them; compensated summation would give 1.0 and tie proposal 1
    # with proposal 2.
    instance = Instance(weights=(0.1,) * 10 + (1.0,),
                        beliefs=((1.0, 0.0),) * 10 + ((0.0, 1.0),))
    masses = _elect(instance.weights, honest_profile(instance, 0.5).votes)[1]
    assert qual(instance, 0.5, 1) == masses[0] == 0.9999999999999999
    assert opt_quality(instance, 0.5) == (2, 1.0)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_qual_is_the_honest_mass(data):
    # Every quality is _elect's mass on the honest votes, down to the float
    # (0.0 for the dummy and for a proposal nobody approves), and the
    # optimum is the first maximum of those masses.  Beliefs at T, zero,
    # subnormal and repeated weights are drawn often.
    T = data.draw(st.sampled_from((0.1, 0.5, 0.9)))
    n, k = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    pool = (0.0, 5e-324, 1e-310, 0.1, 0.2, 0.3, 1.0)
    weight = st.one_of(st.sampled_from(pool), st.floats(0.0, 1e300))
    belief = st.one_of(st.just(T), st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))
    instance = Instance(
        weights=tuple(data.draw(weight) for _ in range(n)),
        beliefs=tuple(tuple(data.draw(belief) for _ in range(k)) for _ in range(n)),
    )
    masses = _elect(instance.weights, honest_profile(instance, T).votes)[1]
    assert [qual(instance, T, j).hex() for j in range(k + 1)] == \
        [(0.0).hex()] + [m.hex() for m in masses]
    j, best = opt_quality(instance, T)
    assert (j, best.hex()) == (masses.index(max(masses)) + 1, max(masses).hex())


# ---------------------------------------------------------------------------
# reward_curve
# ---------------------------------------------------------------------------


def test_reward_curve_endpoints_and_crossing():
    rows = reward_curve(SCHED, 101)
    assert len(rows) == 101
    p0, yes0, no0 = rows[0]
    assert (p0, yes0, no0) == (0.0, pytest.approx(-SCHED.s), pytest.approx(SCHED.a_prime))
    p1, yes1, no1 = rows[-1]
    assert (p1, yes1, no1) == (1.0, pytest.approx(SCHED.a), 0.0)
    row_T = rows[90]
    assert row_T[0] == pytest.approx(0.9)
    assert row_T[1] == pytest.approx(0.1)
    assert row_T[2] == pytest.approx(0.1)


def test_reward_curve_crosses_within_grid_resolution():
    for samples in (11, 37, 101):
        rows = reward_curve(SCHED, samples)
        sign_changes = [
            i for i in range(len(rows) - 1)
            if (rows[i][1] - rows[i][2]) * (rows[i + 1][1] - rows[i + 1][2]) <= 0
        ]
        assert sign_changes
        assert any(
            rows[i][0] - 1e-12 <= SCHED.T <= rows[i + 1][0] + 1e-12
            for i in sign_changes
        )


def test_reward_curve_needs_two_samples():
    with pytest.raises(ContractViolation):
        reward_curve(SCHED, 1)


def test_reward_curve_refuses_past_its_guard(monkeypatch):
    # Refused before any row is built: no branch is ever evaluated.
    monkeypatch.setattr(core, "_expected_branches", None)
    with pytest.raises(GuardRefusal, match="capped at 1000000"):
        reward_curve(SCHED, core.CURVE_GUARD_SAMPLES + 1)
