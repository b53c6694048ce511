"""Schedule derivation, identity diagnostics, safety envelopes, the
external-reward bound and the repeated-game discount cap."""

import math

import numpy as np
import pytest

from avgov import (
    ContractViolation,
    DerivationError,
    Instance,
    NormalizationError,
    RewardSchedule,
    derive_schedule,
    deviation_safety_threshold,
    external_bound_delta,
    max_discount,
    validate_schedule,
)

# (T, epsilon) pairs satisfying both 1/(eps+1) < T and (1+eps)(1-T) >= 1.
VALID_PAIRS = [(0.55, 1.5), (2.0 / 3.0, 3.0), (0.75, 4.0), (0.8, 9.0),
               (0.9, 19.0), (0.95, 39.0)]


# ---------------------------------------------------------------------------
# derive_schedule
# ---------------------------------------------------------------------------


def test_derive_paper_schedule():
    sched = derive_schedule(0.9, 19.0, 1.0)
    assert sched.a == pytest.approx(2.0, abs=1e-12)
    assert sched.s == pytest.approx(17.0, abs=1e-12)
    assert (sched.a_prime + sched.s) / (sched.a_prime + sched.s + sched.a) == \
        pytest.approx(0.9, abs=1e-12)


def test_derive_two_thirds():
    sched = derive_schedule(2.0 / 3.0, 3.0, 1.0)
    assert sched.a == pytest.approx(4.0 / 3.0)
    assert sched.s == pytest.approx(5.0 / 3.0)
    total = sched.a_prime + sched.s
    assert total / (total + sched.a) == pytest.approx(2.0 / 3.0)


def test_derive_rejects_epsilon_condition():
    with pytest.raises(DerivationError, match="1/\\(epsilon\\+1\\)"):
        derive_schedule(0.9, 0.05, 1.0)


def test_derive_rejects_degenerate_threshold():
    with pytest.raises(DerivationError, match="degenerate"):
        derive_schedule(1.0, 19.0, 1.0)
    with pytest.raises(DerivationError, match="degenerate"):
        derive_schedule(0.0, 19.0, 1.0)


def test_derive_a_dominance_opt_out():
    # (1+eps)(1-T) < 1 here, so a < a': derivation refuses it, and the
    # diagnostics flag the same schedule given explicitly.
    with pytest.raises(DerivationError, match="a >= a_prime") as info:
        derive_schedule(0.9, 2.0, 1.0)
    assert "require_a_dominance" not in str(info.value)
    sched = RewardSchedule(a=0.3, a_prime=1.0, s=1.7, T=0.9, epsilon=2.0)
    assert not validate_schedule(sched).a_dominates


def test_derived_s_sign_matches_threshold_position():
    # s >= 0 iff T >= 1/(1+eps); at equality the derivation is rejected, so
    # probe just above it.
    for eps in (1.5, 3.0, 9.0):
        edge = 1.0 / (1.0 + eps)
        sched = derive_schedule(edge + 1e-6, eps, 1.0)
        assert sched.s >= 0.0


# ---------------------------------------------------------------------------
# validate_schedule
# ---------------------------------------------------------------------------


def test_validate_derived_schedule_ok():
    diag = validate_schedule(derive_schedule(0.9, 19.0, 1.0))
    assert diag.threshold_identity_residual <= 1e-12
    assert diag.inflection_residual <= 1e-12
    assert diag.a_dominates and diag.epsilon_condition and diag.all_ok


def test_validate_figure_constants_fail_inflection():
    # The plotted curve constants do not satisfy the inflection identity.
    sched = RewardSchedule(a=1.5, a_prime=4.0 / 3.0, s=2.0, T=2.0 / 3.0)
    diag = validate_schedule(sched)
    assert diag.inflection_residual == pytest.approx(1.0 / 9.0)
    assert not diag.all_ok


def test_validate_unit_schedule_fails_threshold():
    diag = validate_schedule(RewardSchedule(a=1.0, a_prime=1.0, s=1.0, T=0.5))
    assert diag.threshold_identity_residual == pytest.approx(0.5 - 1.0 / 3.0)
    assert not diag.all_ok


def test_round_trip_grid():
    count = 0
    for T0, eps in VALID_PAIRS:
        lo, hi = 1.0 / (eps + 1.0), eps / (eps + 1.0)
        for frac in np.linspace(0.05, 0.95, 12):
            T = lo + (hi - lo) * float(frac)
            for a_prime in (0.5, 1.0, 3.0):
                diag = validate_schedule(derive_schedule(T, eps, a_prime))
                assert diag.all_ok, (T, eps, a_prime, diag)
                count += 1
    assert count >= 200


# ---------------------------------------------------------------------------
# deviation_safety_threshold
# ---------------------------------------------------------------------------


def test_safety_envelope_unbribed_equals_threshold():
    sched = derive_schedule(0.9, 19.0, 1.0)
    env = deviation_safety_threshold(sched, 0.0)
    assert env.proof_branch == pytest.approx(0.9)
    assert env.effective_threshold == pytest.approx(0.9)
    # as printed, the second numerator is a'(1-T) + a
    assert env.statement_branch == pytest.approx(2.1 / 19.0)


def test_safety_envelope_with_external():
    sched = derive_schedule(0.9, 19.0, 1.0)
    env = deviation_safety_threshold(sched, 2.0)
    assert env.effective_threshold == pytest.approx(0.9 * 19.0 / 21.0)


def test_safety_envelope_huge_external_goes_to_zero():
    sched = derive_schedule(0.9, 19.0, 1.0)
    env = deviation_safety_threshold(sched, 1e9)
    assert env.effective_threshold < 1e-7


def test_safety_envelope_statement_variant():
    # The statement's branch is reported; the proof's branch is applied.
    sched = derive_schedule(0.9, 19.0, 1.0)
    env = deviation_safety_threshold(sched, 0.0)
    assert env.statement_branch == pytest.approx(2.1 / 19.0)
    assert env.variant == "proof"
    assert env.effective_threshold == env.proof_branch


def test_proof_branch_terms_coincide_under_inflection():
    # T(a+s) = a'(1-T) + s whenever the inflection identity holds.
    for T, eps in VALID_PAIRS:
        sched = derive_schedule(T, eps, 1.0)
        for g in (0.0, 0.5, 3.0):
            a, ap, s = sched.a, sched.a_prime, sched.s
            lhs = T * (a + s) / (a + s + g)
            rhs = (ap * (1.0 - T) + s) / (a + s + g)
            assert abs(lhs - rhs) <= 1e-9 * (a + s + g)


def test_effective_threshold_strictly_decreasing_in_g():
    sched = derive_schedule(0.9, 19.0, 1.0)
    values = [
        deviation_safety_threshold(sched, g).effective_threshold
        for g in (0.0, 0.5, 1.0, 2.0, 5.0)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_safety_envelope_rejects_negative_g():
    with pytest.raises(ContractViolation):
        deviation_safety_threshold(derive_schedule(0.9, 19.0, 1.0), -1.0)


# ---------------------------------------------------------------------------
# external_bound_delta
# ---------------------------------------------------------------------------


def test_delta_zero_without_externals():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(1.0, 2.0), beliefs=((0.5, 0.5), (0.5, 0.5)))
    assert external_bound_delta(instance, sched) == 0.0


def test_delta_examples():
    sched = RewardSchedule(a=2.0, a_prime=1.0, s=17.0, T=0.9, epsilon=19.0)
    one = Instance(weights=(1.0,), beliefs=((0.5,),), external=((0.2,),))
    assert external_bound_delta(one, sched) == pytest.approx(0.1)
    half = Instance(weights=(0.5,), beliefs=((0.5,),), external=((0.2,),))
    assert external_bound_delta(half, sched) == pytest.approx(0.2)


def test_delta_zero_weight_with_external_errors():
    sched = derive_schedule(0.9, 19.0, 1.0)
    instance = Instance(weights=(0.0,), beliefs=((0.5,),), external=((0.2,),))
    with pytest.raises(NormalizationError):
        external_bound_delta(instance, sched)


# ---------------------------------------------------------------------------
# max_discount
# ---------------------------------------------------------------------------


def test_max_discount_examples():
    assert max_discount(0.2, 0.1) == pytest.approx(0.2 / 0.42)
    assert max_discount(0.0, 0.3) == 0.0
    assert max_discount(1.0, 0.0) == 1.0


def test_max_discount_ratio_equality():
    for eps, zeta in ((0.2, 0.1), (1.0, 0.05), (19.0, 0.1), (3.0, 0.5)):
        g = max_discount(eps, zeta)
        ratio = (1.0 - (1.0 - zeta) * g) / (1.0 - (1.0 + zeta) * g)
        assert ratio == pytest.approx(1.0 + eps)


def test_max_discount_monotonicity():
    eps_grid = (0.1, 0.5, 1.0, 5.0, 19.0)
    for zeta in (0.05, 0.2, 0.6):
        values = [max_discount(e, zeta) for e in eps_grid]
        assert all(b > a for a, b in zip(values, values[1:]))
    for eps in (0.5, 2.0):
        values = [max_discount(eps, z) for z in (0.05, 0.2, 0.5, 0.8)]
        assert all(b < a for a, b in zip(values, values[1:]))


def test_max_discount_rejects_bad_inputs():
    with pytest.raises(ContractViolation):
        max_discount(-1.0, 0.1)
    with pytest.raises(ContractViolation):
        max_discount(1.0, 1.0)


def test_max_discount_is_zero_without_slack_or_step():
    assert max_discount(0.0, 0.0) == 0.0


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: derive_schedule(1.5, 19.0, 1.0), DerivationError,
                 r"outside \(0, 1\)", id="T-above-1"),
    pytest.param(lambda: derive_schedule(0.9, -1.0, 1.0), DerivationError,
                 "epsilon = -1.0", id="negative-epsilon"),
    pytest.param(lambda: derive_schedule(0.9, 19.0, 0.0), DerivationError,
                 "a_prime = 0.0", id="zero-a-prime"),
    # Type and finiteness are core._real's; the ranges stay DerivationError's.
    pytest.param(lambda: derive_schedule("0.9", 19, 1), ContractViolation,
                 "^T = '0.9' is not a number$", id="T-string"),
    pytest.param(lambda: derive_schedule(0.9, True, 1), ContractViolation,
                 "^epsilon = True is not a number$", id="epsilon-bool"),
    pytest.param(lambda: derive_schedule(0.9, 19, None), ContractViolation,
                 "^a_prime = None is not a number$", id="a-prime-none"),
    pytest.param(lambda: derive_schedule(math.nan, 19, 1), ContractViolation,
                 "^T = nan is not a finite number$", id="T-nan"),
    pytest.param(lambda: derive_schedule(0.9, math.inf, 1), ContractViolation,
                 "^epsilon = inf is not a finite number$", id="infinite-epsilon"),
    pytest.param(lambda: derive_schedule(0.9, math.nan, 1), ContractViolation,
                 "^epsilon = nan is not a finite number$", id="nan-epsilon"),
    pytest.param(lambda: derive_schedule(0.9, 19, math.inf), ContractViolation,
                 "^a_prime = inf is not a finite number$", id="infinite-a-prime"),
    pytest.param(lambda: derive_schedule(0.9, 19, -math.inf), ContractViolation,
                 "^a_prime = -inf is not a finite number$", id="negative-infinite-a-prime"),
    pytest.param(lambda: deviation_safety_threshold(derive_schedule(0.9, 19.0, 1.0),
                                                    math.inf),
                 ContractViolation, "g = inf is not a finite number", id="infinite-g"),
    pytest.param(lambda: deviation_safety_threshold(derive_schedule(0.9, 19.0, 1.0), -1),
                 ContractViolation, r"^g = -1\.0 outside \[0, inf\)$", id="negative-g"),
    # An infinite slack gave a NaN cap.
    pytest.param(lambda: max_discount(math.inf, 0.05), ContractViolation,
                 "^epsilon = inf is not a finite number$", id="cap-infinite-epsilon"),
    pytest.param(lambda: max_discount(-1, 0.05), ContractViolation,
                 r"^epsilon = -1\.0 outside \[0, inf\)$", id="cap-negative-epsilon"),
    pytest.param(lambda: max_discount(19.0, 1), ContractViolation,
                 r"^zeta = 1\.0 outside \[0, 1\)$", id="cap-zeta-1"),
    pytest.param(lambda: max_discount(19.0, "0.05"), ContractViolation,
                 "^zeta = '0.05' is not a number$", id="cap-zeta-string"),
])
def test_input_checks_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()
