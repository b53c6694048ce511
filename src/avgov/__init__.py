"""Approval-voting update selection: mechanism, equilibrium analysis and
the repeated game with delayed reputation-weight updates."""

from importlib import import_module as _import_module

from .core import (
    DUMMY,
    TOL,
    Instance,
    Outcome,
    RewardSchedule,
    VotingProfile,
    expected_reward,
    honest_profile,
    opt_quality,
    qual,
    reward,
    reward_curve,
    utility,
    winner,
)
from .errors import (
    AvgovError,
    ContractViolation,
    DerivationError,
    GuardRefusal,
    NormalizationError,
    ScenarioError,
)
from .params import (
    IDENTITY_TOL,
    SafetyEnvelope,
    ScheduleDiagnostics,
    derive_schedule,
    deviation_safety_threshold,
    external_bound_delta,
    max_discount,
    validate_schedule,
)

# The one-shot analysis and the repeated game are imported on first use of
# one of their names (PEP 562), so that ``import avgov`` pays for neither and
# a command that runs one pays only for it.  Name -> (module, name in it).
_LAZY = {name: ("analysis", name) for name in (
    "ENUMERATION_GUARD_BITS",
    "DynamicsTrace",
    "EquilibriumEntry",
    "EquilibriumQuery",
    "EquilibriumReport",
    "MoveRecord",
    "SafetyCertificate",
    "best_response",
    "best_response_dynamics",
    "constructive_pne",
    "enumerate_equilibria",
    "is_admissible",
    "is_approx_pne",
    "safety_certificate",
)}
_LAZY.update({name: ("repeated", name) for name in (
    "DeviationGapResult",
    "HonestPolicy",
    "RepeatedTrace",
    "SingleDeviatorPolicy",
    "WorldConfig",
    "correct_fraction",
    "delayed_update",
    "deviation_gap",
    "deviation_tail_bound",
    "discounted_total",
    "sample_round",
)})
_LAZY["run_repeated"] = ("repeated", "run")
_LAZY_MODULES = ("analysis", "repeated")


def __getattr__(name):
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _LAZY[name]
    value = getattr(_import_module(f".{module}", __name__), attr)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})


# Every public name, the lazy ones and the submodules included, as
# ``from avgov import *`` bound them when everything was imported eagerly.
__all__ = sorted([name for name in globals() if not name.startswith("_")]
                 + [*_LAZY, *_LAZY_MODULES])

__version__ = "0.1.0"
