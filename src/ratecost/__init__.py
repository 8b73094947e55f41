"""Rate-cost toolkit for finite-alphabet rate-limited control.

Exact evaluation of the directed-information rate-cost tradeoff, a
constructive encoding-and-control synthesis built from per-stage
functional representations, binary time sharing, and conditional Shannon
codes, plus scalar LQG closed forms and a command-line surface.
"""

from .system import (
    BudgetExceededError,
    CausalPolicy,
    DimensionMismatchError,
    InvariantError,
    JointLaw,
    NormalizationError,
    SystemSpec,
    average_cost,
    conditional_action_entropies,
    directed_information,
    entropy_bits,
    evaluate_joint,
    stage_information_terms,
)

__all__ = [
    "BudgetExceededError",
    "CausalPolicy",
    "DimensionMismatchError",
    "InvariantError",
    "JointLaw",
    "NormalizationError",
    "SystemSpec",
    "average_cost",
    "conditional_action_entropies",
    "directed_information",
    "entropy_bits",
    "evaluate_joint",
    "stage_information_terms",
]
