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
    NormalizationError,
    SystemSpec,
    entropy_bits,
)

__all__ = [
    "BudgetExceededError",
    "CausalPolicy",
    "DimensionMismatchError",
    "InvariantError",
    "NormalizationError",
    "SystemSpec",
    "entropy_bits",
]
