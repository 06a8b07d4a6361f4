"""Gauss quadrature with the predicted leading error added back.

Since R_n = exact - quadrature and the prediction approximates R_n,
quadrature + prediction approximates the exact integral one order better.
"""

from __future__ import annotations

from dataclasses import dataclass

from .error_predictor import leading_term
from .gauss_rule import apply_rule, compute_rule
from .singularity_model import SingularIntegrand

__all__ = ["CorrectedResult", "corrected_integral"]


@dataclass(frozen=True)
class CorrectedResult:
    n: int
    raw: float
    correction: float
    corrected: float


def corrected_integral(f: SingularIntegrand, n: int) -> CorrectedResult:
    """Raw n-point result plus the leading-term correction."""
    raw = apply_rule(compute_rule(n), f)
    correction = leading_term(f, n)
    return CorrectedResult(n=n, raw=raw, correction=correction,
                           corrected=raw + correction)
