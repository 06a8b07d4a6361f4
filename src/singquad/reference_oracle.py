"""Exact integrals over [-1, 1] for the supported integrands.

Power and power-log families have closed-form antiderivatives.  Envelope
and general-jump integrands are integrated adaptively after splitting at
the singular point, so every panel sees a smooth integrand on one side.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .singularity_model import GeneralJump, Power, PowerLog, SingularIntegrand

__all__ = ["ExactIntegral", "exact_integral", "split_adaptive_integral"]

_GL15_X, _GL15_W = np.polynomial.legendre.leggauss(15)
_MAX_LEVELS = 60


@dataclass(frozen=True)
class ExactIntegral:
    value: float
    method: str                 # "closed_form" or "split_adaptive"
    est_abs_error: float


def _rounding_error(m: float, magnitude: float) -> float:
    """Error estimate of a closed form whose two side terms sum to the
    given magnitude: rounding 1 -+ b costs about (m + 1)/2 ulps once
    raised to the power m + 1, and pow, log and the divisions a few more."""
    return (m + 4.0) * sys.float_info.epsilon * magnitude


def _power_closed_form(b: float, k: int, alpha: float) -> tuple[float, float]:
    m = k + alpha
    lo, hi = (1.0 - b) ** (m + 1), (1.0 + b) ** (m + 1)
    return ((lo + (-1.0) ** k * hi) / (m + 1),
            _rounding_error(m, (lo + hi) / (m + 1)))


def _powerlog_side(T: float, m: float) -> tuple[float, float]:
    # integral of t^m log t over (0, T], and the magnitude of its terms
    tm = T ** (m + 1)
    return (tm * (math.log(T) / (m + 1) - 1.0 / (m + 1) ** 2),
            tm * (abs(math.log(T)) / (m + 1) + 1.0 / (m + 1) ** 2))


def _powerlog_closed_form(b: float, k: int,
                          beta: float) -> tuple[float, float]:
    m = k + beta
    lo, lo_mag = _powerlog_side(1.0 - b, m)
    hi, hi_mag = _powerlog_side(1.0 + b, m)
    return lo + (-1.0) ** k * hi, _rounding_error(m, lo_mag + hi_mag)


def _gl15(g, lo: float, hi: float) -> float:
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return half * float(np.dot(_GL15_W, g(mid + half * _GL15_X)))


def _adaptive(g, lo: float, hi: float, tol: float, level: int = 0,
              parent_diff: float = math.inf):
    # fixed per-panel agreement threshold; the geometric chain of panels
    # hugging the singular endpoint contributes only a few multiples of tol
    whole = _gl15(g, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _gl15(g, lo, mid)
    right = _gl15(g, mid, hi)
    diff = abs(whole - (left + right))
    if diff <= tol:
        if lo == 0.0:
            # at the singular endpoint halving shrinks the error by about
            # r = diff / parent_diff, so left + right is off by r/(1-r) diff
            r = diff / parent_diff
            diff *= max(1.0, r / (1.0 - r))
        rounding = sys.float_info.epsilon * (abs(left) + abs(right))
        return left + right, diff + rounding
    if level >= _MAX_LEVELS:
        raise RuntimeError("adaptive quadrature did not converge")
    lval, lerr = _adaptive(g, lo, mid, tol, level + 1, diff)
    rval, rerr = _adaptive(g, mid, hi, tol, level + 1, diff)
    return lval + rval, lerr + rerr


def split_adaptive_integral(f: SingularIntegrand, tol: float = 1e-14) -> ExactIntegral:
    """Split at b, map each side to t = |x-b|, and refine until panels agree."""
    b = f.b
    right, rerr = _adaptive(lambda t: f(b + t), 0.0, 1.0 - b, tol)
    left, lerr = _adaptive(lambda t: f(b - t), 0.0, 1.0 + b, tol)
    return ExactIntegral(value=right + left, method="split_adaptive",
                         est_abs_error=rerr + lerr)


def exact_integral(f: SingularIntegrand) -> ExactIntegral:
    """Exact value of the integral of f over [-1, 1]."""
    fam = f.family
    if f.envelope is None and isinstance(fam, Power):
        value, err = _power_closed_form(f.b, fam.k, fam.alpha)
        return ExactIntegral(value, "closed_form", err)
    if f.envelope is None and isinstance(fam, PowerLog):
        value, err = _powerlog_closed_form(f.b, fam.k, fam.beta)
        return ExactIntegral(value, "closed_form", err)
    if isinstance(fam, (Power, PowerLog, GeneralJump)):
        return split_adaptive_integral(f)
    raise ValueError(f"unsupported integrand family {type(fam).__name__}")


def example5_closed_form(b: float) -> float:
    """Closed form of the gauss-envelope integrand exp(-(x-b)^2)|x-b|,
    used to cross-check the adaptive path."""
    return 1.0 - 0.5 * (math.exp(-(1.0 - b) ** 2) + math.exp(-(1.0 + b) ** 2))
