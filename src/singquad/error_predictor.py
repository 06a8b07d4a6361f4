"""Leading-order Gauss-quadrature error for singular integrands.

Every integral here is a real integral over y in (0, y_max] of a factor
times the phase kernel

    (e^-x + cos Psi) / (cosh x + cos Psi)  or  sin Psi / (cosh x + cos Psi),

with x = 2y / sin phi; the strict envelopes for odd k use its bound
1 / sinh x.  The factor is the jump of f across the cut for the general
leading term, y^(k+alpha) (times the exact log bracket for power-log) for
the parity-reduced forms and the power-log envelopes, and x^(k+alpha) at
sin phi = 2 for the phase root cos Psi0.  The closed-form envelope bounds
of the power family need no integral.  Two private helpers carry the
rest:

_phase_kernel(y, sin_phi, cos_psi) is the only place the kernel is
written.  It returns e^-x + cos Psi and cosh x + cos Psi in expm1/sinh^2
form, so the cos Psi -> -1 limit stays finite down to the smallest node.
The complex kernel (sin Psi + i (e^-x + cos Psi)) / (cosh x + cos Psi)
is -(2/pi) Q_n/P_n at z = b + iy/n, where the uniform Legendre
asymptotics give Q_n/P_n = -i pi / (e^(x + i Psi) + 1).  The evidence is
in the tests: tests/paper_asymptotics.py builds Q_n/P_n from
_phase_kernel, and TestQPRatio checks it against exact Q_n/P_n.

_integrate(g, y_max, sigma, panels) integrates g with composite 32-point
Gauss panels graded geometrically toward y = 0, where the integrand
behaves like y^sigma (and like y^(sigma-1) at cos Psi = -1): the
substitution y = y_max u^p, p = max(1, 2/sigma), flattens that endpoint
so each panel sees an analytic integrand and the dropped stub is
negligible.  It also returns the sum over the outer half of the panels;
leading_term rejects a value whose inner half, nearest y = 0, changes it
by more than 1e-3.  The unit panels are cached per panel count.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .singularity_model import (GeneralJump, Power, PowerLog,
                                SingularIntegrand, jump, phase)
from .special_functions import zeta_fn

__all__ = [
    "ErrorPrediction",
    "CoefficientBounds",
    "LogEnvelope",
    "leading_term",
    "power_case_leading",
    "log_case_leading",
    "coefficient_bounds",
    "log_envelope_constants",
    "psi0_solve",
    "psi0_residual",
    "recommend_n",
    "predicted_order",
]

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)
_TRUNCATION = 10.0   # envelopes and general jumps: y in [0, 10 log n]


@dataclass(frozen=True)
class CoefficientBounds:
    """Envelope of the scaled coefficient n^(k+alpha+1) R_n.

    attained=True: both ends are reached along subsequences (k = 0, 2
    mod 4).  attained=False: symmetric strict bound (k = 1, 3 mod 4).
    """

    lower: float
    upper: float
    attained: bool


@dataclass(frozen=True)
class ErrorPrediction:
    order_exponent: float
    order_log_factor: bool
    regime_exponent: float
    regime_log_factor: bool
    coefficient_bounds: Optional[CoefficientBounds] = None


@dataclass(frozen=True)
class LogEnvelope:
    """Affine-in-log-n envelope A log n + B of the scaled coefficient for
    power-log integrands."""

    upper: tuple[float, float]
    lower: tuple[float, float]
    attained: bool


def _phase_kernel(y: np.ndarray, sin_phi: float, cos_psi: float):
    """(e^-x + cos Psi, cosh x + cos Psi) at x = 2y/sin phi."""
    x = 2.0 * y / sin_phi
    cp1 = 1.0 + cos_psi  # grouped: adding 1.0 to expm1 first would absorb
    return np.expm1(-x) + cp1, 2.0 * np.sinh(0.5 * x) ** 2 + cp1


@functools.lru_cache(maxsize=None)
def _unit_panels(panels: int):
    # panel j covers u in [2^-(j+1), 2^-j]
    edges = 0.5 ** np.arange(panels + 1)
    hi, lo = edges[:-1], edges[1:]
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    u = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wu = (half[:, None] * _GL_W[None, :]).ravel()
    u.setflags(write=False)
    wu.setflags(write=False)
    return u, wu


def _integrate(g, y_max: float, sigma: float, panels: int = 60):
    """(int_0^y_max g, the same over the outer panels/2 panels) on the
    graded rule; sigma sets the grading exponent p."""
    # p capped so u^p cannot underflow to an exact zero node
    p = min(16.0, max(1.0, 2.0 / max(sigma, 1e-3)))
    u, wu = _unit_panels(panels)
    y = y_max * u ** p
    w = wu * y_max * p * u ** (p - 1.0)
    vals = g(y)
    head = panels // 2 * len(_GL_X)
    return float(np.dot(w, vals)), float(np.dot(w[:head], vals[:head]))


def leading_term(f: SingularIntegrand, n: int) -> float:
    """Leading error term: (1/n) int Re([f](b+iy/n) K(y)) dy.

    Integrates on [0, 10 log n], or on the equivalent of [0, inf) for
    closed-form families without an envelope.
    """
    if not isinstance(n, numbers.Integral) or n < 10:
        raise ValueError(f"leading_term needs an integer n >= 10, got {n!r}")
    info = phase(f, n)
    sin_phi = math.sin(info.phi)
    sigma = f.singular_exponent
    if f.envelope is None and not isinstance(f.family, GeneralJump):
        # e^{-2y/sin phi} tail below 1e-26 of scale
        y_max = sin_phi * (30.0 + 3.0 * max(sigma, 0.0))
    else:
        y_max = _TRUNCATION * math.log(n)

    def g(y):
        even, den = _phase_kernel(y, sin_phi, info.cos_psi)
        return np.real(jump(f, y, n) * ((1j * even + info.sin_psi) / den))

    total, head = _integrate(g, y_max, sigma)
    full, check = total / n, head / n
    if not abs(full - check) <= 1e-3 * max(abs(full), 1e-13):  # nan fails
        raise RuntimeError(
            f"inner quadrature did not converge (refinement gap "
            f"{abs(full - check):.2e} vs value {full:.2e})")
    return full


def _parity_sign(k: int) -> float:
    # sign of the reduced integral: -1 for k = 0, 1 (mod 4), +1 for 2, 3
    return -1.0 if k % 4 in (0, 1) else 1.0


def _reduced_leading(f: SingularIntegrand, n: int, k: int, sigma: float,
                     reach: float, grade: float, scale: float,
                     bracket=None) -> float:
    """sign * scale * int_0^(reach sin phi) y^sigma bracket(y) N_k / D dy
    / n^(sigma+1), with N_k / D the even or odd phase kernel of k."""
    if f.envelope is not None:
        raise TypeError("parity reduction does not cover envelopes")
    info = phase(f, n)
    sin_phi = math.sin(info.phi)

    def g(y):
        even, den = _phase_kernel(y, sin_phi, info.cos_psi)
        kern = (even if k % 2 == 0 else info.sin_psi) / den
        factor = y ** sigma if bracket is None else y ** sigma * bracket(y)
        return factor * kern

    integral, _ = _integrate(g, sin_phi * reach, grade)
    return _parity_sign(k) * scale * integral / n ** (sigma + 1.0)


def power_case_leading(f: SingularIntegrand, n: int) -> float:
    """Parity-reduced leading term for the power family:

        -+ (2 sin(alpha pi/2) / n^(k+alpha+1)) *
           int_0^inf y^(k+alpha) N_k(y) / (cosh(2y/sin phi) + cos Psi) dy

    with N_k = e^{-2y/sin phi} + cos Psi for k = 0, 2 (mod 4) and
    N_k = sin Psi for k = 1, 3 (mod 4).  Agrees with leading_term to
    machine accuracy; the envelope, if any, is not part of this route.
    """
    fam = f.family
    if not isinstance(fam, Power):
        raise TypeError("power_case_leading requires a Power family")
    sigma = fam.k + fam.alpha
    return _reduced_leading(f, n, fam.k, sigma, 30.0 + 3.0 * sigma, sigma,
                            2.0 * math.sin(fam.alpha * math.pi / 2))


def log_case_leading(f: SingularIntegrand, n: int) -> float:
    """Parity-reduced leading term for the power-log family, keeping the
    exact log(y) - log(n) bracket."""
    fam = f.family
    if not isinstance(fam, PowerLog):
        raise TypeError("log_case_leading requires a PowerLog family")
    sigma = fam.k + fam.beta

    def bracket(y):
        return (2.0 * math.sin(fam.beta * math.pi / 2)
                * (np.log(y) - math.log(n))
                + math.pi * math.sin((fam.beta + 1.0) * math.pi / 2))

    return _reduced_leading(f, n, fam.k, sigma, 32.0 + 3.0 * max(sigma, 0.0),
                            max(sigma, 0.25), 1.0, bracket)


def coefficient_bounds(f: SingularIntegrand) -> CoefficientBounds:
    """Closed-form envelope of n^(k+alpha+1) R_n for the power family.

    k = 0, 2 (mod 4): the one-sided extremes
        U = sin(alpha pi/2) (sin phi)^(s+1) Gamma(s+1) zeta(s+1) / 2^(s-1),
        L = -(1 - 2^-s) U,  s = k + alpha,
    attained along subsequences with cos Psi -> -1 / +1 (roles swap for
    k = 2 mod 4).  k = 1, 3 (mod 4): the strict symmetric bound carrying
    (1 - 2^-(s+1)), which the oscillating coefficient never reaches.
    """
    fam = f.family
    if not isinstance(fam, Power):
        raise TypeError("coefficient_bounds requires a Power family")
    s = fam.k + fam.alpha
    sin_phi = math.sin(f.phi)
    base = (math.sin(fam.alpha * math.pi / 2) * sin_phi ** (s + 1.0)
            * math.gamma(s + 1.0) / 2.0 ** (s - 1.0) * zeta_fn(s + 1.0))
    if fam.k % 2 == 0:
        hi, lo = base, -(1.0 - 2.0 ** -s) * base
        if fam.k % 4 == 2:
            hi, lo = -lo, -hi
        return CoefficientBounds(lower=min(lo, hi), upper=max(lo, hi),
                                 attained=True)
    w = abs(base) * (1.0 - 2.0 ** -(s + 1.0))
    return CoefficientBounds(lower=-w, upper=w, attained=False)


def log_envelope_constants(f: SingularIntegrand) -> LogEnvelope:
    """Affine envelopes A log n + B of n^(k+beta+1) R_n for power-log
    integrands.

    k = 0, 2 (mod 4): attained envelopes from cos Psi = +/-1.
    k = 1, 3 (mod 4): strict symmetric bound from |sin Psi kernel| <=
    1/sinh; for beta = 0 this is the constant pi int y^k / sinh dy.
    """
    fam = f.family
    if not isinstance(fam, PowerLog):
        raise TypeError("log_envelope_constants requires a PowerLog family")
    sp = math.sin(f.phi)
    sigma = fam.k + fam.beta
    s_beta = math.sin(fam.beta * math.pi / 2)
    s_beta1 = math.sin((fam.beta + 1.0) * math.pi / 2)
    sign = _parity_sign(fam.k)

    def integral(g):
        return _integrate(g, sp * (34.0 + 3.0 * max(sigma, 0.0)),
                          max(sigma, 0.25))[0]

    if fam.k % 2 == 0:
        def at(cos_psi: float):
            def kern(y):
                even, den = _phase_kernel(y, sp, cos_psi)
                return y ** sigma * even / den

            def kern_log(y):
                even, den = _phase_kernel(y, sp, cos_psi)
                return y ** sigma * np.log(y) * even / den
            base, base_log = integral(kern), integral(kern_log)
            # scaled = sign * [2 s_beta (log y - log n) + pi s_beta1] * kernel
            a = -sign * 2.0 * s_beta * base
            b = sign * (2.0 * s_beta * base_log + math.pi * s_beta1 * base)
            return a, b

        cand = [at(1.0), at(-1.0)]
        # upper envelope: larger A (log n dominates eventually)
        cand.sort(key=lambda ab: ab[0])
        return LogEnvelope(upper=cand[1], lower=cand[0], attained=True)

    base = integral(lambda y: y ** sigma / np.sinh(2.0 * y / sp))
    base_log = integral(
        lambda y: y ** sigma * np.abs(np.log(y)) / np.sinh(2.0 * y / sp))
    a_sym = abs(2.0 * s_beta) * base
    b_sym = math.pi * abs(s_beta1) * base + abs(2.0 * s_beta) * base_log
    return LogEnvelope(upper=(a_sym, b_sym), lower=(-a_sym, -b_sym),
                       attained=False)


def psi0_residual(k: int, alpha: float, cos_psi0: float) -> float:
    """Value of int_0^inf x^(k+alpha) (e^-x + c)/(cosh x + c) dx at
    c = cos_psi0; the recommendation root is its zero."""
    sigma = k + alpha

    def g(y):
        even, den = _phase_kernel(y, 2.0, cos_psi0)  # x = 2y/2 = y exactly
        return y ** sigma * even / den

    return _integrate(g, 70.0 + 3.0 * sigma, sigma, panels=80)[0]


def psi0_solve(k: int, alpha: float) -> float:
    """cos Psi0 where the k = 0, 2 (mod 4) leading coefficient vanishes.

    The defining integral is strictly increasing in cos Psi0, so bisection
    on (-1 + 1e-9, 1) is safe; the endpoints have opposite signs because
    the attained envelope extremes do.
    """
    Power(k, alpha)   # raises ValueError on an invalid pair
    if k % 4 not in (0, 2):
        raise ValueError("psi0_solve applies to k = 0, 2 (mod 4) only")
    lo, hi = -1.0 + 1e-9, 1.0
    flo = psi0_residual(k, alpha, lo)
    fhi = psi0_residual(k, alpha, hi)
    if flo >= 0.0 or fhi <= 0.0:
        raise RuntimeError("no sign change for the phase-root integral")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = psi0_residual(k, alpha, mid)
        if abs(fmid) <= 1e-10:
            return mid
        if fmid > 0.0:
            hi = mid
        else:
            lo = mid
    raise RuntimeError("phase-root bisection did not converge")


def _predicted_coefficient(f: SingularIntegrand, n: int) -> float:
    fam = f.family
    if isinstance(fam, Power) and f.envelope is None:
        lead = power_case_leading(f, n)
    elif isinstance(fam, PowerLog) and f.envelope is None:
        lead = log_case_leading(f, n)
    else:
        lead = leading_term(f, n)
    return lead * n ** (f.singular_exponent + 1.0)


def recommend_n(f: SingularIntegrand, n_min: int, n_max: int) -> list[int]:
    """Quadrature sizes in [n_min, n_max] sorted by ascending magnitude of
    the predicted leading coefficient (ties: smaller n first).

    For k = 0, 2 (mod 4) this favors cos Psi near the phase root; for
    k = 1, 3 (mod 4) it favors cos((2n+1) phi) near 0.
    """
    if not (isinstance(n_min, numbers.Integral)
            and isinstance(n_max, numbers.Integral) and 10 <= n_min <= n_max):
        raise ValueError("need integers 10 <= n_min <= n_max")
    sizes = list(range(n_min, n_max + 1))
    return sorted(sizes, key=lambda n: (abs(_predicted_coefficient(f, n)), n))


def predicted_order(f: SingularIntegrand) -> ErrorPrediction:
    """Order fields of the error prediction: leading exponent k+alpha+1
    (log factor for power-log with beta != 0) and the higher-order regime
    from the three-way split on k + alpha versus 1."""
    sigma = f.singular_exponent
    order_log = isinstance(f.family, PowerLog) and f.family.beta != 0.0
    if sigma < 1.0:
        regime, regime_log = 2.0 * sigma + 1.0, False
    elif sigma == 1.0:
        regime, regime_log = sigma + 2.0, True
    else:
        regime, regime_log = sigma + 2.0, False
    bounds = None
    if isinstance(f.family, Power):
        bounds = coefficient_bounds(f)
    return ErrorPrediction(order_exponent=sigma + 1.0,
                           order_log_factor=order_log,
                           regime_exponent=regime,
                           regime_log_factor=regime_log,
                           coefficient_bounds=bounds)
