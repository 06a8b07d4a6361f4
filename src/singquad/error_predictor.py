"""Leading-order Gauss-quadrature error for singular integrands.

Every integral here is a real integral over y in (0, y_max] of a factor
times the phase kernel

    (e^-x + cos Psi) / (cosh x + cos Psi)  or  sin Psi / (cosh x + cos Psi),

with x = 2y / sin phi; the strict envelopes for odd k use its bound
1 / sinh x, all on the one reach y_max = sin phi (34 + 3 sigma).
Envelopes and general jumps take the jump route: Re of the jump of f
across the cut times the complex kernel.  All else is _reduced, the
parity-reduced integral of y^(k+alpha) (times the log bracket for
power-log) against the even kernel for even k and the odd one for odd
k: the Power and PowerLog leading terms, the power-log envelopes and,
at sin phi = 2 (x = y), the phase root.  Both routes depend on n and
Psi only through cos Psi, sin Psi and the jump or the bracket, so the
rest (weights, e^-x - 1, cosh x - 1) is built once per (sigma, sin phi)
by _grid, and each size forms only the rational kernel and two dot
products: _leading_terms ranks every size of recommend_n and run_sweep
on one grid, and psi0_solve bisects on one.

_kernel_parts(y, sin_phi) is the only place the kernel's x-dependence is
written, in expm1/sinh^2 form; both routes add cp1 = 1 + cos Psi, which
PhaseInfo carries as 2 cos^2(Psi/2), so that neither cancels as
cos Psi -> -1.  The complex kernel
(sin Psi + i (e^-x + cos Psi)) / (cosh x + cos Psi) is -(2/pi) Q_n/P_n
at z = b + iy/n, where the uniform Legendre asymptotics give
Q_n/P_n = -i pi / (e^(x + i Psi) + 1); tests/paper_asymptotics.py
builds Q_n/P_n from _kernel_parts, and TestQPRatio checks it against
exact Q_n/P_n.

_graded(y_max, sigma) is the only quadrature rule (_grid applies it to
the leading terms, _integrate to the odd-k envelope integrals): 60
panels with the nodes of compute_rule(32), built at import and graded
toward y = 0, where the integrand behaves like y^sigma (and like
y^(sigma-1) at cos Psi = -1).  The substitution y = y_max u^p,
p = min(8, max(1, 2/sigma)), flattens that endpoint so each panel sees
an analytic integrand and the dropped stub is negligible (away from
cos Psi = -1, sigma < 1/4 stays within 1e-13 of the closed form; a cap
of 16 lost up to 6e-7).  _sums also returns the sum over the outer
half of the panels; both leading-term routes reject a value that is not
finite or whose inner half, nearest y = 0, changes it by more than 1e-3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .gauss_rule import compute_rule
from .singularity_model import (Power, PowerLog, SingularIntegrand, jump,
                                phase)
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

_REACH = 34.0   # every leading term: y in [0, sin phi (34 + 3 sigma)]


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


def _kernel_parts(y: np.ndarray, sin_phi: float):
    """(e^-x - 1, cosh x - 1) at x = 2y/sin phi: the kernel without Psi."""
    x = 2.0 * y / sin_phi
    return np.expm1(-x), 2.0 * np.sinh(0.5 * x) ** 2


def _unit_panels():
    # 60 panels in u: octaves [2^-(j+1), 2^-j] down to 2^-58, the two top
    # ones halved, since y = y_max u^p crowds the kernel's decay near u = 1
    rule = compute_rule(32)
    edges = 0.5 ** np.concatenate([np.arange(0.0, 2.0, 0.5),
                                   np.arange(2.0, 59.0)])
    hi, lo = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = (mid + half * rule.nodes).ravel()
    wu = (half * rule.weights).ravel()
    for a in (u, wu):
        a.setflags(write=False)
    return u, wu


_U, _WU = _unit_panels()
_HEAD = len(_U) // 2


def _graded(y_max: float, sigma: float):
    """Nodes and weights of the graded rule on [0, y_max]; sigma sets the
    grading exponent p."""
    p = min(8.0, max(1.0, 2.0 / sigma))
    return y_max * _U ** p, _WU * y_max * p * _U ** (p - 1.0)


def _sums(w: np.ndarray, vals: np.ndarray):
    """(sum w vals, the same over the outer half of the panels)."""
    return float(np.dot(w, vals)), float(np.dot(w[:_HEAD], vals[:_HEAD]))


def _integrate(g, y_max: float, sigma: float):
    """(int_0^y_max g, the same over the outer half of the panels) on the
    graded rule."""
    y, w = _graded(y_max, sigma)
    return _sums(w, g(y))


class _Grid(NamedTuple):
    """The n- and Psi-free parts of the integrand at one (sigma, sin phi)."""

    y: np.ndarray
    w: np.ndarray
    em1: np.ndarray    # e^-x - 1
    sh2: np.ndarray    # cosh x - 1


def _grid(sigma: float, sin_phi: float) -> _Grid:
    """_Grid on the reach [0, sin phi (34 + 3 sigma)]."""
    y, w = _graded(sin_phi * (_REACH + 3.0 * sigma), sigma)
    return _Grid(y, w, *_kernel_parts(y, sin_phi))


def _reduced(grid: _Grid, odd: bool, cp1: float, sin_psi: float,
             factor: np.ndarray):
    """_sums of factor N / D on grid at one phase, with N / D the even
    kernel, or the odd one if odd."""
    kern = (sin_psi if odd else grid.em1 + cp1) / (grid.sh2 + cp1)
    return _sums(grid.w, factor * kern)


def _checked(value: float, check: float) -> float:
    """value, unless it is not finite or the inner panels moved it > 1e-3."""
    if not (math.isfinite(value)
            and abs(value - check) <= 1e-3 * max(abs(value), 1e-13)):
        raise RuntimeError(
            f"inner quadrature did not converge (refinement gap "
            f"{abs(value - check):.2e} vs value {value:.2e})")
    return value


def leading_term(f: SingularIntegrand, n: int) -> float:
    """Leading error term: (1/n) int Re([f](b+iy/n) K(y)) dy.

    Power and PowerLog without an envelope take their parity-reduced
    route; envelopes and general jumps integrate the jump.
    """
    return _leading_terms(f, [n])[0]


def _leading_terms(f: SingularIntegrand, ns) -> list[float]:
    """[leading_term(f, n) for n in ns], with one grid for all n."""
    for n in ns:
        if not isinstance(n, numbers.Integral) or n < 10:
            raise ValueError(
                f"leading_term needs an integer n >= 10, got {n!r}")
    if f.envelope is None and isinstance(f.family, (Power, PowerLog)):
        return _reduced_terms(f, ns)
    return _jump_terms(f, ns)


def _jump_terms(f: SingularIntegrand, ns) -> list[float]:
    """(1/n) int Re([f] K) at f's phase for each n, on one grid; open to
    every integrand."""
    grid = _grid(f.singular_exponent, math.sin(f.phi))
    out = []
    for n in ns:
        info = phase(f, n)
        kern = ((1j * (grid.em1 + info.cp1) + info.sin_psi)
                / (grid.sh2 + info.cp1))
        total, head = _sums(grid.w, np.real(jump(f, grid.y, n) * kern))
        out.append(_checked(total / n, head / n))
    return out


def _parity_sign(k: int) -> float:
    # sign of the reduced integral: -1 for k = 0, 1 (mod 4), +1 for 2, 3
    return -1.0 if k % 4 in (0, 1) else 1.0


def _reduced_terms(f: SingularIntegrand, ns) -> list[float]:
    """sign * scale * _reduced / n^(sigma+1) at f's phase for each n, on
    one grid; power-log carries the bracket a (log y - log n) + b."""
    if f.envelope is not None:
        raise TypeError("parity reduction does not cover envelopes")
    fam, sigma = f.family, f.singular_exponent
    grid = _grid(sigma, math.sin(f.phi))
    ys = grid.y ** sigma
    if isinstance(fam, Power):
        scale = 2.0 * math.sin(fam.alpha * math.pi / 2)

        def factor(n):
            return ys
    else:
        scale = 1.0
        a = 2.0 * math.sin(fam.beta * math.pi / 2)
        b = math.pi * math.sin((fam.beta + 1.0) * math.pi / 2)
        logy = np.log(grid.y)

        def factor(n):
            return ys * (a * (logy - math.log(n)) + b)

    c, odd = _parity_sign(fam.k) * scale, fam.k % 2 == 1
    out = []
    for n in ns:
        info = phase(f, n)
        total, head = _reduced(grid, odd, info.cp1, info.sin_psi, factor(n))
        d = n ** (sigma + 1.0)
        out.append(_checked(c * total / d, c * head / d))
    return out


def power_case_leading(f: SingularIntegrand, n: int) -> float:
    """Parity-reduced leading term for the power family:

        -+ (2 sin(alpha pi/2) / n^(k+alpha+1)) *
           int_0^inf y^(k+alpha) N_k(y) / (cosh(2y/sin phi) + cos Psi) dy

    with N_k = e^{-2y/sin phi} + cos Psi for k = 0, 2 (mod 4) and
    N_k = sin Psi for k = 1, 3 (mod 4).  Agrees with leading_term to
    machine accuracy; the envelope, if any, is not part of this route.
    """
    if not isinstance(f.family, Power):
        raise TypeError("power_case_leading requires a Power family")
    return _reduced_terms(f, [n])[0]


def log_case_leading(f: SingularIntegrand, n: int) -> float:
    """Parity-reduced leading term for the power-log family, keeping the
    exact log(y) - log(n) bracket."""
    if not isinstance(f.family, PowerLog):
        raise TypeError("log_case_leading requires a PowerLog family")
    return _reduced_terms(f, [n])[0]


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

    if fam.k % 2 == 0:
        grid = _grid(sigma, sp)
        ys = grid.y ** sigma
        ys_log = ys * np.log(grid.y)

        def at(cp1: float):
            base = _reduced(grid, False, cp1, 0.0, ys)[0]
            base_log = _reduced(grid, False, cp1, 0.0, ys_log)[0]
            # scaled = sign * [2 s_beta (log y - log n) + pi s_beta1] * kernel
            a = -sign * 2.0 * s_beta * base
            b = sign * (2.0 * s_beta * base_log + math.pi * s_beta1 * base)
            return a, b

        # cos Psi = +1 and -1; upper has the larger A (log n dominates
        # eventually), or the larger B where A ties (beta = 0)
        lower, upper = sorted([at(2.0), at(0.0)])
        return LogEnvelope(upper=upper, lower=lower, attained=True)

    def bound(factor, y_max):
        return _integrate(lambda y: y ** sigma * factor(y)
                          / np.sinh(2.0 * y / sp), y_max, sigma)[0]

    y_max = sp * (_REACH + 3.0 * sigma)
    base = bound(np.ones_like, y_max)
    # |log y| has a kink at y = 1 inside a panel: integrate log y, then
    # flip the sign of the part below y = 1
    base_log = bound(np.log, y_max) - 2.0 * bound(np.log, min(1.0, y_max))
    a_sym = abs(2.0 * s_beta) * base
    b_sym = math.pi * abs(s_beta1) * base + abs(2.0 * s_beta) * base_log
    return LogEnvelope(upper=(a_sym, b_sym), lower=(-a_sym, -b_sym),
                       attained=False)


def _psi0_integral(k: int, alpha: float):
    # c -> psi0_residual(k, alpha, c) on one grid: the even kernel (k = 0)
    # at sin phi = 2, where x = 2y/2 = y exactly
    grid = _grid(k + alpha, 2.0)
    ys = grid.y ** (k + alpha)
    return lambda c: _reduced(grid, False, 1.0 + c, 0.0, ys)[0]


def psi0_residual(k: int, alpha: float, cos_psi0: float) -> float:
    """Value of int_0^inf x^(k+alpha) (e^-x + c)/(cosh x + c) dx at
    c = cos_psi0; the recommendation root is its zero."""
    return _psi0_integral(k, alpha)(cos_psi0)


def psi0_solve(k: int, alpha: float) -> float:
    """cos Psi0 where the k = 0, 2 (mod 4) leading coefficient vanishes.

    The defining integral is strictly increasing in cos Psi0, so bisection
    on (-1 + 1e-9, 1) is safe; the endpoints have opposite signs because
    the attained envelope extremes do.  Every step reuses one grid.  It
    stops at |f| <= 1e-10 or once the bracket is two adjacent doubles.
    """
    Power(k, alpha)   # raises ValueError on an invalid pair
    if k % 4 not in (0, 2):
        raise ValueError("psi0_solve applies to k = 0, 2 (mod 4) only")
    value = _psi0_integral(k, alpha)
    lo, hi = -1.0 + 1e-9, 1.0
    flo, fhi = value(lo), value(hi)
    if flo >= 0.0 or fhi <= 0.0:
        raise RuntimeError("no sign change for the phase-root integral")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = value(mid)
        if abs(fmid) <= 1e-10:
            return mid
        if mid in (lo, hi):   # |f| ~ Gamma(k + alpha + 1) may stay > 1e-10
            return mid
        if fmid > 0.0:
            hi = mid
        else:
            lo = mid
    raise RuntimeError("phase-root bisection did not converge")


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
    expo = f.singular_exponent + 1.0
    ranked = sorted((abs(lead * n ** expo), n)
                    for n, lead in zip(sizes, _leading_terms(f, sizes)))
    return [n for _, n in ranked]


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
