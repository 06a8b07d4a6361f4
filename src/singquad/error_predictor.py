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
k: the Power and PowerLog leading terms, the envelopes of both families
(one body, _envelope_lines, at cos Psi = +/-1) and, at sin phi = 2
(x = y), the phase root.  Both routes depend on n and
Psi only through cos Psi, sin Psi and the jump or the bracket, so the
rest (weights, e^-x - 1, cosh x - 1) is built once per (sigma, sin phi)
by _grid (cosh x - 1 is inf far out, where the kernel's share is 0).
Each size takes its phase as two floats from _phase_parts, forms the
kernel and its factor in the grid's workspace with the float operations
of the written form, and takes one dot product: _leading_terms ranks
every size of recommend_n and run_sweep on one grid, and psi0_solve
bisects on one.

_kernel_parts(y, sin_phi) is the only place the kernel's x-dependence is
written, in expm1/sinh^2 form; both routes add cp1 = 1 + cos Psi, which
_phase_parts gives as 2 cos^2(Psi/2), so that neither cancels as
cos Psi -> -1, and the odd-k bound takes sinh x as the difference
(cosh x - 1) - (e^-x - 1) of its two nonnegative parts.  The complex
kernel (sin Psi + i (e^-x + cos Psi)) / (cosh x + cos Psi) is
-(2/pi) Q_n/P_n at z = b + iy/n, where the uniform Legendre asymptotics
give Q_n/P_n = -i pi / (e^(x + i Psi) + 1); tests/paper_asymptotics.py
builds Q_n/P_n from _kernel_parts, and TestQPRatio checks it against
exact Q_n/P_n.

_graded(y_max, sigma) with _sums is the only quadrature rule, and _grid
the only caller (on the reach, or, for the odd-k power-log bound, on
[0, min(1, y_max)], below the kink of |log y| at y = 1): 60 panels with
the nodes of compute_rule(32), built at import and graded toward y = 0,
where the integrand behaves like y^sigma.  The substitution
y = y_max u^p, p = min(8, max(1, 2/sigma)), flattens that endpoint so
each panel sees an analytic integrand and the dropped stub below the
lowest panel edge y0 = y_max 2^(-58 p) is negligible (away from
cos Psi = -1, sigma < 1/4 stays within 1e-13 of the closed form; a cap
of 16 lost up to 6e-7).  At cos Psi = -1 (b = 0 with odd n) and in the
odd-k bound the integrand goes like C y^(sigma-1) instead, and the stub
is not negligible for small sigma: the grid carries _head, the analytic
integral of y^(sigma-1) and y^(sigma-1) log y over [0, y0], and C times
it is added, as _stub (C = -sin phi) by _reduced and by the jump route
of Power and PowerLog, and by the odd-k bound (C = sin phi / 2).  So
every value of Power and PowerLog is the closed form near y = 0 plus the
panels, and is only checked to be finite; a GeneralJump's jump comes
from the caller, and its value is also rejected if the inner half of the
panels, nearest y = 0, changes it by more than 1e-3.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .gauss_rule import compute_rule
from .singularity_model import (Power, PowerLog, SingularIntegrand,
                                _jump_coefficients, _phase_parts, jump)

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
    "recommend_n",
    "predicted_order",
]

_REACH = 34.0   # every leading term: y in [0, sin phi (34 + 3 sigma)]
_MIN_N = 10     # the smallest size any prediction or sweep takes
_OCTAVES = 58   # the graded rule's lowest panel edge is u = 2^-58


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


def _kernel_parts(y: np.ndarray, sin_phi: float) -> np.ndarray:
    """[e^-x - 1; cosh x - 1] at x = 2y/sin phi, stacked and read-only:
    the kernel without Psi.  It unpacks as em1, sh2, also for a scalar y."""
    x = np.asarray(2.0 * y / sin_phi)
    parts = np.empty((2,) + x.shape)
    em1, sh2 = parts[0, ...], parts[1, ...]
    np.expm1(-x, out=em1)
    np.sinh(0.5 * x, out=sh2)
    np.square(sh2, out=sh2)         # the ufuncs of 2.0 * np.sinh(...) ** 2
    np.multiply(2.0, sh2, out=sh2)
    parts.setflags(write=False)
    return parts


def _unit_panels():
    # 60 panels in u: octaves [2^-(j+1), 2^-j] down to 2^-58, the two top
    # ones halved, since y = y_max u^p crowds the kernel's decay near u = 1
    rule = compute_rule(32)
    edges = 0.5 ** np.concatenate([np.arange(0.0, 2.0, 0.5),
                                   np.arange(2.0, _OCTAVES + 1.0)])
    hi, lo = edges[:-1, None], edges[1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    u = (mid + half * rule.nodes).ravel()
    wu = (half * rule.weights).ravel()
    for a in (u, wu):
        a.setflags(write=False)
    return u, wu


_U, _WU = _unit_panels()
_HEAD = len(_U) // 2


def _grading(sigma: float) -> float:
    """The exponent p of y = y_max u^p for an integrand like y^sigma."""
    return min(8.0, max(1.0, 2.0 / sigma))


def _graded(y_max: float, sigma: float):
    """Nodes and weights of the graded rule on [0, y_max]."""
    p = _grading(sigma)
    return y_max * _U ** p, _WU * y_max * p * _U ** (p - 1.0)


def _head(y_max: float, sigma: float):
    """int_0^y0 y^(sigma-1) dy and int_0^y0 y^(sigma-1) log y dy below the
    lowest panel edge y0 = y_max 2^(-58 p) of _graded(y_max, sigma)."""
    y0 = y_max * 0.5 ** (_OCTAVES * _grading(sigma))
    h0 = y0 ** sigma / sigma
    return h0, h0 * (math.log(y0) - 1.0 / sigma)


def _sums(w: np.ndarray, vals: np.ndarray) -> float:
    return float(np.dot(w, vals))


class _Grid(NamedTuple):
    """The n- and Psi-free parts of the integrand at one (sigma, sin phi),
    and a workspace for the sizes' kernels, per call and never shared."""

    y: np.ndarray
    w: np.ndarray
    parts: np.ndarray   # _kernel_parts, read-only
    work: np.ndarray    # of parts' shape
    em1: np.ndarray     # e^-x - 1, parts[0]
    sh2: np.ndarray     # cosh x - 1, parts[1]
    sin_phi: float
    y_max: float
    head: tuple[float, float]   # _head(y_max, sigma)


def _grid(sigma: float, sin_phi: float,
          y_max: Optional[float] = None) -> _Grid:
    """_Grid on [0, y_max], by default the reach sin phi (34 + 3 sigma)."""
    if y_max is None:
        y_max = sin_phi * (_REACH + 3.0 * sigma)
    y, w = _graded(y_max, sigma)
    with np.errstate(over="ignore"):
        # cosh x - 1 overflows far out, where the kernel's share is 0
        parts = _kernel_parts(y, sin_phi)
    return _Grid(y, w, parts, np.empty_like(parts), parts[0], parts[1],
                 sin_phi, y_max, _head(y_max, sigma))


def _stub(grid: _Grid, a: float, c: float, log_n: float) -> float:
    """The even kernel's integral at cos Psi = -1 below the grid's lowest
    panel edge, where the kernel goes like -sin phi / y: -sin phi times
    the head of y^sigma (a (log y - log n) + c)."""
    h0, h1 = grid.head
    return -grid.sin_phi * ((a * (h1 - log_n * h0) if a else 0.0) + c * h0)


def _reduced(grid: _Grid, odd: bool, cp1: float, sin_psi: float,
             factor: np.ndarray, a: float = 0.0, c: float = 1.0,
             log_n: float = 0.0) -> float:
    """The grid sum of factor N / D at one phase, with N / D the even
    kernel, or the odd one if odd, and factor = y^sigma (a (log y - log n)
    + c); at cos Psi = -1 the even kernel adds its _stub.  N / D and
    factor N / D are formed in the grid's workspace."""
    num, den = grid.work
    if odd:
        np.add(grid.sh2, cp1, out=den)
        np.divide(sin_psi, den, out=num)
    else:
        np.add(grid.parts, cp1, out=grid.work)
        np.divide(num, den, out=num)
    num *= factor    # the bits of factor * (N / D): products commute
    total = _sums(grid.w, num)
    if cp1 == 0.0 and not odd:
        total += _stub(grid, a, c, log_n)
    return total


def _checked(value: float, outer: Optional[float] = None) -> float:
    """value, unless it is not finite or, given the sum outer over the
    outer half of the panels, the inner half moved it by more than 1e-3."""
    gap = 0.0 if outer is None else abs(value - outer)
    if not (math.isfinite(value)
            and gap <= 1e-3 * max(abs(value), 1e-13)):
        raise RuntimeError(
            f"inner quadrature did not converge (refinement gap "
            f"{gap:.2e} vs value {value:.2e})")
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
        integral = type(n) is int or isinstance(n, numbers.Integral)
        if not integral or n < _MIN_N:
            raise ValueError(
                f"leading_term needs an integer n >= {_MIN_N}, got {n!r}")
    if f.envelope is None and isinstance(f.family, (Power, PowerLog)):
        return _reduced_terms(f, ns)
    return _jump_terms(f, ns)


def _jump_terms(f: SingularIntegrand, ns) -> list[float]:
    """(1/n) int Re([f] K) at f's phase for each n, on one grid; open to
    every integrand.  For Power and PowerLog with even k, cos Psi = -1
    adds the _stub of the bracket times the jump's e(b) / n^sigma.  A
    GeneralJump's jump comes from the caller, so its sum must also agree
    with the sum over the outer half of the panels."""
    fam, sigma, b, phi = f.family, f.singular_exponent, f.b, f.phi
    grid = _grid(sigma, math.sin(phi))
    em, den = grid.work
    out = []
    for n in ns:
        sin_psi, cp1 = _phase_parts(b, phi, n)
        np.add(grid.parts, cp1, out=grid.work)   # em1 + cp1, sh2 + cp1
        kern = (1j * em + sin_psi) / den
        vals = np.real(jump(f, grid.y, n) * kern)
        total, outer = _sums(grid.w, vals), None
        if not isinstance(fam, (Power, PowerLog)):
            outer = _sums(grid.w[:_HEAD], vals[:_HEAD]) / n
        elif cp1 == 0.0 and fam.k % 2 == 0:
            env = (1.0 if f.envelope is None
                   else float(np.real(f.envelope(complex(f.b)))))
            total += (_stub(grid, *_jump_coefficients(fam), math.log(n))
                      * _parity_sign(fam.k) * env / n ** sigma)
        out.append(_checked(total / n, outer))
    return out


def _parity_sign(k: int) -> float:
    # sign of the reduced integral: -1 for k = 0, 1 (mod 4), +1 for 2, 3
    return -1.0 if k % 4 in (0, 1) else 1.0


def _reduced_terms(f: SingularIntegrand, ns) -> list[float]:
    """sign * scale * _reduced / n^(sigma+1) at f's phase for each n, on
    one grid; power-log carries the bracket a (log y - log n) + c of
    _jump_coefficients, and power the bracket 1, scaled by its c."""
    if f.envelope is not None:
        raise TypeError("parity reduction does not cover envelopes")
    fam, sigma, b, phi = f.family, f.singular_exponent, f.b, f.phi
    grid = _grid(sigma, math.sin(phi))
    ys = grid.y ** sigma
    a, c = _jump_coefficients(fam)
    if isinstance(fam, Power):
        scale, bracket = c, lambda n: (ys,)
    else:
        logy, buf = np.log(grid.y), np.empty_like(ys)
        scale = 1.0

        def bracket(n):   # _reduced's (factor, a, c, log n) at size n
            # ys * (a * (logy - log_n) + c), in buf; products commute
            log_n = math.log(n)
            np.subtract(logy, log_n, out=buf)
            np.multiply(buf, a, out=buf)
            np.add(buf, c, out=buf)
            np.multiply(buf, ys, out=buf)
            return buf, a, c, log_n
    scale, odd = _parity_sign(fam.k) * scale, fam.k % 2 == 1
    out = []
    for n in ns:
        sin_psi, cp1 = _phase_parts(b, phi, n)
        total = _reduced(grid, odd, cp1, sin_psi, *bracket(n))
        out.append(_checked(scale * total / n ** (sigma + 1.0)))
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


def _envelope_lines(f: SingularIntegrand):
    """(lower, upper, attained): lines (A, B) of A log n + B enclosing the
    scaled coefficient n^(sigma+1) R_n of a Power (A = 0) or PowerLog
    family, whose bracket is a (log y - log n) + c of _jump_coefficients.

    k = 0, 2 (mod 4): the reduced integral at cos Psi = +1 and -1,
    attained along subsequences; upper has the larger A (log n dominates
    eventually), or the larger B where A ties.  k = 1, 3 (mod 4): the
    strict symmetric bound from |sin Psi / (cosh x + cos Psi)| <= 1/sinh x.
    Where the integrand goes like C y^(sigma-1) at y = 0 (the even kernel
    at cos Psi = -1, C = -sin phi; 1/sinh x, C = sin phi / 2) the rule
    adds C times the analytic integral below its lowest panel edge.
    """
    fam = f.family
    sigma, sp = f.singular_exponent, math.sin(f.phi)
    a, c = _jump_coefficients(fam)
    sign = _parity_sign(fam.k)
    with np.errstate(over="ignore", invalid="ignore"):
        # y^sigma overflows past sigma ~ 119; the check below raises
        grid = _grid(sigma, sp)
        ys = grid.y ** sigma
        ys_log = ys * np.log(grid.y) if a else None   # no log for Power
        if fam.k % 2 == 0:
            def at(cp1: float):
                base = _reduced(grid, False, cp1, 0.0, ys)
                base_log = (_reduced(grid, False, cp1, 0.0, ys_log, 1.0, 0.0)
                            if a else 0.0)
                # scaled = sign * [a (log y - log n) + c] * kernel
                return -sign * a * base, sign * (a * base_log + c * base)

            lower, upper = sorted([at(2.0), at(0.0)])
        else:
            def over_sinh(g: _Grid, vals: np.ndarray, head: float):
                # 1/sinh x = 1/((cosh x - 1) - (e^-x - 1)), two nonnegative
                # terms, goes like sin phi / (2y) at y = 0
                return _sums(g.w, vals / (g.sh2 - g.em1)) + 0.5 * sp * head

            base = over_sinh(grid, ys, grid.head[0])
            base_log = 0.0
            if a:
                # |log y| has a kink at y = 1 inside a panel: integrate
                # log y, then flip the sign of the part below y = 1 on a
                # grid of its own
                kink = _grid(sigma, sp, min(1.0, grid.y_max))
                below = over_sinh(kink, kink.y ** sigma * np.log(kink.y),
                                  kink.head[1])
                base_log = over_sinh(grid, ys_log, grid.head[1]) - 2.0 * below
            a_sym = abs(a) * base
            b_sym = abs(c) * base + abs(a) * base_log
            lower, upper = (-a_sym, -b_sym), (a_sym, b_sym)
    if not all(map(math.isfinite, lower + upper)):
        raise ValueError(f"envelope lines overflow at sigma = {sigma}")
    return lower, upper, fam.k % 2 == 0


def coefficient_bounds(f: SingularIntegrand) -> CoefficientBounds:
    """Envelope of n^(k+alpha+1) R_n for the power family: the B's of
    _envelope_lines (A = 0), which compute on the grid the closed forms

    k = 0, 2 (mod 4): the one-sided extremes
        U = sin(alpha pi/2) (sin phi)^(s+1) Gamma(s+1) zeta(s+1) / 2^(s-1),
        L = -(1 - 2^-s) U,  s = k + alpha,
    attained along subsequences with cos Psi -> -1 / +1 (roles swap for
    k = 2 mod 4).  k = 1, 3 (mod 4): the strict symmetric bound
    |U| (1 - 2^-(s+1)), which the oscillating coefficient never reaches.
    """
    if not isinstance(f.family, Power):
        raise TypeError("coefficient_bounds requires a Power family")
    lower, upper, attained = _envelope_lines(f)
    return CoefficientBounds(lower=lower[1], upper=upper[1],
                             attained=attained)


def log_envelope_constants(f: SingularIntegrand) -> LogEnvelope:
    """Affine envelopes A log n + B of n^(k+beta+1) R_n for power-log
    integrands, from _envelope_lines.

    k = 0, 2 (mod 4): attained envelopes from cos Psi = +/-1.
    k = 1, 3 (mod 4): strict symmetric bound from |sin Psi kernel| <=
    1/sinh; for beta = 0 this is the constant pi int y^k / sinh dy.
    """
    if not isinstance(f.family, PowerLog):
        raise TypeError("log_envelope_constants requires a PowerLog family")
    lower, upper, attained = _envelope_lines(f)
    return LogEnvelope(upper=upper, lower=lower, attained=attained)


def _psi0_integral(k: int, alpha: float):
    # c -> int_0^inf x^(k+alpha) (e^-x + c)/(cosh x + c) dx on one grid,
    # whose zero is the phase root: the even kernel (k = 0) at sin phi = 2,
    # where x = 2y/2 = y exactly
    grid = _grid(k + alpha, 2.0)
    ys = grid.y ** (k + alpha)
    return lambda c: _reduced(grid, False, 1.0 + c, 0.0, ys)


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
            and isinstance(n_max, numbers.Integral)
            and _MIN_N <= n_min <= n_max):
        raise ValueError(f"need integers {_MIN_N} <= n_min <= n_max")
    sizes = list(range(n_min, n_max + 1))
    return _ranked(sizes, _leading_terms(f, sizes), f.singular_exponent)


def _ranked(sizes, leads, sigma: float) -> list[int]:
    """sizes by ascending |lead n^(sigma+1)|, ties smaller n first."""
    return [n for _, n in sorted((abs(lead * n ** (sigma + 1.0)), n)
                                 for n, lead in zip(sizes, leads))]


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
