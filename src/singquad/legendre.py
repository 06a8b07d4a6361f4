"""Legendre functions and their uniform asymptotic approximations.

Covers P_n and its derivative for real and complex argument, Q_n off the
cut by a backward-stable hybrid (continued fraction away from [-1,1],
Neumann's formula close to it), the two-exponential uniform asymptotic
form for P_n with its 1/n corrections, the single-exponential form for
Q_n, the closed-form Q_n/P_n ratio on vertical lines through an interior
point of (-1,1), and the sampled ratio maximum on the Bernstein ellipse.

Branch convention: xi = log(z + sqrt(z^2-1)) with the principal branch,
so xi > 0 for real z > 1 and xi -> i*arccos(x) on the upper side of the
cut.  Lower half-plane values follow by Schwarz reflection.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "XiCoordinate",
    "AsymptoticDomain",
    "xi_of_z",
    "legendre_p",
    "legendre_p_deriv",
    "legendre_q",
    "p_asymptotic",
    "p_asymptotic_log",
    "q_asymptotic",
    "qp_ratio_asymptotic",
    "max_qp_ratio_on_ellipse",
    "in_validity_domain",
]

_MAX_DEGREE = 5000
_EXP_OVERFLOW = 700.0


@dataclass(frozen=True)
class XiCoordinate:
    """A point z = cosh(xi) together with its xi image, Re(xi) >= 0."""

    xi: complex
    z: complex


@dataclass(frozen=True)
class AsymptoticDomain:
    """Validity parameters: |sinh xi| >= eps, |cosh((n+1/2)xi)| >= L/n,
    Bernstein ellipse parameter M."""

    L: float = 1.0
    eps: float = 0.5
    M: float = 3.0

    def __post_init__(self):
        if self.L <= 0 or self.eps <= 0 or self.M <= 0:
            raise ValueError("AsymptoticDomain parameters must be positive")


DEFAULT_DOMAIN = AsymptoticDomain()


def xi_of_z(z: complex) -> XiCoordinate:
    """Map z to xi = log(z + sqrt(z^2-1)), principal branch.

    sqrt(z^2-1) is evaluated as sqrt(z-1)*sqrt(z+1), which is positive for
    z > 1 and continuous up to either side of the cut [-1,1]; points given
    exactly on (-1,1) take the upper-side limit xi = i*arccos(x).
    """
    z = complex(z)
    if abs(z - 1.0) < 1e-14 or abs(z + 1.0) < 1e-14:
        raise ValueError(f"xi_of_z is degenerate at z = +/-1 (got {z})")
    root = cmath.sqrt(z - 1.0) * cmath.sqrt(z + 1.0)
    xi = cmath.log(z + root)
    if xi.real < 0.0:  # tiny negative from rounding on the cut
        xi = complex(0.0, xi.imag)
    return XiCoordinate(xi=xi, z=z)


def _as_array(z):
    arr = np.asarray(z)
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.float64)
    scalar = arr.ndim == 0
    return np.atleast_1d(arr), scalar


def legendre_p(n: int, z):
    """P_n(z) by forward three-term recurrence.

    Accepts real or complex scalars and numpy arrays; exact at z = 1.
    """
    if n < 0 or n > _MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {_MAX_DEGREE}], got {n}")
    arr, scalar = _as_array(z)
    p = _legendre_pair(n, arr)[0]
    if not np.all(np.isfinite(p)):
        raise OverflowError(f"P_{n} overflowed double range")
    return p[0] if scalar else p


def _legendre_pair(n, x: np.ndarray):
    """(P_n, P_{n-1}) on an array by forward recurrence.

    n is one degree for all of x, or a 1-d integer array of per-point
    degrees in descending order.  At step m only the prefix of points
    with degree > m advances; the pairs of the points whose degree is
    reached are stored, so each point sees exactly the arithmetic of a
    single-degree call.
    """
    # live[m] = number of points with degree > m
    if np.ndim(n) == 0:
        live = [len(x)] * int(n)
    else:
        live = np.searchsorted(-n, -np.arange(n[0] if len(n) else 0)).tolist()
    p_out, pm_out = np.ones_like(x), np.zeros_like(x)
    if not live:
        return p_out, pm_out
    k = live[0]
    xs = x[:k]
    pm, p = np.ones_like(xs), xs
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, len(live)):
            if live[m] < k:
                cut = live[m]
                p_out[cut:k], pm_out[cut:k] = p[cut:], pm[cut:]
                k, xs, p, pm = cut, xs[:cut], p[:cut], pm[:cut]
            pm, p = p, ((2 * m + 1) * xs * p - m * pm) / (m + 1)
    p_out[:k], pm_out[:k] = p, pm
    return p_out, pm_out


def legendre_p_deriv(n: int, z):
    """P_n'(z) via (z^2-1) P_n' = n (z P_n - P_{n-1}); closed form at z = +/-1."""
    if n < 0 or n > _MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {_MAX_DEGREE}], got {n}")
    arr, scalar = _as_array(z)
    if n == 0:
        out = np.zeros_like(arr)
        return out[0] if scalar else out
    p, pm = _legendre_pair(n, arr)
    den = arr * arr - 1.0
    out = np.empty_like(p)
    near = np.abs(den) < 1e-13
    np.divide(n * (arr * p - pm), den, out=out, where=~near)
    if np.any(near):
        # P_n'(+/-1) = (+/-1)^(n-1) n(n+1)/2
        sgn = np.where(np.real(arr[near]) > 0, 1.0, (-1.0) ** (n - 1))
        out[near] = sgn * n * (n + 1) / 2.0
    return out[0] if scalar else out


def _dist_to_cut(z: complex) -> float:
    x, y = z.real, z.imag
    if abs(x) <= 1.0:
        return abs(y)
    return math.hypot(abs(x) - 1.0, y)


def _q0(z: complex) -> complex:
    return 0.5 * cmath.log((z + 1.0) / (z - 1.0))


def legendre_q(n: int, z: complex) -> complex:
    """Q_n(z) off the cut [-1,1].

    Forward recurrence is unstable for this recessive solution, so we use
    a continued fraction for Q_m/Q_{m-1} normalized by Q_0 when z is far
    enough from the cut, and Neumann's formula Q_n = P_n Q_0 - W_{n-1}
    (exact, cancellation bounded by exp(2 n Re xi)) when z is close.
    """
    if n < 0 or n > _MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {_MAX_DEGREE}], got {n}")
    z = complex(z)
    if _dist_to_cut(z) < 1e-12:
        raise ValueError(f"legendre_q is degenerate on the cut (z = {z})")
    if n == 0:
        return _q0(z)
    a = xi_of_z(z).xi.real
    # crossover: continued fraction needs ~ 39/(2a) extra terms; Neumann
    # loses ~ 2na/ln10 digits. 2na >= 9.2 keeps both costs O(n).
    if 2.0 * n * a >= 9.2:
        return _q_contfrac(n, z, a)
    return _q_neumann(n, z)


def _q_contfrac(n: int, z: complex, xi_re: float) -> complex:
    depth = int(39.0 / (2.0 * xi_re)) + 10
    ratios = [0j] * (n + 1)
    r = 0j
    for m in range(n + depth, 0, -1):
        r = m / ((2 * m + 1) * z - (m + 1) * r)
        if m <= n:
            ratios[m] = r
    q = _q0(z)
    for m in range(1, n + 1):
        q *= ratios[m]
    return q


def _q_neumann(n: int, z: complex) -> complex:
    ps = [1.0 + 0j, z]
    for m in range(1, n):
        ps.append(((2 * m + 1) * z * ps[-1] - m * ps[-2]) / (m + 1))
    w = 0j
    for m in range(1, n + 1):
        w += ps[m - 1] * ps[n - m] / m
    return ps[n] * _q0(z) - w


def in_validity_domain(n: int, coord: XiCoordinate,
                       domain: AsymptoticDomain = DEFAULT_DOMAIN) -> bool:
    """Whether xi lies in the uniform-asymptotics domain for this n."""
    xi = coord.xi
    if abs(cmath.sinh(xi)) < domain.eps:
        return False
    w = (n + 0.5) * xi
    if w.real > _EXP_OVERFLOW:
        return True  # cosh is astronomically large
    return abs(cmath.cosh(w)) >= domain.L / n


def _p_asym_parts(n: int, xi: complex):
    """Prefactor and bracket of the two-exponential form, dominant term
    factored out: P_n = exp(w) * pref * bracket, w = (n+1/2) xi."""
    sh = cmath.sinh(xi)
    pref = cmath.sqrt(1j / (2.0 * n * math.pi * sh))
    cth = cmath.cosh(xi) / sh
    cplus = 1.0 - 1.0 / (4 * n) + cth / (8 * n)
    cminus = 1.0 - 1.0 / (4 * n) - cth / (8 * n)
    w = (n + 0.5) * xi
    rot = cmath.exp(-1j * math.pi / 4)
    if w.real > _EXP_OVERFLOW:  # recessive term underflows anyway
        bracket = cplus * rot
    else:
        bracket = cplus * rot + cminus * cmath.exp(-2.0 * w) / rot
    return w, pref, bracket


def p_asymptotic(n: int, coord: XiCoordinate,
                 domain: AsymptoticDomain = DEFAULT_DOMAIN) -> complex:
    """Uniform two-exponential approximation of P_n(cosh xi), including
    the 1/(4n) and coth(xi)/(8n) corrections."""
    xi = coord.xi
    if abs(cmath.sinh(xi)) < domain.eps:
        raise ValueError(f"|sinh xi| < {domain.eps}: outside validity domain")
    if xi.imag < 0.0:
        conj = XiCoordinate(xi=xi.conjugate(), z=coord.z.conjugate())
        return p_asymptotic(n, conj, domain).conjugate()
    w, pref, bracket = _p_asym_parts(n, xi)
    if w.real > _EXP_OVERFLOW:
        raise OverflowError(
            f"P_{n} at Re((n+1/2)xi) = {w.real:.1f} overflows doubles; "
            "use p_asymptotic_log")
    return cmath.exp(w) * pref * bracket


def p_asymptotic_log(n: int, coord: XiCoordinate,
                     domain: AsymptoticDomain = DEFAULT_DOMAIN):
    """(log|P_n|, arg P_n) for the same approximation, overflow-safe."""
    xi = coord.xi
    if abs(cmath.sinh(xi)) < domain.eps:
        raise ValueError(f"|sinh xi| < {domain.eps}: outside validity domain")
    if xi.imag < 0.0:
        conj = XiCoordinate(xi=xi.conjugate(), z=coord.z.conjugate())
        mag, arg = p_asymptotic_log(n, conj, domain)
        return mag, -arg
    w, pref, bracket = _p_asym_parts(n, xi)
    rest = pref * bracket
    return w.real + math.log(abs(rest)), w.imag + cmath.phase(rest)


def q_asymptotic(n: int, coord: XiCoordinate,
                 domain: AsymptoticDomain = DEFAULT_DOMAIN) -> complex:
    """Single-exponential approximation of Q_n(cosh xi).

    The square-root branch is fixed by the steepest-descent form
    sqrt(pi / (2(n+1) sinh(xi) e^{-xi})), whose argument has positive real
    part throughout Re xi >= 0, so the principal root is always correct.
    """
    xi = coord.xi
    if abs(cmath.sinh(xi)) < domain.eps:
        raise ValueError(f"|sinh xi| < {domain.eps}: outside validity domain")
    if xi.imag < 0.0:
        conj = XiCoordinate(xi=xi.conjugate(), z=coord.z.conjugate())
        return q_asymptotic(n, conj, domain).conjugate()
    lam = cmath.sinh(xi) * cmath.exp(-xi)
    w = (n + 1.0) * xi
    if w.real > _EXP_OVERFLOW:
        return 0j
    return cmath.exp(-w) * cmath.sqrt(math.pi / (2.0 * (n + 1) * lam))


def qp_ratio_asymptotic(n: int, b: float, y: float) -> complex:
    """Closed-form Q_n/P_n at z = b + i y/n (upper side of the cut).

    Returns -i pi / (exp(2y/sin(phi) + i Psi) + 1) with phi = arccos(b) and
    Psi = (2n+1) phi - pi/2.  The minus sign is fixed by the upper-side
    limit Q_n(x+i0) = Q_n(x) - (i pi/2) P_n(x), which forces the ratio's
    imaginary part to -pi/2 as y -> 0+.
    """
    if not -1.0 < b < 1.0:
        raise ValueError("b must lie in (-1, 1)")
    phi = math.acos(b)
    x = 2.0 * y / math.sin(phi)
    psi = (2 * n + 1) * phi - math.pi / 2
    if x > 350.0:
        e = cmath.exp(complex(-x, -psi))
        return -1j * math.pi * e / (1.0 + e)
    return -1j * math.pi / (cmath.exp(complex(x, psi)) + 1.0)


def max_qp_ratio_on_ellipse(n: int, M: float, samples: int = 24) -> float:
    """Sampled max of |Q_n/P_n| over the upper half of the ellipse."""
    a = math.log(1.0 + M * math.log(n) / n)
    best = 0.0
    for theta in np.linspace(0.05, math.pi - 0.05, samples):
        z = cmath.cosh(complex(a, theta))
        ratio = abs(legendre_q(n, z) / legendre_p(n, z))
        best = max(best, ratio)
    return best
