"""The paper's derivation evidence: Legendre P_n, P_n' and Q_n off the cut,
their uniform asymptotic forms, and Q_n/P_n from the one place the package
writes it (error_predictor._kernel_parts); also test-only integrand helpers.

Branch convention: xi = log(z + sqrt(z^2-1)) with the principal branch,
so xi > 0 for real z > 1 and xi -> i*arccos(x) on the upper side of the
cut.  Lower half-plane values follow by Schwarz reflection.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from singquad import Power, PowerLog, SingularIntegrand, phase
from singquad.error_predictor import _kernel_parts
from singquad.gauss_rule import _legendre_pair, _p_dp

_MAX_DEGREE = 5000
_EXP_OVERFLOW = 700.0
# uniform-asymptotics domain: |sinh xi| >= 1/2 and |cosh((n+1/2) xi)| >= 1/n
_SINH_MIN = 0.5
_COSH_MIN = 1.0


@dataclass(frozen=True)
class XiCoordinate:
    """The image xi of a point z = cosh(xi), Re(xi) >= 0."""

    xi: complex


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
    return XiCoordinate(xi=xi)


def _as_array(n: int, z):
    if n < 0 or n > _MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {_MAX_DEGREE}], got {n}")
    arr = np.asarray(z)
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.float64)
    return np.atleast_1d(arr), arr.ndim == 0


def legendre_p(n: int, z):
    """P_n(z) by forward three-term recurrence.

    Accepts real or complex scalars and numpy arrays; exact at z = 1.
    """
    arr, scalar = _as_array(n, z)
    p = _legendre_pair(n, arr)[0]
    if not np.all(np.isfinite(p)):
        raise OverflowError(f"P_{n} overflowed double range")
    return p[0] if scalar else p


def legendre_p_deriv(n: int, z):
    """P_n'(z) by gauss_rule._p_dp; closed form at z = +/-1."""
    arr, scalar = _as_array(n, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _p_dp(n, arr)[1]
    near = np.abs(arr * arr - 1.0) < 1e-13
    # P_n'(+/-1) = (+/-1)^(n-1) n(n+1)/2
    sgn = np.where(np.real(arr[near]) > 0, 1.0, (-1.0) ** (n - 1))
    out[near] = sgn * n * (n + 1) / 2.0
    return out[0] if scalar else out


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
    if math.hypot(max(abs(z.real) - 1.0, 0.0), z.imag) < 1e-12:  # on [-1, 1]
        raise ValueError(f"legendre_q is degenerate on the cut (z = {z})")
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


def in_validity_domain(n: int, coord: XiCoordinate) -> bool:
    """Whether xi lies in the uniform-asymptotics domain for this n."""
    xi = coord.xi
    if abs(cmath.sinh(xi)) < _SINH_MIN:
        return False
    w = (n + 0.5) * xi
    if w.real > _EXP_OVERFLOW:
        return True  # cosh is astronomically large
    return abs(cmath.cosh(w)) >= _COSH_MIN / n


def _upper_xi(coord: XiCoordinate):
    """(xi reflected into Im xi >= 0, whether it was reflected); the
    asymptotic forms are evaluated there and reflected back."""
    xi = coord.xi
    if abs(cmath.sinh(xi)) < _SINH_MIN:
        raise ValueError(f"|sinh xi| < {_SINH_MIN}: outside validity domain")
    if xi.imag < 0.0:
        return xi.conjugate(), True
    return xi, False


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
    bracket = cplus * rot
    if w.real <= _EXP_OVERFLOW:  # beyond, the recessive term underflows
        bracket += cminus * cmath.exp(-2.0 * w) / rot
    return w, pref, bracket


def p_asymptotic(n: int, coord: XiCoordinate) -> complex:
    """Uniform two-exponential approximation of P_n(cosh xi), including
    the 1/(4n) and coth(xi)/(8n) corrections."""
    xi, reflected = _upper_xi(coord)
    w, pref, bracket = _p_asym_parts(n, xi)
    if w.real > _EXP_OVERFLOW:
        raise OverflowError(
            f"P_{n} at Re((n+1/2)xi) = {w.real:.1f} overflows doubles; "
            "use p_asymptotic_log")
    val = cmath.exp(w) * pref * bracket
    return val.conjugate() if reflected else val


def p_asymptotic_log(n: int, coord: XiCoordinate):
    """(log|P_n|, arg P_n) for the same approximation, overflow-safe."""
    xi, reflected = _upper_xi(coord)
    w, pref, bracket = _p_asym_parts(n, xi)
    rest = pref * bracket
    arg = w.imag + cmath.phase(rest)
    return w.real + math.log(abs(rest)), -arg if reflected else arg


def q_asymptotic(n: int, coord: XiCoordinate) -> complex:
    """Single-exponential approximation of Q_n(cosh xi).

    The square-root branch is fixed by the steepest-descent form
    sqrt(pi / (2(n+1) sinh(xi) e^{-xi})), whose argument has positive real
    part throughout Re xi >= 0, so the principal root is always correct.
    """
    xi, reflected = _upper_xi(coord)
    w = (n + 1.0) * xi
    val = 0j   # beyond exp's range Q_n underflows
    if w.real <= _EXP_OVERFLOW:
        lam = cmath.sinh(xi) * cmath.exp(-xi)
        val = cmath.exp(-w) * cmath.sqrt(math.pi / (2.0 * (n + 1) * lam))
    return val.conjugate() if reflected else val


def qp_ratio_asymptotic(n: int, b: float, y: float) -> complex:
    """Q_n/P_n at z = b + i y/n (upper side of the cut) as the predictor
    integrates it: -(pi/2) (sin Psi + i (e^-x + cos Psi)) / (cosh x + cos Psi),
    x = 2y/sin phi, which is -i pi / (exp(x + i Psi) + 1)."""
    info = phase(SingularIntegrand(b, Power(0, 0.5)), n)
    with np.errstate(over="ignore"):   # cosh x overflows to inf for large y
        em1, sh2 = _kernel_parts(y, math.sin(info.phi))
    even, den = em1 + info.cp1, sh2 + info.cp1
    return complex(-0.5 * math.pi * (info.sin_psi + 1j * even) / den)


def max_qp_ratio_on_ellipse(n: int, M: float, samples: int = 24) -> float:
    """Sampled max of |Q_n/P_n| over the upper half of the ellipse."""
    a = math.log(1.0 + M * math.log(n) / n)
    zs = [cmath.cosh(complex(a, t))
          for t in np.linspace(0.05, math.pi - 0.05, samples)]
    return max(abs(legendre_q(n, z) / legendre_p(n, z)) for z in zs)


@dataclass(frozen=True)
class HolderClass:
    """Smoothness class (k, alpha); open=True means any exponent below
    alpha is valid but alpha itself is not."""

    k: int
    alpha: float
    open: bool = False


def holder_class(f: SingularIntegrand) -> HolderClass:
    """Classify f as D_b^{k,alpha}."""
    fam = f.family
    if isinstance(fam, Power):
        k, a = fam.k, fam.alpha
        if 0.0 < a <= 1.0:
            return HolderClass(k, a)
        if a < 0.0:
            return HolderClass(k - 1, a + 1.0)
        return HolderClass(k + 1, a - 1.0)     # alpha in (1, 2]
    if isinstance(fam, PowerLog):
        k, beta = fam.k, fam.beta
        if beta > 0.0:
            return HolderClass(k, beta, open=True)
        if beta == 0.0:
            return HolderClass(k - 1, 1.0, open=True)
        return HolderClass(k - 1, beta + 1.0, open=True)
    return HolderClass(fam.holder_k, fam.holder_alpha)


def evaluate_real(f: SingularIntegrand, x: float) -> float:
    """Pointwise value on [-1, 1]; the singular point returns the limit 0
    (continuity there is guaranteed by k + alpha > 0)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("x must lie in [-1, 1]")
    return float(f(np.asarray(x, dtype=float)))


def example5_closed_form(b: float) -> float:
    """Closed form of the gauss-envelope integrand exp(-(x-b)^2)|x-b|,
    used to cross-check the adaptive path."""
    return 1.0 - 0.5 * (math.exp(-(1.0 - b) ** 2) + math.exp(-(1.0 + b) ** 2))
