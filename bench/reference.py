"""Reference values computed without singquad, and the checks that hold
singquad's outputs to them.

Integrals come from mpmath's tanh-sinh quadrature, split at b and
substituted so each side is smooth; rules come from scipy; the envelope
and the phase-root integral are the closed forms evaluated in mpmath.
Each check returns a list of failure messages (empty when it passes), so
a run can report every problem it finds.  selftest.py feeds each check a
perturbed value to show that it rejects it.
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np
from scipy.special import eval_legendre, roots_legendre

from inputs import Spec

mp.mp.dps = 30
EPS = np.finfo(float).eps
REGIME = 20.0      # n sin(phi) from which the correction must help


def values(spec: Spec, x: np.ndarray) -> np.ndarray:
    """The integrand on float64 nodes; 0 at x = b."""
    t = x - spec.b
    a = np.abs(t)
    safe = np.where(a == 0.0, 1.0, a)
    vals = t ** spec.k * safe ** spec.expo
    if spec.family == "powerlog":
        vals = vals * np.log(safe)
    if spec.envelope:
        vals = vals * np.exp(-t * t)
    return np.where(a == 0.0, 0.0, vals)


def _side(spec: Spec, T, sign: int):
    """Integral of the integrand over x = b + sign*t, t in (0, T].

    t = T s^p with p = 1/(sigma+1) turns t^sigma dt into a constant
    times ds, so tanh-sinh sees a bounded integrand.
    """
    p = 1 / (mp.mpf(spec.sigma) + 1)
    k, e = spec.k, mp.mpf(spec.expo)

    def h(s):
        if s == 0:
            return mp.mpf(0)
        t = T * s ** p
        v = sign ** k * t ** (k + e) * T * p * s ** (p - 1)
        if spec.family == "powerlog":
            v *= mp.log(t)
        if spec.envelope:
            v *= mp.exp(-t * t)
        return v
    return mp.quad(h, [0, 1])


@functools.lru_cache(maxsize=None)
def exact(spec: Spec) -> float:
    b = mp.mpf(spec.b)
    return float(_side(spec, 1 - b, 1) + _side(spec, 1 + b, -1))


@functools.lru_cache(maxsize=None)
def rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """scipy's nodes, with weights 2 / ((1 - x^2) P_n'(x)^2) from scipy's
    P_n and P_(n-1).  roots_legendre's own weights are off by up to 7e-10
    (relative) at n = 371 against 32-digit mpmath weights; these by 1e-12."""
    x, _ = roots_legendre(n)
    dp = n * (x * eval_legendre(n, x) - eval_legendre(n - 1, x)) / (x * x - 1.0)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def raw(spec: Spec, n: int) -> tuple[float, float]:
    """(n-point Gauss sum, sum of |w f|) with scipy's rule."""
    x, w = rule(n)
    wf = w * values(spec, x)
    return math.fsum(wf), float(np.sum(np.abs(wf)))


def sum_tol(spec: Spec, n: int) -> float:
    """How far two accurate n-point Gauss sums may differ: the weights
    carry a few n ulp."""
    return 4 * n * EPS * raw(spec, n)[1]


def true_error(spec: Spec, n: int) -> tuple[float, float]:
    """(R_n = exact - Gauss sum, the scale sum |w f|)."""
    q, scale = raw(spec, n)
    return exact(spec) - q, scale


def digits_gained(err: float, predicted: float) -> float:
    """log10(|R_n| / |R_n - predicted|), capped where the two agree to
    the last bit."""
    rest = max(abs(err - predicted), EPS * abs(err))
    return math.log10(abs(err) / rest)


def above_floor(err: float, scale: float) -> bool:
    """Raw error well above the rounding of an n-term sum of size scale."""
    return abs(err) > 1e-13 * scale


def n_sin_phi(spec: Spec, n: int) -> float:
    return n * math.sqrt(1.0 - spec.b * spec.b)


def envelope_bounds(spec: Spec) -> tuple[float, float]:
    """Gamma/zeta envelope of n^(s+1) R_n for the power family, s = k + alpha:
    U = sin(alpha pi/2) sin(phi)^(s+1) Gamma(s+1) zeta(s+1) / 2^(s-1);
    even k: [-(1 - 2^-s) U, U], mirrored for k = 2 mod 4;
    odd k: +-|U| (1 - 2^-(s+1))."""
    a, s = mp.mpf(spec.expo), mp.mpf(spec.sigma)
    sin_phi = mp.sqrt(1 - mp.mpf(spec.b) ** 2)
    u = (mp.sin(a * mp.pi / 2) * sin_phi ** (s + 1) * mp.gamma(s + 1)
         * mp.zeta(s + 1) / 2 ** (s - 1))
    if spec.k % 2:
        w = abs(u) * (1 - 2 ** -(s + 1))
        return float(-w), float(w)
    lo, hi = -(1 - 2 ** -s) * u, u
    if spec.k % 4 == 2:
        lo, hi = -hi, -lo
    return float(min(lo, hi)), float(max(lo, hi))


def psi0_integral(k: int, alpha: float, c: float):
    """int_0^inf x^(k+alpha) (e^-x + c) / (cosh x + c) dx in mpmath."""
    s, c = mp.mpf(k) + mp.mpf(alpha), mp.mpf(c)
    return mp.quad(lambda x: x ** s * (mp.exp(-x) + c) / (mp.cosh(x) + c),
                   [0, 1, 5, 20, 80])


# ---------------------------------------------------------------- checks

def check_close(what: str, got: float, want: float, tol: float) -> list[str]:
    if not abs(got - want) <= tol:
        return [f"{what}: got {got!r}, reference {want!r} (tol {tol:.1e})"]
    return []


def check_rule(n: int, nodes: np.ndarray, weights: np.ndarray) -> list[str]:
    """Nodes within 4 ulp(1) of scipy's; weights exact on P_0..P_{2n-1}."""
    x_ref, _ = rule(n)
    off = float(np.max(np.abs(nodes - x_ref))) / EPS
    out = []
    if not off <= 4.0:
        out.append(f"rule n={n}: nodes {off:.1f} ulp(1) from scipy")
    # sum_j w_j P_d(x_j) must be 2 for d = 0 and 0 for 1 <= d <= 2n-1
    pm, p = np.ones_like(nodes), nodes.copy()
    worst = abs(float(weights.sum()) - 2.0)
    for d in range(1, 2 * n):
        worst = max(worst, abs(float(weights @ p)))
        pm, p = p, ((2 * d + 1) * nodes * p - d * pm) / (d + 1)
    if not worst <= 64 * EPS * math.sqrt(n):
        out.append(f"rule n={n}: weights miss polynomial exactness by {worst:.1e}")
    return out


def check_raw(what: str, spec: Spec, n: int, got: float) -> list[str]:
    """Gauss sums agree to the weights' accuracy, a few n ulp."""
    return check_close(f"{what} raw {spec.text()} n={n}", got, raw(spec, n)[0],
                       sum_tol(spec, n))


def check_exact(spec: Spec, got: float, tol_rel: float = 1e-13) -> list[str]:
    _, scale = raw(spec, 400)
    return check_close(f"integral of {spec.text()}", got, exact(spec),
                       tol_rel * scale)


def _outside(spec: Spec, scaled_errors: list[tuple[int, float]], lo, hi) -> list[str]:
    """Scaled errors at n >= 100 outside [lo(n), hi(n)] by more than the
    uncertainty of the reference Gauss sum, scaled like the error."""
    p = spec.sigma + 1.0
    bad = [(n, c) for n, c in scaled_errors
           if n >= 100 and not lo(n) - sum_tol(spec, n) * n ** p <= c
           <= hi(n) + sum_tol(spec, n) * n ** p]
    if not bad:
        return []
    n, c = bad[0]
    return [f"{spec.text()}: {len(bad)} scaled errors outside the envelope, "
            f"first at n={n}: {c:.6g} not in [{lo(n):.6g}, {hi(n):.6g}]"]


def check_envelope(spec: Spec, got: tuple[float, float],
                   scaled_errors: list[tuple[int, float]]) -> list[str]:
    """Bounds match the mpmath closed form; every true scaled error
    n^(s+1) R_n at n >= 100 lies inside them (see _outside)."""
    lo, hi = envelope_bounds(spec)
    out = check_close(f"lower bound {spec.text()}", got[0], lo, 1e-11 * abs(lo))
    out += check_close(f"upper bound {spec.text()}", got[1], hi, 1e-11 * abs(hi))
    return out + _outside(spec, scaled_errors, lambda n: lo, lambda n: hi)


def check_log_envelope(spec: Spec, lower: tuple[float, float],
                       upper: tuple[float, float],
                       scaled_errors: list[tuple[int, float]]) -> list[str]:
    """Every true scaled error at n >= 100 lies between the power-log
    envelopes A log n + B."""
    return _outside(spec, scaled_errors,
                    lambda n: lower[0] * math.log(n) + lower[1],
                    lambda n: upper[0] * math.log(n) + upper[1])


def check_psi0(k: int, alpha: float, root: float, delta: float = 1e-7) -> list[str]:
    """The defining integral changes sign across the returned root."""
    below = psi0_integral(k, alpha, root - delta)
    above = psi0_integral(k, alpha, root + delta)
    if below < 0 < above:
        return []
    return [f"psi0 k={k} alpha={alpha}: integral is {float(below):.3e} at "
            f"root-{delta:g} and {float(above):.3e} at root+{delta:g}"]


def check_sweep_rows(spec: Spec, rows: list[list[float]],
                     sample: list[int]) -> list[str]:
    """Rows of a sweep CSV (n, error, abs_error, scaled_coeff, cos_phase,
    predicted, corrected_error, bound_lo, bound_hi): the error matches the
    reference at the sampled sizes, the derived columns match their
    definitions, the correction helps where n sin(phi) >= REGIME, and
    for the power family the envelope holds."""
    out = []
    _, scale = raw(spec, 600)
    by_n = {int(r[0]): r for r in rows}
    for n in sample:
        if n in by_n:
            err, _ = true_error(spec, n)
            out += check_close(f"{spec.text()} error at n={n}", by_n[n][1], err,
                               (4 * n * EPS + 1e-13) * scale)
    p = spec.sigma + 1.0
    regime, kept = [], []
    for n, err, abs_err, scaled, cos_phase, pred, corr, _, _ in rows:
        what = f"{spec.text()} n={n:g}"
        out += check_close(f"{what} abs_error", abs_err, abs(err), 0.0)
        out += check_close(f"{what} scaled_coeff", scaled, err * n ** p,
                           1e-12 * abs(scaled))
        out += check_close(f"{what} cos_phase", cos_phase,
                           math.cos((2 * n + 1) * math.acos(spec.b)), 1e-9)
        out += check_close(f"{what} corrected_error", corr, err - pred,
                           4 * EPS * max(abs(err), abs(pred)))
        if above_floor(err, scale):
            kept.append((int(n), scaled))
            if n_sin_phi(spec, n) >= REGIME:
                regime.append((err, corr))
    out += check_correction(spec.text(), regime)
    if spec.family == "power" and not spec.envelope:
        out += check_envelope(spec, (rows[0][7], rows[0][8]), kept)
    return out


def check_correction(what: str, pairs: list[tuple[float, float]]) -> list[str]:
    """pairs of (raw error, corrected error) where n sin(phi) is large:
    the corrected errors beat the raw ones in the median."""
    if not pairs:
        return [f"{what}: no operations in the asymptotic regime"]
    raw_med = float(np.median([abs(r) for r, _ in pairs]))
    cor_med = float(np.median([abs(c) for _, c in pairs]))
    if not cor_med < raw_med:
        return [f"{what}: median corrected error {cor_med:.3e} does not beat "
                f"median raw error {raw_med:.3e}"]
    return []
