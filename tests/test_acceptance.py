"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured quantities.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import cmath
import math

import pytest

from paper_asymptotics import legendre_p, legendre_q, p_asymptotic, xi_of_z
from singquad import (Power, PowerLog, SingularIntegrand, apply_rule,
                      coefficient_bounds, compute_rule, exact_integral,
                      fit_envelope_slope, log_envelope_constants,
                      power_case_leading, psi0_solve,
                      split_adaptive_integral)
from singquad.error_predictor import _jump_terms, _psi0_integral
from singquad.singularity_model import phase

EPS = 2.2e-16


def _check(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------- 1
def test_criterion_1_quadrature_correctness():
    worst = 0.0
    worst_w = 0.0
    for n in range(2, 13):
        r = compute_rule(n)
        worst_w = max(worst_w, abs(math.fsum(r.weights) - 2.0) / (1e-13 * n))
        for d in range(0, 2 * n):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            worst = max(worst, abs(exact - apply_rule(r, lambda x: x ** d)))
    _check(1, worst <= 1e-12 and worst_w <= 1.0,
           f"max monomial error {worst:.2e} (<=1e-12), "
           f"weight-sum defect {worst_w:.2f}x its budget")


# --------------------------------------------------------------- 2
def _asymptotic_sample():
    pool = [complex(a, b) for a, b in
            [(0.6, 0.0), (0.9, 0.0), (1.2, 0.0), (0.0, 0.7), (0.0, 1.2),
             (0.0, 1.8), (0.0, 2.4), (0.1, 0.9), (0.2, 1.4), (0.05, 2.0),
             (0.3, 0.8), (0.15, 1.1), (0.4, 1.9), (0.25, 2.2), (0.08, 1.5),
             (0.5, 0.6), (0.35, 1.3), (0.12, 2.6), (0.45, 1.7), (0.22, 0.75),
             (0.7, 0.5), (0.18, 2.0), (0.28, 1.6), (0.55, 1.0), (0.33, 2.4)]]
    ns = (50, 100, 200, 400)
    chosen = []
    for xi in pool:
        if abs(cmath.sinh(xi)) < 0.5:
            continue
        # inside Omega_n for every tested n, away from both cancellation
        # phases so the error ratios measure the generic decay
        if all(abs(cmath.cosh((n + 0.5) * xi)) >= max(0.2, 1.0 / n)
               and abs(cmath.cosh((n + 0.5) * xi - 0.25j * math.pi)) >= 0.2
               for n in ns):
            chosen.append(xi)
        if len(chosen) == 20:
            break
    assert len(chosen) == 20
    return chosen, ns


def test_criterion_2_legendre_asymptotics():
    sample, ns = _asymptotic_sample()
    max_err = {}
    for n in ns:
        errs = []
        for xi in sample:
            z = cmath.cosh(xi)
            ref = legendre_p(n, z)
            errs.append(abs(p_asymptotic(n, xi_of_z(z)) - ref) / abs(ref))
        max_err[n] = max(errs)
    ratios = [max_err[2 * n] / max_err[n] for n in (50, 100, 200)]
    # the two-exponential form carries its 1/n corrections, leaving an
    # O(1/n^2) residual, so measured ratios sit near 0.25 and beat the
    # nominal halving; the binding check is that the error at least
    # halves (<= 0.8)
    ratio_ok = all(rt <= 0.8 for rt in ratios)

    worst_w = 0.0
    for n in (5, 20, 100):
        for z in (2.0 + 0j, 0.4 + 0.1j, 0.4 + 0.001j):
            w = n * (legendre_p(n, z) * legendre_q(n - 1, z)
                     - legendre_p(n - 1, z) * legendre_q(n, z))
            worst_w = max(worst_w, abs(w - 1.0))
    _check(2, ratio_ok and worst_w <= 1e-9,
           f"error-doubling ratios {[f'{r:.3f}' for r in ratios]} "
           f"(<=0.8; below 0.3 means faster-than-nominal decay), "
           f"Wronskian defect {worst_w:.1e} (<=1e-9)")


# --------------------------------------------------------------- 3
def _mp_ratio(mp, n, z):
    ps = [mp.mpc(1), mp.mpc(z)]
    for m in range(1, n):
        ps.append(((2 * m + 1) * z * ps[-1] - m * ps[-2]) / (m + 1))
    w = mp.mpc(0)
    for m in range(1, n + 1):
        w += ps[m - 1] * ps[n - m] / mp.mpf(m)
    q0 = mp.mpc(0.5) * mp.log((z + 1) / (z - 1))
    return (ps[n] * q0 - w) / ps[n]


def test_criterion_3_ratio_formula_envelope():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    b = mp.mpf(2) / 5
    phi = mp.acos(b)
    sphi = mp.sin(phi)

    def worst_c(n):
        psi = (2 * n + 1) * phi - mp.pi / 2
        ymin, ymax = mp.mpf(1) / n, 3 * mp.log(n)
        worst = 0.0
        for i in range(30):
            y = ymin * mp.e ** (mp.log(ymax / ymin) * mp.mpf(i) / 29)
            z = b + mp.mpc(0, 1) * y / n
            x = 2 * y / sphi
            formula = -mp.mpc(0, 1) * mp.pi / (mp.e ** (x + mp.mpc(0, 1) * psi) + 1)
            dev = abs(_mp_ratio(mp, n, z) - formula)
            # envelope with the (e^x + 1) numerator the proof produces
            env = (mp.e ** x + 1) / (n * (mp.e ** x - 1) ** 2)
            worst = max(worst, float(dev / env))
        return worst

    c100 = worst_c(100)
    c200, c400 = worst_c(200), worst_c(400)
    ok = c200 <= 2 * c100 and c400 <= 2 * c100
    _check(3, ok,
           f"C fitted at n=100: {c100:.1f}; C(200)/C = {c200 / c100:.2f}, "
           f"C(400)/C = {c400 / c100:.2f} (no violation > 2C)")


# --------------------------------------------------------------- 4
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_criterion_4_example1_envelopes(alpha, sweep):
    records, _ = sweep(1, alpha=alpha)
    f = SingularIntegrand(0.4, Power(0, alpha))
    cb = coefficient_bounds(f)
    span = cb.upper - cb.lower
    c_fit = max(abs(r.scaled_coeff) for r in records if r.n >= 100)
    under = all(r.abs_error <= c_fit * r.n ** -(alpha + 1.0) * (1 + 1e-9)
                for r in records)
    viol = max(max(r.scaled_coeff - cb.upper, cb.lower - r.scaled_coeff, 0.0)
               for r in records if r.n >= 100)
    _check(4, under and viol <= 0.01 * span,
           f"alpha={alpha}: all errors under fitted {c_fit:.3f} n^-{alpha + 1}; "
           f"worst bound violation {viol:.2e} (<=1% of span {span:.3f})")


# --------------------------------------------------------------- 5
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_criterion_5_example2_parity(k, sweep):
    records, _ = sweep(2, k=k)
    f = SingularIntegrand(0.4, Power(k, 1.0))
    cb = coefficient_bounds(f)
    live = [r for r in records if 100 <= r.n <= 600]
    if k in (0, 2):
        hi = max(live, key=lambda r: r.scaled_coeff)
        lo = min(live, key=lambda r: r.scaled_coeff)
        hi_gap = abs(hi.scaled_coeff - cb.upper) / abs(cb.upper)
        lo_gap = abs(lo.scaled_coeff - cb.lower) / abs(cb.lower)
        at_phase = max(abs(hi.cos_phase), abs(lo.cos_phase))
        _check(5, hi_gap <= 0.02 and lo_gap <= 0.02 and at_phase <= 0.3,
               f"k={k}: extremes reach bounds within "
               f"{100 * max(hi_gap, lo_gap):.2f}% (<=2%), attained at "
               f"|cos((2n+1)phi)| <= {at_phase:.2f}")
    else:
        # strict bound, allowing the double-precision measurement noise
        # of R_n (~3e-15 absolute) scaled by n^(k+2)
        worst = max(abs(r.scaled_coeff) - 3e-15 * r.n ** (k + 2.0)
                    for r in live)
        _check(5, worst < cb.upper,
               f"k={k}: max noise-adjusted |scaled| {worst:.4f} strictly "
               f"inside the bound {cb.upper:.4f}")


# --------------------------------------------------------------- 6
def test_criterion_6_example3_phase_classes(sweep):
    records, _ = sweep(3)
    f = SingularIntegrand(math.cos(math.pi / 6), Power(1, 0.5))
    cos_phases = {round(r.cos_phase, 9) for r in records}
    cp1s = {round(phase(f, r.n).cp1, 9) for r in records}
    classes_ok = len(cos_phases) <= 4 and len(cp1s) <= 4

    zero = [r for r in records if abs(r.cos_phase) < 1e-9 and r.n >= 50]
    rest = [r for r in records if abs(r.cos_phase) >= 1e-9 and r.n >= 50]
    slope_zero = fit_envelope_slope(zero, window=8)
    slope_rest = fit_envelope_slope(rest, window=40)
    # per-residue curves: 6 arithmetic classes mod 6
    n_curves = len({r.n % 6 for r in records})
    ok = (classes_ok and n_curves <= 6 and slope_zero <= -3.4
          and -3.1 <= slope_rest <= -2.2)
    _check(6, ok,
           f"{len(cos_phases)} cos((2n+1)phi) values, {n_curves} curves; "
           f"zero-phase slope {slope_zero:.2f} (<=-3.4) vs "
           f"{slope_rest:.2f} for the rest (order -2.5 plus finite-n bend)")


# --------------------------------------------------------------- 7
def test_criterion_7_example4_log_envelopes(sweep):
    f1 = SingularIntegrand(0.4, PowerLog(0, 1.0))
    env = log_envelope_constants(f1)
    a_up, b_up = env.upper
    a_lo, b_lo = env.lower
    consts_ok = (abs(a_up - 0.691) <= 0.01 and abs(b_up - 0.162) <= 0.01
                 and abs(a_lo + 1.382) <= 0.01 and abs(b_lo + 1.282) <= 0.01)

    f2 = SingularIntegrand(0.4, PowerLog(1, 0.0))
    bound2 = log_envelope_constants(f2).upper[1]
    consts_ok = consts_ok and abs(bound2 - 1.628) <= 0.01

    rec1, _ = sweep(4, variant=1)
    up_ratio = max(r.scaled_coeff / (a_up * math.log(r.n) + b_up)
                   for r in rec1 if r.n >= 100)
    lo_ratio = max(r.scaled_coeff / (a_lo * math.log(r.n) + b_lo)
                   for r in rec1 if r.n >= 100)
    attain_ok = 0.97 <= up_ratio <= 1.005 and 0.97 <= lo_ratio <= 1.005

    rec2, _ = sweep(4, variant=2)
    worst2 = max(abs(r.scaled_coeff) for r in rec2)
    _check(7, consts_ok and attain_ok and worst2 < 1.628,
           f"constants ({a_up:.3f}, {b_up:.3f}, {a_lo:.3f}, {b_lo:.3f}, "
           f"{bound2:.3f}) within 0.01; f1 attainment ratios "
           f"{up_ratio:.3f}/{lo_ratio:.3f} in [0.97, 1.005]; "
           f"f2 max |n^2 R| = {worst2:.3f} < 1.628")


# --------------------------------------------------------------- 8
def test_criterion_8_example5_correction(sweep):
    records, _ = sweep(5)
    live = [r for r in records if r.n >= 50]
    raw_slope = fit_envelope_slope(live)
    cor_slope = fit_envelope_slope(live, use_corrected=True)
    ok = -2.3 <= raw_slope <= -1.8 and cor_slope <= -2.7
    _check(8, ok,
           f"raw envelope slope {raw_slope:.2f} in [-2.3,-1.8]; "
           f"corrected {cor_slope:.2f} <= -2.7")


# --------------------------------------------------------------- 9
def test_criterion_9_predictor_self_consistency(sweep):
    worst = 0.0
    for k in range(4):
        for alpha in (0.25, 0.5, 0.75, 1.0):
            for b in (0.4, math.cos(math.pi / 6)):
                for n in (50, 150, 400):
                    f = SingularIntegrand(b, Power(k, alpha))
                    lead = _jump_terms(f, [n])[0]
                    red = power_case_leading(f, n)
                    if abs(lead) > 1e-14:
                        worst = max(worst, abs(red - lead) / abs(lead))
    consistency_ok = worst <= 1e-8

    c0 = psi0_solve(0, 0.5)
    resid = abs(_psi0_integral(0, 0.5)(c0))

    records, _ = sweep(1, alpha=0.5)
    by_n = {r.n: r for r in records}
    hits = total = 0
    for start in range(100, 581, 20):
        window = [by_n[n] for n in range(start, start + 20)]
        pick = min(window, key=lambda r: abs(r.predicted))
        total += 1
        if (pick.abs_error < by_n[pick.n - 1].abs_error
                and pick.abs_error < by_n[pick.n + 1].abs_error):
            hits += 1
    _check(9, consistency_ok and resid <= 1e-10 and hits / total >= 0.70,
           f"route agreement {worst:.1e} (<=1e-8); psi0 residual "
           f"{resid:.1e} (<=1e-10); recommended n beat neighbors in "
           f"{hits}/{total} windows (>=70%)")


# --------------------------------------------------------------- 10
def test_criterion_10_oracle_integrity():
    families = [Power(0, 0.5), Power(0, 1.5), Power(1, 1.0), Power(2, 0.25),
                Power(1, -0.5), Power(3, 1.0), PowerLog(0, 1.0),
                PowerLog(1, 0.0), PowerLog(1, 0.5), PowerLog(2, -0.25)]
    worst = 0.0
    for b in (0.4, -0.3, math.cos(math.pi / 6)):
        for fam in families:
            f = SingularIntegrand(b, fam)
            closed = exact_integral(f)
            assert closed.method == "closed_form"
            adaptive = split_adaptive_integral(f)
            worst = max(worst, abs(closed.value - adaptive.value))
    _check(10, worst <= 1e-12,
           f"max closed-form vs adaptive gap {worst:.2e} (<=1e-12)")
