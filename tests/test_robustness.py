"""Cross-cutting checks away from the stock-example parameter ranges."""

import math

import numpy as np
import pytest

from paper_asymptotics import (legendre_p, legendre_q, p_asymptotic,
                               q_asymptotic, xi_of_z)
from singquad import (GeneralJump, Power, PowerLog, SingularIntegrand,
                      apply_rule, coefficient_bounds, compute_rule,
                      exact_integral, leading_term, log_case_leading,
                      power_case_leading)
from singquad.error_predictor import _jump_terms


def test_negative_b_envelope_membership():
    # phi > pi/2: sin phi unchanged, phases differ; scaled errors must
    # still respect the closed-form envelope
    f = SingularIntegrand(-0.3, Power(0, 0.5))
    cb = coefficient_bounds(f)
    exact = exact_integral(f).value
    for n in range(100, 401, 3):
        r = exact - apply_rule(compute_rule(n), f)
        scaled = r * n ** 1.5
        assert cb.lower - 0.01 <= scaled <= cb.upper + 0.01


def test_general_jump_matches_power_route():
    # the same integrand declared as a black box with its closed-form jump
    b, alpha = 0.25, 0.5
    coef = 2j * math.sin(alpha * math.pi / 2)

    fam = GeneralJump(real_eval=lambda x: abs(x - b) ** alpha,
                      jump_eval=lambda y, n: coef * (y / n) ** alpha,
                      holder_k=0, holder_alpha=alpha)
    f_box = SingularIntegrand(b, fam)
    f_ref = SingularIntegrand(b, Power(0, alpha))
    for n in (50, 200):
        box = leading_term(f_box, n)
        ref = power_case_leading(f_ref, n)
        # the box route truncates at M log n instead of extending; the
        # tail there is below 1e-10 of the value for these n
        assert box == pytest.approx(ref, rel=1e-6)
    assert exact_integral(f_box).value == pytest.approx(
        exact_integral(f_ref).value, abs=1e-12)


@pytest.mark.parametrize("k,beta", [(1, -0.25), (2, -0.5)])
def test_powerlog_negative_beta_consistency(k, beta):
    f = SingularIntegrand(0.4, PowerLog(k, beta))
    for n in (60, 250):
        lead = _jump_terms(f, [n])[0]
        red = log_case_leading(f, n)
        if abs(lead) > 1e-14:
            assert abs(red - lead) / abs(lead) <= 1e-8


def test_alpha_two_is_smooth():
    # |x-b|^2 is a polynomial: zero jump, quadrature-exact for n >= 2
    f = SingularIntegrand(0.4, Power(0, 2.0))
    assert abs(leading_term(f, 100)) < 1e-15
    exact = exact_integral(f).value
    r = exact - apply_rule(compute_rule(12), f)
    assert abs(r) < 1e-14


def test_asymptotics_left_half():
    # singularity-side phases with b < 0 reach Im xi near pi
    for z in (-0.5 + 0.05j, -0.5 - 0.05j, -1.5 + 0j):
        xi = xi_of_z(z)
        n = 150
        p_ref = legendre_p(n, z)
        assert abs(p_asymptotic(n, xi) - p_ref) / abs(p_ref) <= 5.0 / n
        q_ref = legendre_q(n, z)
        assert abs(q_asymptotic(n, xi) - q_ref) / abs(q_ref) <= 5.0 / n


def test_corrected_quadrature_negative_b():
    from singquad import corrected_integral
    f = SingularIntegrand(-0.3, Power(0, 0.5))
    exact = exact_integral(f).value
    worse = better = 0
    for n in range(60, 200, 7):
        res = corrected_integral(f, n)
        if abs(exact - res.corrected) <= abs(exact - res.raw):
            better += 1
        else:
            worse += 1
    assert better / (better + worse) >= 0.9


def test_small_alpha_predictor_still_converges():
    # sigma = 0.05 stresses the graded substitution near y = 0
    f = SingularIntegrand(0.2, Power(0, 0.05))
    v = _jump_terms(f, [80])[0]
    assert np.isfinite(v)
    red = power_case_leading(f, 80)
    assert v == pytest.approx(red, rel=1e-7)


@pytest.mark.parametrize("f", [SingularIntegrand(0.0, Power(1, -0.5)),
                               SingularIntegrand(0.0, PowerLog(1, 0.0))])
def test_b_zero_gauss_node_odd_n(f):
    # the integrand is odd about b = 0, so every odd-k leading term
    # vanishes; at odd n, b is the middle node and Psi = pi, where the
    # kernel's pole would amplify any rounding left in sin Psi
    reduced = (power_case_leading if isinstance(f.family, Power)
               else log_case_leading)
    for n in [*range(11, 200, 8), 101]:
        assert leading_term(f, n) == 0.0
        assert reduced(f, n) == 0.0
