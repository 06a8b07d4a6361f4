import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from singquad import (GeneralJump, Power, PowerLog, SingularIntegrand, apply_rule, coefficient_bounds,
                      compute_rule, exact_integral, gauss_envelope,
                      leading_term, log_case_leading, log_envelope_constants,
                      power_case_leading, predicted_order, psi0_solve,
                      recommend_n)
from singquad.error_predictor import (_REACH, _graded, _jump_terms,
                                      _kernel_parts, _psi0_integral, _sums)
from singquad.singularity_model import phase


def power(b, k, alpha, envelope=None):
    return SingularIntegrand(b, Power(k, alpha), envelope=envelope)


def powerlog(b, k, beta, envelope=None):
    return SingularIntegrand(b, PowerLog(k, beta), envelope=envelope)


class TestLeadingTerm:
    def test_zero_jump_gives_zero(self):
        fam = GeneralJump(real_eval=lambda x: x ** 4,
                          jump_eval=lambda y, n: np.zeros_like(y) * 1j,
                          holder_k=5, holder_alpha=1.0)
        f = SingularIntegrand(0.2, fam)
        assert leading_term(f, 100) == 0.0

    def test_bounded_by_closed_form_envelope(self):
        f = power(0.4, 0, 0.5)
        u = coefficient_bounds(f).upper
        v = leading_term(f, 100)
        assert abs(v) <= 1.05 * u * 100 ** -1.5

    def test_example5_matches_measured_remainder(self):
        # |R_n - leading| <= C n^-3 with one C calibrated over the range
        f = power(0.4, 0, 1.0, envelope=gauss_envelope(0.4))
        exact = exact_integral(f).value
        cs = []
        for n in (100, 200, 400, 600):
            rn = exact - apply_rule(compute_rule(n), f)
            cs.append(abs(rn - leading_term(f, n)) * n ** 3)
        c = max(cs)
        n = 200
        rn = exact - apply_rule(compute_rule(n), f)
        assert abs(rn - leading_term(f, n)) <= c * n ** -3.0

    def test_min_n(self):
        with pytest.raises(ValueError):
            leading_term(power(0.4, 0, 0.5), 9)

    @pytest.mark.parametrize("n", [10.5, 100.0, "100"])
    def test_non_integer_n(self, n):
        with pytest.raises(ValueError):
            leading_term(power(0.4, 0, 0.5), n)
        with pytest.raises(ValueError):
            recommend_n(power(0.4, 0, 0.5), n, 200)

    def test_numpy_integers_accepted(self):
        f = power(0.4, 0, 0.5, envelope=gauss_envelope(0.4))
        assert leading_term(f, np.int64(57)) == leading_term(f, 57)
        assert recommend_n(f, np.int32(10), np.int64(30)) \
            == recommend_n(f, 10, 30)

    def test_unconverged_inner_quadrature_raises(self):
        # a y^-0.99 jump leaves most of the integral in the panels next
        # to y = 0, which the convergence check must catch
        fam = GeneralJump(real_eval=lambda x: x,
                          jump_eval=lambda y, n: 1j * y ** -0.99,
                          holder_k=0, holder_alpha=0.01)
        with pytest.raises(RuntimeError,
                           match="inner quadrature did not converge"):
            leading_term(SingularIntegrand(0.2, fam), 100)

    def test_reduced_route_self_checks(self):
        # b = 0, odd n: cos Psi = -1 and the integrand goes like y^-0.98
        with pytest.raises(RuntimeError, match="did not converge"):
            power_case_leading(power(0.0, 0, 0.02), 101)

    def test_recommend_self_checks(self):
        # every odd size meets the defect above; none may rank silently
        with pytest.raises(RuntimeError, match="did not converge"):
            recommend_n(power(0.0, 0, 0.02), 100, 110)

    def test_truncation_insensitive(self, monkeypatch):
        import singquad.error_predictor as ep
        f = power(0.4, 0, 1.0, envelope=gauss_envelope(0.4))
        a = leading_term(f, 100)
        monkeypatch.setattr(ep, "_REACH", 44.0)
        b = leading_term(f, 100)
        assert a == pytest.approx(b, rel=1e-10)


class TestParityReduction:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    def test_consistency_with_general_route(self, k, alpha):
        for b in (0.4, math.cos(math.pi / 6)):
            for n in (50, 150, 400):
                f = power(b, k, alpha)
                lead = _jump_terms(f, [n])[0]
                red = power_case_leading(f, n)
                if abs(lead) > 1e-14:
                    assert abs(red - lead) / abs(lead) <= 1e-8

    def test_requested_consistency_point(self):
        f = power(0.4, 2, 1.0)
        lead = _jump_terms(f, [150])[0]
        red = power_case_leading(f, 150)
        assert abs(red - lead) / abs(lead) <= 1e-8

    def test_zero_at_sin_psi_zero(self):
        # k = 1 mod 4 leading term vanishes when cos((2n+1) phi) = 0
        f = power(math.cos(math.pi / 6), 1, 0.5)
        for n in (7, 13, 103):   # n = 1 mod 6 gives cos((2n+1)pi/6) = 0
            assert abs(phase(f, n).cos_phase) < 1e-9
            assert abs(power_case_leading(f, n)) <= 1e-12 * 1.0

    def test_family_mismatch(self):
        with pytest.raises(TypeError):
            power_case_leading(powerlog(0.4, 1, 0.0), 100)
        with pytest.raises(TypeError):
            log_case_leading(power(0.4, 0, 0.5), 100)


def _gamma_zeta_bounds(f, mp):
    """(lower, upper) of coefficient_bounds' closed form in 30 digits:
    U = sin(alpha pi/2) (sin phi)^(s+1) Gamma(s+1) zeta(s+1) / 2^(s-1),
    s = k + alpha, with L = -(1 - 2^-s) U (roles swapped for k = 2 mod 4)
    for even k and +-|U| (1 - 2^-(s+1)) for odd k.  sin phi is taken at
    f's double phi: near b = -1 the double acos(b) alone puts a relative
    error of about eps / sin phi into sin phi, before any integral."""
    k, alpha = f.family.k, f.family.alpha
    # 30 digits of s + 1 also where s = k + alpha is tiny
    with mp.workdps(30 + max(0, -math.floor(math.log10(k + alpha)))):
        a = mp.mpf(alpha)
        s = k + a
        sp = mp.sin(mp.mpf(f.phi))
        u = (mp.sin(a * mp.pi / 2) * sp ** (s + 1) * mp.gamma(s + 1)
             * mp.zeta(s + 1) / 2 ** (s - 1))
        if k % 2 == 1:
            w = abs(u) * (1 - 2 ** -(s + 1))
            return float(-w), float(w)
        hi, lo = u, -(1 - 2 ** -s) * u
        if k % 4 == 2:
            hi, lo = -lo, -hi
        return float(min(lo, hi)), float(max(lo, hi))


class TestCoefficientBounds:
    def test_k0_alpha05_closed_form(self):
        mp = pytest.importorskip("mpmath")
        f = power(0.4, 0, 0.5)
        cb = coefficient_bounds(f)
        sphi = math.sin(math.acos(0.4))
        ref = (math.sin(math.pi / 4) * sphi ** 1.5 * math.gamma(1.5)
               * 2 ** 0.5 * float(mp.zeta(1.5)))
        assert cb.upper == pytest.approx(ref, rel=1e-13)
        assert cb.lower == pytest.approx(-(1 - 2 ** -0.5) * ref, rel=1e-13)
        assert cb.attained

    def test_cross_check_by_maximizing_reduced_form(self):
        # scan cos Psi by scanning the reduced integral directly; the
        # approach to the cos Psi = -1 end is O((1+cos Psi)^(sigma/2))
        f = power(0.4, 0, 0.5)
        cb = coefficient_bounds(f)
        sphi = math.sin(math.acos(0.4))
        y, w = _graded(40.0, 0.5)
        em1, sh2 = _kernel_parts(y, sphi)
        vals = []
        for cpsi in np.concatenate([[-1 + 1e-13],
                                    np.linspace(-0.95, 1.0, 40)]):
            g = y ** 0.5 * (em1 + 1.0 + cpsi) / (sh2 + 1.0 + cpsi)
            integral, _ = _sums(w, g)
            vals.append(-2.0 * math.sin(math.pi / 4) * integral)
        assert max(vals) == pytest.approx(cb.upper, rel=5e-3)
        assert min(vals) == pytest.approx(cb.lower, rel=5e-3)

    def test_strict_flag_for_odd_k(self):
        mp = pytest.importorskip("mpmath")
        cb = coefficient_bounds(power(0.4, 1, 1.0))
        assert not cb.attained
        assert cb.upper == pytest.approx(-cb.lower, rel=1e-14)
        sphi = math.sin(math.acos(0.4))
        ref = (sphi ** 3 * math.gamma(3.0) / 2.0
               * (1.0 - 2.0 ** -3) * float(mp.zeta(3.0)))
        assert cb.upper == pytest.approx(ref, rel=1e-13)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(b=st.one_of(st.sampled_from([0.0, 0.9999, -0.9999, 1 - 1e-10]),
                       st.floats(-1.0, 1.0, exclude_min=True,
                                 exclude_max=True)),
           k=st.integers(0, 5),
           alpha=st.one_of(st.sampled_from([-0.999, 0.001, 0.02, 1.9]),
                           st.floats(-1.0, 1.9, exclude_min=True,
                                     allow_subnormal=False)))
    def test_against_gamma_zeta(self, b, k, alpha):
        # the grid, with the y^(sigma-1) head at cos Psi = -1 and in the
        # 1/sinh bound, against the closed form the docstring states
        mp = pytest.importorskip("mpmath")
        assume(alpha != 0.0 and k + alpha > 0.0)
        f = power(b, k, alpha)
        cb = coefficient_bounds(f)
        lo, hi = _gamma_zeta_bounds(f, mp)
        assume(max(abs(lo), abs(hi)) > 1e-280)   # far from subnormals
        assert cb.attained == (k % 2 == 0)
        tol = 1e-14 * max(abs(lo), abs(hi))
        assert abs(cb.lower - lo) <= tol and abs(cb.upper - hi) <= tol

    def test_negative_alpha_ordering(self):
        cb = coefficient_bounds(power(0.4, 1, -0.5))
        assert cb.lower < 0 < cb.upper

    def test_predicted_coefficient_stays_in_envelope(self):
        # scaled parity-route predictions live inside the attained bounds
        # for even k and strictly inside the symmetric bound for odd k
        for k, alpha in ((0, 1.0), (2, 0.5)):
            f = power(0.4, k, alpha)
            cb = coefficient_bounds(f)
            for n in range(40, 400, 7):
                scaled = power_case_leading(f, n) * n ** (k + alpha + 1.0)
                assert cb.lower - 1e-12 <= scaled <= cb.upper + 1e-12
        for k, alpha in ((1, 1.0), (3, 0.5)):
            f = power(0.4, k, alpha)
            cb = coefficient_bounds(f)
            for n in range(40, 400, 7):
                scaled = power_case_leading(f, n) * n ** (k + alpha + 1.0)
                assert abs(scaled) < cb.upper


def _log_envelope_reference(b, k, beta, mp):
    """(lower, upper) lines (A, B) of log_envelope_constants in 30 digits.

    With a = 2 sin(beta pi/2), c = pi sin((beta+1) pi/2), sigma = k + beta
    and I_j = int_0^inf y^sigma L(y)^j K(y) dy: for odd k, K = 1/sinh x
    with x = 2y/sin phi and L = |log y|, the lines are +-(|a| I_0,
    |c| I_0 + |a| I_1); for even k, K is the even kernel at cos Psi = +1,
    1 - tanh(x/2), or at cos Psi = -1, 1 - coth(x/2), L = log y, and each
    gives (-s a I_0, s (a I_1 + c I_0)), s = -1 for k = 0 (mod 4) and +1
    for k = 2 (mod 4).  [0, 1e-6] is integrated from the
    series head of K, since 1/sinh x and 1 - coth(x/2) go like 1/y there
    and a plain mp.quad from 0 misses that y^(sigma-1) mass.
    """
    with mp.workdps(30):
        sp, sigma = mp.sin(mp.acos(b)), k + mp.mpf(beta)
        d = mp.mpf("1e-6")
        cuts = sorted({d, mp.mpf("1e-4"), mp.mpf("1e-2"), sp / 8, sp / 2,
                       sp, mp.mpf(1), 4 * sp, 16 * sp, 80 * sp})
        cuts = [y for y in cuts if y >= d]
        absolute = k % 2 == 1

        def log(y):
            return abs(mp.log(y)) if absolute else mp.log(y)

        def integral(kern, head, j):
            # head: (coefficient, power) terms of K's series at y = 0, with
            # int_0^d y^(e-1) log y dy = d^e (log d / e - 1 / e^2)
            total = mp.quad(lambda y: y ** sigma * log(y) ** j * kern(y),
                            cuts)
            for coef, power in head:
                e = sigma + power + 1
                m = d ** e * ((mp.log(d) / e - 1 / e ** 2) if j else 1 / e)
                total += coef * (-m if absolute and j else m)
            return total

        a = 2 * mp.sin(beta * mp.pi / 2)
        c = mp.pi * mp.sin((beta + 1) * mp.pi / 2)
        if absolute:
            i0, i1 = (integral(lambda y: 1 / mp.sinh(2 * y / sp),
                               [(sp / 2, -1), (-1 / (3 * sp), 1)], j)
                      for j in (0, 1))
            a_sym, b_sym = float(abs(a) * i0), float(abs(c) * i0
                                                     + abs(a) * i1)
            return (-a_sym, -b_sym), (a_sym, b_sym)
        sign = -1 if k % 4 == 0 else 1
        lines = []
        for kern, head in ((lambda y: 1 - mp.tanh(y / sp),
                            [(1, 0), (-1 / sp, 1)]),
                           (lambda y: 1 - mp.coth(y / sp),
                            [(1, 0), (-sp, -1), (-1 / (3 * sp), 1)])):
            i0, i1 = (integral(kern, head, j) for j in (0, 1))
            lines.append((float(-sign * a * i0),
                          float(sign * (a * i1 + c * i0))))
        return tuple(sorted(lines))


class TestLargeExponent:
    """y ** sigma on the grid overflows near sigma = 118 at b = 0.3, where
    leading_term, run_sweep and predict stop too; below that both
    families' envelopes are finite, above it they raise ValueError.  So
    do a power-log sigma below ~1e-154, where the log head's 1/sigma^2
    overflows, and a subnormal power sigma, where its 1/sigma does."""

    def test_finite_at_k110(self):
        mp = pytest.importorskip("mpmath")
        f = power(0.3, 110, 0.5)
        cb = coefficient_bounds(f)
        lo, hi = _gamma_zeta_bounds(f, mp)
        assert cb.lower == pytest.approx(lo, rel=1e-13)
        assert cb.upper == pytest.approx(hi, rel=1e-13)
        env = log_envelope_constants(powerlog(0.3, 110, 0.5))
        assert all(math.isfinite(v) for v in env.upper + env.lower)

    @pytest.mark.parametrize("func,f,sigma", [
        (coefficient_bounds, power(0.3, 200, 0.5), "200.5"),
        (log_envelope_constants, powerlog(0.3, 200, 0.5), "200.5"),
        (log_envelope_constants, powerlog(0.3, 0, 1e-300), "1e-300"),
        (coefficient_bounds, power(0.3, 0, 1e-310), "1e-310"),
    ], ids=["power-k200", "powerlog-k200", "powerlog-beta1e-300",
            "power-alpha1e-310"])
    def test_overflow_raises(self, func, f, sigma):
        with pytest.raises(ValueError, match=f"sigma = {sigma}"):
            func(f)


class TestLogCase:
    @pytest.mark.parametrize("k,beta", [(0, 1.0), (1, 0.0), (1, 0.5)])
    def test_consistency_with_general_route(self, k, beta):
        f = powerlog(0.4, k, beta)
        for n in (60, 150):
            lead = _jump_terms(f, [n])[0]
            red = log_case_leading(f, n)
            if abs(lead) > 1e-14:
                assert abs(red - lead) / abs(lead) <= 1e-8

    def test_log_envelope_reference_constants(self):
        env1 = log_envelope_constants(powerlog(0.4, 0, 1.0))
        assert env1.attained
        a_up, b_up = env1.upper
        a_lo, b_lo = env1.lower
        assert a_up == pytest.approx(0.691, abs=0.01)
        assert b_up == pytest.approx(0.162, abs=0.01)
        assert a_lo == pytest.approx(-1.382, abs=0.01)
        assert b_lo == pytest.approx(-1.282, abs=0.01)

        env2 = log_envelope_constants(powerlog(0.4, 1, 0.0))
        assert not env2.attained
        a_sym, b_sym = env2.upper
        assert a_sym == pytest.approx(0.0, abs=1e-12)
        assert b_sym == pytest.approx(1.628, abs=0.01)

    # (0.9999, 1, 0.5) and (-0.9999, 1, 1.0) have sin phi (34 + 3 sigma)
    # < 1: the kink piece below y = 1 covers the whole reach; sigma = 0.02
    # and 0.05 put most of the 1/sinh integrals in y^(sigma-1) near y = 0
    @pytest.mark.parametrize("b,k,beta", [
        (-0.7, 1, 0.5), (0.4, 3, 0.9), (0.9999, 1, 0.5), (-0.9999, 1, 1.0),
        (0.0, 1, -0.98), (0.667, 1, -0.98), (0.0, 1, -0.95),
        (0.667, 1, -0.95)])
    def test_odd_log_envelope_against_mpmath(self, b, k, beta):
        mp = pytest.importorskip("mpmath")
        lower, upper = _log_envelope_reference(b, k, beta, mp)
        env = log_envelope_constants(powerlog(b, k, beta))
        assert not env.attained
        assert env.upper == pytest.approx(upper, rel=1e-13)
        assert env.lower == pytest.approx(lower, rel=1e-13)

    # beta = 0.02: at cos Psi = -1 the even kernel goes like -sin phi / y
    @pytest.mark.parametrize("b,k,beta", [(0.4, 0, 0.02), (0.2, 2, -0.25)])
    def test_even_log_envelope_against_mpmath(self, b, k, beta):
        mp = pytest.importorskip("mpmath")
        lower, upper = _log_envelope_reference(b, k, beta, mp)
        env = log_envelope_constants(powerlog(b, k, beta))
        assert env.attained
        assert env.upper == pytest.approx(upper, rel=1e-13)
        assert env.lower == pytest.approx(lower, rel=1e-13)

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_log_envelope_order_at_beta_zero(self, k):
        # beta = 0: both lines are flat (A = 0), so B decides which is upper
        env = log_envelope_constants(powerlog(0.4, k, 0.0))
        assert env.upper[0] == env.lower[0] == 0.0
        assert env.upper[1] > env.lower[1]


class TestPsi0:
    def test_root_for_k0_alpha05(self):
        c0 = psi0_solve(0, 0.5)
        assert -1.0 < c0 <= 0.0            # crude estimate is near 0
        assert abs(_psi0_integral(0, 0.5)(c0)) <= 1e-10

    def test_monotone_in_cos_psi(self):
        grid = np.linspace(-1 + 1e-6, 1.0, 11)
        vals = [_psi0_integral(0, 0.5)(c) for c in grid]
        assert np.all(np.diff(vals) > 0)

    def test_regime_guard(self):
        with pytest.raises(ValueError):
            psi0_solve(1, 0.5)

    @pytest.mark.parametrize("k,alpha", [(0, 0.0), (0, 3.0), (4, -1.5),
                                         (0, -0.5)])
    def test_invalid_pair(self, k, alpha):
        with pytest.raises(ValueError):
            psi0_solve(k, alpha)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(k=st.sampled_from([0, 2, 4]),
           alpha=st.floats(-1.0, 2.0, exclude_min=True))
    def test_root_brackets_a_sign_change(self, k, alpha):
        assume(alpha != 0.0 and k + alpha > 0.0)
        c = psi0_solve(k, alpha)
        assert -1.0 < c < 1.0
        value = _psi0_integral(k, alpha)
        assert value(c - 1e-7) < 0.0 < value(c + 1e-7)

    @pytest.mark.parametrize("k,alpha", [(8, 2.0), (12, 2.0)])
    def test_root_at_large_exponent(self, k, alpha):
        # the integral scales like Gamma(k + alpha + 1), so |f| <= 1e-10
        # is out of reach; the bracket closing to adjacent doubles ends it
        c = psi0_solve(k, alpha)
        value = _psi0_integral(k, alpha)
        assert value(c - 1e-7) < 0.0 < value(c + 1e-7)


class TestRecommend:
    def test_phase_zero_sizes_first_for_odd_k(self):
        f = SingularIntegrand(math.cos(math.pi / 6), Power(1, 1.0))
        ranked = recommend_n(f, 10, 45)
        zero_phase = {n for n in range(10, 46)
                      if abs(phase(f, n).cos_phase) < 1e-9}
        assert set(ranked[:len(zero_phase)]) == zero_phase

    def test_empty_range(self):
        with pytest.raises(ValueError):
            recommend_n(power(0.4, 0, 0.5), 100, 50)


class TestPredictedOrder:
    def test_regime_table(self):
        p = predicted_order(power(0.4, 0, 0.5))
        assert p.order_exponent == pytest.approx(1.5)
        assert (p.regime_exponent, p.regime_log_factor) == (2.0, False)

        p = predicted_order(power(0.4, 0, 1.0))
        assert p.order_exponent == pytest.approx(2.0)
        assert (p.regime_exponent, p.regime_log_factor) == (3.0, True)

        p = predicted_order(power(0.4, 1, 0.5))
        assert p.order_exponent == pytest.approx(2.5)
        assert (p.regime_exponent, p.regime_log_factor) == (3.5, False)

    def test_log_flag_for_powerlog(self):
        p = predicted_order(powerlog(0.4, 0, 1.0))
        assert p.order_log_factor
        assert p.order_exponent == pytest.approx(2.0)
        assert not predicted_order(powerlog(0.4, 1, 0.0)).order_log_factor


class TestRouteAgreement:
    """The jump route (which leading_term takes for envelopes and general
    jumps) and the parity-reduced routes integrate the same kernel on the
    same grid; they must agree on every valid input.  Left out, each a
    known defect shown by a strict xfail below: a phase whose cos Psi
    rounds to -1 exactly (b = 0 with odd n, or |sin Psi| below ~1.5e-8)."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(b=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           k=st.integers(0, 6),
           alpha=st.floats(-1.0, 2.0, exclude_min=True),
           n=st.integers(10, 2000))
    def test_power(self, b, k, alpha, n):
        assume(alpha != 0.0 and k + alpha > 0.0)
        f = power(b, k, alpha)
        assume(phase(f, n).cos_psi > -1.0)
        lead = _jump_terms(f, [n])[0]
        assert abs(power_case_leading(f, n) - lead) <= 1e-8 * abs(lead)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(b=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
           k=st.integers(0, 6),
           beta=st.floats(-1.0, 1.0, exclude_min=True),
           n=st.integers(10, 2000))
    def test_powerlog(self, b, k, beta, n):
        assume(beta > 0.0 or k >= 1)
        f = powerlog(b, k, beta)
        assume(phase(f, n).cos_psi > -1.0)
        lead = _jump_terms(f, [n])[0]
        assert abs(log_case_leading(f, n) - lead) <= 1e-8 * abs(lead)

    def test_cos_psi_minus_one_small_exponent(self):
        f = power(0.0, 0, 0.1)           # b = 0, odd n: cos Psi = -1
        assert math.isfinite(_jump_terms(f, [101])[0])
        assert math.isfinite(power_case_leading(f, 101))

    @pytest.mark.xfail(strict=True, raises=RuntimeError,
                       reason="at cos Psi = -1 the integrand goes like "
                       "y^(k+alpha-1); for k + alpha below ~0.04 the graded "
                       "rule leaves too much in the panels next to y = 0 "
                       "and needs an analytic first-panel stub")
    def test_cos_psi_minus_one_tiny_exponent(self):
        assert math.isfinite(leading_term(power(0.0, 0, 0.02), 101))

    def test_cos_psi_rounding_to_minus_one(self):
        f = powerlog(1e-12, 1, 0.0)
        assert phase(f, 11).cos_psi == -1.0 and phase(f, 11).sin_psi != 0.0
        leading_term(f, 11)

    @pytest.mark.parametrize("b", [1e-12, 1e-10])
    def test_cos_psi_rounding_scan(self, b):
        # |sin Psi| < 1.5e-8 at odd n: cos Psi rounds to -1, 1 + cos Psi
        # must not; both routes agree, and the jump route takes envelopes
        f = power(b, 1, -0.5)
        env = power(b, 1, -0.5, envelope=gauss_envelope(b))
        for n in range(11, 200, 2):
            lead = _jump_terms(f, [n])[0]
            assert abs(leading_term(f, n) - lead) <= 1e-8 * abs(lead)
            assert math.isfinite(leading_term(env, n))

    def test_powerlog_small_exponent_routes(self):
        f = powerlog(0.0782200514, 0, 0.0547023344)
        lead = _jump_terms(f, [75])[0]
        assert abs(log_case_leading(f, 75) - lead) <= 1e-8 * abs(lead)


def _gj_sqrt():
    coef = 2j * math.sin(math.pi / 4)
    return GeneralJump(real_eval=lambda x: abs(x - 0.2) ** 0.5,
                       jump_eval=lambda y, n: coef * (y / n) ** 0.5,
                       holder_k=0, holder_alpha=0.5)


class TestPinnedBits:
    """float.hex of predictor outputs, re-taken when the reduced integrals
    moved to one reach, one panel grid and 1 + cos Psi = 2 cos^2(Psi/2),
    and the gauss-envelope and general-jump pins again when the jump route
    moved onto the same grid.  A change that keeps every node, weight and
    operation order must keep these bits.  The two leading_term Power pins
    are power_case_leading's bits, the one route leading_term takes for a
    Power family without an envelope.

    The pins were taken with numpy 2.4.6 on x86-64 dispatching AVX-512
    (X86_V4, AVX512_ICL, AVX512_SPR).  numpy's log, expm1, sinh, exp and
    power round differently under AVX2 dispatch or in another release,
    which moves some of these bits with no change in the program."""

    # the ids name the call, the input (+env: the gauss envelope;
    # 0.866: cos(pi/6)) and n, not the pin, so that a declared re-take
    # keeps the test's name
    @pytest.mark.parametrize("func,f,n,expected", [
        (leading_term, power(0.4, 0, 0.5), 57, "-0x1.66cf109b86418p-10"),
        (leading_term, power(-0.3, 3, 0.25), 1999, "0x1.77539a53da8f9p-49"),
        (leading_term, power(0.4, 0, 1.0, envelope=gauss_envelope(0.4)),
         150, "-0x1.2d53a47d093e6p-21"),
        (leading_term, powerlog(0.4, 0, 1.0), 600, "-0x1.37fd5bbda2e1cp-18"),
        (leading_term, SingularIntegrand(0.2, _gj_sqrt()), 150,
         "0x1.246c8fc3b6331p-13"),
        (power_case_leading, power(math.cos(math.pi / 6), 1, 0.5), 150,
         "0x1.4d17980d49143p-22"),
        (power_case_leading, power(0.4, 1, -0.5), 57,
         "-0x1.cb1776e2cf3bfp-13"),
        (log_case_leading, powerlog(0.4, 1, 0.0), 75, "0x1.d42c680a01037p-13"),
        (log_case_leading, powerlog(0.2, 2, -0.25), 600,
         "-0x1.b32d0e63c6fbdp-24"),
    ], ids=["leading_term-power(0.4,0,0.5)-57",
            "leading_term-power(-0.3,3,0.25)-1999",
            "leading_term-power(0.4,0,1)+env-150",
            "leading_term-powerlog(0.4,0,1)-600",
            "leading_term-general_sqrt(0.2)-150",
            "power_case-power(0.866,1,0.5)-150",
            "power_case-power(0.4,1,-0.5)-57",
            "log_case-powerlog(0.4,1,0)-75",
            "log_case-powerlog(0.2,2,-0.25)-600"])
    def test_leading_routes(self, func, f, n, expected):
        assert func(f, n).hex() == expected

    @pytest.mark.parametrize("f,expected", [
        (powerlog(0.4, 0, 1.0),
         ("0x1.61ba03e1cc924p-1", "0x1.4b968c3d1148ep-3",
          "-0x1.61ba03e1cc923p+0", "-0x1.4814e5b2400b0p+0")),
        (powerlog(-0.7, 1, 0.5),
         ("0x1.43f243e4965f2p-2", "0x1.6fd2df69cd478p-1",
          "-0x1.43f243e4965f2p-2", "-0x1.6fd2df69cd478p-1")),
        (powerlog(0.2, 2, -0.25),
         ("0x1.39bf38bf8885fp-2", "0x1.1b1e946be5aaap+0",
          "-0x1.be7d28e820be6p-2", "-0x1.b3a3443230405p+0")),
    ])
    def test_log_envelope_constants(self, f, expected):
        env = log_envelope_constants(f)
        assert tuple(v.hex() for v in env.upper + env.lower) == expected

    def test_coefficient_bounds(self):
        # on the grid since the envelope body is shared with power-log;
        # 3.0e-16 and 5.0e-16 off the 30-digit Gamma zeta closed form
        cb = coefficient_bounds(power(0.4, 0, 0.5))
        assert (cb.lower.hex(), cb.upper.hex()) == ("-0x1.30a0aae701347p-1",
                                                    "0x1.040413d2ae1d7p+1")
        cb = coefficient_bounds(power(math.cos(math.pi / 6), 1, 0.5))
        assert cb.upper.hex() == "0x1.09bec34795677p-3"

    def test_phase_root(self):
        assert _psi0_integral(0, 0.5)(-0.5).hex() == "-0x1.2579798f4bfacp-2"
        assert psi0_solve(0, 0.5).hex() == "-0x1.60be2baa7377ap-2"
        assert psi0_solve(2, 0.25).hex() == "-0x1.9ebab4ca29486p-4"

    def test_recommend_order(self):
        assert recommend_n(power(math.cos(math.pi / 6), 1, 0.5), 10, 80)[:10] \
            == [13, 19, 25, 10, 22, 31, 37, 43, 49, 73]
        assert recommend_n(powerlog(0.4, 0, 1.0), 10, 80)[:10] \
            == [59, 66, 40, 78, 20, 21, 47, 13, 28, 39]


def _closed_form_cases():
    """Seeded Power and PowerLog inputs with k = 0..3, k + exponent >=
    0.05, b in (-0.99, 0.99) and n in [10, 2000], plus b = 0 at odd n."""
    rng = np.random.default_rng(20251)

    def b_n():
        return (float(rng.uniform(-0.99, 0.99)),
                int(np.exp(rng.uniform(math.log(10), math.log(2000)))))

    cases = []
    for k, expo in ((0, 0.05), (0, 0.2), (1, -0.9)):   # k + exponent < 1/4
        for family in (power, powerlog):
            b, n = b_n()
            cases.append((family(b, k, expo), n))
    for i in range(36):
        k = int(rng.integers(0, 4))
        b, n = b_n()
        if i < 24:
            alpha = float(rng.uniform(max(0.05 - k, -0.99), 2.0))
            cases.append((power(b, k, alpha), n))
        else:
            beta = float(rng.uniform(0.05 if k == 0 else -0.99, 1.0))
            cases.append((powerlog(b, k, beta), n))
    return cases + [(power(0.0, 0, 0.1), 101), (power(0.0, 2, 0.5), 57),
                    (power(0.0, 0, 1.5), 11), (powerlog(0.0, 0, 0.15), 57),
                    (powerlog(0.0, 2, -0.5), 1001)]


def _reference_leading(f, n, mp):
    """The leading term in 30 digits from f's phase (cos Psi, sin Psi).

    With s = sigma + 1, h = sin(phi)/2 and the kernel in x = y/h,
    leading = -+ h^s / n^s int_0^inf x^sigma bracket(x) kernel(x) dx.
    Power: bracket = 2 sin(alpha pi/2) and the integral is
    -2 Gamma(s) Re or Im Li_s(-e^(i Psi)).  PowerLog: bracket is
    2 sin(beta pi/2) log(h x / n) + pi sin((beta+1) pi/2), integrated by
    mp.quad split at [0, 1, 5, 20, 80] with x = t^(1/sigma) on [0, 1].
    """
    info = phase(f, n)
    fam = f.family
    with mp.workdps(30):
        expo = mp.mpf(fam.alpha if isinstance(fam, Power) else fam.beta)
        sigma = fam.k + expo
        h = mp.sin(mp.mpf(info.phi)) / 2
        sign = -1 if fam.k % 4 in (0, 1) else 1
        if isinstance(fam, Power):
            # z = 1 exactly at b = 0 with odd n, where Li_s(z) moves
            # like |1 - z|^(s-1) if z is off by a rounding
            z = -mp.mpc(info.cos_psi, info.sin_psi)
            li = mp.polylog(sigma + 1, z)
            part = li.real if fam.k % 2 == 0 else li.imag
            integral = (2 * mp.sin(expo * mp.pi / 2)
                        * -2 * mp.gamma(sigma + 1) * part)
        else:
            cp1 = 1 + mp.mpf(info.cos_psi)
            a = 2 * mp.sin(expo * mp.pi / 2)
            c = a * mp.log(h / n) + mp.pi * mp.sin((expo + 1) * mp.pi / 2)

            def g(x):
                num = (mp.expm1(-x) + cp1 if fam.k % 2 == 0
                       else mp.mpf(info.sin_psi))
                return (x ** sigma * (a * mp.log(x) + c) * num
                        / (2 * mp.sinh(x / 2) ** 2 + cp1))

            def g_head(t):   # x = t^(1/sigma): bounded even at cos Psi = -1
                x = t ** (1 / sigma)
                return g(x) * x / (sigma * t) if t else mp.mpf(0)

            integral = mp.quad(g_head, [0, 1]) + mp.quad(g, [1, 5, 20, 80])
        return float(sign * (h / n) ** (sigma + 1) * integral)


class TestClosedForm:
    @pytest.mark.parametrize("f,n", _closed_form_cases())
    def test_leading_term(self, f, n):
        mp = pytest.importorskip("mpmath")
        ref = _reference_leading(f, n, mp)
        assert abs(leading_term(f, n) - ref) <= 1e-13 * abs(ref)


_JUMP_CASES = [
    (power(0.4, 0, 0.5, envelope=gauss_envelope(0.4)), 57),
    (power(0.4, 0, 1.0, envelope=gauss_envelope(0.4)), 150),
    (power(-0.7, 1, 0.5, envelope=gauss_envelope(-0.7)), 150),
    (power(0.95, 1, -0.5, envelope=gauss_envelope(0.95)), 57),
    (power(0.95, 2, 1.5, envelope=gauss_envelope(0.95)), 600),
    (powerlog(-0.7, 0, 0.5, envelope=gauss_envelope(-0.7)), 57),
    (powerlog(0.95, 1, 0.0, envelope=gauss_envelope(0.95)), 150),
    (powerlog(0.4, 2, -0.25, envelope=gauss_envelope(0.4)), 600),
]


def _reference_jump(f, n, mp):
    """(1/n) int Re([f] K) dy in 30 digits over the grid's reach
    [0, sin phi (_REACH + 3 sigma)], from f's phase (1 + cos Psi, sin Psi),
    with the gauss envelope's factor exp((y/n)^2) on the cut."""
    info = phase(f, n)
    fam = f.family
    with mp.workdps(30):
        expo = mp.mpf(fam.alpha if isinstance(fam, Power) else fam.beta)
        sigma = fam.k + expo
        sp = mp.sin(mp.mpf(info.phi))
        cp1, sin_psi = mp.mpf(info.cp1), mp.mpf(info.sin_psi)
        ik1 = mp.mpc(0, 1) ** (fam.k + 1)

        def g(y):
            t, x = y / n, 2 * y / sp
            if isinstance(fam, Power):
                jmp = 2 * mp.sin(expo * mp.pi / 2)
            else:
                jmp = (2 * mp.sin(expo * mp.pi / 2) * mp.log(t)
                       + mp.pi * mp.sin((expo + 1) * mp.pi / 2))
            jmp *= ik1 * t ** sigma * mp.exp(t ** 2)
            kern = ((sin_psi + 1j * (mp.expm1(-x) + cp1))
                    / (2 * mp.sinh(x / 2) ** 2 + cp1))
            return mp.re(jmp * kern)

        y_max = sp * (_REACH + 3 * sigma)
        cuts = [sp * c for c in (0, 0.125, 0.5, 1, 2, 4, 8, 16, 32)]
        return float(mp.quad(g, [c for c in cuts if c < y_max] + [y_max])
                     / n)


class TestJumpRoute:
    """The jump route that envelopes and general jumps take, against a
    30-digit integral of the same integrand on the same reach; b = 0 at
    odd n (cos Psi = -1) is left out."""

    @pytest.mark.parametrize("f,n", _JUMP_CASES)
    def test_leading_term(self, f, n):
        mp = pytest.importorskip("mpmath")
        ref = _reference_jump(f, n, mp)
        assert abs(leading_term(f, n) - ref) <= 1e-13 * abs(ref)
