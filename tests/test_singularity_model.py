import math

import numpy as np
import pytest

from singquad import (GeneralJump, HolderClass, Power, PowerLog,
                      SingularIntegrand, evaluate_real, gauss_envelope,
                      holder_class, jump, parse_integrand, phase)


def power(b, k, alpha, envelope=None):
    return SingularIntegrand(b, Power(k, alpha), envelope=envelope)


def powerlog(b, k, beta):
    return SingularIntegrand(b, PowerLog(k, beta))


class TestConstruction:
    def test_family_invariants(self):
        with pytest.raises(ValueError):
            Power(0, -0.5)          # k + alpha <= 0
        with pytest.raises(ValueError):
            Power(-1, 0.5)
        with pytest.raises(ValueError):
            Power(0, 0.0)
        with pytest.raises(ValueError):
            PowerLog(0, -0.5)       # beta <= 0 needs k >= 1
        with pytest.raises(ValueError):
            SingularIntegrand(1.0, Power(0, 0.5))

    def test_phi_range(self):
        assert power(0.4, 0, 0.5).phi == pytest.approx(math.acos(0.4))
        assert 0 < power(-0.9, 0, 0.5).phi < math.pi


class TestEvaluateReal:
    def test_power_point_values(self):
        assert evaluate_real(power(0.4, 0, 0.5), 0.9) == pytest.approx(
            math.sqrt(0.5), rel=1e-14)
        assert evaluate_real(power(0.4, 1, 1.0), 0.2) == pytest.approx(
            -0.04, abs=1e-16)

    def test_singular_point_continuity_limit(self):
        f5 = power(0.4, 0, 1.0, envelope=gauss_envelope(0.4))
        assert evaluate_real(f5, 0.4) == 0.0
        assert evaluate_real(power(0.4, 1, -0.5), 0.4) == 0.0

    def test_powerlog_values(self):
        f = powerlog(0.4, 0, 1.0)
        assert evaluate_real(f, 0.9) == pytest.approx(0.5 * math.log(0.5),
                                                      rel=1e-14)
        assert evaluate_real(f, 0.4) == 0.0

    def test_envelope_multiplies(self):
        f5 = power(0.4, 0, 1.0, envelope=gauss_envelope(0.4))
        assert evaluate_real(f5, 0.9) == pytest.approx(
            0.5 * math.exp(-0.25), rel=1e-14)

    @pytest.mark.parametrize("k,alpha", [(1, 1.0), (2, 0.5)])
    def test_derivative_continuity_when_smooth(self, k, alpha):
        # k + alpha > 1 means C^1 across b; finite differences resolve the
        # agreement to 1e-4 at h=1e-5 once k + alpha >= 2
        f = power(0.3, k, alpha)
        h = 1e-5
        straddle = (evaluate_real(f, 0.3 + h) - evaluate_real(f, 0.3 - h)) / (2 * h)
        one_sided = (evaluate_real(f, 0.3 + 2 * h) - evaluate_real(f, 0.3 + h)) / h
        assert straddle == pytest.approx(one_sided, abs=1e-4)


class TestHolderClass:
    def test_mapping(self):
        assert holder_class(power(0.4, 0, 0.5)) == HolderClass(0, 0.5)
        assert holder_class(power(0.4, 1, -0.5)) == HolderClass(0, 0.5)
        assert holder_class(power(0.4, 0, 1.5)) == HolderClass(1, 0.5)
        assert holder_class(powerlog(0.4, 1, 0.0)) == HolderClass(0, 1.0,
                                                                  open=True)
        assert holder_class(powerlog(0.4, 0, 0.5)) == HolderClass(0, 0.5,
                                                                  open=True)
        assert holder_class(powerlog(0.4, 1, -0.25)) == HolderClass(
            0, 0.75, open=True)

    def test_general_jump_passthrough(self):
        fam = GeneralJump(real_eval=lambda x: 0.0,
                          jump_eval=lambda y, n: np.zeros_like(y) * 1j,
                          holder_k=2, holder_alpha=0.5)
        f = SingularIntegrand(0.1, fam)
        assert holder_class(f) == HolderClass(2, 0.5)


class TestJump:
    def test_power_value(self):
        # 2 i sin(pi/4) (0.1)^0.5
        val = jump(power(0.4, 0, 0.5), 1.0, 10)
        assert val == pytest.approx(2j * math.sin(math.pi / 4)
                                    * math.sqrt(0.1), rel=1e-14)

    def test_zero_jump_for_polynomials(self):
        fam = GeneralJump(real_eval=lambda x: x ** 3,
                          jump_eval=lambda y, n: np.zeros_like(y) * 1j,
                          holder_k=5, holder_alpha=1.0)
        f = SingularIntegrand(0.2, fam)
        assert jump(f, 2.0, 50) == 0j

    def test_gauss_envelope_jump(self):
        f5 = power(0.4, 0, 1.0, envelope=gauss_envelope(0.4))
        val = jump(f5, 2.0, 100)
        ref = 2 * (2j / 100) * math.exp(4.0 / 10000)
        assert val == pytest.approx(ref, rel=1e-14)

    def test_powerlog_jump(self):
        # k=1, beta=0: bracket collapses to pi, i^{k+1} = -1
        f = powerlog(0.4, 1, 0.0)
        val = jump(f, 1.5, 100)
        assert val == pytest.approx(-math.pi * 1.5 / 100, rel=1e-14)

    def test_magnitude_scaling(self):
        f = power(0.4, 1, 0.5)
        ys = np.linspace(0.1, 5.0, 25)
        mags = np.abs(jump(f, ys, 200))
        ref = (ys / 200) ** 1.5
        assert np.all(mags <= 2.0 * ref + 1e-300)
        assert np.allclose(mags / ref, mags[0] / ref[0])

    def test_direction_positive_alpha(self):
        for k in range(4):
            f = power(0.25, k, 0.5)
            val = jump(f, 1.3, 50) / (1j) ** (k + 1)
            assert abs(val.imag) < 1e-16
            assert val.real > 0

    def test_y_positive_required(self):
        with pytest.raises(ValueError):
            jump(power(0.4, 0, 0.5), -1.0, 10)


class TestPhase:
    def test_b_zero(self):
        for n in (3, 10, 57):
            info = phase(SingularIntegrand(0.0, Power(0, 0.5)), n)
            assert abs(info.cos_psi) == pytest.approx(1.0, abs=1e-12)

    def test_b_zero_odd_n_is_exactly_pi(self):
        # b = 0 is then the middle Gauss node
        for n in (11, 101, 599):
            info = phase(SingularIntegrand(0.0, Power(1, -0.5)), n)
            assert (info.psi, info.cos_psi, info.sin_psi) == (math.pi, -1.0, 0.0)

    def test_pi_over_six(self):
        f = SingularIntegrand(math.cos(math.pi / 6), Power(1, 0.5))
        info = phase(f, 1)
        assert info.psi == pytest.approx(0.0, abs=1e-12)

    def test_at_most_four_phase_values(self):
        f = SingularIntegrand(math.cos(math.pi / 6), Power(1, 0.5))
        cos_phases = {round(phase(f, n).cos_phase, 9) for n in range(1, 200)}
        cos_psis = {round(phase(f, n).cos_psi, 9) for n in range(1, 200)}
        assert len(cos_phases) <= 4
        assert len(cos_psis) <= 4

    def test_periodicity(self):
        f = SingularIntegrand(math.cos(math.pi / 6), Power(1, 0.5))
        for n in range(1, 60):
            a = phase(f, n).cos_psi
            b = phase(f, n + 6).cos_psi
            assert a == pytest.approx(b, abs=1e-9)


class TestParser:
    def test_power(self):
        f = parse_integrand("power(0.4, 0, 0.5)")
        assert f.b == 0.4 and f.family == Power(0, 0.5)
        assert f.envelope is None

    def test_powerlog(self):
        f = parse_integrand("powerlog(0.4,1,0)")
        assert f.family == PowerLog(1, 0.0)

    def test_envelope(self):
        f = parse_integrand("power(0.4, 0, 1) envelope=gauss")
        assert f.envelope is not None
        assert f.envelope(0.4 + 0j) == pytest.approx(1.0)

    def test_rejects_non_integer_k(self):
        for bad in ("power(0.4, 1.5, 0.5)", "powerlog(0.4, 0.999, 0)",
                    "power(0.4, inf, 0.5)", "power(0.4, nan, 0.5)"):
            with pytest.raises(ValueError):
                parse_integrand(bad)
        assert parse_integrand("power(0.4, 1.0, 0.5)").family == Power(1, 0.5)

    def test_rejects_garbage(self):
        for bad in ("", "power(0.4)", "mystery(0,0,1)",
                    "power(0.4,0,1) envelope=cubic"):
            with pytest.raises(ValueError):
                parse_integrand(bad)
