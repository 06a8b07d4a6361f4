import cmath
import math

import numpy as np
import pytest

from singquad import (in_validity_domain, legendre_p, legendre_p_deriv,
                      legendre_q, max_qp_ratio_on_ellipse, p_asymptotic,
                      p_asymptotic_log, q_asymptotic, qp_ratio_asymptotic,
                      xi_of_z)

# explicit P_10 coefficients, the independent evaluation oracle
P10 = np.array([46189, 0, -109395, 0, 90090, 0, -30030, 0, 3465, 0, -63]) / 256.0


def p10_explicit(z):
    return np.polyval(P10, z)


def complex_newton_xi(z, phi0):
    """Oracle: solve cosh(xi) = z from the cut-side initial guess."""
    xi = 1j * phi0
    for _ in range(60):
        step = (cmath.cosh(xi) - z) / cmath.sinh(xi)
        xi -= step
        if abs(step) < 1e-15:
            break
    return xi


class TestXi:
    def test_real_gt_one(self):
        c = xi_of_z(1.25)
        assert c.xi == pytest.approx(math.log(2.0), abs=1e-14)

    def test_upper_cut_limit(self):
        c = xi_of_z(0.0 + 0.0j)
        assert c.xi == pytest.approx(1j * math.pi / 2, abs=1e-14)

    def test_near_cut_newton_oracle(self):
        z = 0.4 + 0.01j
        ref = complex_newton_xi(z, math.acos(0.4))
        c = xi_of_z(z)
        assert c.xi == pytest.approx(ref, abs=1e-13)
        assert c.xi.real == pytest.approx(0.01 / math.sin(math.acos(0.4)),
                                          rel=2e-2)

    def test_roundtrip_and_sides(self):
        for z in (2.0 + 0j, -1.5 + 0j, 0.3 + 0.2j, 0.3 - 0.2j, 0.7 + 1e-6j,
                  0.7 - 1e-6j):
            c = xi_of_z(z)
            assert cmath.cosh(c.xi) == pytest.approx(z, rel=1e-12)
            assert c.xi.real >= 0.0
            if abs(z.real) < 1 and z.imag != 0:
                assert (c.xi.imag > 0) == (z.imag > 0)

    def test_degenerate(self):
        for z in (1.0, -1.0):
            with pytest.raises(ValueError):
                xi_of_z(z)


class TestP:
    def test_simple_values(self):
        assert legendre_p(2, 0.5) == pytest.approx(-0.125, abs=1e-15)
        for n in range(11):
            assert legendre_p(n, 1.0) == pytest.approx(1.0, abs=5e-15)

    def test_against_explicit_p10(self):
        z = 0.4 + 0.05j
        assert legendre_p(10, z) == pytest.approx(p10_explicit(z), rel=1e-10)

    def test_parity(self):
        rng = np.random.default_rng(3)
        for n in (3, 8, 15):
            for z in rng.uniform(-1, 1, size=10):
                assert legendre_p(n, -z) == pytest.approx(
                    (-1.0) ** n * legendre_p(n, z), abs=1e-13)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(-0.9, 0.9, 7)
        vec = legendre_p(12, xs)
        assert vec == pytest.approx([legendre_p(12, x) for x in xs])

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            legendre_p(5000, 3.0)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            legendre_p(5001, 0.5)


class TestPDeriv:
    def test_simple(self):
        assert legendre_p_deriv(2, 0.5) == pytest.approx(1.5, abs=1e-14)
        assert legendre_p_deriv(5, 1.0) == pytest.approx(15.0, abs=1e-12)
        assert legendre_p_deriv(4, -1.0) == pytest.approx(-10.0, abs=1e-12)

    def test_finite_difference(self):
        h = 1e-6
        fd = (legendre_p(10, 0.3 + h) - legendre_p(10, 0.3 - h)) / (2 * h)
        assert legendre_p_deriv(10, 0.3) == pytest.approx(fd, abs=1e-7)


class TestQ:
    def test_closed_forms(self):
        assert legendre_q(0, 2.0) == pytest.approx(0.5 * math.log(3.0),
                                                   rel=1e-14)
        assert legendre_q(1, 2.0) == pytest.approx(math.log(3.0) - 1.0,
                                                   rel=1e-13)

    @pytest.mark.parametrize("z", [2.0 + 0j, 0.4 + 0.1j, 0.4 + 0.001j])
    @pytest.mark.parametrize("n", [5, 20, 100])
    def test_wronskian(self, n, z):
        w = n * (legendre_p(n, z) * legendre_q(n - 1, z)
                 - legendre_p(n - 1, z) * legendre_q(n, z))
        assert abs(w - 1.0) < 1e-9

    def test_wronskian_at_requested_20(self):
        z = 0.4 + 0.1j
        w = 20 * (legendre_p(20, z) * legendre_q(19, z)
                  - legendre_p(19, z) * legendre_q(20, z))
        assert abs(w - 1.0) < 1e-9

    def test_conjugate_symmetry(self):
        q_up = legendre_q(15, 0.2 + 0.05j)
        q_dn = legendre_q(15, 0.2 - 0.05j)
        assert q_dn == pytest.approx(q_up.conjugate(), rel=1e-12)

    def test_on_cut_rejected(self):
        with pytest.raises(ValueError):
            legendre_q(5, 0.3)

    def test_against_mpmath(self):
        # independent hypergeometric-based evaluation, both branch sides
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for z in (2.0 + 0j, 0.4 + 0.1j, 0.4 - 0.05j, -0.5 + 0.2j):
            for n in (1, 5, 20):
                ref = complex(mp.legenq(n, 0, mp.mpc(z), type=3))
                assert legendre_q(n, z) == pytest.approx(ref, rel=1e-11)


class TestPAsymptotic:
    def test_hilb_consistency(self):
        n, x = 100, 0.4
        phi = math.acos(x)
        hilb = math.sqrt(2.0 / (n * math.pi * math.sin(phi))) \
            * math.cos((n + 0.5) * phi - math.pi / 4)
        val = p_asymptotic(n, xi_of_z(x + 0j))
        assert abs(val - hilb) / abs(hilb) <= 2.0 / n

    def test_one_term_consistency(self):
        n, z = 100, 1.5
        rho = z + math.sqrt(z * z - 1.0)
        one_term = rho ** (n + 0.5) / ((z * z - 1.0) ** 0.25
                                       * math.sqrt(math.pi * (2 * n + 1)))
        val = p_asymptotic(n, xi_of_z(z))
        assert abs(val - one_term) / abs(one_term) <= 2.0 / n

    def test_vs_recurrence_near_cut(self):
        n, z = 200, 0.4 + 0.02j
        val = p_asymptotic(n, xi_of_z(z))
        ref = legendre_p(n, z)
        assert abs(val - ref) / abs(ref) <= 5.0 / n

    def test_conjugate_reflection(self):
        n, z = 150, 0.4 - 0.03j
        val = p_asymptotic(n, xi_of_z(z))
        ref = legendre_p(n, z)
        assert abs(val - ref) / abs(ref) <= 5.0 / n

    def test_outside_domain_rejected(self):
        with pytest.raises(ValueError):
            p_asymptotic(100, xi_of_z(1.0 + 1e-9 + 0j))

    def test_log_form_matches(self):
        n, z = 100, 1.5
        mag, arg = p_asymptotic_log(n, xi_of_z(z))
        direct = p_asymptotic(n, xi_of_z(z))
        assert mag == pytest.approx(math.log(abs(direct)), abs=1e-12)
        assert cmath.exp(1j * arg) == pytest.approx(direct / abs(direct),
                                                    abs=1e-9)

    def test_log_form_beyond_overflow(self):
        n, z = 4000, 1.5   # (n+1/2) xi ~ 3851, beyond double exp range
        mag, _ = p_asymptotic_log(n, xi_of_z(z))
        assert mag > 700.0
        with pytest.raises(OverflowError):
            p_asymptotic(n, xi_of_z(z))

    def test_validity_domain_helper(self):
        assert in_validity_domain(100, xi_of_z(1.5))
        assert not in_validity_domain(100, xi_of_z(1.0 + 1e-8 + 0j))


# frozen repr of each asymptotic form on both half-planes: the Schwarz
# reflection, the overflow paths and the sign of zero must not move
_NEAR_ZERO = 0.3000846350003409   # cos(81 pi / 201): P_100 nearly vanishes
_OVERFLOW = "OverflowError"
_OUTSIDE = "ValueError"
_FROZEN_ASYMPTOTICS = [
    (100, 1.5 + 0.3j, True, "(2.7522014670039752e+42+1.249746157731348e+42j)",
     "(97.81471141222094, 25.55899088816859)",
     "(9.870719728395015e-46-9.313910519164344e-46j)"),
    (100, 1.5 - 0.3j, True, "(2.7522014670039752e+42-1.249746157731348e+42j)",
     "(97.81471141222094, -25.55899088816859)",
     "(9.870719728395015e-46+9.313910519164344e-46j)"),
    (100, 0.9 + 0.1j, True, "(23802293.29897023-73279839.84182993j)",
     "(18.15994672479793, 49.0087494862358)",
     "(1.2413889837331157e-10+6.262251229354695e-12j)"),
    (100, 0.9 - 0.1j, True, "(23802293.29897023+73279839.84182993j)",
     "(18.15994672479793, -49.0087494862358)",
     "(1.2413889837331157e-10-6.262251229354695e-12j)"),
    (100, complex(_NEAR_ZERO, 1e-9), False,
     "(0.05764409842497855+6.077928154577941e-09j)",
     "(-2.8534674065447976, 125.6637062490306)",
     "(-0.09028797645544785-0.09028797648522739j)"),
    (100, complex(_NEAR_ZERO, -1e-9), False,
     "(0.05764409842497855-6.077928154577941e-09j)",
     "(-2.8534674065447976, -125.6637062490306)",
     "(-0.09028797645544785+0.09028797648522739j)"),
    (4000, 1.5 + 0.3j, True, _OVERFLOW,
     "(4020.542343326018, 1023.8102461291587)", "0j"),
    (4000, 1.5 - 0.3j, True, _OVERFLOW,
     "(4020.542343326018, -1023.8102461291587)", "-0j"),
    (4000, 0.9 + 0.1j, True, _OVERFLOW,
     "(833.3678976329087, 1974.2867874269443)", "0j"),
    (4000, 0.9 - 0.1j, True, _OVERFLOW,
     "(833.3678976329087, -1974.2867874269443)", "-0j"),
    (100, 1.0 + 1e-8j, False, _OUTSIDE, _OUTSIDE, _OUTSIDE),
    (100, 1.0 - 1e-8j, False, _OUTSIDE, _OUTSIDE, _OUTSIDE),
]


@pytest.mark.parametrize("n,z,valid,p,p_log,q", _FROZEN_ASYMPTOTICS)
def test_asymptotics_frozen(n, z, valid, p, p_log, q):
    coord = xi_of_z(z)
    assert in_validity_domain(n, coord) is valid
    for fn, want in ((p_asymptotic, p), (p_asymptotic_log, p_log),
                     (q_asymptotic, q)):
        try:
            got = repr(fn(n, coord))
        except (OverflowError, ValueError) as exc:
            got = type(exc).__name__
        assert got == want, fn.__name__


class TestQAsymptotic:
    @pytest.mark.parametrize("z", [1.5 + 0j, 0.4 + 0.05j])
    def test_vs_continued_fraction(self, z):
        for n in (100, 200):
            val = q_asymptotic(n, xi_of_z(z))
            ref = legendre_q(n, z)
            assert abs(val - ref) / abs(ref) <= 5.0 / n

    def test_exponential_decay(self):
        z = 2.0
        rho = z + math.sqrt(z * z - 1.0)
        for n in (20, 40, 80):
            ratio = abs(q_asymptotic(2 * n, xi_of_z(z))) \
                / abs(q_asymptotic(n, xi_of_z(z)))
            # recessive solution: drop by about rho^-(n + 1/2)... per doubling
            assert ratio < rho ** (-(n - 2))


class TestQPRatio:
    def test_large_y_limit(self):
        assert abs(qp_ratio_asymptotic(100, 0.4, 500.0)) < 1e-300

    def test_b_zero_even_n(self):
        # upper-side limit: Im(Q/P) -> -pi/2, so the value is -i pi/2;
        # the opposite sign would contradict
        # Q_n(x+i0) = Q_n(x) - i pi/2 P_n(x)
        val = qp_ratio_asymptotic(50, 0.0, 1e-12)
        assert val == pytest.approx(-1j * math.pi / 2, abs=1e-10)

    def test_matches_exact_ratio_moderate_y(self):
        n, b, y = 200, 0.4, 1.0
        phi = math.acos(b)
        z = b + 1j * y / n
        exact = legendre_q(n, z) / legendre_p(n, z)
        approx = qp_ratio_asymptotic(n, b, y)
        env = 1.0 / (n * (math.exp(2 * y / math.sin(phi)) - 1.0) ** 2)
        assert abs(exact - approx) <= 60.0 * env

    def test_fitted_constant_stable(self):
        # C = dev * n (e^{2y/sin phi}-1)^2 at y=1 stays within +-50%
        b, y = 0.4, 1.0
        phi = math.acos(b)
        cs = []
        for n in (100, 200, 400):
            z = b + 1j * y / n
            dev = abs(legendre_q(n, z) / legendre_p(n, z)
                      - qp_ratio_asymptotic(n, b, y))
            cs.append(dev * n * (math.exp(2 * y / math.sin(phi)) - 1.0) ** 2)
        for c in cs[1:]:
            assert 0.5 <= c / cs[0] <= 1.5


class TestBernstein:
    @pytest.mark.parametrize("n,M", [(100, 1.0), (100, 2.0), (200, 1.0)])
    def test_sampled_ratio_order(self, n, M):
        # the measured constant is ~ pi * exp(M^2 log^2 n / n): the order
        # statement absorbs it, so only the n^-2M scaling is pinned here
        ratio = max_qp_ratio_on_ellipse(n, M)
        bound = n ** (-2.0 * M)
        assert 0.3 * bound <= ratio <= 8.0 * bound
