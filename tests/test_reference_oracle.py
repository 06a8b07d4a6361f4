import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from singquad import (Power, PowerLog, SingularIntegrand, exact_integral,
                      gauss_envelope, split_adaptive_integral)
from singquad.reference_oracle import example5_closed_form

# frozen: (0.6^1.5 + 1.4^1.5)/1.5, re-verified below by a composite rule
POWER_05_AT_04 = 1.4141735605418548


def composite_oracle(f, b, panels=50, order=20):
    """Independent check: fixed composite Gauss on each side of b."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for lo, hi in [(-1.0, b), (b, 1.0)]:
        edges = np.linspace(lo, hi, panels + 1)
        for a, c in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + c), 0.5 * (c - a)
            total += half * float(np.dot(w, f(mid + half * x)))
    return total


def test_power_closed_form_value():
    f = SingularIntegrand(0.4, Power(0, 0.5))
    res = exact_integral(f)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(POWER_05_AT_04, abs=1e-15)
    assert res.value == pytest.approx(composite_oracle(f, 0.4), abs=2e-7)


def test_odd_function_integrates_to_zero():
    res = exact_integral(SingularIntegrand(0.0, Power(1, 1.0)))
    assert abs(res.value) <= 1e-14


def test_example5_closed_form_vs_adaptive():
    f = SingularIntegrand(0.4, Power(0, 1.0), envelope=gauss_envelope(0.4))
    res = exact_integral(f)
    assert res.method == "split_adaptive"
    ref = example5_closed_form(0.4)
    assert ref == pytest.approx(1 - (math.exp(-1.96) + math.exp(-0.36)) / 2,
                                abs=1e-16)
    assert res.value == pytest.approx(ref, abs=1e-13)
    assert res.est_abs_error <= 1e-12


def test_powerlog_closed_form():
    f = SingularIntegrand(0.4, PowerLog(0, 1.0))
    res = exact_integral(f)
    ref = split_adaptive_integral(f)
    assert res.method == "closed_form"
    assert res.value == pytest.approx(ref.value, abs=1e-12)


@pytest.mark.parametrize("family", [
    Power(0, 0.5), Power(0, 1.5), Power(1, 1.0), Power(2, 0.25),
    Power(1, -0.5), Power(3, 1.0), PowerLog(0, 1.0), PowerLog(1, 0.0),
    PowerLog(1, 0.5), PowerLog(2, -0.25),
])
@pytest.mark.parametrize("b", [0.4, -0.3])
def test_closed_vs_adaptive_agreement(family, b):
    f = SingularIntegrand(b, family)
    closed = exact_integral(f)
    adaptive = split_adaptive_integral(f)
    assert closed.method == "closed_form"
    assert abs(closed.value - adaptive.value) <= 1e-12


def test_powerlog_frozen_reference():
    # integral of |x-0.4| log|x-0.4| via the antiderivative
    # t^2 (log t / 2 - 1/4) evaluated on both sides
    f = SingularIntegrand(0.4, PowerLog(0, 1.0))
    side = lambda T: T * T * (math.log(T) / 2 - 0.25)
    assert exact_integral(f).value == pytest.approx(side(0.6) + side(1.4),
                                                    abs=1e-15)



@pytest.mark.parametrize("b,k,frac,log", [
    (0.9, 10, 2.0, False), (0.9, 9, 1.0, True), (0.4, 1, 0.3, False),
])
def test_closed_form_error_estimate_covers_rounding(b, k, frac, log):
    # the same closed form in 40 digits; rounding 1 + b and raising it to
    # the power k + frac + 1 costs some 1e-13 at large k
    mp = pytest.importorskip("mpmath")
    family = PowerLog(k, frac) if log else Power(k, frac)
    res = exact_integral(SingularIntegrand(b, family))
    with mp.workdps(40):
        m = k + mp.mpf(frac)

        def side(t):
            if log:
                return t ** (m + 1) * (mp.log(t) / (m + 1) - 1 / (m + 1) ** 2)
            return t ** (m + 1) / (m + 1)
        ref = side(1 - mp.mpf(b)) + (-1) ** k * side(1 + mp.mpf(b))
        err = float(abs(mp.mpf(res.value) - ref))
    assert err <= res.est_abs_error <= 1e-11


def _mpmath_reference(f, mp):
    """Integral of f over [-1, 1] by mpmath quad on each side of b, in
    the variable t = |x - b|, at 30 digits."""
    fam = f.family
    expo = fam.alpha if isinstance(fam, Power) else fam.beta
    with mp.workdps(30):
        b, m = mp.mpf(f.b), fam.k + mp.mpf(expo)

        def side(sign):
            def g(t):
                val = sign ** fam.k * t ** m
                if isinstance(fam, PowerLog):
                    val *= mp.log(t)
                if f.envelope is not None:
                    val *= mp.exp(-t * t)
                return val
            return mp.quad(g, [0, 1 - sign * b])
        return side(1) + side(-1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(b=st.floats(-0.95, 0.95), k=st.integers(0, 3),
       expo=st.floats(-0.95, 1.0), log=st.booleans(), env=st.booleans())
def test_oracle_against_mpmath(b, k, expo, log, env):
    mp = pytest.importorskip("mpmath")
    if log:
        assume(expo > 0.0 or k >= 1)
        family = PowerLog(k, expo)
    else:
        assume(expo != 0.0 and k + expo > 0.0)
        family = Power(k, expo)
    f = SingularIntegrand(b, family,
                          envelope=gauss_envelope(b) if env else None)
    res = exact_integral(f)
    err = abs(mp.mpf(res.value) - _mpmath_reference(f, mp))
    assert err <= res.est_abs_error


@pytest.mark.xfail(strict=True, reason="the halves of the endpoint panel "
                   "agree by chance, so the estimate misses its error")
def test_oracle_estimate_chance_agreement():
    # t^2.14 log t e^-t^2 on [0, 0.607]: GL15 on the endpoint panel and on
    # its halves differ by 1.2e-15 while both are off by 4e-13
    mp = pytest.importorskip("mpmath")
    b = -0.3932298142887629
    f = SingularIntegrand(b, PowerLog(2, 0.14354624529580517),
                          envelope=gauss_envelope(b))
    res = exact_integral(f)
    err = abs(mp.mpf(res.value) - _mpmath_reference(f, mp))
    assert err <= res.est_abs_error
