"""Leading terms over many sizes share one reduced grid; each size must
keep the bits, the raise and the phase root it has on its own."""

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from singquad import (GeneralJump, Power, PowerLog, SingularIntegrand,
                      SweepConfig, gauss_envelope, leading_term, psi0_solve,
                      recommend_n, run_sweep)
from singquad.error_predictor import _leading_terms, _psi0_integral


def _general_jump(b):
    # |x - b|^0.5 as a black box, with its jump in closed form
    coef = 2j * math.sin(math.pi / 4)
    return GeneralJump(real_eval=lambda x: abs(x - b) ** 0.5,
                       jump_eval=lambda y, n: coef * (y / n) ** 0.5,
                       holder_k=0, holder_alpha=0.5)


def _integrand(family, b, k, expo, enveloped):
    if family == "power":
        fam = Power(k, expo)
    elif family == "powerlog":
        fam = PowerLog(k, expo)
    else:
        fam = _general_jump(b)
    return SingularIntegrand(b, fam,
                             envelope=gauss_envelope(b) if enveloped else None)


def _outcome(fn):
    try:
        return [v.hex() for v in fn()]
    except RuntimeError as exc:
        return str(exc)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(family=st.sampled_from(["power", "powerlog", "general"]),
       b=st.one_of(st.floats(-0.95, 0.95), st.just(0.0),
                   st.floats(-1e-9, 1e-9)),
       k=st.integers(0, 3),
       expo=st.floats(-0.95, 1.0),
       enveloped=st.booleans(),
       ns=st.lists(st.integers(10, 2000), min_size=1, max_size=8))
@example(family="power", b=0.0, k=1, expo=0.5, enveloped=False,
         ns=[11, 12, 101, 333])
@example(family="powerlog", b=0.0, k=2, expo=0.3, enveloped=False,
         ns=[11, 57, 58])
@example(family="power", b=3e-10, k=0, expo=0.5, enveloped=True,
         ns=[10, 99, 1999])
@example(family="powerlog", b=-4e-10, k=1, expo=-0.5, enveloped=False,
         ns=[13, 600, 601])
def test_batch_matches_single_sizes(family, b, k, expo, enveloped, ns):
    assume(expo != 0.0 and k + expo > 0.0)
    assume(family != "powerlog" or expo > 0.0 or k >= 1)
    f = _integrand(family, b, k, expo, enveloped)
    singles = _outcome(lambda: [leading_term(f, n) for n in ns])
    assert _outcome(lambda: _leading_terms(f, ns)) == singles


def test_raising_size_raises_from_the_batch():
    # b = 0, odd n: cos Psi = -1 and the integrand goes like y^-0.98
    f = SingularIntegrand(0.0, Power(0, 0.02))
    with pytest.raises(RuntimeError, match="did not converge") as one:
        leading_term(f, 101)
    with pytest.raises(RuntimeError) as ranked:
        recommend_n(f, 100, 110)
    with pytest.raises(RuntimeError) as batch:
        _leading_terms(f, [100, 101, 102])
    assert str(ranked.value) == str(batch.value) == str(one.value)


@pytest.mark.parametrize("f", [
    SingularIntegrand(0.4, Power(0, 0.5)),
    SingularIntegrand(-0.3, Power(3, 0.25)),
    SingularIntegrand(0.0, PowerLog(1, 0.0)),
    SingularIntegrand(0.4, Power(0, 1.0), envelope=gauss_envelope(0.4)),
])
def test_sweep_predicted_is_leading_term(f):
    records = run_sweep(SweepConfig(integrand=f, n_min=10, n_max=70))
    assert [r.predicted.hex() for r in records] \
        == [leading_term(f, r.n).hex() for r in records]


def _bisect(k, alpha):
    # psi0_solve's bisection, written out on the residual integral
    value = _psi0_integral(k, alpha)
    lo, hi = -1.0 + 1e-9, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = value(mid)
        if abs(val) <= 1e-10:
            return mid
        if val > 0.0:
            hi = mid
        else:
            lo = mid
    raise AssertionError("no root")


@pytest.mark.parametrize("k,alpha", [(0, 0.05), (0, 0.5), (0, 1.0),
                                     (2, 0.25), (2, -0.5), (4, 1.5)])
def test_psi0_solve_is_plain_bisection(k, alpha):
    assert psi0_solve(k, alpha) == _bisect(k, alpha)
