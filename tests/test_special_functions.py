import math

import numpy as np
import pytest

from singquad import zeta_fn

# zeta references from a 30-digit Euler-Maclaurin evaluation (mpmath)
ZETA_15 = 2.6123753486854883
ZETA_25 = 1.3414872572509171


def test_zeta_classical_values():
    assert zeta_fn(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
    assert zeta_fn(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)
    assert zeta_fn(1.5) == pytest.approx(ZETA_15, rel=1e-10)


def test_zeta_domain():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            zeta_fn(bad)


@pytest.mark.parametrize("s,ref", [(1.5, ZETA_15), (2.5, ZETA_25)])
def test_zeta_eta_identity(s, ref):
    # zeta(s) (1 - 2^(1-s)) equals the alternating series limit
    m = np.arange(1, 2_000_001, dtype=float)
    partial = np.cumsum((-1.0) ** (m + 1) * m ** -s)
    eta = 0.5 * (partial[-1] + partial[-2])  # averaged partial sums
    assert zeta_fn(s) * (1.0 - 2.0 ** (1.0 - s)) == pytest.approx(eta, rel=1e-9)
    assert zeta_fn(s) == pytest.approx(ref, rel=1e-10)


def test_zeta_wide_range_accuracy():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in (1.05, 1.2, 1.5, 2.0, 3.3, 5.0, 8.0, 10.0):
        assert zeta_fn(s) == pytest.approx(float(mp.zeta(s)), rel=1e-12)
