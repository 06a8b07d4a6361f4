"""Each grid carries one workspace in which every size forms its kernel:
calls made while another call's sizes are still running must leave its
values alone, the grid's kernel parts stay read-only, and far out, where
cosh x - 1 overflows, the kernel's share is 0 without a warning."""

import numpy as np
import pytest

from singquad import (coefficient_bounds, leading_term, log_envelope_constants,
                      parse_integrand, psi0_solve, recommend_n)
from singquad.error_predictor import _grid, _leading_terms

_EVEN_POWER = parse_integrand("power(0.35, 2, 0.5)")
_ODD_POWERLOG = parse_integrand("powerlog(-0.2, 1, 0.3)")
_ENVELOPED = parse_integrand("power(0.1, 0, 1) envelope=gauss")
_SIZES = [10, 11, 101, 600, 1999, 2000]


class _Interleaved(list):
    """Sizes that run `between` after each size is handed out, that is
    while the call iterating them still holds its grid."""

    def __init__(self, sizes, between):
        super().__init__(sizes)
        self.between = between

    def __iter__(self):
        for n in super().__iter__():
            yield n
            self.between(n)


@pytest.mark.parametrize("outer,other", [(_EVEN_POWER, _ODD_POWERLOG),
                                         (_ODD_POWERLOG, _EVEN_POWER),
                                         (_ENVELOPED, _ODD_POWERLOG)],
                         ids=["even-power", "odd-powerlog", "jump-route"])
def test_interleaved_calls_keep_every_bit(outer, other):
    fresh = {(f, n): leading_term(f, n).hex()
             for f in (outer, other) for n in _SIZES}
    envelopes = (coefficient_bounds(_EVEN_POWER),
                 log_envelope_constants(_ODD_POWERLOG), psi0_solve(2, 0.5))
    seen = []

    def between(n):
        seen.append((n, _leading_terms(other, [n])[0].hex()))
        assert (coefficient_bounds(_EVEN_POWER),
                log_envelope_constants(_ODD_POWERLOG),
                psi0_solve(2, 0.5)) == envelopes

    got = _leading_terms(outer, _Interleaved(_SIZES, between))
    assert [v.hex() for v in got] == [fresh[outer, n] for n in _SIZES]
    # the size check and the loop each ran `between` once per size
    assert seen == 2 * [(n, fresh[other, n]) for n in _SIZES]


def test_kernel_parts_are_read_only():
    grid = _grid(0.5, 0.9)
    for part in (grid.em1, grid.sh2, grid.parts):
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            part += 1.0
    assert np.shares_memory(grid.em1, grid.parts)
    assert not np.shares_memory(grid.parts, grid.work)
    assert not np.shares_memory(grid.work, _grid(0.5, 0.9).work)


@pytest.mark.parametrize("spec,lead,order", [
    ("power(0.3, 110, 0.5)", "0x1.4c4366e759c73p+107", [12, 13, 11, 14, 10]),
    ("powerlog(0.3, 110, 0.5)", "0x1.0cebb9f621132p+109",
     [12, 13, 11, 14, 10]),
    ("power(0.3, 107, 0.5)", "-0x1.14c0f4145be48p+97", [10, 14, 11, 13, 12]),
], ids=["power-k110", "powerlog-k110", "power-k107"])
def test_far_out_overflow_is_quiet(spec, lead, order):
    # from sigma ~ 107.5, cosh x - 1 overflows to inf near the reach,
    # where the kernel's share is 0; under the test config's
    # error::RuntimeWarning that must not raise.  The hex is the value
    # with warnings ignored under AVX-512 dispatch; other dispatch
    # targets round numpy's sinh and power an ulp apart
    f = parse_integrand(spec)
    assert leading_term(f, 10) == pytest.approx(float.fromhex(lead),
                                                rel=1e-13)
    assert recommend_n(f, 10, 14) == order
