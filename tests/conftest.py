import numpy
import pytest

from singquad import SweepConfig, example_integrand, run_sweep

_cache = {}


def _sweep(key, integrand, n_min=10, n_max=600):
    if key not in _cache:
        cfg = SweepConfig(integrand=integrand, n_min=n_min, n_max=n_max)
        _cache[key] = (run_sweep(cfg), cfg)
    return _cache[key]


@pytest.fixture(scope="session")
def sweep():
    """Cached full sweeps of the stock examples, shared across modules."""
    def get(example_id, **kw):
        rng = {k: kw.pop(k) for k in ("n_min", "n_max") if k in kw}
        key = (example_id, tuple(sorted(kw.items())), tuple(sorted(rng.items())))
        return _sweep(key, example_integrand(example_id, **kw), **rng)
    return get


def _numpy_dispatch() -> str:
    """numpy's version and SIMD dispatch: numpy's log, expm1, sinh, exp,
    power and arcsin round differently per dispatch target, and the
    pinned bits in these tests depend on that."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    enabled = [t for t in umath.__cpu_dispatch__
               if umath.__cpu_features__.get(t)]
    return (f"numpy {numpy.__version__}: baseline "
            f"{' '.join(umath.__cpu_baseline__)}; dispatch "
            f"{' '.join(enabled) or 'none'}")


def pytest_report_header(config):
    return _numpy_dispatch()


def pytest_terminal_summary(terminalreporter):
    # -q, as the tier-1 command runs, hides the header: print it last
    if not terminalreporter.showheader:
        terminalreporter.write_line(_numpy_dispatch())
