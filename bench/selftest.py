#!/usr/bin/env python3
"""Shows that each check in reference.py rejects a perturbed value.

    python3 bench/selftest.py        (from the repository root)

Every case runs a check twice: on a value singquad computed, which must
pass, and on the same value perturbed, which must fail.  Prints one line
per case and exits 1 if any check accepts a perturbed value or rejects
the unperturbed one.  Takes a few seconds.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import singquad as sq  # noqa: E402
from inputs import Spec  # noqa: E402


def bumped(a: np.ndarray, i: int, rel: float) -> np.ndarray:
    out = a.copy()
    out[i] *= 1.0 + rel
    return out


def cases():
    """(name, check, true value, perturbed value)."""
    spec = Spec("power", 0.4, 0, 0.5)
    f = sq.parse_integrand(spec.text())
    n = 101
    rule = sq.compute_rule(n)
    yield ("rule nodes", lambda x: ref.check_rule(n, x, rule.weights),
           rule.nodes, bumped(rule.nodes, 70, 1e-14))
    yield ("rule weights", lambda w: ref.check_rule(n, rule.nodes, w),
           rule.weights, bumped(rule.weights, 3, 1e-9))
    q = sq.apply_rule(rule, f)
    yield ("Gauss sum", lambda v: ref.check_raw("selftest", spec, n, v),
           q, q * (1 + 1e-10))
    exact = sq.exact_integral(f).value
    yield "integral", lambda v: ref.check_exact(spec, v), exact, exact + 1e-11

    cb = sq.coefficient_bounds(f)
    scaled = [(m, ref.true_error(spec, m)[0] * m ** (spec.sigma + 1))
              for m in range(100, 131)]
    yield ("envelope bound",
           lambda hi: ref.check_envelope(spec, (cb.lower, hi), scaled),
           cb.upper, cb.upper * (1 + 1e-8))
    outside = scaled[:-1] + [(130, 1.01 * cb.upper)]
    yield ("scaled error in envelope",
           lambda pts: ref.check_envelope(spec, (cb.lower, cb.upper), pts),
           scaled, outside)

    log_spec = Spec("powerlog", 0.3, 0, 0.5)
    env = sq.log_envelope_constants(sq.parse_integrand(log_spec.text()))
    log_scaled = [(m, ref.true_error(log_spec, m)[0] * m ** (log_spec.sigma + 1))
                  for m in range(100, 131)]
    top = env.upper[0] * math.log(130) + env.upper[1]
    yield ("scaled error in log envelope",
           lambda pts: ref.check_log_envelope(log_spec, env.lower, env.upper, pts),
           log_scaled, log_scaled[:-1] + [(130, top + 0.01 * abs(top))])

    root = sq.psi0_solve(0, 0.5)
    yield "psi0 root", lambda c: ref.check_psi0(0, 0.5, c), root, root + 1e-5

    pairs = []
    for m in range(100, 131):
        err = ref.true_error(spec, m)[0]
        pairs.append((err, err - sq.leading_term(f, m)))
    yield ("correction helps", lambda p: ref.check_correction("selftest", p),
           pairs, [(e, 2 * e - c) for e, c in pairs])

    records = sq.run_sweep(sq.SweepConfig(integrand=f, n_min=10, n_max=130))
    rows = [[r.n, r.error, r.abs_error, r.scaled_coeff, r.cos_phase, r.predicted,
             r.corrected_error, r.bound_lo, r.bound_hi] for r in records]
    sample = [10, 57, 130]
    for col, name in ((1, "error"), (3, "scaled_coeff"), (4, "cos_phase"),
                      (6, "corrected_error")):
        bad = [row[:] for row in rows]
        bad[47][col] *= 1 + 1e-7
        yield (f"sweep CSV {name}", lambda r: ref.check_sweep_rows(spec, r, sample),
               rows, bad)


def main() -> int:
    status = 0
    for name, check, good, bad in cases():
        passes, rejects = not check(good), bool(check(bad))
        ok = passes and rejects
        status |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: true value "
              f"{'passes' if passes else 'REJECTED'}, perturbed value "
              f"{'rejected' if rejects else 'PASSES'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
