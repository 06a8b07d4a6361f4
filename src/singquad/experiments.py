"""Sweep harness: true errors, scaled coefficients, phases, predictions,
corrected errors, envelope fits, CSV output and text reports."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .error_predictor import (_MIN_N, _leading_terms, _ranked,
                              coefficient_bounds)
from .gauss_rule import apply_rule, compute_rule, compute_rules
from .reference_oracle import exact_integral
from .singularity_model import (Power, PowerLog, SingularIntegrand,
                                gauss_envelope, phase)

__all__ = [
    "ExperimentRecord",
    "SweepConfig",
    "example_integrand",
    "run_sweep",
    "write_csv",
    "fit_envelope_slope",
    "envelope_violations",
    "report",
]

CSV_HEADER = ("n,error,abs_error,scaled_coeff,cos_phase,predicted,"
              "corrected_error,bound_lo,bound_hi")
_FLOOR_REL = 1e-15   # abs_error below this multiple of |exact| is noise
_CHECK_N_MIN = 100   # the envelope verdict covers n >= 100
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ExperimentRecord:
    n: int
    error: float
    abs_error: float
    scaled_coeff: float
    cos_phase: float
    predicted: float
    corrected_error: float
    bound_lo: float
    bound_hi: float
    floored: bool = False


@dataclass(frozen=True)
class SweepConfig:
    integrand: SingularIntegrand
    n_min: int = _MIN_N
    n_max: int = 600

    def __post_init__(self):
        if not (all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                    for n in (self.n_min, self.n_max))
                and _MIN_N <= self.n_min < self.n_max):
            raise ValueError(f"need integers {_MIN_N} <= n_min < n_max")


def example_integrand(example_id: int, alpha: float = 0.5, k: int = 0,
                      b: float = 0.4, variant: int = 1) -> SingularIntegrand:
    """The library's stock experiment integrands.

    1: |x-b|^alpha            2: (x-b)^k |x-b|
    3: (x-b)|x-b|^1/2 at b = cos(pi/6)
    4: |x-b| log|x-b| (variant 1) or (x-b) log|x-b| (variant 2)
    5: exp(-(x-b)^2) |x-b|
    """
    if example_id == 1:
        return SingularIntegrand(b, Power(0, alpha))
    if example_id == 2:
        return SingularIntegrand(b, Power(k, 1.0))
    if example_id == 3:
        return SingularIntegrand(math.cos(math.pi / 6), Power(1, 0.5))
    if example_id == 4:
        fam = PowerLog(0, 1.0) if variant == 1 else PowerLog(1, 0.0)
        return SingularIntegrand(b, fam)
    if example_id == 5:
        return SingularIntegrand(b, Power(0, 1.0), envelope=gauss_envelope(b))
    raise ValueError(f"unknown example id {example_id}")


def run_sweep(cfg: SweepConfig) -> list[ExperimentRecord]:
    """One record per n in [n_min, n_max], ascending; deterministic."""
    f = cfg.integrand
    exact = exact_integral(f).value
    sigma = f.singular_exponent
    bounds = None
    if isinstance(f.family, Power) and f.envelope is None:
        bounds = coefficient_bounds(f)
    sizes = range(cfg.n_min, cfg.n_max + 1)
    records = []
    for n, rule, predicted in zip(sizes, compute_rules(sizes),
                                  _leading_terms(f, sizes)):
        raw = apply_rule(rule, f)
        err = exact - raw
        rec = ExperimentRecord(
            n=n,
            error=err,
            abs_error=abs(err),
            scaled_coeff=err * n ** (sigma + 1.0),
            cos_phase=phase(f, n).cos_phase,
            predicted=predicted,
            corrected_error=err - predicted,
            bound_lo=bounds.lower if bounds else math.nan,
            bound_hi=bounds.upper if bounds else math.nan,
            floored=abs(err) < _FLOOR_REL * abs(exact),
        )
        records.append(rec)
    return records


def write_csv(records: list[ExperimentRecord], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fields = (r.error, r.abs_error, r.scaled_coeff, r.cos_phase,
                      r.predicted, r.corrected_error, r.bound_lo, r.bound_hi)
            fh.write(f"{r.n}," + ",".join(f"{v:.17g}" for v in fields) + "\n")


def fit_envelope_slope(records: list[ExperimentRecord], window: int = 20,
                       use_corrected: bool = False) -> float:
    """Least-squares slope of log(windowed max abs error) vs log n.

    Each window contributes the point (n at the window max, max abs
    error); pairing the max with the window median instead biases the
    slope on monotone data.  Machine-floor records are excluded; needs
    at least 5 windows.
    """
    kept = [r for r in records if not r.floored]
    errs = np.array([abs(r.corrected_error) if use_corrected else r.abs_error
                     for r in kept])
    ns = np.array([r.n for r in kept], dtype=float)
    alive = errs > 0.0
    errs, ns = errs[alive], ns[alive]
    xs, ys = [], []
    for i in range(0, len(ns) - window + 1, window):
        j = i + int(np.argmax(errs[i:i + window]))
        xs.append(math.log(ns[j]))
        ys.append(math.log(errs[j]))
    if len(xs) < 5:
        raise ValueError("not enough windows for a slope fit")
    return float(np.polyfit(xs, ys, 1)[0])


def envelope_violations(records: list[ExperimentRecord],
                        f: SingularIntegrand) -> list[ExperimentRecord]:
    """Records at n >= 100 whose scaled coefficient lies outside the
    closed-form bounds by more than the Gauss sum's rounding allowance
    4 n eps sum |w_j f(x_j)|, scaled by n^(sigma+1) like the coefficient.

    Records without bounds never violate.  Floored records need no rule
    of their own: the bounds straddle 0 and a floored coefficient lies
    far inside the allowance.
    """
    p = f.singular_exponent + 1.0
    bad = []
    for r in records:
        if (r.n < _CHECK_N_MIN or math.isnan(r.bound_lo)
                or r.bound_lo <= r.scaled_coeff <= r.bound_hi):
            continue
        rule = compute_rule(r.n)
        scale = float(np.sum(np.abs(rule.weights * f(rule.nodes))))
        slack = 4.0 * r.n * _EPS * scale * r.n ** p
        if not r.bound_lo - slack <= r.scaled_coeff <= r.bound_hi + slack:
            bad.append(r)
    return bad


def report(records: list[ExperimentRecord], cfg: SweepConfig) -> str:
    """Human-readable sweep summary."""
    f = cfg.integrand
    sigma = f.singular_exponent
    lines = [f"sweep n = {cfg.n_min}..{cfg.n_max}, "
             f"singular exponent k+alpha = {sigma:g}"]
    window = max(5, min(20, len(records) // 6))
    try:
        slope = fit_envelope_slope(records, window=window)
        lines.append(f"raw envelope slope: {slope:.3f} "
                     f"(leading order predicts {-(sigma + 1.0):.3f})")
        cslope = fit_envelope_slope(records, window=window,
                                    use_corrected=True)
        lines.append(f"corrected envelope slope: {cslope:.3f}")
    except ValueError:
        lines.append("envelope slope: sweep too short for a windowed fit")
    scaled = [r.scaled_coeff for r in records if not r.floored]
    if scaled:
        lines.append(f"scaled coefficient range: [{min(scaled):.6g}, "
                     f"{max(scaled):.6g}]")
        lines.append(f"max |n^{sigma + 1:g} R_n| = {max(abs(s) for s in scaled):.6g}")
    if not math.isnan(records[0].bound_lo):
        lines.append(f"coefficient bounds: [{records[0].bound_lo:.6g}, "
                     f"{records[0].bound_hi:.6g}]")
        lines.append(f"{len(envelope_violations(records, f))} envelope "
                     f"violations at n >= {_CHECK_N_MIN}")
    floored = sum(r.floored for r in records)
    if floored:
        lines.append(f"{floored} records at the machine-accuracy floor "
                     "(excluded from slope fits)")
    if isinstance(f.family, (Power, PowerLog)) and f.envelope is None:
        head = records[:100]   # run_sweep's sizes, ascending from n_min
        best = _ranked([r.n for r in head], [r.predicted for r in head],
                       sigma)[:5]
        lines.append(f"recommended n (first 100 sizes of the range): {best}")
    return "\n".join(lines) + "\n"
