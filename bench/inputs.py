"""Seeded inputs of the three workloads.

Every draw is stratified: a parameter range is cut into equal strata and
each integrand takes one uniform draw from its own stratum.  A seed then
changes the exact integrands and sizes while the make-up of a workload
(families, exponents, how close b gets to the endpoints) stays the same,
which keeps the quality metrics comparable from seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One integrand, described independently of singquad.

    family "power":    (x-b)^k |x-b|^expo
    family "powerlog": (x-b)^k |x-b|^expo log|x-b|
    envelope=True multiplies by exp(-(x-b)^2).
    """

    family: str
    b: float
    k: int
    expo: float
    envelope: bool = False

    @property
    def sigma(self) -> float:
        return self.k + self.expo

    def text(self) -> str:
        """The spec string singquad's parser and CLI accept."""
        tail = " envelope=gauss" if self.envelope else ""
        return f"{self.family}({self.b!r}, {self.k}, {self.expo!r}){tail}"


# b = 0 is a Gauss node for odd n; these operations fail at the parent
# commit (leading_term raises) and are counted as failed, never dropped.
NODE_SPEC = Spec("power", 0.0, 1, -0.5)
NODE_SIZES = tuple(range(11, 200, 8))


def seeded(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, lo: float, hi: float, count: int,
            digits: int = 6) -> list[float]:
    """One draw from each of `count` equal strata of [lo, hi], shuffled."""
    width = (hi - lo) / count
    vals = [round(lo + (i + rng.random()) * width, digits)
            for i in range(count)]
    rng.shuffle(vals)
    return vals


def _signed(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """Draws from +-[lo, hi], half of each sign."""
    mags = _strata(rng, lo, hi, count)
    return [m if i % 2 else -m for i, m in enumerate(mags)]


def sweep_specs(seed: int) -> list[tuple[Spec, list[str]]]:
    """The four CLI sweeps of one sweep_cold round: (spec, CLI arguments)."""
    rng = seeded("sweep_cold", seed)

    def draw(lo, hi):
        return _strata(rng, lo, hi, 1)[0]

    b1, a1 = draw(0.3, 0.5), draw(0.4, 0.6)
    b2, a2 = draw(-0.5, -0.3), draw(0.4, 0.6)
    b3, a3 = draw(0.1, 0.3), draw(0.4, 0.6)
    b5 = draw(0.2, 0.6)
    power_odd = Spec("power", b2, 1, a2)
    powerlog = Spec("powerlog", b3, 0, a3)
    return [
        (Spec("power", b1, 0, a1),
         ["example", "1", "--alpha", repr(a1), "--b", repr(b1)]),
        (power_odd, ["sweep", "--spec", power_odd.text()]),
        (powerlog, ["sweep", "--spec", powerlog.text()]),
        (Spec("power", b5, 0, 1.0, envelope=True),
         ["example", "5", "--b", repr(b5)]),
    ]


def _families(rng: random.Random, count: int, bs: list[float],
              kinds: tuple[str, ...]) -> list[Spec]:
    per = count // len(kinds)
    draws = {
        "power0": _strata(rng, 0.2, 1.8, per),
        "power1": _signed(rng, 0.2, 0.8, per),
        "power2": _signed(rng, 0.2, 0.8, per),
        "powerlog": _strata(rng, 0.0, 1.0, per),
        "envelope": _strata(rng, 0.3, 1.5, per),
    }
    specs = []
    for i in range(count):
        kind = kinds[i % len(kinds)]
        e = draws[kind][i // len(kinds)]
        b = bs[i]
        if kind == "power0":
            specs.append(Spec("power", b, 0, e))
        elif kind == "power1":
            specs.append(Spec("power", b, 1, e))
        elif kind == "power2":
            specs.append(Spec("power", b, 2, e))
        elif kind == "powerlog":
            # k = 0 needs beta > 0; k = 1 takes beta in (-0.5, 0.5)
            if i // len(kinds) % 2:
                specs.append(Spec("powerlog", b, 0, round(0.2 + 0.7 * e, 6)))
            else:
                specs.append(Spec("powerlog", b, 1, round(e - 0.5, 6)))
        else:
            specs.append(Spec("power", b, 0, e, envelope=True))
    return specs


def warm_inputs(seed: int, count: int = 48, sizes: int = 48):
    """corrected_warm: integrands, warm sizes and the shuffled op list.

    b covers (-0.99, 0.99), so the outer strata sit near the endpoints
    where n sin(phi) is small.  Sizes are log-stratified over [10, 2000]
    with 2000 itself always present.  Each seeded integrand runs at every
    seeded size; the NODE_SPEC operations are appended at fixed odd sizes.
    """
    rng = seeded("corrected_warm", seed)
    bs = _strata(rng, -0.99, 0.99, count)
    specs = _families(rng, count, bs,
                      ("power0", "power1", "powerlog", "envelope"))
    # integer strata [edge_i, edge_{i+1}) never overlap, so every seed
    # gets exactly `sizes` distinct sizes and rounds of equal length
    edges = [math.ceil(10 * 200 ** (i / sizes)) for i in range(sizes + 1)]
    ns = [rng.randrange(lo, hi) for lo, hi in zip(edges, edges[1:-1])] + [2000]
    ops = [(i, n) for i in range(count) for n in ns]
    ops += [(count, n) for n in NODE_SIZES]
    rng.shuffle(ops)
    return specs + [NODE_SPEC], ns, ops


def plan_inputs(seed: int, count: int = 64):
    """plan_scan: (spec, n_lo, n_hi, n_pred) per integrand; the range has
    101 sizes starting in [100, 300], b covers (-0.9, 0.9)."""
    rng = seeded("plan_scan", seed)
    bs = _strata(rng, -0.9, 0.9, count)
    specs = _families(rng, count, bs,
                      ("power0", "power1", "power2", "powerlog"))
    lows = [int(x) for x in _strata(rng, 100, 301, count, digits=3)]
    out = []
    for spec, lo in zip(specs, lows):
        out.append((spec, lo, lo + 100, rng.randint(lo, lo + 100)))
    return out
