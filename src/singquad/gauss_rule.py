"""Gauss-Legendre rules: construction, application, true remainders.

compute_rules(ns) builds every size of ns that is not cached yet in one
batch.  The positive-half nodes of those sizes, seeded with the cosine
approximation of the roots of P_n, go through Newton iteration together:
each pass runs one forward Legendre recurrence with per-node degrees
(_legendre_pair), sizes sorted descending, in blocks of about
8k nodes.  Each size stops on its own max |dx| < 1e-15 and then takes
two polishing steps; odd sizes get the exact middle node 0.  One last
pass gives P_n and P_{n-1} at the final nodes, which feed both the
weights 2 / ((1-x^2) P_n'(x)^2) and the per-node residual check on
|P_n(x_j)|.
Nodes and weights are mirrored from the positive half, so x_j = -x_{n+1-j}
and w_j = w_{n+1-j} hold exactly, and a rule has the same bits whichever
batch built it.  compute_rule(n) is a cache lookup, or compute_rules([n]).

apply_rule uses Kahan compensated summation: error signals of order
n^-4.5 sit close to accumulation noise by n ~ 600.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuadratureRule", "compute_rule", "compute_rules", "apply_rule",
           "remainder"]

_MAX_POINTS = 2000
_NEWTON_MAX_STEPS = 50
_POLISH_STEPS = 2
_BLOCK_NODES = 8192   # positive-half nodes per batch, bounds the working set


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable n-point Gauss-Legendre rule on [-1, 1].

    Construction checks the structure (sizes, order, symmetry, weights);
    the builder checks that the nodes are roots of P_n.
    """

    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        x, w = self.nodes, self.weights
        if len(x) != self.n or len(w) != self.n:
            raise ValueError("rule arrays do not match n")
        if self.n > 1 and np.min(np.diff(x)) <= 0:
            raise ValueError("nodes must be strictly increasing")
        if np.max(np.abs(x + x[::-1])) > 1e-13:
            raise ValueError("nodes must be symmetric about 0")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        if abs(math.fsum(w) - 2.0) > 1e-13 * self.n:
            raise ValueError("weights must sum to 2")
        x.setflags(write=False)
        w.setflags(write=False)


# the 1-point rule is the midpoint rule
_rules: dict[int, QuadratureRule] = {
    1: QuadratureRule(1, np.zeros(1), np.full(1, 2.0))}


def compute_rule(n: int) -> QuadratureRule:
    """The n-point rule; results are cached and safe to share."""
    rule = _rules.get(n)
    return rule if rule is not None else compute_rules([n])[0]


def compute_rules(ns) -> list[QuadratureRule]:
    """The rules for the sizes ns, in the given order.

    Sizes not cached yet are built together in one batch; results are
    cached and safe to share.
    """
    ns = list(ns)
    for n in ns:
        if not isinstance(n, numbers.Integral) or not 1 <= n <= _MAX_POINTS:
            raise ValueError(f"n must be an integer in [1, {_MAX_POINTS}], "
                             f"got {n!r}")
    missing = sorted({int(n) for n in ns} - _rules.keys(), reverse=True)
    first, nodes = 0, 0
    for i, n in enumerate(missing):
        nodes += (n + 1) // 2
        if nodes >= _BLOCK_NODES or i == len(missing) - 1:
            block = missing[first:i + 1]
            _rules.update(zip(block, _assemble(block, _newton(block))))
            first, nodes = i + 1, 0
    return [_rules[n] for n in ns]


def _legendre_pair(n, x: np.ndarray):
    """(P_n, P_{n-1}) on an array by forward recurrence.

    n is one degree for all of x, or a 1-d integer array of per-point
    degrees in descending order.  At step m only the prefix of points
    with degree > m advances; the pairs of the points whose degree is
    reached are stored, so each point sees exactly the arithmetic of a
    single-degree call.
    """
    # live[m] = number of points with degree > m
    if np.ndim(n) == 0:
        live = [len(x)] * int(n)
    else:
        live = np.searchsorted(-n, -np.arange(n[0] if len(n) else 0)).tolist()
    p_out, pm_out = np.ones_like(x), np.zeros_like(x)
    if not live:
        return p_out, pm_out
    k = live[0]
    xs = x[:k]
    pm, p = np.ones_like(xs), xs
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, len(live)):
            if live[m] < k:
                cut = live[m]
                p_out[cut:k], pm_out[cut:k] = p[cut:], pm[cut:]
                k, xs, p, pm = cut, xs[:cut], p[:cut], pm[:cut]
            pm, p = p, ((2 * m + 1) * xs * p - m * pm) / (m + 1)
    p_out[:k], pm_out[:k] = p, pm
    return p_out, pm_out


def _p_dp(deg, x: np.ndarray):
    """P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    p, pm = _legendre_pair(deg, x)
    return p, deg * (x * p - pm) / (x * x - 1.0)


def _newton(sizes: list[int]) -> np.ndarray:
    """Positive-half roots of P_n for each size (descending, each >= 2),
    concatenated, each size's nodes in descending order; the last node of
    an odd size is the exact middle node 0."""
    halves = np.array([(n + 1) // 2 for n in sizes])
    owner = np.repeat(np.arange(len(sizes)), halves)
    deg = np.repeat(sizes, halves)
    x = np.concatenate([np.cos((4 * np.arange(1, h + 1) - 1) * np.pi / (4 * n + 2))
                        for n, h in zip(sizes, halves)])
    left = np.full(len(sizes), -1)   # polishing steps left; -1: still in Newton
    for step in range(1, _NEWTON_MAX_STEPS + _POLISH_STEPS + 1):
        act = np.flatnonzero(left != 0)
        if len(act) == 0:
            break
        idx = np.flatnonzero(left[owner] != 0)
        xa, da = x[idx], deg[idx]
        p, dp = _p_dp(da, xa)
        dx = p / dp
        x[idx] = xa - dx
        offsets = np.concatenate([[0], np.cumsum(halves[act])[:-1]])
        big = np.maximum.reduceat(np.abs(dx), offsets)
        newton = left[act] < 0
        left[act[~newton]] -= 1
        left[act[newton & (big < 1e-15)]] = _POLISH_STEPS
        if step == _NEWTON_MAX_STEPS and np.any(left < 0):
            n = sizes[int(np.argmax(left < 0))]
            raise RuntimeError(f"Newton did not converge for n = {n}")
    x[np.cumsum(halves)[np.array(sizes) % 2 == 1] - 1] = 0.0
    return x


def _assemble(sizes: list[int], x: np.ndarray) -> list[QuadratureRule]:
    """Rules from the positive-half nodes x that _newton returns.

    One recurrence pass gives P_n and P_{n-1} at the nodes; they feed the
    residual check and the weights.  Even a perfectly rounded node x_j
    leaves |P_n(x_j)| up to |P_n'(x_j)| ulp(x_j)/2, about 4e-12 at the
    extreme nodes near n = 600 and 4e-11 near n = 2000, and evaluating
    P_n adds noise, hence the per-node tolerance
    max(1e-11, 100 n eps) + |P_n'(x_j)| ulp(x_j).
    """
    halves = [(n + 1) // 2 for n in sizes]
    starts = np.cumsum([0] + halves[:-1])
    deg = np.repeat(sizes, halves)
    p, dp = _p_dp(deg, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    tol = (np.maximum(1e-11, 100.0 * deg * 2.2e-16)
           + np.abs(dp) * np.spacing(np.abs(x)))
    ratio = np.maximum.reduceat(np.abs(p) / tol, starts)
    rules = []
    for n, lo, h, r in zip(sizes, starts.tolist(), halves, ratio.tolist()):
        if not r <= 1.0:
            raise ValueError(f"nodes are not roots of P_{n} "
                             f"(residual {r:.2e} x tolerance)")
        # P_n(-x) = (-1)^n P_n(x) and negation are exact, so the weights
        # of the negative half equal those of the positive half bit for bit
        xh, wh = x[lo:lo + h], w[lo:lo + h]
        rules.append(QuadratureRule(n, np.concatenate([-xh, xh[::-1][n % 2:]]),
                                    np.concatenate([wh, wh[::-1][n % 2:]])))
    return rules


def apply_rule(rule: QuadratureRule, f) -> float:
    """Sum w_j f(x_j) in node order with Kahan compensation.

    f may be vectorized over numpy arrays or a plain scalar function.
    """
    try:
        vals = np.asarray(f(rule.nodes), dtype=float)
        if vals.shape != rule.nodes.shape:
            raise TypeError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in rule.nodes])
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand returned a non-finite value at a node")
    total = 0.0
    comp = 0.0
    for w, v in zip(rule.weights.tolist(), vals.tolist()):
        y = w * v - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def remainder(rule: QuadratureRule, f, exact: float) -> float:
    """R_n[f] = exact integral minus the quadrature value."""
    return exact - apply_rule(rule, f)
