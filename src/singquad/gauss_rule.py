"""Gauss-Legendre rules: construction and application.

compute_rules(ns) builds every size of ns that is not cached yet in one
batch, sizes sorted descending, in blocks of about 32k positive-half
nodes.  Nodes come by one of three routes:

- Sizes n >= 100, every node but the 8 nearest x = 1: Tricomi's
  approximation, then one Newton step on the 20-term interior expansion
  of P_n (Stieltjes, Szego 8.21.14), at O(1) cost per node and with no
  recurrence.  The expansion is written in u = pi/2 - theta, x = sin(u),
  because the root's error then stays relative to u and so to x; in
  theta, the rounding of theta near pi/2 alone moves a node near x = 0
  by up to 1.1e-16, many of its ulps.
- The 8 edge nodes of sizes n >= 100, where the interior expansion
  converges too slowly: the boundary (Bessel-zero) approximation in
  theta, then one Newton step in theta on the Fourier cosine series of
  P_n (Swarztrauber 2002), at O(n) cost per node and with no recurrence.
- Sizes below 100: two Halley steps from the cosine approximation.  Each
  step runs one forward Legendre recurrence with per-node degrees
  (_legendre_pair, three rotating out= buffers).  Halley converges
  cubically, so two steps take the O(n^-2) guess below rounding.

Odd sizes get the exact middle node 0.  One recurrence pass at the final
nodes of all routes gives P_n and P_n', which feed the per-node residual
check on |P_n(x_j)| (the only convergence guard, whose largest ratio to
its tolerance each rule keeps as .residual) and the weights

    w_j = 2 (1 + 2 x_j d_j / (1-x_j^2)) / ((1-x_j^2) P_n'(x_j)^2),

where d_j = P_n(x_j) / P_n'(x_j) and 1-x^2 is formed as (1-x)(1+x); the
factor in d_j takes the weight from the rounded node back to the root.
Nodes and weights are mirrored from the positive half, so
x_j = -x_{n+1-j} and w_j = w_{n+1-j} hold exactly.  Every node is
computed on its own, so a rule has the same bits whichever batch built
it.  compute_rule(n) is a cache lookup, or compute_rules([n]): for
n >= 100 that runs the one recurrence pass, for smaller n three.

apply_rule sums the products w_j f(x_j) with math.fsum, which rounds
their exact sum once: error signals of order n^-4.5 sit close to
accumulation noise by n ~ 600.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

__all__ = ["QuadratureRule", "compute_rule", "compute_rules", "apply_rule"]

_MAX_POINTS = 2000
_HALLEY_STEPS = 2
_ASYMPTOTIC_MIN_N = 100  # smallest size whose interior nodes skip the recurrence
_EDGE_NODES = 8          # outermost nodes per size that take the Fourier series
_EDGE_STEPS = 1
_ASYMPTOTIC_TERMS = 20
_ASYMPTOTIC_STEPS = 1
_BLOCK_NODES = 32768  # positive-half nodes per batch, bounds the working set
# the first _EDGE_NODES zeros j_{0,k} of the Bessel function J_0
_J0_ZEROS = np.array([2.404825557695773, 5.520078110286311, 8.653727912911013,
                      11.791534439014281, 14.930917708487787,
                      18.071063967910924, 21.21163662987926,
                      24.352471530749302])
# c_j = (2j-1)!! / (2j)!!, j = 0 .. _MAX_POINTS
_C = np.concatenate([[1.0], np.cumprod((np.arange(1.0, _MAX_POINTS + 1) - 0.5)
                                       / np.arange(1.0, _MAX_POINTS + 1))])


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable n-point Gauss-Legendre rule on [-1, 1].

    Construction checks the structure (sizes, order, symmetry, weights);
    the builder checks that the nodes are roots of P_n, and residual is
    that check's max |P_n(x_j)| / tolerance over the nodes (at most 1;
    nan for a rule made by hand).
    """

    n: int
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    residual: float = field(default=math.nan, compare=False)

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
        if abs(math.fsum(w.tolist()) - 2.0) > 1e-13 * self.n:
            raise ValueError("weights must sum to 2")
        x.setflags(write=False)
        w.setflags(write=False)


# the 1-point rule is the midpoint rule
_rules: dict[int, QuadratureRule] = {
    1: QuadratureRule(1, np.zeros(1), np.full(1, 2.0), residual=0.0)}


def compute_rule(n: int) -> QuadratureRule:
    """The n-point rule; results are cached and safe to share."""
    # bools and integral floats hash like ints; compute_rules rejects them
    rule = _rules.get(n) if type(n) is int else None
    return rule if rule is not None else compute_rules([n])[0]


def compute_rules(ns) -> list[QuadratureRule]:
    """The rules for the sizes ns, in the given order.

    Sizes not cached yet are built together in one batch; results are
    cached and safe to share.
    """
    ns = list(ns)
    for n in ns:
        if (not isinstance(n, numbers.Integral) or isinstance(n, bool)
                or not 1 <= n <= _MAX_POINTS):
            raise ValueError(f"n must be an integer in [1, {_MAX_POINTS}], "
                             f"got {n!r}")
    missing = sorted({int(n) for n in ns} - _rules.keys(), reverse=True)
    first, nodes = 0, 0
    for i, n in enumerate(missing):
        nodes += (n + 1) // 2
        if nodes >= _BLOCK_NODES or i == len(missing) - 1:
            block = missing[first:i + 1]
            _rules.update(zip(block, _assemble(block, _nodes(block))))
            first, nodes = i + 1, 0
    return [_rules[n] for n in ns]


def _legendre_pair(n, x: np.ndarray):
    """(P_n, P_{n-1}) on an array by forward recurrence.

    n is one degree for all of x, or a 1-d integer array of per-point
    degrees in descending order.  At step m only the prefix of points
    with degree > m advances; the pairs of the points whose degree is
    reached are stored, so each point sees exactly the arithmetic of a
    single-degree call.  The steps rotate three preallocated buffers and
    write with out=, in the operation order of
    P_{m+1} = ((2m+1) x P_m - m P_{m-1}) / (m+1).
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
    pm, p = np.ones_like(xs), xs.copy()
    nxt, tmp = np.empty_like(xs), np.empty_like(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, len(live)):
            if live[m] < k:
                cut = live[m]
                p_out[cut:k], pm_out[cut:k] = p[cut:], pm[cut:]
                k, xs, p, pm = cut, xs[:cut], p[:cut], pm[:cut]
                nxt, tmp = nxt[:cut], tmp[:cut]
            fm = float(m)   # a float scalar costs numpy less than an int
            np.multiply(xs, fm + fm + 1.0, out=nxt)
            nxt *= p
            np.multiply(pm, fm, out=tmp)
            nxt -= tmp
            nxt /= fm + 1.0
            pm, p, nxt = p, nxt, pm
    p_out[:k], pm_out[:k] = p, pm
    return p_out, pm_out


def _p_dp(deg, x: np.ndarray):
    """P_n(x) and P_n'(x) = n (x P_n - P_{n-1}) / (x^2 - 1)."""
    p, pm = _legendre_pair(deg, x)
    return p, deg * (x * p - pm) / ((x - 1.0) * (x + 1.0))


def _nodes(sizes: list[int]) -> np.ndarray:
    """Positive-half roots of P_n for each size (descending, each >= 1),
    concatenated, each size's nodes in descending order; the last node of
    an odd size is the exact middle node 0.

    Node k = 1, 2, ... counts from x = 1.  Sizes below _ASYMPTOTIC_MIN_N
    take _HALLEY_STEPS Halley steps from the cosine guess; larger sizes
    take their _EDGE_NODES outermost nodes from _edge and the rest from
    _interior.  A route with no nodes is skipped.
    """
    halves = [(n + 1) // 2 for n in sizes]
    deg = np.repeat(sizes, halves)
    k = np.concatenate([np.arange(1, h + 1) for h in halves])
    small = deg < _ASYMPTOTIC_MIN_N
    edge = ~small & (k <= _EDGE_NODES)
    x = np.empty(len(deg))
    for route, at in ((_halley, small), (_edge, edge),
                      (_interior, ~(small | edge))):
        if at.any():
            x[at] = route(deg[at], k[at])
    x[np.cumsum(halves)[np.array(sizes) % 2 == 1] - 1] = 0.0
    return x


def _halley(deg: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Node k of P_deg for each point, degrees in descending order.

    Halley's step x - d / (1 - d P_n'' / (2 P_n')), d = P_n / P_n', with
    P_n'' from Legendre's equation (1 - x^2) P_n'' = 2 x P_n' - n(n+1) P_n,
    converges cubically, so _HALLEY_STEPS steps take the O(n^-2) cosine
    guess below rounding; the residual check in _assemble guards it.
    """
    x = np.cos((4 * k - 1) * np.pi / (4 * deg + 2))
    for _ in range(_HALLEY_STEPS):
        p, dp = _p_dp(deg, x)
        d = p / dp
        ddp = (2.0 * x * dp - deg * (deg + 1.0) * p) / ((1.0 - x) * (1.0 + x))
        x = x - d / (1.0 - d * ddp / (2.0 * dp))
    return x


def _edge(deg: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Node k of P_deg for each point, from the Fourier series of P_n.

    deg holds each size _EDGE_NODES times in a row, with k = 1, 2, ...
    The start theta = psi + (psi cot psi - 1) / (8 psi nu^2), psi =
    j_{0,k} / nu, nu = n + 1/2, is the boundary (Bessel) expansion of the
    root (Hale & Townsend 2013), within about 1e-10 of it relative to
    theta for n >= 100.  _EDGE_STEPS Newton steps in theta follow on

        P_n(cos theta) = sum_j c_j c_{n-j} cos((n-2j) theta),
        c_j = (2j-1)!! / (2j)!!

    (Swarztrauber 2002), summed over j <= n/2, where the terms of j and
    n-j are equal, and on its theta-derivative.  cos and sin of the
    multiple angles come from t = tan(m theta / 2) as (1-t^2) / (1+t^2)
    and 2t / (1+t^2): their absolute error is that of t relative to t
    plus a few ulps of 1, about what the rounding of m theta costs cos
    and sin too, and numpy's SIMD tan of float64 was about 15 times
    faster than its cos or sin on an AVX-512 host.  Each point's sums
    hold only its own size's terms, in one fixed order, so a rule has
    the same bits in any batch.  Near x = 1, x = cos(theta) keeps the
    relative accuracy of theta.
    """
    nu = deg + 0.5
    psi = _J0_ZEROS[k - 1] / nu
    theta = psi + (psi / np.tan(psi) - 1.0) / (8.0 * psi * nu * nu)
    # row k of theta holds node k of every size; the sizes go in chunks
    # of at most about _BLOCK_NODES (node, term) pairs, which bounds the
    # working set as the blocks of compute_rules do
    theta = theta.reshape(-1, _EDGE_NODES).T
    sizes = deg[::_EDGE_NODES]
    chunk = (np.cumsum(sizes // 2 + 1) - 1) // (_BLOCK_NODES // _EDGE_NODES)
    cuts = [0, *(np.flatnonzero(np.diff(chunk)) + 1).tolist(), len(sizes)]
    for lo, hi in zip(cuts, cuts[1:]):
        for _ in range(_EDGE_STEPS):
            theta[:, lo:hi] += _fourier_step(sizes[lo:hi], theta[:, lo:hi])
    return np.cos(theta.T.ravel())


def _fourier_step(sizes: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The Newton step in theta on P_n(cos theta) for each node, where
    row k of theta holds node k of each size.

    The terms j = 0 .. n//2 of each size go one size after the other,
    the term m = n - 2j = 0 of an even size with weight 1, the others
    with weight 2.
    """
    h = sizes // 2 + 1
    starts = np.cumsum(h) - h
    n_t = np.repeat(sizes, h)
    j = np.arange(len(n_t)) - np.repeat(starts, h)
    m = (n_t - 2 * j).astype(float)
    a = np.where(m > 0, 2.0, 1.0) * _C[j] * _C[n_t - j]
    t = np.repeat(theta * 0.5, h, axis=1)
    t *= m
    np.tan(t, out=t)
    t2 = t * t
    r = 1.0 / (1.0 + t2)
    p = np.add.reduceat((1.0 - t2) * r * a, starts, axis=1)
    dp = np.add.reduceat(2.0 * t * r * (a * m), starts, axis=1)  # -dP/dtheta
    return p / dp


def _interior(deg: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Node k of P_deg for each point, from the interior expansion.

    In u = pi/2 - theta, x = cos(theta) = sin(u), Stieltjes' expansion
    (Szego 8.21.14) reads, up to a constant factor,

        P_n(x) ~ sum_m c_m cos(a_m) / (2 cos u)^(m+1/2),
        a_m = n pi/2 - (n+m+1/2) u,  c_m = ((1/2)_m)^2 / (m! (n+3/2)_m).

    Tricomi's x ~ (1 - (n-1)/(8n^3) - (39 - 28/sin^2 phi)/(384n^4)) cos phi,
    phi = (4k-1) pi / (4n+2), starts _ASYMPTOTIC_STEPS Newton steps in u
    on the first _ASYMPTOTIC_TERMS terms.  cos(a_m) and sin(a_m) rotate by
    -u from term to term, and the factor i^n of cos(a_0) is applied by
    n mod 4, so the phase carries an error relative to u: nodes near x = 0
    keep their relative accuracy, which a phase in theta near pi/2 loses.
    The phase (n+1/2) u is taken exactly, as (n+1/2) u_hi with u_hi the
    first 40 bits after the point of u plus a first-order term for the
    rest.  Each step updates x as sin(u) - cos(u) du, which the rounding
    of u - du would blur; |du| <= 2.7e-10 for n <= 2000, so the du^2
    term is below 1e-19 relative.
    """
    n = deg.astype(float)
    v = (n + 1.0 - 2.0 * k) * np.pi / (2.0 * n + 1.0)  # pi/2 - phi
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.cos(v) ** 2) / (384.0 * n ** 4)) * np.sin(v)
    u = np.arcsin(x)
    # cos(n pi/2), sin(n pi/2): one is 0, the other +-1
    c_n = np.array([1.0, 0.0, -1.0, 0.0])[deg % 4]
    s_n = np.array([0.0, 1.0, 0.0, -1.0])[deg % 4]
    for _ in range(_ASYMPTOTIC_STEPS):
        su, cu = np.sin(u), np.cos(u)
        tan_u = su / cu
        u_hi = np.round(u * 2.0 ** 40) / 2.0 ** 40
        b_hi, b_lo = (n + 0.5) * u_hi, (n + 0.5) * (u - u_hi)
        cb, sb = np.cos(b_hi), np.sin(b_hi)
        cb, sb = cb - b_lo * sb, sb + b_lo * cb
        # (ca, sa) = c_m (cos a_m, sin a_m) / (2 cos u)^m, term m without
        # the common factor (2 cos u)^-1/2; over that factor, term m has
        # the u-derivative (n+m+1/2) sa + (m+1/2) tan(u) ca, so
        # f' = (n+1/2) g + h + tan(u) e with the sums g, h, e below
        ca, sa = c_n * cb + s_n * sb, s_n * cb - c_n * sb
        f, g, h, e = ca.copy(), sa.copy(), np.zeros_like(u), 0.5 * ca
        for m in range(1, _ASYMPTOTIC_TERMS):
            # c_m / c_{m-1} = (m-1/2)^2 / (m (n+m+1/2)), and the rotation
            # by -u over 2 cos u is (ca + tan(u) sa, sa - tan(u) ca) / 2
            r = (0.5 * (m - 0.5) ** 2 / m) / (n + (m + 0.5))
            ca, sa = (tan_u * sa + ca) * r, (sa - tan_u * ca) * r
            f += ca
            g += sa
            h += sa * m
            e += ca * (m + 0.5)
        du = f / ((n + 0.5) * g + h + tan_u * e)
        u, x = u - du, su - cu * du
    return x


def _assemble(sizes: list[int], x: np.ndarray) -> list[QuadratureRule]:
    """Rules from the positive-half nodes x that _nodes returns.

    P_n and P_n' at the nodes feed the residual check and the weights.
    Even a perfectly rounded node x_j leaves |P_n(x_j)| up to
    |P_n'(x_j)| ulp(x_j)/2, about 4e-12 at the extreme nodes near n = 600
    and 4e-11 near n = 2000, and evaluating P_n adds noise, hence the
    per-node tolerance max(1e-11, 100 n eps) + |P_n'(x_j)| ulp(x_j).
    At a root, d log(2 / ((1-x^2) P_n'^2)) / dx = -2x / (1-x^2), so at a
    node d = P_n/P_n' away from it the formula gives the root's weight
    times 1 - 2 x d / (1-x^2), a factor up to about 1e-10 from 1 near
    +-1 for n = 2000; the weights divide it out to first order.
    """
    halves = [(n + 1) // 2 for n in sizes]
    starts = np.cumsum([0] + halves[:-1])
    deg = np.repeat(sizes, halves)
    p, dp = _p_dp(deg, x)
    one_x2 = (1.0 - x) * (1.0 + x)
    w = 2.0 / (one_x2 * dp * dp) * (1.0 + 2.0 * x * (p / dp) / one_x2)
    tol = (np.maximum(1e-11, 100.0 * deg * 2.2e-16)
           + np.abs(dp) * np.spacing(np.abs(x)))
    ratio = np.maximum.reduceat(np.abs(p) / tol, starts)
    rules = []
    for n, lo, h, r in zip(sizes, starts.tolist(), halves, ratio.tolist()):
        if not r <= 1.0:
            raise ValueError(f"nodes are not roots of P_{n} "
                             f"(residual {r:.2e} x tolerance)")
        # P_n(-x) = (-1)^n P_n(x) and negation are exact, so the weights
        # of the negative half equal those of the positive half bit for
        # bit; the middle node 0 of an odd size is not negated
        xh, wh = x[lo:lo + h], w[lo:lo + h]
        rules.append(QuadratureRule(n, np.concatenate([-xh[:n // 2], xh[::-1]]),
                                    np.concatenate([wh, wh[::-1][n % 2:]]),
                                    residual=r))
    return rules


def apply_rule(rule: QuadratureRule, f) -> float:
    """Sum w_j f(x_j), correctly rounded (math.fsum) from the products.

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
    return math.fsum((rule.weights * vals).tolist())
