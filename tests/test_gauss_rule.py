import hashlib
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from paper_asymptotics import legendre_p, legendre_p_deriv
from singquad import apply_rule, compute_rule, compute_rules
from singquad import gauss_rule

# n=3 interior nodes are 0, +-sqrt(3/5) with weights 8/9, 5/9:
# sum w x^6 = 2*(5/9)(3/5)^3 = 6/25, so the defect vs 2/7 is 8/175
N3_X6_DEFECT = 8.0 / 175.0


def bisect_roots_p5():
    """Oracle: sign-change bisection on P_5 over a fine grid (the grid is
    chosen to not hit the root at 0 exactly)."""
    grid = np.linspace(-0.99995, 0.99995, 20000)
    roots = []
    for lo, hi in zip(grid[:-1], grid[1:]):
        if legendre_p(5, lo) * legendre_p(5, hi) < 0:
            a, b = lo, hi
            for _ in range(200):
                mid = 0.5 * (a + b)
                if legendre_p(5, a) * legendre_p(5, mid) <= 0:
                    b = mid
                else:
                    a = mid
            roots.append(0.5 * (a + b))
    return np.array(roots)


def test_n1_midpoint():
    r = compute_rule(1)
    assert r.nodes == pytest.approx([0.0], abs=0)
    assert r.weights == pytest.approx([2.0], abs=0)


def test_n2_classical():
    r = compute_rule(2)
    assert r.nodes == pytest.approx([-1 / math.sqrt(3), 1 / math.sqrt(3)],
                                    abs=1e-15)
    assert r.weights == pytest.approx([1.0, 1.0], abs=1e-15)


def test_n5_vs_bisection_oracle():
    r = compute_rule(5)
    assert r.nodes == pytest.approx(bisect_roots_p5(), abs=1e-13)


@pytest.mark.parametrize("n", range(2, 13))
def test_exactness_all_monomials(n):
    r = compute_rule(n)
    for d in range(0, 2 * n):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(exact - apply_rule(r, lambda x: x ** d)) <= 1e-12


def test_apply_rule_odd_high_degree():
    r = compute_rule(10)
    assert abs(apply_rule(r, lambda x: x ** 19)) <= 1e-13


def test_apply_rule_even_high_degree():
    r = compute_rule(10)
    assert apply_rule(r, lambda x: x ** 18) == pytest.approx(2.0 / 19,
                                                             abs=1e-13)


@pytest.mark.parametrize("n,b,alpha", [(10, 0.4, 1.5), (41, -0.3, 0.5),
                                        (600, 0.4, 0.5)])
def test_apply_rule_correctly_rounded(n, b, alpha):
    # the exact rational sum of the rounded products w_j f(x_j), rounded
    # once; compensated summation in node order missed it by an ulp at
    # the first two
    r = compute_rule(n)
    vals = np.abs(r.nodes - b) ** alpha
    exact = sum(map(Fraction, (r.weights * vals).tolist()))
    assert apply_rule(r, lambda x: np.abs(x - b) ** alpha) == float(exact)


def test_n3_x6_defect():
    r = compute_rule(3)
    assert 2.0 / 7 - apply_rule(r, lambda x: x ** 6) == pytest.approx(
        N3_X6_DEFECT, abs=1e-14)


def test_remainder_sign_convention():
    # quadrature undershoots |x - 0.4|^0.5 near the kink: remainder > 0
    r = compute_rule(10)
    f = lambda x: np.sqrt(np.abs(x - 0.4))
    exact = (0.6 ** 1.5 + 1.4 ** 1.5) / 1.5
    rem = exact - apply_rule(r, f)
    assert rem > 0
    assert abs(rem) <= 1.0 * 10 ** -1.5


def test_nonfinite_integrand_rejected():
    r = compute_rule(4)
    with pytest.raises(ValueError), np.errstate(divide="ignore"):
        apply_rule(r, lambda x: 1.0 / (x - r.nodes[1]))


@pytest.mark.parametrize("n", [50, 200, 600])
def test_cosine_node_approximation(n):
    r = compute_rule(n)
    j = np.arange(1, n + 1)
    guesses = np.sort(np.cos((4 * j - 1) * np.pi / (4 * n + 2)))
    assert np.max(np.abs(r.nodes - guesses)) <= 3.0 / n


@pytest.mark.parametrize("n", [7, 64, 301, 2000])
def test_rule_invariants(n):
    r = compute_rule(n)
    assert np.all(np.diff(r.nodes) > 0)
    assert np.max(np.abs(r.nodes + r.nodes[::-1])) <= 1e-13
    assert np.all(r.weights > 0)
    assert abs(math.fsum(r.weights) - 2.0) <= 1e-13 * n
    # residual floor: |P_n'| ulp/2 at the extreme nodes plus recurrence
    # evaluation noise, together within max(1e-11, 100 n eps)
    tol = max(1e-11, 100.0 * n * 2.2e-16)
    assert np.max(np.abs(legendre_p(n, r.nodes))) <= tol


@pytest.mark.parametrize("n", [12, 150, 600])
def test_weight_formula_consistency(n):
    r = compute_rule(n)
    lhs = r.weights * (1 - r.nodes ** 2) * legendre_p_deriv(n, r.nodes) ** 2
    assert lhs == pytest.approx(np.full(n, 2.0), rel=1e-11)


def test_range_checks():
    with pytest.raises(ValueError):
        compute_rule(0)
    with pytest.raises(ValueError):
        compute_rule(2001)


# SHA-256 of nodes.tobytes() + weights.tobytes(), taken from the builder
# with two Halley steps (sizes below 100 and the 8 edge nodes of larger
# sizes), one asymptotic Newton step (the other nodes) and end-node weight
# correction; every batch must reproduce these rules bit for bit
RULE_SHA256 = {
    1: "0827fd05442d5279a37c60207e21a0e11585427eebdf4b2a0a35ded23a7cd9ed",
    2: "8bc3471ba32ae7c75bef5be0c0cae1fbe4940faff696dc66310240849cffd3c9",
    3: "b95571d945c7be32e2981ab261924c2b6a2caa64f757902ba4166cc3c8824797",
    10: "16906c6f6c12cbc0c8c478a0c8ce12f33787cc31082fb057c48cda6f026b3b53",
    11: "d9ee6e3005f3e21a974aa4fdf97db85ee3eec0ba231aaa2cd287f8fe8faa768d",
    101: "ad4b9cab9409ae4e884ac67fc03abf28ed659f08c395f280117b20ef49b16875",
    600: "d95433a53d05ce1b86b106b3670bd6478904fbfb7b2f3bf73f147a32f099b7d7",
    2000: "4531752d5a310e60d7c6e5e6c3c2fafdab30469d1d1afb4d872c28d52e1991fe",
}


def _digest(rule):
    return hashlib.sha256(rule.nodes.tobytes()
                          + rule.weights.tobytes()).hexdigest()


@pytest.mark.parametrize("n", sorted(RULE_SHA256))
def test_rule_bits_pinned(n):
    assert _digest(compute_rule(n)) == RULE_SHA256[n]


def test_batch_matches_single_size_batches(monkeypatch):
    # one batch, whole and cut into small blocks, against one-size batches
    sizes = list(range(2, 100)) + [397, 398, 801, 1200]

    def digests(batches):
        out = []
        for batch in batches:
            monkeypatch.setattr(gauss_rule, "_rules", {})
            out += [_digest(r) for r in compute_rules(batch)]
        return out

    singles = digests([[n] for n in sizes])
    assert digests([sizes]) == singles
    monkeypatch.setattr(gauss_rule, "_BLOCK_NODES", 100)
    assert digests([sizes]) == singles


def test_compute_rules_order_and_cache():
    rules = compute_rules([40, 7, 40, 1])
    assert [r.n for r in rules] == [40, 7, 40, 1]
    assert rules[0] is rules[2] is compute_rule(40)


@pytest.mark.parametrize("n", [40, 41])
def test_residual_check_rejects_perturbed_node(n):
    half = compute_rule(n).nodes[n // 2:][::-1].copy()  # positive half, descending
    gauss_rule._assemble([n], half)                      # the true nodes pass
    half[3] += 1e-8
    with pytest.raises(ValueError, match="not roots"):
        gauss_rule._assemble([n], half)


def test_compute_rules_range_checks():
    for bad in ([0], [5, 2001], [2.0]):
        with pytest.raises(ValueError):
            compute_rules(bad)


@pytest.mark.parametrize("build", [compute_rule, lambda n: compute_rules([n])])
def test_bool_size_rejected(build):
    # True == 1 and hashes like 1: it must not pass as the midpoint rule
    with pytest.raises(ValueError):
        build(True)


def test_numpy_integer_sizes_accepted():
    r40, r7 = compute_rules([np.int64(40), np.int32(7)])
    assert r40 is compute_rule(40) and r7 is compute_rule(7)
    assert compute_rule(np.int16(40)) is r40


def test_too_few_steps_fail_the_residual_check(monkeypatch):
    # the residual check is the builder's only convergence guard
    monkeypatch.setattr(gauss_rule, "_rules", {})
    monkeypatch.setattr(gauss_rule, "_HALLEY_STEPS", 1)
    with pytest.raises(ValueError, match="not roots of P_300"):
        compute_rules([300, 20])


def test_middle_node_is_positive_zero(monkeypatch):
    midpoint = compute_rule(1)
    monkeypatch.setattr(gauss_rule, "_rules", {})
    rules = compute_rules([1, 3, 11, 101])
    for r in rules:
        assert r.nodes[r.n // 2] == 0.0 and not np.signbit(r.nodes[r.n // 2])
    assert _digest(rules[0]) == _digest(midpoint)


def _mp_p_dp(n, x):
    pm, p = 1, x
    for m in range(1, n):
        pm, p = p, ((2 * m + 1) * x * p - m * pm) / (m + 1)
    return p, n * (x * p - pm) / (x * x - 1)


def _assert_matches_mpmath(n, js):
    # nodes js of the n-point rule against the root x* two 40-digit Newton
    # steps from the node, and their weights against w* = 2 / ((1 - x*^2)
    # P_n'(x*)^2)
    mp = pytest.importorskip("mpmath")
    r = compute_rule(n)
    eps = np.finfo(float).eps
    with mp.workdps(40):
        for j in js:
            node, weight = mp.mpf(float(r.nodes[j])), mp.mpf(float(r.weights[j]))
            x = node
            for _ in range(2):
                p, dp = _mp_p_dp(n, x)
                x -= p / dp
            _, dp = _mp_p_dp(n, x)
            assert abs(node - x) <= 2.2e-16
            assert abs(weight * (1 - x * x) * dp * dp / 2 - 1) <= 16 * n * eps


@pytest.mark.parametrize("n", [2, 3, 7, 11, 57, 600, 1000, 2000])
def test_rule_accuracy_against_mpmath(n):
    # the 8 outermost nodes of the nonnegative half, where the weights lose
    # most, and 8 seeded others
    half = np.arange(n - 1, n // 2 - 1, -1)
    rng = np.random.default_rng(n)
    picks = np.concatenate([half[:8], rng.permutation(half[8:])[:8]])
    _assert_matches_mpmath(n, picks.tolist())


@pytest.mark.parametrize("n", [99, 100, 101])
def test_sizes_at_the_asymptotic_cut_off(n):
    # every nonnegative node: n = 99 takes Halley steps throughout, from
    # n = 100 on all but the 8 edge nodes come from the interior expansion
    _assert_matches_mpmath(n, range(n // 2, n))


@pytest.mark.parametrize("n", [100, 257, 1999])
def test_nodes_either_side_of_the_edge_cut(n):
    # nodes 8 (the last Halley node) and 9 (the first asymptotic node)
    # counted from x = 1
    _assert_matches_mpmath(n, [n - 8, n - 9])


def test_asymptotic_nodes_without_newton_fail_the_residual_check(monkeypatch):
    # Tricomi's approximation alone is not a root to rounding
    monkeypatch.setattr(gauss_rule, "_rules", {})
    monkeypatch.setattr(gauss_rule, "_ASYMPTOTIC_STEPS", 0)
    with pytest.raises(ValueError, match="not roots of P_"):
        compute_rules([100])


def test_batch_across_the_cut_off_matches_single_sizes(monkeypatch):
    batch = [_digest(r) for r in _cold_batch(monkeypatch, range(95, 106))]
    singles = [_digest(_cold_batch(monkeypatch, [n])[0])
               for n in range(95, 106)]
    assert batch == singles


@pytest.mark.parametrize("n", [1870, 1960, 1987])
def test_sizes_near_the_old_residual_tolerance(n):
    # a flat max(1e-11, 100 n eps) tolerance rejected these sizes: their
    # extreme nodes leave |P_n| just above it from rounding alone
    r = compute_rule(n)
    x_ref, _ = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(r.nodes - x_ref)) <= 4e-16
    for m in range(5):
        assert abs(np.dot(r.weights, r.nodes ** (2 * m)) - 2.0 / (2 * m + 1)) \
            <= 1e-13


def _cold_batch(monkeypatch, ns):
    # only the midpoint rule, so every other size builds cold (a fresh
    # import also holds n = 15 and 32, for the oracle and the predictor)
    monkeypatch.setattr(gauss_rule, "_rules", {1: compute_rule(1)})
    return compute_rules(ns)


def test_rules_to_600_pinned(monkeypatch):
    # SHA-256 over nodes.tobytes() then weights.tobytes() of n = 1..600 in
    # order, all built in one cold batch
    h = hashlib.sha256()
    for r in _cold_batch(monkeypatch, range(1, 601)):
        h.update(r.nodes.tobytes())
        h.update(r.weights.tobytes())
    assert h.hexdigest() == ("04e1660cf6363b79fc8134c2f5ff87caf713261b6e4a"
                             "8dc0fb8e91b76023c068")


def test_recurrence_work(monkeypatch):
    # sum of the per-point degrees the recurrence runs for a cold 1..600
    # build; re-evaluating every node on every pass took 252,945,489, and
    # two Halley steps at every node 108,405,147
    work = []
    pair = gauss_rule._legendre_pair

    def counted(n, x):
        work.append(int(np.sum(n)) if np.ndim(n) else int(n) * len(x))
        return pair(n, x)

    monkeypatch.setattr(gauss_rule, "_legendre_pair", counted)
    _cold_batch(monkeypatch, range(1, 601))
    assert sum(work) <= 42_000_000


def test_import_leaves_numpy_polynomial_out():
    # compute_rule is the one Gauss-Legendre builder: the predictor's
    # 32-point panels and the oracle's GL15 come from it, not from leggauss
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, singquad; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "False"
