import hashlib
import math

import numpy as np
import pytest

from paper_asymptotics import legendre_p, legendre_p_deriv
from singquad import apply_rule, compute_rule, compute_rules, remainder
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
        assert abs(remainder(r, lambda x: x ** d, exact)) <= 1e-12


def test_apply_rule_odd_high_degree():
    r = compute_rule(10)
    assert abs(apply_rule(r, lambda x: x ** 19)) <= 1e-13


def test_apply_rule_even_high_degree():
    r = compute_rule(10)
    assert apply_rule(r, lambda x: x ** 18) == pytest.approx(2.0 / 19,
                                                             abs=1e-13)


def test_n3_x6_defect():
    r = compute_rule(3)
    assert 2.0 / 7 - apply_rule(r, lambda x: x ** 6) == pytest.approx(
        N3_X6_DEFECT, abs=1e-14)


def test_remainder_sign_convention():
    # quadrature undershoots |x - 0.4|^0.5 near the kink: remainder > 0
    r = compute_rule(10)
    f = lambda x: np.sqrt(np.abs(x - 0.4))
    exact = (0.6 ** 1.5 + 1.4 ** 1.5) / 1.5
    rem = remainder(r, f, exact)
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


# SHA-256 of nodes.tobytes() + weights.tobytes(), taken from the per-size
# Newton builder that compute_rules replaced; the batched builder must
# reproduce those rules bit for bit
RULE_SHA256 = {
    1: "0827fd05442d5279a37c60207e21a0e11585427eebdf4b2a0a35ded23a7cd9ed",
    2: "8bc3471ba32ae7c75bef5be0c0cae1fbe4940faff696dc66310240849cffd3c9",
    3: "8cc9f05c7d0a36ab02f6b2e07e784cf65e9f6215300a7695a933efe27981acaa",
    10: "8c8612b3906a6a31972b301c4acb55225637ffa6bce2140ddba448ebc3e19203",
    11: "8ca215caeae9a1973dc8207687ca457288d832a77789e1a7b6c8f9b9a374eabf",
    101: "edf4792ca6ab53da5a9fedd937bbe4a810667352c44f92efee5b5362267cf3c3",
    600: "a2bcce656916c40dc8b4d985d46c0b8a6ed2cda80491057b92ac7c1ceec55a32",
    2000: "81ea16ddbed8289c60e2f2024bdb5c6bab0232c0e066bb2b1622d66a4abcedb6",
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


def test_newton_step_limit(monkeypatch):
    monkeypatch.setattr(gauss_rule, "_rules", {})
    monkeypatch.setattr(gauss_rule, "_NEWTON_MAX_STEPS", 2)
    with pytest.raises(RuntimeError, match="n = 300"):
        compute_rules([300, 20])


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
