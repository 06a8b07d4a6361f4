"""Real-argument Riemann zeta.

Only what the closed-form coefficient bounds need: zeta on (1, inf) in
double precision.
"""

__all__ = ["zeta_fn"]

# Euler-Maclaurin tail: fixed cutoff and four Bernoulli corrections give
# ~1e-15 relative error anywhere on s in (1.05, 10].
_EM_CUTOFF = 20
_BERNOULLI_OVER_FACT = (
    (1.0 / 6.0) / 2.0,            # B2/2!
    (-1.0 / 30.0) / 24.0,         # B4/4!
    (1.0 / 42.0) / 720.0,         # B6/6!
    (-1.0 / 30.0) / 40320.0,      # B8/8!
)


def zeta_fn(s: float) -> float:
    """Riemann zeta(s) for s > 1, by Euler-Maclaurin summation."""
    if not s > 1.0:
        raise ValueError(f"zeta_fn requires s > 1, got {s}")
    n = _EM_CUTOFF
    total = sum(j ** -s for j in range(1, n))
    total += n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    # tail terms B_{2i}/(2i)! * s(s+1)...(s+2i-2) * n^{-s-2i+1}
    rising = s
    power = n ** (-s - 1.0)
    for i, coeff in enumerate(_BERNOULLI_OVER_FACT, start=1):
        total += coeff * rising * power
        rising *= (s + 2 * i - 1) * (s + 2 * i)
        power /= n * n
    return total
