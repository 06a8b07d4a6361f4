"""Integrands with one interior singularity and their branch-cut jumps.

Families:
  Power(k, alpha):   (x-b)^k |x-b|^alpha
  PowerLog(k, beta): (x-b)^k |x-b|^beta log|x-b|
  GeneralJump:       caller-supplied real evaluation and jump, with a
                     declared smoothness class.

An optional analytic envelope e(x) multiplies the singular factor; its
value e(b + iy/n) on the cut is single-valued and factors out of the
jump.  Jumps are closed forms throughout, never numeric continuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

__all__ = [
    "Power",
    "PowerLog",
    "GeneralJump",
    "SingularIntegrand",
    "HolderClass",
    "PhaseInfo",
    "gauss_envelope",
    "evaluate_real",
    "holder_class",
    "jump",
    "phase",
    "parse_integrand",
]


@dataclass(frozen=True)
class Power:
    """(x-b)^k |x-b|^alpha with integer k >= 0 and k + alpha > 0.

    alpha in (-1, 0) u (0, 2]; values in (1, 2] arise from integrands like
    |x-b|^1.5 and use the same jump formula.
    """

    k: int
    alpha: float

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise ValueError("k must be a nonnegative integer")
        if not (-1.0 < self.alpha <= 2.0) or self.alpha == 0.0:
            raise ValueError("alpha must lie in (-1, 0) u (0, 2]")
        if self.k + self.alpha <= 0.0:
            raise ValueError("k + alpha must be positive")


@dataclass(frozen=True)
class PowerLog:
    """(x-b)^k |x-b|^beta log|x-b| with beta in (-1, 1]."""

    k: int
    beta: float

    def __post_init__(self):
        if self.k < 0 or self.k != int(self.k):
            raise ValueError("k must be a nonnegative integer")
        if not (-1.0 < self.beta <= 1.0):
            raise ValueError("beta must lie in (-1, 1]")
        if self.beta <= 0.0 and self.k < 1:
            raise ValueError("beta <= 0 requires k >= 1")


@dataclass(frozen=True)
class GeneralJump:
    """Black-box integrand: real evaluation, closed-form jump, and the
    caller-declared Holder class (k, alpha)."""

    real_eval: Callable[[float], float]
    jump_eval: Callable[[np.ndarray, int], np.ndarray]
    holder_k: int
    holder_alpha: float

    def __post_init__(self):
        if self.holder_k < 0:
            raise ValueError("holder_k must be nonnegative")
        if not 0.0 < self.holder_alpha <= 1.0:
            raise ValueError("holder_alpha must lie in (0, 1]")


Family = Union[Power, PowerLog, GeneralJump]


@dataclass(frozen=True)
class HolderClass:
    """Smoothness class (k, alpha); open=True means any exponent below
    alpha is valid but alpha itself is not."""

    k: int
    alpha: float
    open: bool = False


@dataclass(frozen=True)
class PhaseInfo:
    phi: float
    psi: float          # (2n+1) phi - pi/2, reduced to (-pi, pi]
    cos_psi: float
    sin_psi: float

    @property
    def cos_phase(self) -> float:
        """cos((2n+1) phi) = -sin(Psi), the phase the figures are keyed on."""
        return -self.sin_psi


@dataclass(frozen=True)
class SingularIntegrand:
    """An integrand on [-1,1] singular at the interior point b."""

    b: float
    family: Family
    envelope: Optional[Callable] = None  # analytic, complex-callable

    def __post_init__(self):
        if not -1.0 < self.b < 1.0:
            raise ValueError("b must lie in (-1, 1)")

    @property
    def phi(self) -> float:
        return math.acos(self.b)

    @property
    def singular_exponent(self) -> float:
        """k + alpha (or k + beta) of the family; the leading error decays
        like n^-(exponent+1)."""
        fam = self.family
        if isinstance(fam, Power):
            return fam.k + fam.alpha
        if isinstance(fam, PowerLog):
            return fam.k + fam.beta
        return fam.holder_k + fam.holder_alpha

    def __call__(self, x):
        """Vectorized real-line evaluation."""
        x = np.asarray(x, dtype=float)
        t = x - self.b
        fam = self.family
        if isinstance(fam, Power):
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(t == 0.0, 0.0,
                                t ** fam.k * np.abs(t) ** fam.alpha)
        elif isinstance(fam, PowerLog):
            with np.errstate(divide="ignore", invalid="ignore"):
                vals = np.where(t == 0.0, 0.0,
                                t ** fam.k * np.abs(t) ** fam.beta
                                * np.log(np.abs(np.where(t == 0.0, 1.0, t))))
        else:
            vals = np.vectorize(fam.real_eval, otypes=[float])(x)
        if self.envelope is not None:
            vals = vals * np.real(self.envelope(x))
        return vals


def gauss_envelope(b: float):
    """exp(-(x-b)^2), the analytic envelope used by the library examples."""
    def env(z):
        return np.exp(-(np.asarray(z) - b) ** 2)
    env.tag = "gauss"
    return env


def evaluate_real(f: SingularIntegrand, x: float) -> float:
    """Pointwise value on [-1, 1]; the singular point returns the limit 0
    (continuity there is guaranteed by k + alpha > 0)."""
    if not -1.0 <= x <= 1.0:
        raise ValueError("x must lie in [-1, 1]")
    return float(f(np.asarray(x, dtype=float)))


def holder_class(f: SingularIntegrand) -> HolderClass:
    """Classify f as D_b^{k,alpha}."""
    fam = f.family
    if isinstance(fam, Power):
        k, a = fam.k, fam.alpha
        if 0.0 < a <= 1.0:
            return HolderClass(k, a)
        if a < 0.0:
            return HolderClass(k - 1, a + 1.0)
        return HolderClass(k + 1, a - 1.0)     # alpha in (1, 2]
    if isinstance(fam, PowerLog):
        k, beta = fam.k, fam.beta
        if beta > 0.0:
            return HolderClass(k, beta, open=True)
        if beta == 0.0:
            return HolderClass(k - 1, 1.0, open=True)
        return HolderClass(k - 1, beta + 1.0, open=True)
    return HolderClass(fam.holder_k, fam.holder_alpha)


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def jump(f: SingularIntegrand, y, n: int):
    """[f](b + iy/n): difference across the branch cut for y > 0.

    Power:    2 i^{k+1} sin(alpha pi/2) (y/n)^{k+alpha}
    PowerLog: i^{k+1} (y/n)^{k+beta} [2 sin(beta pi/2) log(y/n)
                                      + pi sin((beta+1) pi/2)]
    The envelope contributes the factor e(b + iy/n).
    Accepts scalar y or a numpy array.
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise ValueError("jump is defined for y > 0")
    fam = f.family
    if isinstance(fam, Power):
        ik1 = _QUARTER_TURNS[(fam.k + 1) % 4]
        out = (2.0 * ik1 * math.sin(fam.alpha * math.pi / 2)
               * (y_arr / n) ** (fam.k + fam.alpha))
    elif isinstance(fam, PowerLog):
        ik1 = _QUARTER_TURNS[(fam.k + 1) % 4]
        bracket = (2.0 * math.sin(fam.beta * math.pi / 2) * np.log(y_arr / n)
                   + math.pi * math.sin((fam.beta + 1.0) * math.pi / 2))
        out = ik1 * (y_arr / n) ** (fam.k + fam.beta) * bracket
    else:
        out = np.asarray(fam.jump_eval(y_arr, n), dtype=complex)
    if f.envelope is not None:
        out = out * f.envelope(f.b + 1j * y_arr / n)
    if np.ndim(y) == 0:
        return complex(out)
    return out


def phase(f: SingularIntegrand, n: int) -> PhaseInfo:
    """phi = arccos(b) and Psi = (2n+1) phi - pi/2 reduced mod 2 pi.

    At b = 0 and odd n, b is the middle Gauss node and Psi = pi exactly;
    the rounded reduction would leave sin Psi ~ 1e-16, which the kernel
    denominator ~ y^2 of that phase turns into a spurious term.
    """
    phi = f.phi
    if f.b == 0.0 and n % 2 == 1:
        return PhaseInfo(phi=phi, psi=math.pi, cos_psi=-1.0, sin_psi=0.0)
    psi = math.remainder((2 * n + 1) * phi - math.pi / 2, 2.0 * math.pi)
    return PhaseInfo(phi=phi, psi=psi,
                     cos_psi=math.cos(psi), sin_psi=math.sin(psi))


def parse_integrand(spec: str) -> SingularIntegrand:
    """Parse textual specs like "power(0.4, 0, 0.5)",
    "powerlog(0.4, 1, 0)" or "power(0.4, 0, 1) envelope=gauss"."""
    text = spec.replace(";", " ").strip()
    if not text:
        raise ValueError("empty integrand spec")
    name, opened, rest = text.partition("(")
    argstr, closed, tail = rest.partition(")")
    if not opened or not closed:
        raise ValueError(f"malformed integrand spec: {spec!r}")
    extras = tail.split()
    args = [float(a) for a in argstr.split(",")]
    if len(args) != 3:
        raise ValueError(f"expected (b, k, exponent), got {argstr!r}")
    b, k, expo = args
    if not k.is_integer():
        raise ValueError(f"k must be an integer, got {k:g}")
    k = int(k)
    name = name.strip().lower()
    if name == "power":
        family = Power(k, expo)
    elif name == "powerlog":
        family = PowerLog(k, expo)
    else:
        raise ValueError(f"unknown integrand family {name!r}")
    envelope = None
    for extra in extras:
        key, _, val = extra.partition("=")
        if key == "envelope" and val == "gauss":
            envelope = gauss_envelope(b)
        else:
            raise ValueError(f"unknown integrand option {extra!r}")
    return SingularIntegrand(b=b, family=family, envelope=envelope)
