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
    "PhaseInfo",
    "gauss_envelope",
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
class PhaseInfo:
    phi: float
    sin_psi: float      # Psi = (2n+1) phi - pi/2, reduced to (-pi, pi]
    cp1: float          # 1 + cos Psi as 2 cos^2(Psi/2): no cancellation at pi

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
    return env


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def _jump_coefficients(family) -> tuple[float, float]:
    """(a, c) with [f](b + iy/n) = i^(k+1) (y/n)^sigma (a log(y/n) + c)
    without an envelope: (0, 2 sin(alpha pi/2)) for Power and
    (2 sin(beta pi/2), pi sin((beta+1) pi/2)) for PowerLog."""
    if isinstance(family, Power):
        return 0.0, 2.0 * math.sin(family.alpha * math.pi / 2)
    return (2.0 * math.sin(family.beta * math.pi / 2),
            math.pi * math.sin((family.beta + 1.0) * math.pi / 2))


def jump(f: SingularIntegrand, y, n: int):
    """[f](b + iy/n): difference across the branch cut for y > 0.

    Power and PowerLog as in _jump_coefficients; the envelope contributes
    the factor e(b + iy/n).  Accepts scalar y or a numpy array.
    """
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise ValueError("jump is defined for y > 0")
    fam = f.family
    if isinstance(fam, (Power, PowerLog)):
        a, c = _jump_coefficients(fam)
        t = y_arr / n
        out = (_QUARTER_TURNS[(fam.k + 1) % 4] * t ** f.singular_exponent
               * (a * np.log(t) + c))
    else:
        out = np.asarray(fam.jump_eval(y_arr, n), dtype=complex)
    if f.envelope is not None:
        out = out * f.envelope(f.b + 1j * y_arr / n)
    if np.ndim(y) == 0:
        return complex(out)
    return out


def phase(f: SingularIntegrand, n: int) -> PhaseInfo:
    """phi = arccos(b), with sin Psi and 1 + cos Psi of
    Psi = (2n+1) phi - pi/2 reduced mod 2 pi.

    At b = 0 and odd n, b is the middle Gauss node and Psi = pi exactly;
    the rounded reduction would leave sin Psi ~ 1e-16, which the kernel
    denominator ~ y^2 of that phase turns into a spurious term.
    1 + cos Psi comes as 2 cos^2(Psi/2), which keeps its relative accuracy
    where cos Psi rounds to -1 while sin Psi does not vanish.
    """
    phi = f.phi
    sin_psi, cp1 = _phase_parts(f.b, phi, n)
    return PhaseInfo(phi=phi, sin_psi=sin_psi, cp1=cp1)


def _phase_parts(b: float, phi: float, n: int) -> tuple[float, float]:
    """(sin Psi, 1 + cos Psi) of phase(f, n), given f's b and phi = acos(b),
    for loops over many sizes of one integrand."""
    if b == 0.0 and n % 2 == 1:
        return 0.0, 0.0
    psi = math.remainder((2 * n + 1) * phi - math.pi / 2, 2.0 * math.pi)
    return math.sin(psi), 2.0 * math.cos(0.5 * psi) ** 2


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
