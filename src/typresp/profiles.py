"""Perturbation band profiles vtilde(E) and their time-domain transforms.

A profile describes the coarse-grained variance of driving-operator matrix
elements as a function of the energy difference E of the coupled levels.  It
is even and nonnegative, carries the density of states d0, and provides

    v(t)  = int dE d0 exp(iEt) vtilde(E)      (real and even in t),
    v''(t),
    Sigma_n = (1/vtilde(0)) int dE E^n vtilde(E)   for n in {0, 2}.

The exponential variant vtilde(E) = v0 exp(-|E|/delta_v) has closed forms:

    v(t) = 2 v0 d0 delta_v / (1 + delta_v^2 t^2),   Sigma_0 = 2 delta_v,
    Sigma_2 = 4 delta_v^3.

Tabulated profiles sample vtilde on E >= 0 (starting at E = 0) and are
interpolated linearly; cosine transforms are evaluated exactly for the
interpolant (stable for arbitrarily oscillatory exp(iEt)), segment by
segment through kernels of x = t dE that np.sinc and spherical_jn give to
full precision down to x = 0.  v'' uses the same rule applied to the
sampled integrand E^2 vtilde(E), and the moments use the matching
trapezoid so that v(0) = v0*d0*Sigma_0 and v''(0) = -v0*d0*Sigma_2 hold
exactly for the sampled data.

vtilde, v_of_t and v_second_deriv take their argument as numpy does and
return its shape (a scalar gives a 0-d result); the cosine transform sums
segments on a trailing axis.  Powers of the argument are np.square/np.power
calls, for the reason given in `protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.special import spherical_jn

_SUPPORT_CUT = 1e-12  # segments with vtilde below this (relative) are dropped

VARIANTS = ("exponential", "tabulated")


@dataclass(frozen=True)
class PerturbationProfile:
    """Band profile vtilde(E) plus the density of states d0."""

    variant: str  # "exponential" | "tabulated"
    d0: float
    v0: float = 1.0  # vtilde(0)
    delta_v: float = 1.0  # decay scale of the exponential variant
    energies: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown profile variant {self.variant!r}")
        if not (np.isfinite(self.d0) and self.d0 > 0):
            raise ValueError("density of states d0 must be positive")
        if self.variant == "exponential":
            if not (np.isfinite(self.v0) and self.v0 > 0):
                raise ValueError("v0 must be positive")
            if not (np.isfinite(self.delta_v) and self.delta_v > 0):
                raise ValueError("delta_v must be positive")
        else:
            if self.energies is None or self.values is None:
                raise ValueError("tabulated profile needs energies and values")
            e = np.asarray(self.energies, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if e.ndim != 1 or e.shape != v.shape or e.size < 2:
                raise ValueError("tabulated profile needs matching 1-d samples (>= 2)")
            if e[0] != 0.0 or np.any(np.diff(e) <= 0):
                raise ValueError("profile samples must start at E = 0 and increase")
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ValueError("profile samples must be finite and >= 0")
            if v[0] <= 0:
                raise ValueError("vtilde(0) must be positive")
            object.__setattr__(self, "energies", e)
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "v0", float(v[0]))

    def vtilde(self, e):
        """vtilde(|E|) in the shape of e."""
        e = np.abs(np.asarray(e, dtype=float))
        if self.variant == "exponential":
            return self.v0 * np.exp(-e / self.delta_v)
        return np.interp(e, self.energies, self.values, left=0.0, right=0.0)


def moment(p: PerturbationProfile, n: int) -> float:
    """Sigma_n = (1/vtilde(0)) int dE E^n vtilde(E) for n in {0, 2}."""
    if n not in (0, 2):
        raise ValueError("only moments n = 0 and n = 2 are defined")
    if p.variant == "exponential":
        return 2.0 * p.delta_v if n == 0 else 4.0 * p.delta_v**3
    integrand = p.values if n == 0 else p.energies**2 * p.values
    return 2.0 * float(np.trapezoid(integrand, p.energies)) / p.v0


def v_of_t(p: PerturbationProfile, t):
    """Time-domain profile v(t) = int dE d0 exp(iEt) vtilde(E); real and even."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time argument must be finite")
    if p.variant == "exponential":
        return 2.0 * p.v0 * p.d0 * p.delta_v / (1.0 + np.square(p.delta_v * t))
    return 2.0 * p.d0 * _cos_transform(p.energies, p.values, t)


def v_second_deriv(p: PerturbationProfile, t):
    """d^2 v / dt^2; analytic for the exponential variant."""
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("time argument must be finite")
    if p.variant == "exponential":
        a = p.delta_v**2
        c = 2.0 * p.v0 * p.d0 * p.delta_v
        return -2.0 * a * c * (1.0 - 3.0 * a * np.square(t)) / np.power(1.0 + a * np.square(t), 3)
    # differentiate under the integral: v'' = -2 d0 int dE E^2 cos(Et) vtilde
    return -2.0 * p.d0 * _cos_transform(p.energies, p.energies**2 * p.values, t)


# ---------------------------------------------------------------------------
# exact cosine transform of a piecewise-linear table
# ---------------------------------------------------------------------------


def _kernels(x: np.ndarray):
    """S=sin(x)/x, G=(1-cos x)/x, H=(x sin x+cos x-1)/x^2, K=(sin x-x cos x)/x^2.

    With s = sin(x/2)/(x/2): S = sinc, G = (x/2) s^2, H = S - s^2/2 and K the
    spherical Bessel j1, all exact through x = 0.
    """
    s2 = np.square(np.sinc(x / (2.0 * np.pi)))  # np.sinc(y) = sin(pi y)/(pi y)
    S = np.sinc(x / np.pi)
    return S, 0.5 * x * s2, S - 0.5 * s2, spherical_jn(1, x)


def _cos_transform(e: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^inf w(E) cos(Et) dE for piecewise-linear w with compact support."""
    keep = (w[:-1] > _SUPPORT_CUT * w[0]) | (w[1:] > _SUPPORT_CUT * w[0])
    e0 = e[:-1][keep]
    de = np.diff(e)[keep]
    a = w[:-1][keep]
    b = (np.diff(w) / np.diff(e))[keep]

    x = t[..., None] * de  # (*t.shape, nseg)
    S, G, H, K = _kernels(x)
    c0 = np.cos(t[..., None] * e0)
    s0 = np.sin(t[..., None] * e0)
    seg = a * de * (c0 * S - s0 * G) + b * de**2 * (c0 * H - s0 * K)
    return seg.sum(axis=-1)
