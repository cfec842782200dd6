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

Tabulated profiles sample vtilde on E >= 0 from E = 0, pass the table check
protocols._check_samples as tabulated protocols do, and are interpolated
linearly; cosine transforms are exact for the interpolant (stable for
arbitrarily oscillatory exp(iEt)) by summation by parts, which needs np.sinc
alone and holds its precision down to t = 0.
v'' uses the same rule applied to the sampled integrand E^2 vtilde(E), and
the moments use the matching trapezoid so that v(0) = v0*d0*Sigma_0 and
v''(0) = -v0*d0*Sigma_2 hold for the sampled data up to the segments dropped
below _SUPPORT_CUT (none for v'', whose weight is 0 at E = 0).

vtilde, v_of_t and v_second_deriv take their argument as numpy does and
return its shape (a scalar gives a 0-d result); the cosine transform sums
segments on a trailing axis.  Powers of the argument are np.square/np.power
calls, for the reason given in `protocols`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .protocols import _check_samples

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
            e, v = _check_samples(self.energies, self.values, "tabulated profile")
            if e[0] != 0.0 or np.any(v < 0) or v[0] <= 0:
                raise ValueError("profile samples need E[0] = 0, vtilde >= 0 and vtilde(0) > 0")
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


def _cos_transform(e: np.ndarray, w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """int_0^inf w(E) cos(Et) dE for piecewise-linear w with compact support.

    By parts, with sinc(x) = sin(x)/x, a segment [e0, e1] of midpoint m and
    width h gives [w E sinc(Et)]_{e0}^{e1} - (w1 - w0) m sinc(mt) sinc(ht/2).
    The end terms telescope within a run of kept segments: only the nodes where
    a run starts (sign -) or ends (sign +) carry one, which keeps their digits.
    """
    keep = (w[:-1] > _SUPPORT_CUT * w[0]) | (w[1:] > _SUPPORT_CUT * w[0])
    edge = np.diff(keep.astype(int), prepend=0, append=0)  # +1 run start, -1 run end
    node = np.flatnonzero(edge)
    mid, half = 0.5 * (e[:-1] + e[1:])[keep], 0.5 * np.diff(e)[keep]
    y = t[..., None] / np.pi  # np.sinc(y) = sin(pi y)/(pi y)
    ends = -edge[node] * w[node] * e[node] * np.sinc(y * e[node])
    segs = np.diff(w)[keep] * mid * np.sinc(y * mid) * np.sinc(y * half)
    return ends.sum(axis=-1) - segs.sum(axis=-1)
