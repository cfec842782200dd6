"""Driving protocols f(t) and their exact first and second integrals.

Every protocol provides closed-form expressions for

    F1(t) = int_0^t f(s) ds,        F2(t) = int_0^t F1(s) ds,

and the derived effective-strength functions

    phi1(t) = (F1(t)/t)^2,          phi2(t) = (F2(t)/t - F1(t)/2)^2,

set at t = 0 to phi1(0) = f(0)^2 and phi2(0) = 0: the t -> 0+ limit where f
is continuous at 0, but the step drive has f(0) = f0 sgn(0) = 0, so its phi1
jumps from 0 to f0^2 just after t = 0.  The sinusoid and the two
incommensurate ("pseudorandom") drives are one trig family with one closed
form.  Tabulated protocols are interpolated linearly and integrated exactly
for the interpolant (piecewise polynomial), which meets the 1e-10 fallback
tolerance on smooth inputs.

eval_f, f1_f2 and phi_arrays take t as numpy does and return its shape (a
scalar gives 0-d results); frequency sums run on a trailing axis.  Powers are
np.square/np.power calls: on the numpy scalars a 0-d input turns into, `**`
(like complex `*`) runs scalar code that can differ in the last bit from the
array loop.  All evaluation functions are pure; protocol objects are
immutable and safe for concurrent use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

VARIANTS = (
    "constant",
    "step",
    "sinusoid",
    "linear_ramp",
    "pseudorandom_a",
    "pseudorandom_b",
    "tabulated",
)

# the piecewise-constant variants: the ones exact piecewise propagation can take
PIECEWISE_CONSTANT = ("constant", "step")

# variants for which `period` is meaningful (period or ramp/characteristic time)
_TIMESCALED = ("step", "sinusoid", "linear_ramp", "pseudorandom_a", "pseudorandom_b")

# the trig drives f = f0 (sum_k sin(a_k t/T) + sum_k c_k cos(b_k t/T)): variant -> (a, b, c)
_TRIG = {
    "sinusoid": (np.array([2 * np.pi]), np.empty(0), np.empty(0)),
    "pseudorandom_a": (np.empty(0), np.sqrt(np.arange(1.0, 7.0)), np.array([1.0, -1.0] * 3)),
    "pseudorandom_b": (np.sqrt([1.0, 3.0, 5.0]), np.sqrt([2.0, 4.0, 6.0]), np.ones(3)),
}


@dataclass(frozen=True)
class DrivingProtocol:
    """A scalar driving protocol f(t) with amplitude `f0` and time scale `period`.

    `period` is the period for the periodic variants, the ramp duration for
    `linear_ramp`, and the base time scale of the incommensurate-frequency
    ("pseudorandom") variants.  Tabulated protocols carry sample `times` and
    `values`; they interpolate linearly and vanish outside the sample range.
    """

    variant: str
    f0: float = 0.0
    period: float = 1.0
    times: Optional[np.ndarray] = field(default=None, repr=False)
    values: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown protocol variant {self.variant!r}")
        if not np.isfinite(self.f0):
            raise ValueError("protocol amplitude f0 must be finite")
        if self.variant in _TIMESCALED:
            if not (np.isfinite(self.period) and self.period > 0):
                raise ValueError("protocol time scale must be positive")
        if self.variant == "tabulated":
            if self.times is None or self.values is None:
                raise ValueError("tabulated protocol needs sample times and values")
            t = np.asarray(self.times, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if t.ndim != 1 or t.shape != v.shape or t.size < 2:
                raise ValueError("tabulated protocol needs matching 1-d samples (>= 2)")
            if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
                raise ValueError("tabulated protocol samples must be finite")
            if t[0] < 0 or np.any(np.diff(t) <= 0):
                raise ValueError("tabulated sample times must be >= 0 and increasing")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)
            object.__setattr__(self, "_table", _TabulatedIntegrals(t, v))

    def timescale(self) -> Optional[float]:
        """Characteristic time of f(t), or None when there is none (constant)."""
        if self.variant in _TIMESCALED:
            return float(self.period)
        if self.variant == "tabulated":
            return float(np.min(np.diff(self.times)))
        return None

    def piecewise_segments(self, t_max: float):
        """Piecewise-constant segmentation on [0, t_max], or None.

        Returns (boundaries, values) with len(values) = len(boundaries) - 1.
        Only the PIECEWISE_CONSTANT variants have one.
        """
        if self.variant not in PIECEWISE_CONSTANT:
            return None
        if self.variant == "constant":
            return np.array([0.0, t_max]), np.array([self.f0])
        half = self.period / 2.0
        nseg = subdivide(t_max, half)[0]  # t_max = 0: one empty segment
        bounds = np.arange(nseg + 1) * half
        bounds[-1] = t_max
        vals = np.where(np.arange(nseg) % 2 == 0, self.f0, -self.f0)
        return bounds, vals


def subdivide(span: float, step: float) -> tuple:
    """(n, span / n): the fewest n >= 1 pieces of span no longer than step (1e-12 slack)."""
    n = max(1, int(np.ceil(span / step - 1e-12)))
    return n, span / n


def _check_times(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError("time argument must be finite")
    if np.any(t < 0):
        raise ValueError("time argument must be >= 0")


def eval_f(p: DrivingProtocol, t):
    """f(t) for t >= 0, in the shape of t."""
    t = np.asarray(t, dtype=float)
    _check_times(t)
    f0, T = p.f0, p.period
    if p.variant == "constant":
        return np.full_like(t, f0)
    if p.variant == "step":
        return f0 * np.sign(np.sin(2 * np.pi * t / T))
    if p.variant == "linear_ramp":
        return f0 * np.where(t <= T, t / T, 1.0)
    if p.variant in _TRIG:
        a, b, c = _TRIG[p.variant]
        at, bt = t[..., None] * (a / T), t[..., None] * (b / T)
        return f0 * (np.sum(np.sin(at), axis=-1) + np.sum(c * np.cos(bt), axis=-1))
    # tabulated: linear interpolation, zero outside the sample range
    return np.interp(t, p.times, p.values, left=0.0, right=0.0)


def f1_f2(p: DrivingProtocol, t):
    """Closed-form (F1(t), F2(t)) for t >= 0, each in the shape of t."""
    t = np.asarray(t, dtype=float)
    _check_times(t)
    f0, T = p.f0, p.period

    if p.variant == "constant":
        return f0 * t, 0.5 * f0 * np.square(t)
    if p.variant == "step":
        k, tau = np.divmod(t, T)
        first = tau <= T / 2
        F1 = f0 * np.where(first, tau, T - tau)
        F2 = k * f0 * T * T / 4 + f0 * np.where(
            first, 0.5 * np.square(tau), T * tau - 0.5 * np.square(tau) - T * T / 4
        )
        return F1, F2
    if p.variant == "linear_ramp":
        pre = t <= T
        F1 = f0 * np.where(pre, 0.5 * np.square(t) / T, t - T / 2)
        F2 = f0 * np.where(pre, np.power(t, 3) / (6 * T), T * T / 6 + 0.5 * t * (t - T))
        return F1, F2
    if p.variant in _TRIG:
        a, b, c = _TRIG[p.variant]
        a, b, t_ = a / T, b / T, t[..., None]
        at, bt = t_ * a, t_ * b
        F1 = np.sum((1.0 - np.cos(at)) / a, axis=-1) + np.sum(c * np.sin(bt) / b, axis=-1)
        F2 = (np.sum(t_ / a - np.sin(at) / np.square(a), axis=-1)
              + np.sum(c * (1.0 - np.cos(bt)) / np.square(b), axis=-1))
        return f0 * F1, f0 * F2
    return p._table.f1_f2(t)


def phi_arrays(p: DrivingProtocol, t):
    """(phi1(t), phi2(t)) in the shape of t, with phi1(0) = f(0)^2 and phi2(0) = 0.

    The constant protocol returns phi1 = f0^2 and phi2 = 0 exactly (its
    closed forms, free of the F2/t - F1/2 cancellation noise).
    """
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if p.variant == "constant":
        return np.full_like(t, p.f0**2), np.zeros_like(t)
    F1, F2 = f1_f2(p, t)
    zero = t == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(zero, np.square(eval_f(p, 0.0)), np.square(F1 / t))
        phi2 = np.where(zero, 0.0, np.square(F2 / t - 0.5 * F1))
    return phi1, phi2


class _TabulatedIntegrals:
    """Exact cumulative integrals of a piecewise-linear table (zero outside)."""

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.t = times
        dt = np.diff(times)
        seg_f1 = 0.5 * (values[:-1] + values[1:]) * dt  # exact trapezoid per segment
        self.F1_nodes = np.concatenate(([0.0], np.cumsum(seg_f1)))
        # int F1 over a segment: F1_i*dt + a*dt^2/2 + b*dt^3/6 with f = a + b*tau
        a = values[:-1]
        b = np.diff(values) / dt
        seg_f2 = self.F1_nodes[:-1] * dt + 0.5 * a * dt**2 + b * dt**3 / 6.0
        self.F2_nodes = np.concatenate(([0.0], np.cumsum(seg_f2)))
        self.a = a
        self.b = b

    def f1_f2(self, t: np.ndarray):
        F1 = np.zeros_like(t)  # zero below the table
        F2 = np.zeros_like(t)

        above = t >= self.t[-1]
        inside = ~((t <= self.t[0]) | above)
        F1[above] = self.F1_nodes[-1]
        F2[above] = self.F2_nodes[-1] + self.F1_nodes[-1] * (t[above] - self.t[-1])

        ti = t[inside]
        idx = np.clip(np.searchsorted(self.t, ti, side="right") - 1, 0, len(self.a) - 1)
        tau = ti - self.t[idx]
        a, b = self.a[idx], self.b[idx]
        F1[inside] = self.F1_nodes[idx] + a * tau + 0.5 * b * tau**2
        F2[inside] = (
            self.F2_nodes[idx] + self.F1_nodes[idx] * tau + 0.5 * a * tau**2 + b * tau**3 / 6.0
        )
        return F1, F2
