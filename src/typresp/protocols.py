"""Driving protocols f(t) and their exact first and second integrals.

Every protocol provides closed-form expressions for

    F1(t) = int_0^t f(s) ds,        F2(t) = int_0^t F1(s) ds,

and the derived effective-strength functions

    phi1(t) = (F1(t)/t)^2,          phi2(t) = (F2(t)/t - F1(t)/2)^2,

with the t -> 0 limits phi1(0) = f(0)^2 and phi2(0) = 0.  Tabulated
protocols are interpolated linearly and integrated exactly for the
interpolant (piecewise polynomial), which meets the 1e-10 fallback
tolerance on smooth inputs.

eval_f, f1_f2 and phi_arrays accept scalar or ndarray time arguments;
integrals takes a single time, and phi_arrays is the array route to phi1 and
phi2.  All evaluation functions are pure; protocol objects are immutable and
safe for concurrent use.
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

# variants for which `period` is meaningful (period or ramp/characteristic time)
_TIMESCALED = ("step", "sinusoid", "linear_ramp", "pseudorandom_a", "pseudorandom_b")

_PRA_SIGNS = np.array([(-1.0) ** (k + 1) for k in range(1, 7)])
_PRA_ROOTS = np.sqrt(np.arange(1.0, 7.0))
_PRB_ODD = np.sqrt(np.array([1.0, 3.0, 5.0]))
_PRB_EVEN = np.sqrt(np.array([2.0, 4.0, 6.0]))


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
        Only constant and step protocols are piecewise constant.
        """
        if self.variant == "constant":
            return np.array([0.0, t_max]), np.array([self.f0])
        if self.variant == "step":
            half = self.period / 2.0
            nseg = int(np.ceil(t_max / half - 1e-12))
            bounds = np.arange(nseg + 1) * half
            bounds[-1] = t_max
            vals = np.where(np.arange(nseg) % 2 == 0, self.f0, -self.f0)
            return bounds, vals
        return None


@dataclass(frozen=True)
class ProtocolIntegrals:
    """F1, F2 and the effective strengths phi1 = (F1/t)^2, phi2 = (F2/t - F1/2)^2."""

    f1: float
    f2: float
    phi1: float
    phi2: float


def _check_times(t: np.ndarray) -> None:
    if not np.all(np.isfinite(t)):
        raise ValueError("time argument must be finite")
    if np.any(t < 0):
        raise ValueError("time argument must be >= 0")


def eval_f(p: DrivingProtocol, t):
    """Evaluate f(t).  Accepts scalar or array t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    _check_times(t_arr)
    out = _eval_f(p, t_arr)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def _eval_f(p: DrivingProtocol, t: np.ndarray) -> np.ndarray:
    f0, T = p.f0, p.period
    if p.variant == "constant":
        return np.full_like(t, f0)
    if p.variant == "step":
        return f0 * np.sign(np.sin(2 * np.pi * t / T))
    if p.variant == "sinusoid":
        return f0 * np.sin(2 * np.pi * t / T)
    if p.variant == "linear_ramp":
        return f0 * np.where(t <= T, t / T, 1.0)
    if p.variant == "pseudorandom_a":
        w = _PRA_ROOTS / T
        return f0 * np.sum(_PRA_SIGNS[:, None] * np.cos(np.outer(w, t)), axis=0).reshape(t.shape)
    if p.variant == "pseudorandom_b":
        a = _PRB_ODD / T
        b = _PRB_EVEN / T
        s = np.sum(np.sin(np.outer(a, t)), axis=0) + np.sum(np.cos(np.outer(b, t)), axis=0)
        return f0 * s.reshape(t.shape)
    # tabulated: linear interpolation, zero outside the sample range
    return np.interp(t, p.times, p.values, left=0.0, right=0.0)


def f1_f2(p: DrivingProtocol, t):
    """Closed-form (F1(t), F2(t)); scalar or array t >= 0."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(t_arr)
    f0, T = p.f0, p.period

    if p.variant == "constant":
        F1 = f0 * t_arr
        F2 = 0.5 * f0 * t_arr**2
    elif p.variant == "step":
        k, tau = np.divmod(t_arr, T)
        first = tau <= T / 2
        F1 = f0 * np.where(first, tau, T - tau)
        F2 = k * f0 * T * T / 4 + f0 * np.where(
            first, 0.5 * tau**2, T * tau - 0.5 * tau**2 - T * T / 4
        )
    elif p.variant == "sinusoid":
        om = 2 * np.pi / T
        F1 = f0 / om * (1.0 - np.cos(om * t_arr))
        F2 = f0 / om * (t_arr - np.sin(om * t_arr) / om)
    elif p.variant == "linear_ramp":
        pre = t_arr <= T
        F1 = f0 * np.where(pre, 0.5 * t_arr**2 / T, t_arr - T / 2)
        F2 = f0 * np.where(
            pre, t_arr**3 / (6 * T), T * T / 6 + 0.5 * t_arr * (t_arr - T)
        )
    elif p.variant == "pseudorandom_a":
        w = _PRA_ROOTS / T
        wt = np.outer(w, t_arr)
        F1 = f0 * np.sum((_PRA_SIGNS / w)[:, None] * np.sin(wt), axis=0)
        F2 = f0 * np.sum((_PRA_SIGNS / w**2)[:, None] * (1.0 - np.cos(wt)), axis=0)
    elif p.variant == "pseudorandom_b":
        a = _PRB_ODD / T
        b = _PRB_EVEN / T
        at = np.outer(a, t_arr)
        bt = np.outer(b, t_arr)
        F1 = f0 * (
            np.sum((1.0 - np.cos(at)) / a[:, None], axis=0)
            + np.sum(np.sin(bt) / b[:, None], axis=0)
        )
        F2 = f0 * (
            np.sum(t_arr[None, :] / a[:, None] - np.sin(at) / (a**2)[:, None], axis=0)
            + np.sum((1.0 - np.cos(bt)) / (b**2)[:, None], axis=0)
        )
    else:  # tabulated
        F1, F2 = p._table.f1_f2(t_arr)

    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(F1[0]), float(F2[0])
    return F1, F2


def phi_arrays(p: DrivingProtocol, t):
    """(phi1(t), phi2(t)) on an array of times, with exact t = 0 limits.

    The constant protocol returns phi1 = f0^2 and phi2 = 0 exactly (its
    closed forms, free of the F2/t - F1/2 cancellation noise).
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    _check_times(t_arr)
    if p.variant == "constant":
        return np.full_like(t_arr, p.f0**2), np.zeros_like(t_arr)
    F1, F2 = f1_f2(p, t_arr)
    F1 = np.atleast_1d(F1)
    F2 = np.atleast_1d(F2)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = (F1 / t_arr) ** 2
        phi2 = (F2 / t_arr - 0.5 * F1) ** 2
    zero = t_arr == 0.0
    if np.any(zero):
        phi1[zero] = float(eval_f(p, 0.0)) ** 2
        phi2[zero] = 0.0
    return phi1, phi2


def integrals(p: DrivingProtocol, t: float) -> ProtocolIntegrals:
    """Exact protocol integrals and effective strengths at a single time t >= 0."""
    t = float(t)
    _check_times(np.asarray([t]))
    F1, F2 = f1_f2(p, t)
    phi1, phi2 = phi_arrays(p, np.asarray([t]))
    return ProtocolIntegrals(F1, F2, float(phi1[0]), float(phi2[0]))


class _TabulatedIntegrals:
    """Exact cumulative integrals of a piecewise-linear table (zero outside)."""

    def __init__(self, times: np.ndarray, values: np.ndarray):
        self.t = times
        self.v = values
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
        F1 = np.empty_like(t)
        F2 = np.empty_like(t)

        below = t <= self.t[0]
        above = t >= self.t[-1]
        inside = ~(below | above)
        F1[below] = 0.0
        F2[below] = 0.0
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
