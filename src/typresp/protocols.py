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
for the interpolant (piecewise polynomial) by the pure function
_table_f1_f2, which meets the 1e-10 fallback tolerance on smooth inputs.
_check_samples is the one check of a table, shared with the tabulated
profiles: at least 2 matching, finite 1-d samples at strictly increasing x.
subdivide is the one count of pieces (inf past float range): piecewise_segments
yields a drive's pieces one at a time, stores none and refuses an inf count.

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
        if self.variant in _TIMESCALED and not (np.isfinite(self.period) and self.period > 0):
            raise ValueError("protocol time scale must be positive")
        if self.variant == "tabulated":
            t, v = _check_samples(self.times, self.values, "tabulated protocol")
            if t[0] < 0:
                raise ValueError("tabulated sample times must be >= 0")
            object.__setattr__(self, "times", t)
            object.__setattr__(self, "values", v)

    def timescale(self) -> Optional[float]:
        """Characteristic time of f(t), or None when there is none (constant)."""
        if self.variant in _TIMESCALED:
            return float(self.period)
        if self.variant == "tabulated":
            return float(np.min(np.diff(self.times)))
        return None

    def piecewise_segments(self, t_max: float):
        """The pieces (t0, t1, f) of f on [0, t_max], yielded one at a time, or None if f is not
        PIECEWISE_CONSTANT.  Constant is one piece; step's piece k < n = subdivide(t_max, T/2)[0]
        spans [k T/2, (k + 1) T/2] (the last ends at t_max), f = (-1)^k f0; inf n: a ValueError."""
        if self.variant not in PIECEWISE_CONSTANT:
            return None
        if self.variant == "constant":
            return iter([(0.0, t_max, self.f0)])
        half, f0 = self.period / 2.0, self.f0
        n = subdivide(t_max, half)[0]  # t_max = 0: one empty piece
        if n == np.inf:  # no run could draw them to t_max
            raise ValueError(f"the step drive's pieces to t = {t_max:.6g} are too many to count")
        return ((k * half, t_max if k == n - 1 else (k + 1) * half, -f0 if k % 2 else f0)
                for k in range(n))


def _check_samples(x, y, what: str) -> tuple:
    """(x, y) as float arrays: at least 2 matching, finite 1-d samples at strictly increasing x."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError(f"{what} needs matching 1-d samples (>= 2)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{what} samples must be finite")
    if np.any(np.diff(x) <= 0):
        raise ValueError(f"{what} sample points must strictly increase")
    return x, y


def subdivide(span: float, step: float) -> tuple:
    """(n, span / n): the fewest n >= 1 pieces of span no longer than step (1e-12 slack); n is
    inf, and span / n 0, where span / step overflows or is NaN."""
    q = np.ceil(span / step - 1e-12)
    n = max(1, int(q)) if np.isfinite(q) else np.inf
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
    return _table_f1_f2(p.times, p.values, t)


def phi_arrays(p: DrivingProtocol, t):
    """(phi1(t), phi2(t)) in the shape of t, with phi1(0) = f(0)^2 and phi2(0) = 0.

    The constant protocol returns phi1 = f0^2 and phi2 = 0 exactly (its
    closed forms, free of the F2/t - F1/2 cancellation noise).
    """
    t = np.asarray(t, dtype=float)
    _check_times(t)
    if p.variant == "constant":
        return np.full_like(t, np.square(p.f0)), np.zeros_like(t)
    F1, F2 = f1_f2(p, t)
    zero = t == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi1 = np.where(zero, np.square(eval_f(p, 0.0)), np.square(F1 / t))
        phi2 = np.where(zero, 0.0, np.square(F2 / t - 0.5 * F1))
    return phi1, phi2


def _table_f1_f2(times: np.ndarray, values: np.ndarray, t: np.ndarray) -> tuple:
    """Exact (F1(t), F2(t)) of the linear interpolant of a table, zero outside it."""
    dt = np.diff(times)
    a, b = values[:-1], np.diff(values) / dt  # f = a + b*tau on each segment
    # per segment: int f is the trapezoid, int F1 is F1_i*dt + a*dt^2/2 + b*dt^3/6
    F1_nodes = np.concatenate(([0.0], np.cumsum(0.5 * (values[:-1] + values[1:]) * dt)))
    seg_f2 = F1_nodes[:-1] * dt + 0.5 * a * dt**2 + b * dt**3 / 6.0
    F2_nodes = np.concatenate(([0.0], np.cumsum(seg_f2)))
    F1, F2 = np.zeros_like(t), np.zeros_like(t)  # zero below the table
    above = t >= times[-1]
    inside = ~((t <= times[0]) | above)
    F1[above] = F1_nodes[-1]
    F2[above] = F2_nodes[-1] + F1_nodes[-1] * (t[above] - times[-1])
    ti = t[inside]
    idx = np.clip(np.searchsorted(times, ti, side="right") - 1, 0, len(a) - 1)
    tau, a, b = ti - times[idx], a[idx], b[idx]
    F1[inside] = F1_nodes[idx] + a * tau + 0.5 * b * tau**2
    F2[inside] = F2_nodes[idx] + F1_nodes[idx] * tau + 0.5 * a * tau**2 + b * tau**3 / 6.0
    return F1, F2
