"""Numerical solver for the response function gamma(t, t').

gamma obeys the nonlinear Volterra integro-differential equation

    d gamma(t, t') / dt = - int_0^t ds gamma(t-s, t') gamma(s, t') K(s),
    K(s) = phi1(t') v(s) - phi2(t') v''(s),        gamma(0, t') = 1,

where phi1/phi2 are protocol constants evaluated once at the auxiliary time
t' and v is the profile's time-domain transform.  The kernel is smooth, so
an explicit trapezoidal predictor-corrector (Heun) step with trapezoidal
convolution gives second-order accuracy without kernel derivatives.

The observable prediction combines the diagonal gamma(t, t)^2 with the
undriven series:  a_pred(t) = a_th + gamma(t, t)^2 * (a_undriven(t) - a_th).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import profiles, protocols
from .approximations import r_scale_array
from .errors import GridMismatchError, SolverBlowUpError

BLOWUP_THRESHOLD = 10.0  # diagnostic, not physics; tunable
OVERSHOOT_TOL = 0.05  # |gamma| may exceed 1 by at most this before warning


@dataclass(frozen=True)
class ResponseSolution:
    """gamma(t_i, t_prime) on the uniform grid t_i = i*h."""

    t_grid: np.ndarray
    gamma: np.ndarray
    t_prime: float
    phi1: float
    phi2: float


@dataclass(frozen=True)
class PredictionSeries:
    """Observable prediction assembled from gamma(t, t)^2 and the undriven series."""

    t_grid: np.ndarray
    gamma_sq: np.ndarray
    undriven: np.ndarray
    a_th: float
    a_pred: np.ndarray


def _volterra_heun(kernel: np.ndarray, h: float, dtype=float) -> np.ndarray:
    """Heun predictor-corrector for gamma' = -(gamma * gamma K)(t), gamma(0)=1."""
    n = len(kernel) - 1
    g = np.empty(n + 1, dtype=dtype)
    c = np.empty(n + 1, dtype=dtype)  # c_j = gamma_j * K_j
    g[0] = 1.0
    c[0] = kernel[0]
    d_prev = 0.0  # derivative at t_0: integral over an empty range
    for i in range(n):
        g_pred = g[i] + h * d_prev
        inner = np.dot(g[i:0:-1], c[1 : i + 1]) if i >= 1 else 0.0
        d_pred = -h * (0.5 * g_pred * (kernel[0] + kernel[i + 1]) + inner)
        g[i + 1] = g[i] + 0.5 * h * (d_prev + d_pred)
        if abs(g[i + 1]) > BLOWUP_THRESHOLD:
            raise SolverBlowUpError((i + 1) * h, g[i + 1])
        c[i + 1] = g[i + 1] * kernel[i + 1]
        d_prev = -h * (0.5 * g[i + 1] * (kernel[0] + kernel[i + 1]) + inner)
    return g


def _kernel(
    phi1: float,
    phi2: float,
    v_grid: np.ndarray,
    vdd_grid: np.ndarray,
) -> np.ndarray:
    # phi2 == 0.0 multiplies out exactly, so the first-order mode is the
    # same code path bit for bit.
    return phi1 * v_grid - phi2 * vdd_grid


def solve_gamma(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t_prime: float,
    h: float,
    n: int,
    debug_complex: bool = False,
) -> ResponseSolution:
    """Solve for gamma(t, t_prime) on t_i = i*h, i = 0..n.

    phi1 and phi2 are evaluated once at t_prime and held fixed; they are
    parameters of the equation, not functions of the integration variable.
    With debug_complex=True the solve runs in complex arithmetic and checks
    that the result is real to 1e-10 (the kernel is real for even profiles).
    """
    if not (h > 0 and np.isfinite(h)):
        raise ValueError("step size h must be positive")
    if n < 1:
        raise ValueError("need at least one step")
    if t_prime < 0:
        raise ValueError("t_prime must be >= 0")
    ints = protocols.integrals(protocol, t_prime)
    t_grid = np.arange(n + 1) * h
    kern = _kernel(ints.phi1, ints.phi2, profiles.v_of_t(profile, t_grid),
                   profiles.v_second_deriv(profile, t_grid))
    if debug_complex:
        g_c = _volterra_heun(kern.astype(complex), h, dtype=complex)
        max_imag = float(np.max(np.abs(g_c.imag)))
        if max_imag >= 1e-10:
            raise AssertionError(f"complex solve grew an imaginary part ({max_imag:.3e})")
        g = g_c.real.copy()
    else:
        g = _volterra_heun(kern, h)
    overshoot = float(np.max(np.abs(g))) - 1.0
    if overshoot > OVERSHOOT_TOL:
        warnings.warn(
            f"|gamma| overshoots 1 by {overshoot:.3g}; the grid may be too coarse",
            RuntimeWarning,
            stacklevel=2,
        )
    return ResponseSolution(t_grid, g, float(t_prime), ints.phi1, ints.phi2)


def gamma_diagonal_values(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    h: float,
    n: int,
) -> np.ndarray:
    """Signed diagonal gamma(t_i, t_i) for t_i = i*h, i = 0..n.

    Each diagonal point is an independent solve of the response equation on
    [0, t_i] with t' = t_i.  This is the O(n^3) hot loop.
    """
    if n < 1:
        raise ValueError("need at least one grid point beyond t = 0")
    t_grid = np.arange(n + 1) * h
    v_grid = profiles.v_of_t(profile, t_grid)
    vdd_grid = profiles.v_second_deriv(profile, t_grid)
    phi1, phi2 = protocols.phi_arrays(protocol, t_grid)
    out = np.empty(n + 1)
    out[0] = 1.0
    for i in range(1, n + 1):
        kern = _kernel(phi1[i], phi2[i], v_grid[: i + 1], vdd_grid[: i + 1])
        try:
            out[i] = _volterra_heun(kern, h)[-1]
        except SolverBlowUpError as exc:
            raise SolverBlowUpError(t_grid[i], exc.value) from exc
    return out


def gamma_diagonal(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    h: float,
    n: int,
) -> np.ndarray:
    """|gamma(t_i, t_i)|^2 on t_i = i*h; the response weight entering predictions."""
    return gamma_diagonal_values(profile, protocol, h, n) ** 2


def predict_observable(
    t_grid: np.ndarray,
    gamma_sq: np.ndarray,
    undriven: np.ndarray,
    a_th: float,
) -> PredictionSeries:
    """a_pred = a_th + gamma_sq * (undriven - a_th), pointwise on a shared grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    gamma_sq = np.asarray(gamma_sq, dtype=float)
    undriven = np.asarray(undriven, dtype=float)
    if not (t_grid.shape == gamma_sq.shape == undriven.shape):
        raise GridMismatchError(
            f"series lengths differ: t {t_grid.shape}, gamma_sq {gamma_sq.shape}, "
            f"undriven {undriven.shape}"
        )
    a_pred = a_th + gamma_sq * (undriven - a_th)
    return PredictionSeries(t_grid, gamma_sq, undriven, float(a_th), a_pred)


def default_step(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t_max: float,
    points_per_scale: int = 40,
) -> float:
    """Step resolving the fastest of the driving, profile and response scales.

    h = min(T, 1/Sigma_0, 1/max_t' r(t')) / points_per_scale, with the strong-
    driving scale r probed on a coarse grid over (0, t_max].
    """
    scales = [1.0 / profiles.moment(profile, 0)]
    ts = protocol.timescale()
    if ts is not None:
        scales.append(ts)
    probe = np.linspace(t_max / 200, t_max, 200)
    r_max = float(np.max(r_scale_array(profile, protocol, probe)))
    if r_max > 0:
        scales.append(1.0 / r_max)
    return min(scales) / points_per_scale
