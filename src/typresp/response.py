"""Numerical solver for the response function gamma(t, t').

gamma obeys the nonlinear Volterra integro-differential equation

    d gamma(t, t') / dt = - int_0^t ds gamma(t-s, t') gamma(s, t') K(s),
    K(s) = phi1(t') v(s) - phi2(t') v''(s),        gamma(0, t') = 1,

where phi1/phi2 are protocol constants evaluated once at the auxiliary time
t' and v is the profile's time-domain transform.  The kernel is smooth, so
an explicit trapezoidal predictor-corrector (Heun) step with trapezoidal
convolution gives second-order accuracy without kernel derivatives.

gamma depends on t' only through (phi1, phi2), so one Heun kernel advances a
batch of rows in lock step.  `gamma_rows` solves exactly the rows a caller
names, each by its t' and its last step, and judges each by the one overshoot rule;
`solve_gamma` is its one-row call and `gamma_diagonal_values` its call along the
diagonal.  A row takes 16 bytes a step.

The observable prediction combines the diagonal gamma(t, t)^2 with the
undriven series:  a_pred(t) = a_th + gamma(t, t)^2 * (a_undriven(t) - a_th).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import profiles, protocols
from .approximations import r_scale
from .errors import GridMismatchError, SolverBlowUpError

BLOWUP_THRESHOLD = 10.0  # diagnostic, not physics; tunable
OVERSHOOT_TOL = 0.05  # |gamma| may exceed 1 by at most this before warning
POINTS_PER_SCALE = 40  # default_step: grid points per fastest time scale


@dataclass(frozen=True)
class ResponseSolution:
    """gamma(t_i, t') on the uniform grid t_i = i*h."""

    gamma: np.ndarray


def _volterra_heun(phi1, phi2, v_grid, vdd_grid, h: float, ends) -> np.ndarray:
    """Heun predictor-corrector for a batch of rows gamma_r(t_i), gamma_r(0) = 1.

    Row r has the kernel K_r = phi1[r] v - phi2[r] v'' and runs to step ends[r]
    (ascending).  At step i the rows with ends > i advance together, with the
    step's kernel column built on the fly.  Returns g, rows x (n + 1), with
    g[r, :ends[r] + 1] filled; g and c = gamma K take 16 rows (n + 1) bytes.
    """
    rows, n = len(ends), int(ends[-1])
    g = np.empty((rows, n + 1))
    c = np.empty((rows, n + 1))  # c_j = gamma_j * K_j
    k0 = phi1 * v_grid[0] - phi2 * vdd_grid[0]
    g[:, 0] = 1.0
    c[:, 0] = k0
    d_prev = np.zeros(rows)  # derivative at t_0: integral over an empty range
    for i in range(n):
        a = slice(int(np.searchsorted(ends, i, side="right")), rows)  # rows with ends > i
        # phi2 == 0.0 multiplies out exactly, so the first-order mode is the
        # same arithmetic bit for bit
        k = phi1[a] * v_grid[i + 1] - phi2[a] * vdd_grid[i + 1]
        g_i = g[a, i]
        inner = np.einsum("ij,ij->i", g[a, i:0:-1], c[a, 1 : i + 1])
        d_pred = -h * (0.5 * (g_i + h * d_prev[a]) * (k0[a] + k) + inner)
        g_next = g_i + 0.5 * h * (d_prev[a] + d_pred)
        over = ~(np.abs(g_next) <= BLOWUP_THRESHOLD)  # a NaN step blows up too
        if over.any():
            raise SolverBlowUpError((i + 1) * h, g_next[np.argmax(over)])
        g[a, i + 1] = g_next
        c[a, i + 1] = g_next * k
        d_prev[a] = -h * (0.5 * g_next * (k0[a] + k) + inner)
    return g


def _grid(h: float, n: int) -> np.ndarray:
    if not (h > 0 and np.isfinite(h)):
        raise ValueError(f"step size h must be positive and finite, got {h!r}")
    if n < 1:
        raise ValueError(f"need at least one step beyond t = 0, got n = {n!r}")
    return np.arange(n + 1) * h


def gamma_rows(profile, protocol, h: float, t_primes, ends) -> np.ndarray:
    """g with g[r, i] = gamma(t_i, t_primes[r]), t_i = i*h, i <= ends[r] (ascending): one
    kernel call solves exactly these rows, raising SolverBlowUpError at the first bad step.
    The one overshoot rule warns if |gamma| on any row's filled part passes 1 + OVERSHOOT_TOL."""
    ends = np.asarray(ends)
    if ends.shape != (len(t_primes),) or not ends.size or np.any(np.diff(ends, prepend=0) < 0):
        raise ValueError(f"ends must give one nonnegative, ascending step per t', got {ends!r}")
    t_grid = _grid(h, int(ends[-1]))
    v, vdd = profiles.v_of_t(profile, t_grid), profiles.v_second_deriv(profile, t_grid)
    g = _volterra_heun(*protocols.phi_arrays(protocol, t_primes), v, vdd, h, ends)
    overshoot = max(float(np.max(np.abs(row[: e + 1]))) for row, e in zip(g, ends)) - 1.0
    if overshoot > OVERSHOOT_TOL:
        warnings.warn(f"|gamma| overshoots 1 by {overshoot:.3g}; the grid may be too coarse",
                      RuntimeWarning, stacklevel=2)
    return g


def solve_gamma(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t_prime: float,
    h: float,
    n: int,
) -> ResponseSolution:
    """Solve for gamma(t, t_prime) on t_i = i*h, i = 0..n.

    phi1 and phi2 are evaluated once at t_prime and held fixed; they are
    parameters of the equation, not functions of the integration variable.
    This is the one-row call of gamma_rows (16 (n + 1) bytes), and warns by its rule.
    """
    return ResponseSolution(gamma_rows(profile, protocol, h, [t_prime], [n])[0])


def gamma_diagonal_values(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    h: float,
    n: int,
) -> np.ndarray:
    """Signed diagonal gamma(t_i, t_i) for t_i = i*h, i = 0..n.

    Row i of gamma_rows has t' = t_i and ends at step i: 16 (n + 1)^2 bytes (5.8 MB
    at n = 600).  A blow-up raises SolverBlowUpError at the first step where a row
    passed the threshold.
    """
    return gamma_rows(profile, protocol, h, _grid(h, n), np.arange(n + 1)).diagonal().copy()


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
) -> np.ndarray:
    """a_pred = a_th + gamma_sq * (undriven - a_th), pointwise on a shared grid t_grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    gamma_sq = np.asarray(gamma_sq, dtype=float)
    undriven = np.asarray(undriven, dtype=float)
    if not (t_grid.shape == gamma_sq.shape == undriven.shape):
        raise GridMismatchError(
            f"series lengths differ: t {t_grid.shape}, gamma_sq {gamma_sq.shape}, "
            f"undriven {undriven.shape}"
        )
    return a_th + gamma_sq * (undriven - a_th)


def default_step(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t_max: float,
) -> float:
    """Step resolving the fastest of the driving, profile and response scales.

    h = min(T, 1/Sigma_0, 1/max_t' r(t')) / POINTS_PER_SCALE, with the strong-
    driving scale r probed on a coarse grid over (0, t_max].
    """
    scales = [1.0 / profiles.moment(profile, 0)]
    ts = protocol.timescale()
    if ts is not None:
        scales.append(ts)
    probe = np.linspace(t_max / 200, t_max, 200)
    r_max = float(np.max(r_scale(profile, *protocols.phi_arrays(protocol, probe))))
    if r_max > 0:
        scales.append(1.0 / r_max)
    return min(scales) / POINTS_PER_SCALE
