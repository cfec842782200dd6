"""The self-consistent resolvent route: an independent oracle for the Volterra solver.

It solves

    G(z, t') = 1 / ( z - int dE D0 G(z - E, t') [phi1 + E^2 phi2] vtilde(E) )

on a uniform energy grid just below the real axis (z = E - i eta) by damped
fixed-point iteration, and reconstructs gamma(t) = (1/pi) int dE e^{iEt}
Im G(E - i eta) with an e^{eta t} factor compensating the regularization.
Im G and Im z keep opposite signs throughout.  No command reaches this route;
the tests compare it with `response.solve_gamma` and with the strong-driving
closed form.  The module has no `test_` prefix, so pytest imports it without
collecting it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from typresp import profiles
from typresp.approximations import r_scale

RESOLVENT_DAMPING = 0.5  # weight of the new iterate in the fixed-point update
RESOLVENT_TOL = 1e-10  # sup-change of G at which the iteration stops


class ResolventConvergenceError(RuntimeError):
    """The damped fixed-point iteration for the resolvent did not converge."""


@dataclass(frozen=True)
class ResolventGrid:
    """G(E - i eta) of one (phi1, phi2) pair, sampled on a uniform energy grid."""

    e_grid: np.ndarray
    eta: float
    g: np.ndarray

    def spectral_function(self) -> np.ndarray:
        """u(E) = (1/pi) Im G(E - i eta); integrates to ~1 on an adequate grid."""
        return self.g.imag / np.pi


def default_eta(e_grid: np.ndarray) -> float:
    """eta = 4 grid spacings: resolves the discretized spectral function while
    keeping the exp(eta t) compensation below exp(0.5) for t <= 1/(2 eta)."""
    return 4.0 * float(e_grid[1] - e_grid[0])


def resolvent_solve(
    profile: profiles.PerturbationProfile,
    phi1: float,
    phi2: float,
    e_grid: np.ndarray,
    eta: float,
    max_iter: int = 10_000,
) -> ResolventGrid:
    """Damped fixed-point solve of the self-consistent resolvent equation.

    The energy integral is a discrete convolution of G with the weight
    d0 [phi1 + E^2 phi2] vtilde(E) on the shared grid spacing; G is padded
    with the free resolvent 1/z beyond the grid.  Each update is damped by
    RESOLVENT_DAMPING (plain iteration diverges for large phi1), and the
    iteration stops when the sup-change drops below RESOLVENT_TOL.
    """
    e_grid = np.asarray(e_grid, dtype=float)
    if e_grid.ndim != 1 or e_grid.size < 8:
        raise ValueError("e_grid must be a 1-d grid with at least 8 points")
    de = np.diff(e_grid)
    if not np.allclose(de, de[0], rtol=1e-9, atol=0.0):
        raise ValueError("e_grid must be uniform")
    de = float(de[0])
    if not (eta > 0):
        raise ValueError("eta must be positive")
    if phi1 < 0 or phi2 < 0:
        raise ValueError("phi1 and phi2 are squares and must be >= 0")

    s0 = profiles.moment(profile, 0)
    need = 5.0 * max(r_scale(profile, phi1, phi2), s0)
    if e_grid[0] > -need or e_grid[-1] < need:
        raise ValueError(
            f"e_grid must span at least [-{need:.3g}, {need:.3g}] "
            f"(got [{e_grid[0]:.3g}, {e_grid[-1]:.3g}])"
        )

    # convolution weights on the offset grid, truncated where negligible
    if profile.variant == "tabulated":
        e_support = float(profile.energies[-1])
    else:
        e_support = 45.0 * profile.delta_v
    m = max(1, int(np.ceil(e_support / de)))
    e_off = de * np.arange(-m, m + 1)
    w = profile.d0 * (phi1 + phi2 * e_off**2) * profile.vtilde(e_off) * de
    keep = w > 1e-14 * w.max()
    half = int(np.max(np.abs(np.nonzero(keep)[0] - m))) if np.any(keep) else 0
    w, m = w[m - half : m + half + 1], half  # w is elementwise in E: the slice is exact

    z = e_grid - 1j * eta
    pad_left = (e_grid[0] - de * np.arange(m, 0, -1)) - 1j * eta
    pad_right = (e_grid[-1] + de * np.arange(1, m + 1)) - 1j * eta
    g = 1.0 / z
    free_left = 1.0 / pad_left
    free_right = 1.0 / pad_right

    # the "valid" part of the linear convolution g_pad * w, by FFT with the
    # fixed weights transformed once
    n_fft = 1 << (len(g) + 4 * m - 1).bit_length()
    w_hat = np.fft.fft(w, n_fft)
    valid = slice(2 * m, 2 * m + len(g))
    for _ in range(max_iter):
        g_pad = np.concatenate((free_left, g, free_right))
        sigma = np.fft.ifft(np.fft.fft(g_pad, n_fft) * w_hat)[valid]
        g_new = (1.0 - RESOLVENT_DAMPING) * g + RESOLVENT_DAMPING / (z - sigma)
        change = float(np.max(np.abs(g_new - g)))
        g = g_new
        if change < RESOLVENT_TOL:
            break
    else:
        raise ResolventConvergenceError(
            f"no convergence after {max_iter} iterations (last change {change:.3e})"
        )
    if not np.all(g.imag > 0):
        raise ResolventConvergenceError("Im G lost its sign (must oppose Im z)")
    return ResolventGrid(e_grid=e_grid, eta=float(eta), g=g)


def gamma_from_resolvent(rg: ResolventGrid, t):
    """gamma(t) from the spectral function by trapezoidal Fourier quadrature.

    Multiplies by exp(eta t) to compensate the Lorentzian broadening of the
    finite regularization (exact for the broadening itself; grid truncation
    limits the accuracy to the 1e-2/2e-2 level).  Warns for t > 1/(2 eta).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t > 0.5 / rg.eta):
        warnings.warn(
            f"t exceeds the resolution limit 1/(2 eta) = {0.5 / rg.eta:.3g}; "
            "the reconstruction degrades there",
            RuntimeWarning,
            stacklevel=2,
        )
    u = rg.spectral_function()
    phases = np.exp(1j * (t[..., None] * rg.e_grid))
    return np.trapezoid(phases * u, rg.e_grid, axis=-1).real * np.exp(rg.eta * t)


def resolvent_closed_form(r: float, z):
    """Strong-driving resolvent G(z) = (2/r^2)[z - i sgn(Im z) sqrt(r^2 - z^2)].

    Principal square root; Im G and Im z have opposite signs, and G -> 1/z
    for |z| -> infinity.
    """
    z = np.asarray(z, dtype=complex)
    sgn = np.where(z.imag >= 0, 1.0, -1.0)
    return (2.0 / r**2) * (z - 1j * sgn * np.sqrt(r * r - z * z))
