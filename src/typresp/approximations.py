"""Closed-form limits of the response function and the resolvent route.

Two analytic regimes bracket the full solver:

* strong, short-ranged-in-energy driving: gamma(t, t') = 2 J1(r t)/(r t)
  with the scale r(t')^2 = 4 vtilde(0) D0 [Sigma_0 phi1 + Sigma_2 phi2];
  trusted when the margin r/Sigma_0 exceeds VALID_MARGIN.
* fast driving (first-order average): a three-exponential expression in the
  rates r_hat = pi vtilde(0) phi1 D0 and r_n = (Sigma_0/pi)(1 + n s),
  s = sqrt(1 - 2 pi r_hat / Sigma_0); for weak amplitudes it collapses to
  exp(-r_hat t).

The resolvent route solves the self-consistent equation

    G(z, t') = 1 / ( z - int dE D0 G(z - E, t') [phi1 + E^2 phi2] vtilde(E) )

on a uniform energy grid just below the real axis (z = E - i eta) by damped
fixed-point iteration, and reconstructs gamma(t) = (1/pi) int dE e^{iEt}
Im G(E - i eta) with an e^{eta t} factor compensating the regularization.
Im G and Im z keep opposite signs throughout.

Every function of time or energy takes its arguments as numpy does and
returns their broadcast shape (scalars give 0-d results); `r`, `t` and
`t_prime` broadcast against each other.  Powers and complex products of such
values are ufunc calls (np.square, np.power, np.multiply), for the reason
given in `protocols`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import j1 as bessel_j1  # public name of J1 in this package

from . import profiles, protocols
from .errors import ResolventConvergenceError

VALID_MARGIN = 3.0  # operational reading of "r much larger than Sigma_0"
RESOLVENT_DAMPING = 0.5  # weight of the new iterate in the fixed-point update
RESOLVENT_TOL = 1e-10  # sup-change of G at which the iteration stops

# ---------------------------------------------------------------------------
# strong / short-ranged driving
# ---------------------------------------------------------------------------


def r_scale_array(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t,
) -> np.ndarray:
    """r(t) = sqrt(4 vtilde(0) d0 [Sigma_0 phi1(t) + Sigma_2 phi2(t)]) in the shape of t."""
    phi1, phi2 = protocols.phi_arrays(protocol, t)
    s0 = profiles.moment(profile, 0)
    s2 = profiles.moment(profile, 2)
    return np.sqrt(4.0 * profile.v0 * profile.d0 * (s0 * phi1 + s2 * phi2))


def strong_driving_gamma(r, t):
    """gamma = 2 J1(r t) / (r t), with the series limit 1 at r t = 0.

    r (e.g. r(t') on the diagonal) broadcasts against t.
    """
    if np.any(np.asarray(r) < 0):
        raise ValueError("scale r must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):  # checked on t itself: r = 0 makes x = r t look >= 0
        raise ValueError("time must be >= 0")
    x = t * r
    tiny = x < 1e-3
    xs = np.where(tiny, 1.0, x)  # keeps the J1 branch off 0/0
    series = 1.0 - np.square(x) / 8.0 + np.power(x, 4) / 192.0
    return np.where(tiny, series, 2.0 * bessel_j1(xs) / xs)


# ---------------------------------------------------------------------------
# fast driving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FastDrivingRates:
    """Rates of the first-order (high-frequency) form; complex when 2 pi r_hat > Sigma_0."""

    r_hat: np.ndarray
    r_minus1: np.ndarray
    r_0: float
    r_plus1: np.ndarray


# below this |1 - 2 pi r_hat/Sigma_0| the three-exponential form is evaluated
# as a series in the degeneracy parameter (keeps roundoff well under the
# 1e-10 reality check; the closed form loses ~|disc|^-1 digits there)
_DEGENERATE_CUT = 1e-5


def fast_rates(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t_prime,
) -> FastDrivingRates:
    """r_hat(t') and r_n(t') in the shape of t'; r_0 is independent of t'."""
    phi1 = protocols.phi_arrays(protocol, t_prime)[0]
    s0 = profiles.moment(profile, 0)
    r_hat = np.pi * profile.v0 * phi1 * profile.d0
    r0 = s0 / np.pi
    s = np.sqrt((1.0 - 2.0 * np.pi * r_hat / s0).astype(complex))
    return FastDrivingRates(r_hat, r0 * (1.0 - s), float(r0), r0 * (1.0 + s))


def fast_driving_gamma(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t,
    t_prime,
):
    """First-order (high-frequency) gamma(t, t'); equals 1 at t = 0 identically.

    t and t_prime broadcast against each other (the diagonal is t = t_prime);
    each element near the degenerate point 2 pi r_hat = Sigma_0 takes the
    series branch on its own.
    """
    rates = fast_rates(profile, protocol, t_prime)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
    r0, rh, rm, rp = rates.r_0, rates.r_hat, rates.r_minus1, rates.r_plus1
    disc = 1.0 - 2.0 * rh / r0  # = 1 - 2 pi r_hat / Sigma_0 = s^2
    series = np.abs(disc) < _DEGENERATE_CUT
    x = r0 * t
    with np.errstate(divide="ignore", invalid="ignore"):  # r0 = 2 rh: a series element
        num = np.multiply(rp - rh, np.exp(-rm * t)) - 2.0 * rh * np.exp(-r0 * t)
        val = (num + np.multiply(rm - rh, np.exp(-rp * t))) / (2.0 * (r0 - 2.0 * rh))
    max_imag = float(np.max(np.abs(np.where(series, 0.0, val.imag))))
    if max_imag >= 1e-10:
        raise AssertionError(f"high-frequency gamma grew an imaginary part ({max_imag:.3e})")
    return np.where(series, np.exp(-x) * (
        (1.0 + x + 0.25 * x * x) + disc * (0.25 * x * x + np.power(x, 3) / 6.0
                                           + np.power(x, 4) / 48.0)
    ), val.real)


def weak_fast_gamma(
    profile: profiles.PerturbationProfile,
    protocol: protocols.DrivingProtocol,
    t,
    t_prime,
):
    """Weak-amplitude fast-driving form exp(-r_hat(t') |t|); t and t_prime broadcast."""
    r_hat = fast_rates(profile, protocol, t_prime).r_hat
    return np.exp(-r_hat * np.abs(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# resolvent route
# ---------------------------------------------------------------------------


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
    s2 = profiles.moment(profile, 2)
    r = np.sqrt(4.0 * profile.v0 * profile.d0 * (s0 * phi1 + s2 * phi2))
    need = 5.0 * max(r, s0)
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


def crossover_amplitude(profile: profiles.PerturbationProfile, epsilon: float) -> float:
    """Amplitude separating weak from strong response, sqrt(2 eps delta_v / (pi^2 vtilde(0))).

    Specific to the exponential profile; epsilon is the mean level spacing.
    """
    if profile.variant != "exponential":
        raise ValueError("crossover formula applies to the exponential profile only")
    if epsilon < 0:
        raise ValueError("level spacing must be >= 0")
    return float(np.sqrt(2.0 * epsilon * profile.delta_v / (np.pi**2 * profile.v0)))
