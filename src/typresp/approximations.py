"""Closed-form limits of the response function.

gamma(t, t') depends on t' only through phi1(t') and phi2(t'), so every form
here takes those values (or the scale r built from them), never a protocol;
a caller evaluates phi once per grid.  Two analytic regimes bracket the full
solver:

* strong, short-ranged-in-energy driving: gamma(t, t') = 2 J1(r t)/(r t)
  with the scale r^2 = 4 vtilde(0) D0 [Sigma_0 phi1 + Sigma_2 phi2];
  trusted when the margin r/Sigma_0 exceeds VALID_MARGIN.  It is evaluated
  as J0 + J2 (the Bessel recurrence), which is exactly 1 at r t = 0.
* fast driving (first-order average), a function of phi1 alone: the
  three-exponential expression in the rates r_hat = pi vtilde(0) phi1 D0
  and r_n = (Sigma_0/pi)(1 + n s) is the square
  [e^{-y} (cosh(s y) + sinh(s y)/s)]^2, y = Sigma_0 t / (2 pi),
  s^2 = 1 - 2 pi r_hat / Sigma_0.  The bracket is entire in s^2, so one
  expression covers s^2 > 0, s^2 < 0 and s = 0.  For weak amplitudes it
  collapses to exp(-r_hat t).

Every function of time takes its arguments as numpy does and
returns their broadcast shape (scalars give 0-d results); `r`, `phi1`,
`phi2` and `t` broadcast against each other.  Powers and complex arithmetic
on such values are ufunc calls (np.square, np.power, np.multiply, np.add),
for the reason given in `protocols`.
"""

from __future__ import annotations

import numpy as np
from scipy.special import jv

from . import profiles

VALID_MARGIN = 3.0  # operational reading of "r much larger than Sigma_0"

# ---------------------------------------------------------------------------
# strong / short-ranged driving
# ---------------------------------------------------------------------------


def r_scale(profile: profiles.PerturbationProfile, phi1, phi2):
    """r = sqrt(4 vtilde(0) d0 [Sigma_0 phi1 + Sigma_2 phi2]); phi1 and phi2 broadcast."""
    s0, s2 = profiles.moment(profile, 0), profiles.moment(profile, 2)
    return np.sqrt(4.0 * profile.v0 * profile.d0 * (s0 * phi1 + s2 * phi2))


def _times(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):  # checked on t itself: a zero rate or scale hides the sign of t
        raise ValueError("time must be >= 0")
    return t


def strong_driving_gamma(r, t):
    """gamma = 2 J1(x)/x = J0(x) + J2(x) at x = r t, exactly 1 at x = 0.

    jv(0, x) rather than j0, whose error grows with x (1.3e-15 near x = 257);
    r (e.g. r(t') on the diagonal) broadcasts against t.
    """
    if np.any(np.asarray(r) < 0):
        raise ValueError("scale r must be >= 0")
    x = _times(t) * r
    return jv(0, x) + jv(2, x)


# ---------------------------------------------------------------------------
# fast driving
# ---------------------------------------------------------------------------


def fast_driving_gamma(profile: profiles.PerturbationProfile, phi1, t):
    """First-order (high-frequency) gamma(t, t') of phi1 = phi1(t'); exactly 1 at t = 0.

    The bracket b = e^{-(1-s) y} [(1 + e^{-u})/2 + y q(u)], u = 2 s y and
    q(u) = (1 - e^{-u})/u, is e^{-y} (cosh(s y) + sinh(s y)/s) without
    overflow; 1 - s is formed as (1 - s^2)/(1 + s), which keeps its digits
    near s = 1.  s is imaginary when 2 pi r_hat > Sigma_0, where b must come
    out real.  phi1 broadcasts against t.
    """
    t = _times(t)
    s0 = profiles.moment(profile, 0)
    a = 2.0 * np.pi**2 * profile.v0 * phi1 * profile.d0 / s0  # 2 pi r_hat / Sigma_0 = 1 - s^2
    s = np.sqrt(np.subtract(1.0, a, dtype=complex))
    y = s0 / (2.0 * np.pi) * t
    u = np.multiply(np.multiply(2.0, s), y)
    q = np.divide(-np.expm1(-u), u, out=np.ones_like(u), where=u != 0)  # q(0) = 1
    b = np.multiply(np.exp(np.multiply(-np.divide(a, np.add(1.0, s)), y)),
                    np.add(np.multiply(0.5, np.add(1.0, np.exp(-u))), np.multiply(y, q)))
    max_imag = float(np.max(np.abs(b.imag), initial=0.0))
    if max_imag >= 1e-10:
        raise AssertionError(f"high-frequency gamma grew an imaginary part ({max_imag:.3e})")
    return np.square(b.real)


def weak_fast_gamma(profile: profiles.PerturbationProfile, phi1, t):
    """Weak-amplitude fast-driving form exp(-r_hat t); phi1 = phi1(t') broadcasts against t."""
    return np.exp(-np.pi * profile.v0 * phi1 * profile.d0 * _times(t))


def crossover_amplitude(profile: profiles.PerturbationProfile, epsilon: float) -> float:
    """Amplitude separating weak from strong response, sqrt(2 eps delta_v / (pi^2 vtilde(0))).

    Specific to the exponential profile; epsilon is the mean level spacing.
    """
    if profile.variant != "exponential":
        raise ValueError("crossover formula applies to the exponential profile only")
    if epsilon < 0:
        raise ValueError("level spacing must be >= 0")
    return float(np.sqrt(2.0 * epsilon * profile.delta_v / (np.pi**2 * profile.v0)))
