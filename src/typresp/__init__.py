"""Nonlinear response of driven many-body quantum systems.

The package solves the nonlinear Volterra equation for the response function
gamma(t, t'), provides its strong-driving (Bessel) and fast-driving
(exponential-sum) limits, and validates everything against numerically
exact random-matrix dynamics under H(t) = H0 + f(t) V.
"""

# the one place the version is kept: pyproject.toml and the harness read it
__version__ = "0.1.0"

from . import approximations, errors, harness, profiles, protocols, response, rmt
