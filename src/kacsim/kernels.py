"""Angular collision kernels with finite total mass.

A kernel is a finite measure beta(d theta) on (0, pi] describing the law and
intensity of the deflection angle.  Every kernel here is normalized so that

    integral sin(theta)^2 beta(d theta) = 1,

which pins the overall time scale of the dynamics, while the total mass

    b0 = integral beta(d theta) < infinity

sets the event rate.  Three families are provided:

* ``dirac``     -- all mass at a single angle theta0,
* ``uniform``   -- constant density on [theta_min, pi],
* ``power_law`` -- density proportional to theta^(-nu-1) on [theta_min, pi].

The dirac and uniform normalizations are closed forms; the power law's
sin^2-weighted mass comes from ``scipy.integrate.quad`` at relative
tolerance LEVY_QUAD_TOL, imported on first use.  Sampling uses a tabulated
inverse CDF (4096 nodes, log-spaced toward theta_min for the power law)
with linear interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "KernelError",
    "NonIntegrable",
    "BadAngle",
    "AngularKernel",
    "make_kernel",
]

TABLE_NODES = 4096
LEVY_QUAD_TOL = 1e-12
# Effective lower cut used only to grade the table when theta_min == 0.
ZERO_CUT = np.pi * 1e-7


class KernelError(ValueError):
    pass


class NonIntegrable(KernelError):
    """Total mass of the requested kernel diverges."""


class BadAngle(KernelError):
    """Angle parameter outside its legal range."""


@dataclass(frozen=True)
class AngularKernel:
    """Normalized angular measure plus its sampling table.

    ``b0`` is the total mass, the per-pair jump intensity; an n-particle
    system fires events at rate (n - 1) b0 / 2 (system.event_rate).
    ``levy_constant`` multiplies the family's base density so that the
    sin^2-weighted mass is one.  ``table_u``/``table_theta`` tabulate the
    inverse CDF of the probability law beta/b0.
    """

    family: str
    params: dict
    b0: float
    levy_constant: float
    table_u: np.ndarray = field(repr=False)
    table_theta: np.ndarray = field(repr=False)

    def density(self, theta):
        """Density of beta with respect to d theta (dirac has none)."""
        theta = np.asarray(theta, dtype=np.float64)
        c = self.levy_constant
        if self.family == "dirac":
            raise KernelError("dirac kernel has no density")
        if self.family == "uniform":
            lo = self.params["theta_min"]
            return np.where((theta >= lo) & (theta <= np.pi), c, 0.0)
        lo, nu = self.params["theta_min"], self.params["nu"]
        out = np.where((theta >= lo) & (theta <= np.pi) & (theta > 0),
                       c * np.power(np.maximum(theta, 1e-300), -nu - 1.0), 0.0)
        return out

    def sample(self, rng, size=None):
        """Draw deflection angles from the normalized law beta/b0."""
        if self.family == "dirac":
            theta0 = self.params["theta0"]
            if size is None:
                return theta0
            return np.full(size, theta0)
        u = rng.random(size)
        return np.interp(u, self.table_u, self.table_theta)


def _uniform_cdf_nodes(theta_min):
    theta = np.linspace(theta_min, np.pi, TABLE_NODES)
    u = (theta - theta_min) / (np.pi - theta_min)
    return u, theta


def _power_mass(theta, theta_min, nu):
    """integral_{theta_min}^{theta} t^(-nu-1) dt: theta^(-nu) / (-nu) at
    theta_min = 0 (nu < 0 there), otherwise spelled
    theta_min^(-nu) expm1(-nu log(theta/theta_min)) / (-nu) so that it does
    not cancel near nu = 0, where it tends to log(theta/theta_min)."""
    if theta_min == 0.0:
        return np.power(theta, -nu) / (-nu)
    log_ratio = np.log(theta / theta_min)
    if nu == 0.0:
        return log_ratio
    return np.power(theta_min, -nu) * np.expm1(-nu * log_ratio) / (-nu)


def _power_cdf_nodes(theta_min, nu):
    lo = theta_min if theta_min > 0 else ZERO_CUT
    theta = np.geomspace(lo, np.pi, TABLE_NODES)
    if theta_min == 0.0:
        # prepend the exact origin; the mass below ZERO_CUT is negligible
        # and the inverse CDF is near-linear there (nu < 0 guaranteed here)
        theta = np.concatenate(([0.0], theta))
    u = _power_mass(theta, theta_min, nu) / _power_mass(np.pi, theta_min, nu)
    u[0] = 0.0
    u[-1] = 1.0
    return u, theta


def make_kernel(family, **params):
    """Construct a Levy-normalized angular kernel.

    dirac:     theta0 in (0, pi)
    uniform:   theta_min in [0, pi)
    power_law: nu < 2, theta_min in [0, pi); theta_min > 0 required when
               nu >= 0 (otherwise the total mass diverges)
    """
    if family == "dirac":
        theta0 = float(params["theta0"])
        s = np.sin(theta0)
        if not (0.0 < theta0 < np.pi) or s == 0.0:
            raise BadAngle(f"dirac angle {theta0} has sin(theta0)^2 = 0")
        c = 1.0 / (s * s)
        table_u = np.array([0.0, 1.0])
        table_theta = np.array([theta0, theta0])
        return AngularKernel("dirac", {"theta0": theta0}, b0=c, levy_constant=c,
                             table_u=table_u, table_theta=table_theta)

    if family in ("uniform", "power_law"):
        theta_min = float(params["theta_min"])
        if not (0.0 <= theta_min < np.pi):
            raise BadAngle(f"theta_min {theta_min} outside [0, pi)")

    if family == "uniform":
        # integral of sin^2 from theta_min to pi in closed form
        levy_mass = (np.pi - theta_min) / 2.0 + np.sin(2.0 * theta_min) / 4.0
        c = 1.0 / levy_mass
        b0 = c * (np.pi - theta_min)
        u, theta = _uniform_cdf_nodes(theta_min)
        return AngularKernel("uniform", {"theta_min": theta_min}, b0=b0,
                             levy_constant=c, table_u=u, table_theta=theta)

    if family == "power_law":
        nu = float(params["nu"])
        if not np.isfinite(nu):
            raise KernelError(f"nu = {nu} is not finite")
        if nu >= 2.0:
            raise NonIntegrable(f"nu = {nu} >= 2: sin^2-weighted mass diverges")
        if nu >= 0.0 and theta_min == 0.0:
            raise NonIntegrable(f"nu = {nu} >= 0 with theta_min = 0: mass diverges")
        # imported here, so importing the package or building a uniform or
        # dirac kernel does not pay for loading scipy.integrate
        from scipy.integrate import quad

        levy_mass, _ = quad(lambda t: np.sin(t) ** 2 * t ** (-nu - 1.0),
                            theta_min, np.pi, epsabs=0.0, epsrel=LEVY_QUAD_TOL)
        c = 1.0 / levy_mass
        b0 = c * _power_mass(np.pi, theta_min, nu)
        u, theta = _power_cdf_nodes(theta_min, nu)
        return AngularKernel("power_law", {"nu": nu, "theta_min": theta_min},
                             b0=b0, levy_constant=c, table_u=u, table_theta=theta)

    raise KernelError(f"unknown kernel family {family!r}")

