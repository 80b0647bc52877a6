import numpy as np
import pytest
from scipy import integrate, stats

from kacsim import kernels


def test_dirac_rate():
    k = kernels.make_kernel("dirac", theta0=np.pi / 2)
    assert k.b0 == 1.0
    k = kernels.make_kernel("dirac", theta0=np.pi / 3)
    np.testing.assert_allclose(k.b0,
                               1.0 / np.sin(np.pi / 3) ** 2, rtol=1e-14)


def test_uniform_rate():
    k = kernels.make_kernel("uniform", theta_min=0.0)
    np.testing.assert_allclose(k.b0, 2.0, rtol=1e-12)
    # levy mass (pi - a)/2 + sin(2a)/4 against direct quadrature
    a = 0.7
    k = kernels.make_kernel("uniform", theta_min=a)
    mass, _ = integrate.quad(lambda t: np.sin(t) ** 2, a, np.pi)
    np.testing.assert_allclose(k.b0, (np.pi - a) / mass,
                               rtol=1e-10)


def test_power_law_rate_against_quadrature():
    nu, a = 0.0, 0.1
    k = kernels.make_kernel("power_law", nu=nu, theta_min=a)
    mass, _ = integrate.quad(lambda t: np.sin(t) ** 2 * t ** (-1 - nu), a,
                             np.pi)
    total, _ = integrate.quad(lambda t: t ** (-1 - nu), a, np.pi)
    np.testing.assert_allclose(k.b0, total / mass, rtol=1e-8)


@pytest.mark.parametrize("nu", [-1e-8, 1e-9, 1e-7, 1e-5, 0.5])
def test_power_law_mass_near_nu_zero(nu):
    """The total mass behind b0 does not cancel near nu = 0 (the difference
    of powers was off by 3e-8 relative at nu = 1e-9)."""
    k = kernels.make_kernel("power_law", nu=nu, theta_min=0.1)
    total, _ = integrate.quad(lambda t: t ** (-1 - nu), 0.1, np.pi,
                              epsrel=1e-14)
    np.testing.assert_allclose(k.b0 / k.levy_constant, total, rtol=1e-13)


@pytest.mark.parametrize("nu", [np.nan, -np.inf, np.inf])
def test_non_finite_nu_rejected(nu):
    with pytest.raises(kernels.KernelError, match="not finite"):
        kernels.make_kernel("power_law", nu=nu, theta_min=0.1)


def test_levy_normalization():
    """Every kernel is scaled so that int sin^2(theta) beta(theta) dtheta = 1."""
    cases = [
        kernels.make_kernel("uniform", theta_min=0.3),
        kernels.make_kernel("power_law", nu=-0.5, theta_min=0.0),
        kernels.make_kernel("power_law", nu=1.2, theta_min=0.2),
    ]
    for k in cases:
        val, _ = integrate.quad(lambda t: np.sin(t) ** 2 * k.density(t),
                                k.params["theta_min"], np.pi, limit=200)
        np.testing.assert_allclose(val, 1.0, atol=1e-8)


def test_sampled_sin_sq_mean():
    """E[sin^2 theta] = 1/b0 under the normalized angle law."""
    rng = np.random.default_rng(31)
    for k in (kernels.make_kernel("uniform", theta_min=0.0),
              kernels.make_kernel("power_law", nu=0.5, theta_min=0.05)):
        t = k.sample(rng, 200_000)
        s2 = np.sin(t) ** 2
        se = np.std(s2, ddof=1) / np.sqrt(t.size)
        assert abs(np.mean(s2) - 1.0 / k.b0) < 4 * se


def test_dirac_sampler_is_constant():
    rng = np.random.default_rng(32)
    k = kernels.make_kernel("dirac", theta0=1.0)
    t = k.sample(rng, 100)
    np.testing.assert_array_equal(t, 1.0)


def test_uniform_sampler_ks():
    rng = np.random.default_rng(33)
    a = 0.2
    k = kernels.make_kernel("uniform", theta_min=a)
    t = k.sample(rng, 50_000)
    assert stats.kstest(t, stats.uniform(loc=a, scale=np.pi - a).cdf).pvalue > 0.01


def test_power_law_sampler_ks():
    rng = np.random.default_rng(34)
    nu, a = 0.5, 0.1
    k = kernels.make_kernel("power_law", nu=nu, theta_min=a)
    t = k.sample(rng, 50_000)

    def cdf(x):
        x = np.asarray(x, dtype=np.float64)
        lo = a ** -nu
        return (lo - x ** -nu) / (lo - np.pi ** -nu)

    assert stats.kstest(t, cdf).pvalue > 0.01


def test_power_law_inverse_cdf_interpolation():
    """Tabulated quantile inversion stays within 1e-6 of the closed-form
    inverse when one is available."""
    nu, a = 0.5, 0.1
    k = kernels.make_kernel("power_law", nu=nu, theta_min=a)
    u = np.linspace(0.0, 1.0, 10_001)
    lo = a ** -nu
    exact = (lo - u * (lo - np.pi ** -nu)) ** (-1.0 / nu)
    approx = np.interp(u, k.table_u, k.table_theta)
    assert np.max(np.abs(approx - exact)) < 1e-6


def test_power_law_minus_one_is_uniform():
    """nu = -1 makes the angle density constant, so the kernel must agree
    with the uniform family."""
    p = kernels.make_kernel("power_law", nu=-1.0, theta_min=0.0)
    u = kernels.make_kernel("uniform", theta_min=0.0)
    np.testing.assert_allclose(p.b0, u.b0, rtol=1e-10)
    grid = np.linspace(0.05, np.pi - 0.05, 50)
    np.testing.assert_allclose(p.density(grid), u.density(grid), rtol=1e-8)


def test_non_integrable_rejected():
    with pytest.raises(kernels.NonIntegrable):
        kernels.make_kernel("power_law", nu=0.5, theta_min=0.0)
    with pytest.raises(kernels.NonIntegrable):
        kernels.make_kernel("power_law", nu=2.0, theta_min=0.1)
    # nu < 0 integrates fine down to zero
    kernels.make_kernel("power_law", nu=-0.25, theta_min=0.0)


def test_bad_angle_rejected():
    with pytest.raises(kernels.BadAngle):
        kernels.make_kernel("dirac", theta0=0.0)
    with pytest.raises(kernels.BadAngle):
        kernels.make_kernel("dirac", theta0=np.pi)
    with pytest.raises(kernels.BadAngle):
        kernels.make_kernel("uniform", theta_min=-0.1)
    with pytest.raises(kernels.BadAngle):
        kernels.make_kernel("uniform", theta_min=np.pi)
    with pytest.raises(kernels.KernelError):
        kernels.make_kernel("squared")


def test_density_vanishes_below_cutoff():
    k = kernels.make_kernel("uniform", theta_min=0.5)
    assert k.density(0.3) == 0.0
    assert k.density(0.5001) > 0.0
