import numpy as np
import pytest

import gharnack as g


@pytest.fixture(scope="session")
def unit_band():
    return g.VolatilityBand(1.0, 1.0)


@pytest.fixture(scope="session")
def wide_band():
    return g.VolatilityBand(0.8, 1.2)


@pytest.fixture(scope="session")
def pinched_band():
    return g.VolatilityBand(0.9, 1.1)


@pytest.fixture(scope="session")
def heat_model():
    """b = h = 0, sigma = 1: the classical heat benchmark."""
    return g.ModelCoefficients(
        b=g.make_coefficient("constant", (0.0,)),
        h=g.make_coefficient("constant", (0.0,)),
        sigma=g.make_coefficient("constant", (1.0,)),
        K=1.0, kappa1=1.0, kappa2=1.0,
    )


@pytest.fixture(scope="session")
def ou_model():
    """Mean-reverting drift, unit diffusion."""
    return g.ModelCoefficients(
        b=g.make_coefficient("affine", (0.0, -1.0)),
        h=g.make_coefficient("constant", (0.0,)),
        sigma=g.make_coefficient("constant", (1.0,)),
        K=1.0, kappa1=1.0, kappa2=1.0,
    )


@pytest.fixture(scope="session")
def multiplicative_model():
    """Mean reversion with oscillatory h and pinched state-dependent sigma."""
    return g.ModelCoefficients(
        b=g.make_coefficient("affine", (0.0, -1.0)),
        h=g.make_coefficient("sine", (0.0, 0.05, 1.0)),
        sigma=g.make_coefficient("tanh", (0.95, 0.05, 1.0)),
        K=1.1, kappa1=0.9, kappa2=1.0,
    )


@pytest.fixture(scope="session")
def pde_cfg():
    return g.PdeConfig(-8.0, 8.0, 800)


@pytest.fixture(scope="session")
def coarse_cfg():
    return g.PdeConfig(-8.0, 8.0, 240)


def ou_semigroup_oracle(f, x, T, n_quad=120):
    """E f(Z) for Z ~ N(x e^-T, (1 - e^-2T)/2) by Gauss-Hermite quadrature."""
    mean = x * np.exp(-T)
    var = (1.0 - np.exp(-2.0 * T)) / 2.0
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    z = mean + np.sqrt(var) * nodes
    return float(np.sum(weights * f(z)) / np.sqrt(2.0 * np.pi))


def heat_semigroup_oracle(f, x, T, n_quad=120):
    """E f(x + sqrt(T) Z), Z standard normal, by Gauss-Hermite quadrature."""
    nodes, weights = np.polynomial.hermite_e.hermegauss(n_quad)
    z = x + np.sqrt(T) * nodes
    return float(np.sum(weights * f(z)) / np.sqrt(2.0 * np.pi))


def reference_levels(control, j, x):
    """The step-j level of `control` at each state of `x`, written out: an
    open-loop control's levels[j]; for a recorded policy, its mask row j at
    each state's nearest node, clipped to the nodes."""
    x = np.asarray(x, dtype=float)
    if not isinstance(control, g.PolicyTable):
        return np.broadcast_to(control.levels[j], x.shape)
    nodes = control.x_nodes
    xi = np.clip(np.rint((x - nodes[0]) / (nodes[1] - nodes[0])).astype(int),
                 0, len(nodes) - 1)
    return np.where(control.hi_mask[j][xi], control.band.sigma_upper,
                    control.band.sigma_lower)
