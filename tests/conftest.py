import numpy as np
import pytest

from legendrian_lab import contact, flow, grid_ops, immersions

A_TORUS = 4 * np.pi**2 / np.sqrt(3)
A_CLIFFORD = 2 * np.pi**2


def fit_convergence_order(ns, residuals):
    """Least-squares slope p of log(residual) against log(1/N): residual ~ C N^-p."""
    slope = np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(residuals), 1)[0]
    return float(-slope)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def geometry_cache():
    """Derived geometries are expensive; share them across tests."""
    cache = {}

    def build(kind, n, scheme, eps=0.0, seed=0, mode="generic", theta=0.0):
        key = (kind, n, scheme, eps, seed, mode, theta)
        if key not in cache:
            if kind == "torus":
                if eps:
                    surf = immersions.perturbed_torus(
                        theta=theta, eps=eps, n=n, scheme=scheme, seed=seed, mode=mode
                    )
                else:
                    surf = immersions.resample_to_grid(
                        immersions.catalog("legendrian_torus", theta=theta), n, scheme
                    )
            elif kind == "clifford":
                surf = immersions.resample_to_grid(
                    immersions.catalog("clifford_s3"), n, scheme
                )
            else:
                raise ValueError(kind)
            cache[key] = grid_ops.derived_geometry(surf)
        return cache[key]

    return build


@pytest.fixture(scope="session")
def flowed_geo():
    """One explicit V_f step off a spectral N=16 start: the frame has turned generic.

    The step is tau = 1e-3 / max|V_f| along the descent potential, which
    leaves a Legendrian residual of 5.8e-7.  The flow itself runs on graphs
    and stays Legendrian, so it no longer makes such a grid.  The start is
    the generic-mode one, Legendrian to roundoff at the torus nodes.
    """
    start = grid_ops.derived_geometry(immersions.perturbed_torus(
        eps=0.02, n=16, scheme="spectral", seed=0, mode="generic"))
    f, _ = flow.descent_potential(grid_ops.div_JH(start))
    v = immersions.variation_field_on_positions(start.surface, f,
                                                (start.d(f, 0), start.d(f, 1)))
    tau = 1e-3 / np.max(contact.norm(v))
    geo = grid_ops.derived_geometry(
        immersions.GridSurface(contact.normalize(start.frame.p + tau * v), start.scheme))
    assert not geo.frame.legendrian
    return geo
