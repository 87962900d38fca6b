import numpy as np
import pytest

from legendrian_lab import contact


def test_j_apply_coordinate_pairs():
    assert np.allclose(contact.j_apply([1, 0, 0, 0, 0, 0]), [0, 1, 0, 0, 0, 0])
    assert np.allclose(contact.j_apply([0, 1, 0, 0, 0, 0]), [-1, 0, 0, 0, 0, 0])
    assert np.allclose(contact.j_apply([1, 2, 3, 4, 5, 6]), [-2, 1, -4, 3, -6, 5])


def test_j_square_is_minus_identity_and_orthogonal():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((500, 6))
    w = rng.standard_normal((500, 6))
    assert np.array_equal(contact.j_apply(contact.j_apply(v)), -v)
    assert np.max(np.abs(contact.dot(contact.j_apply(v), contact.j_apply(w))
                         - contact.dot(v, w))) < 1e-13


def test_reeb_and_contact_form_normalization():
    p = np.array([1.0, 0, 0, 0, 0, 0])
    assert np.allclose(contact.j_apply(p), [0, 1, 0, 0, 0, 0])
    assert np.allclose(contact.j_apply([0, 0, 1, 0, 0, 0]), [0, 0, 0, 1, 0, 0])
    assert contact.contact_form(p, [0, 1, 0, 0, 0, 0]) == pytest.approx(1.0)
    assert contact.contact_form(p, [0, 0, 1, 0, 0, 0]) == pytest.approx(0.0)
    assert contact.contact_form(p, [0, 0.3, 0, 0, 0, 0]) == pytest.approx(0.3)


def test_contact_form_of_reeb_is_one_at_random_points():
    rng = np.random.default_rng(1)
    p = contact.random_sphere_points(100, rng)
    vals = contact.contact_form(p, contact.j_apply(p))
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_contact_form_two_routes_agree():
    rng = np.random.default_rng(2)
    p = contact.random_sphere_points(200, rng)
    v = rng.standard_normal((200, 6))
    direct = contact.contact_form(p, v)
    via_j = contact.dot(v, contact.j_apply(p))
    assert np.max(np.abs(direct - via_j)) < 1e-15


def test_sasakian_identities_vanish_at_random_points():
    rng = np.random.default_rng(5)
    p = contact.random_sphere_points(1000, rng)
    x = contact.random_tangent(p, rng)
    y = contact.random_tangent(p, rng)
    r1, r2 = contact.sasakian_identity_residuals(p, x, y)
    assert np.max(r1) < 1e-10
    assert np.max(r2) < 1e-10


def test_sasakian_identities_zero_field_and_spec_point():
    p = np.array([1.0, 0, 0, 0, 0, 0])
    x = np.array([0.0, 0, 1, 0, 0, 0])
    y = np.array([0.0, 0, 0, 0, 1, 0])
    r1, r2 = contact.sasakian_identity_residuals(p, x, y)
    assert r1 < 1e-10 and r2 < 1e-10
    r1z, r2z = contact.sasakian_identity_residuals(p, np.zeros(6), y)
    assert r1z == 0.0 and r2z < 1e-14


def test_sasakian_identities_rejects_non_tangent():
    p = np.array([1.0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        contact.sasakian_identity_residuals(p, p, p)


def test_sasakian_derivatives_match_geodesic_finite_differences():
    """Independent oracle: difference quotients along the geodesic."""
    rng = np.random.default_rng(6)
    p = contact.random_sphere_points(20, rng)
    x = contact.random_tangent(p, rng)
    h = 1e-6

    xhat = contact.normalize(x)
    speed = contact.norm(x)[..., None]

    def gamma(t):
        return np.cos(t * speed) * p + np.sin(t * speed) * xhat

    # field R along the geodesic
    dR_fd = (contact.j_apply(gamma(h)) - contact.j_apply(gamma(-h))) / (2 * h)
    nabla_fd = dR_fd + contact.dot(x, contact.j_apply(p))[..., None] * p
    nabla_exact = contact.j_apply(x) + contact.dot(x, contact.j_apply(p))[..., None] * p
    assert np.max(contact.norm(nabla_fd - nabla_exact)) < 1e-7

    # extended field phi(Ybar) along the geodesic
    y = contact.random_tangent(p, rng)

    def w_of(t):
        q = gamma(t)
        yb = y - contact.dot(y, q)[..., None] * q
        return contact.structure_tensor(q, yb)

    dW_fd = (w_of(h) - w_of(-h)) / (2 * h)
    nablaW_fd = dW_fd + contact.dot(x, w_of(0.0))[..., None] * p
    expected = (
        contact.dot(x, y)[..., None] * contact.j_apply(p)
        - contact.contact_form(p, y)[..., None] * x
    )
    assert np.max(contact.norm(nablaW_fd - expected)) < 1e-6
