"""The closed-form geometry kernels against the formulas they replace.

The explicit 2x2 sums for Bhat, h and the Christoffel symbols, and
H = (1/2) tr Bhat, must give the same bits as the general contractions,
not merely close values.  The same holds for the scalar operators and the
Hamiltonian basis matrices rewritten without changing their arithmetic,
for a derivative of a strided field against that of its contiguous copy,
and for one real 2-D filter by several multipliers against one filter per
multiplier.  H against the normal-frame sum, S = |Bhat|^2, the real FFT
derivative, the real 2-D Fourier filter, the half trace of nabla h against
the derivative of Hcomp, the frame-index sums of gradient_norm_decomposition and
oneform_rough_laplacian written out term by term, the Brioschi curvature
read off the cached metric derivatives, and the connection Laplacians
that project once after contracting change the arithmetic on purpose;
they are held to stated tolerances.  Sums accumulated in place keep the
bits of the unfused ones.  The work counts of the residual pack are
pinned, and so are its memory shape (no second derivative outlives the
build) and the traced peak of a small fd4 verify.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from legendrian_lab import cli, contact, extrinsic, flow, grid_ops, grids, immersions
from legendrian_lab.contact import dot


def _reference_extrinsic(jet, frame):
    """Bhat, h, Hvec, S and H2 through the three-operand einsum (Bhat alone if not Legendrian)."""
    p = jet.value
    g = np.zeros(p.shape[:-1] + (2, 2))
    g[..., 0, 0] = dot(jet.du, jet.du)
    g[..., 0, 1] = g[..., 1, 0] = dot(jet.du, jet.dv)
    g[..., 1, 1] = dot(jet.dv, jet.dv)
    second = [[jet.duu, jet.duv], [jet.duv, jet.dvv]]
    B = np.zeros(p.shape[:-1] + (2, 2, 6))
    for i in range(2):
        for j in range(2):
            b = second[i][j] + g[..., i, j, None] * p
            for e in (frame.E1, frame.E2):
                b = b - dot(b, e)[..., None] * e
            b = b - dot(b, p)[..., None] * p
            B[..., i, j, :] = b
    Bhat = np.einsum("...ai,...bj,...ijk->...abk", frame.coeff, frame.coeff, B)
    if not frame.legendrian:
        return {"Bhat": Bhat}
    h = np.stack([dot(Bhat, n[..., None, None, :]) for n in frame.normals()], axis=-3)
    Hcomp = 0.5 * (h[..., 0, 0] + h[..., 1, 1])
    Hvec = sum(Hcomp[..., b, None] * n for b, n in enumerate(frame.normals()))
    H2 = np.einsum("...b,...b->...", Hcomp, Hcomp)
    S = np.einsum("...bij,...bij->...", h, h)
    return {"Bhat": Bhat, "h": h, "Hvec": Hvec, "S": S, "H2": H2}


def _reference_gamma(geo):
    s = geo.scheme
    dg = np.stack([grids.deriv(geo.data.g, 0, s), grids.deriv(geo.data.g, 1, s)], axis=-3)
    t = dg + dg.transpose(0, 1, 3, 2, 4) - dg.transpose(0, 1, 3, 4, 2)
    return 0.5 * np.einsum("...kl,...ijl->...kij", geo.data.ginv, t)


def _reference_intrinsic_gauss_curvature(geo):
    """The Brioschi formula with each of the six first derivatives taken per field."""
    g = geo.data.g
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    d = geo.d
    Eu, Ev = d(E, 0), d(E, 1)
    Fu, Fv = d(F, 0), d(F, 1)
    Gu, Gv = d(G, 0), d(G, 1)
    Evv, Guu, Fuv = d(Ev, 1), d(Gu, 0), d(Fu, 1)

    def det3(a11, a12, a13, a21, a22, a23, a31, a32, a33):
        return (a11 * (a22 * a33 - a23 * a32) - a12 * (a21 * a33 - a23 * a31)
                + a13 * (a21 * a32 - a22 * a31))

    m1 = det3(-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev,
              Fv - 0.5 * Gu, E, F, 0.5 * Gv, F, G)
    m2 = det3(np.zeros_like(E), 0.5 * Ev, 0.5 * Gu, 0.5 * Ev, E, F, 0.5 * Gu, F, G)
    return (m1 - m2) / (E * G - F**2) ** 2


def _reference_normal_laplacian(v, geo):
    """The normal_laplacian double loop written out in full."""
    p = geo.frame.p
    tangents = geo.surface.first_derivatives
    first = []
    for i in range(2):
        w = geo.d(v, i) + dot(tangents[i], v)[..., None] * p
        first.append(geo.frame.normal_part(w))
    out = np.zeros_like(v)
    for i in range(2):
        for j in range(2):
            w = geo.d(first[j], i) + dot(tangents[i], first[j])[..., None] * p
            second = geo.frame.normal_part(w)
            corr = sum(geo.gamma[..., k, i, j, None] * first[k] for k in range(2))
            out = out + geo.data.ginv[..., i, j, None] * (second - corr)
    return out


def _reference_omega_commutation(v, geo):
    """The omega_commutation_residual double loop written out in full."""
    theta = grid_ops.omega_contraction(v, geo)
    lhs = grid_ops.oneform_rough_laplacian(theta, geo)
    p = geo.frame.p
    r = contact.j_apply(p)
    proj_ker = lambda w: w - dot(w, r)[..., None] * r
    tangents = geo.surface.first_derivatives
    first_full = []
    for i in range(2):
        w = geo.d(v, i) + dot(tangents[i], v)[..., None] * p
        first_full.append(geo.frame.normal_part(w))
    first = [proj_ker(w) for w in first_full]
    lap = np.zeros_like(v)
    for i in range(2):
        for j in range(2):
            w = geo.d(first[j], i) + dot(tangents[i], first[j])[..., None] * p
            second = proj_ker(geo.frame.normal_part(w))
            corr = sum(geo.gamma[..., k, i, j, None] * first[k] for k in range(2))
            lap = lap + geo.data.ginv[..., i, j, None] * (second - corr)
    return lhs - grid_ops.omega_contraction(lap, geo)


def _reference_codifferential(theta, geo):
    sg = geo.data.sqrt_det_g
    up = np.einsum("...ab,...b->...a", geo.data.ginv, theta)
    return -(geo.d(sg * up[..., 0], 0) + geo.d(sg * up[..., 1], 1)) / sg


def _reference_oneform_rough_laplacian(theta, geo):
    """The rough Laplacian through per-point einsum contractions."""
    dtheta = np.stack([geo.d(theta, 0), geo.d(theta, 1)], axis=-2)
    nth = dtheta - np.einsum("...kij,...k->...ij", geo.gamma, theta)
    dn = np.stack([geo.d(nth, 0), geo.d(nth, 1)], axis=-3)
    second = (
        dn
        - np.einsum("...lik,...lj->...ikj", geo.gamma, nth)
        - np.einsum("...lij,...kl->...ikj", geo.gamma, nth)
    )
    return np.einsum("...ik,...ikj->...j", geo.data.ginv, second)


def _reference_gradient_norm_decomposition(geo):
    """full/tangential |nabla h|^2 and |nabla H|^2 through connection arrays and einsum.

    Every (a, b) slice of Bhat is differentiated, and every vector
    derivative takes the sphere connection's p-term before its projection.
    nabla H is half the trace of nabla Bhat (full) or of nabla h (tangential).
    """
    p = geo.frame.p
    e = (geo.frame.E1, geo.frame.E2)
    normals = geo.frame.normals()
    bhat = geo.data.Bhat
    omega = np.empty(p.shape[:-1] + (2, 2, 2))  # omega[k, a, b] = <D_k E_a, E_b>
    for a in range(2):
        for k, de in enumerate(geo.d_frame(e[a])):
            for b in range(2):
                omega[..., k, a, b] = dot(de, e[b])
    sigma = np.empty(p.shape[:-1] + (2, 3, 3))  # sigma[k, beta, gamma] = <D_k N_beta, N_gamma>
    for b in range(3):
        for k, dn in enumerate(geo.d_frame(normals[b])):
            for g in range(3):
                sigma[..., k, b, g] = dot(dn, normals[g])
    full_h2 = np.zeros(p.shape[:-1])
    nabla_H = [0.0, 0.0]
    for a in range(2):
        for b in range(2):
            bab = bhat[..., a, b, :]
            for k, dbab in enumerate(geo.d_frame(bab)):
                w = geo.frame.normal_part(contact.sphere_connection(p, bab, dbab, e[k]))
                if a == b:
                    nabla_H[k] = nabla_H[k] + 0.5 * w
                w = w - sum(omega[..., k, a, l, None] * bhat[..., l, b, :] for l in range(2))
                w = w - sum(omega[..., k, b, l, None] * bhat[..., a, l, :] for l in range(2))
                full_h2 = full_h2 + dot(w, w)
    full_H2 = dot(nabla_H[0], nabla_H[0]) + dot(nabla_H[1], nabla_H[1])
    h, hcomp = geo.data.h, geo.data.Hcomp
    tangential_h2 = np.zeros_like(full_h2)
    tangential_H2 = np.zeros_like(full_H2)
    for k, dh in enumerate(geo.d_frame(h[..., :2, :, :])):
        dH = 0.5 * np.einsum("...bii->...b", dh)  # D_k H^b = (1/2) tr D_k h^b
        Hk = dH - np.einsum("...bg,...g->...b", sigma[..., k, :2, :], hcomp)
        tangential_H2 = tangential_H2 + Hk[..., 0] ** 2 + Hk[..., 1] ** 2
        for b in range(2):
            habk = (
                dh[..., b, :, :]
                - np.einsum("...g,...gij->...ij", sigma[..., k, b, :], h)
                - np.einsum("...il,...lj->...ij", omega[..., k, :, :], h[..., b, :, :])
                - np.einsum("...jl,...il->...ij", omega[..., k, :, :], h[..., b, :, :])
            )
            tangential_h2 = tangential_h2 + np.einsum("...ij,...ij->...", habk, habk)
    return {
        "full_h2": full_h2, "tangential_h2": tangential_h2,
        "full_H2": full_H2, "tangential_H2": tangential_H2,
        "residual_h": full_h2 - tangential_h2 - geo.data.S,
        "residual_H": full_H2 - tangential_H2 - geo.data.H2,
        "li_margin": tangential_h2 - 3.0 * tangential_H2,
    }


def _reference_pair_quadratic(i, j, kind):
    """Re/Im(z_i z_j) built entry by entry."""
    m = np.zeros((6, 6))
    xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
    if i == j:
        if kind == "re":  # x^2 - y^2
            m[xi, xi] = 1.0
            m[yi, yi] = -1.0
        else:  # 2 x y
            m[xi, yi] = 1.0
            m[yi, xi] = 1.0
        return m
    if kind == "re":  # x_i x_j - y_i y_j
        m[xi, xj] += 0.5
        m[xj, xi] += 0.5
        m[yi, yj] -= 0.5
        m[yj, yi] -= 0.5
    else:  # x_i y_j + y_i x_j
        m[xi, yj] += 0.5
        m[yj, xi] += 0.5
        m[yi, xj] += 0.5
        m[xj, yi] += 0.5
    return m


def _assert_extrinsic_identical(jet, frame, frame_sums=True):
    """Bhat, Hvec = (1/2) tr Bhat (and h on a Legendrian frame) bit for bit; S and H2 within 8 ulp.

    S = |Bhat|^2 and H2 = |Hvec|^2 are held to |Bhat|^2 and |(1/2) tr Bhat|^2
    of the reference Bhat at 8 ulp of max S.  With frame_sums, on a Legendrian
    frame, Hvec, S and H2 are also held to the frame-sum references of
    _reference_extrinsic, at 8 ulp of max|Bhat| (Hvec) or max S (S, H2); that
    needs a frame normal to roundoff, which the fd4 Legendrian frame is not
    (off normal by O(h^4), 1.2e-5 at N=32).
    """
    data = extrinsic.extrinsic_data(jet, frame)
    ref = _reference_extrinsic(jet, frame)
    assert np.array_equal(data.Bhat, ref["Bhat"])
    if frame.legendrian:
        assert np.array_equal(data.h, ref["h"])
    bhat = ref["Bhat"]
    hvec = 0.5 * (bhat[..., 0, 0, :] + bhat[..., 1, 1, :])
    assert np.array_equal(data.Hvec, hvec)
    free = {"Hvec": hvec, "S": np.einsum("...abk,...abk->...", bhat, bhat), "H2": dot(hvec, hvec)}
    ulp = 8 * np.finfo(float).eps
    bounds = {"Hvec": ulp * np.max(np.abs(bhat)), "S": ulp * np.max(free["S"]),
              "H2": ulp * np.max(free["S"])}
    for expected in [free, ref] if frame_sums and frame.legendrian else [free]:
        for key, bound in bounds.items():
            assert np.max(np.abs(getattr(data, key) - expected[key])) <= bound, key


def _rotated_frame(frame, rng):
    """The frame turned by a random angle per point: coeff is no longer triangular."""
    ang = rng.uniform(0, 2 * np.pi, frame.coeff.shape[:-2])
    c, s = np.cos(ang)[..., None], np.sin(ang)[..., None]
    rot = np.stack([np.stack([np.cos(ang), np.sin(ang)], -1),
                    np.stack([-np.sin(ang), np.cos(ang)], -1)], -2)
    return dataclasses.replace(
        frame, E1=c * frame.E1 + s * frame.E2, E2=-s * frame.E1 + c * frame.E2,
        coeff=np.einsum("...ab,...bc->...ac", rot, frame.coeff),
    )


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_extrinsic_and_gamma_match_einsum_on_perturbed_torus(scheme, geometry_cache):
    geo = geometry_cache("torus", 32, scheme, eps=0.02)
    _assert_extrinsic_identical(geo.surface.jets(), geo.frame, frame_sums=scheme == "spectral")
    assert np.array_equal(geo.gamma, _reference_gamma(geo))


def test_extrinsic_matches_einsum_for_rotated_coeff():
    surf = immersions.catalog("veronese_s4")
    rng = np.random.default_rng(3)
    u = rng.uniform(0, 2 * np.pi, 100)
    v = rng.uniform(0.4, np.pi - 0.4, 100)
    jet = immersions.eval_jet2(surf, u, v)
    rotated = _rotated_frame(extrinsic.adapted_frame(jet), rng)
    assert np.any(rotated.coeff[..., 0, 1] != 0.0)
    _assert_extrinsic_identical(jet, rotated)


def test_extrinsic_and_gamma_match_einsum_on_clifford(geometry_cache):
    geo = geometry_cache("clifford", 32, "spectral")
    assert not geo.frame.legendrian
    _assert_extrinsic_identical(geo.surface.jets(), geo.frame)
    assert np.array_equal(geo.gamma, _reference_gamma(geo))
    rotated = _rotated_frame(geo.frame, np.random.default_rng(5))
    _assert_extrinsic_identical(geo.surface.jets(), rotated)


def test_extrinsic_matches_einsum_on_flowed_grid(flowed_geo):
    assert not flowed_geo.frame.legendrian
    _assert_extrinsic_identical(flowed_geo.surface.jets(), flowed_geo.frame)


@pytest.mark.parametrize("case", ["fd4", "spectral", "flowed"])
def test_connection_laplacians_match_their_double_loops(case, geometry_cache, flowed_geo):
    """Within N ulp of the double loops, which project each of the four second derivatives.

    The Laplacians sum g^{ij} D_i nabla_j V before their one projection
    and contract the Christoffel symbols first, so they differ from the
    loops by roundoff that grows about like 0.4 N ulp.  The omega
    residual cancels its two sides, so its scale is the left-hand side,
    the rough Laplacian of the contracted form.  Measured at N=32: at most
    7 ulp (normal Laplacian) and 14 ulp (omega residual); 3 and 2 on the
    flowed N=16 grid.
    """
    geo = flowed_geo if case == "flowed" else geometry_cache("torus", 32, case, eps=0.02)
    h = geo.data.Hvec
    expected = _reference_normal_laplacian(h, geo)
    err = np.max(np.abs(grid_ops.normal_laplacian(h, geo) - expected))
    assert err <= geo.n * np.spacing(np.max(np.abs(expected)))
    uu, vv = grids.grid_nodes(geo.n)
    w = grid_ops.ker_alpha_normal_field(geo, 0.3 + 0.1 * np.cos(uu), 0.2 * np.sin(vv))
    resform = grid_ops.omega_commutation_residual(w, geo)
    ref_form = _reference_omega_commutation(w, geo)
    lhs = grid_ops.oneform_rough_laplacian(grid_ops.omega_contraction(w, geo), geo)
    assert np.max(np.abs(resform - ref_form)) <= geo.n * np.spacing(np.max(np.abs(lhs)))


def test_cached_fourier_multipliers_are_read_only():
    """The per-N tables of the flow and the grids are built once and cannot be written."""
    for table in (flow.torus_jacobi_multiplier, flow._aliased_band,
                  lambda n: grids.grid_nodes(n)[0], lambda n: grids.grid_nodes(n)[1]):
        mult = table(16)
        assert mult is table(16)
        with pytest.raises(ValueError):
            mult[0, 0] = 2.0
    with pytest.raises(ValueError):
        grids._fourier_multiplier(16, 1)[0] = 1.0
    for scheme in grids.SCHEMES:
        for order in (1, 2):
            mat = grids._diff_matrix(16, scheme, order)
            assert mat is grids._diff_matrix(16, scheme, order)
            with pytest.raises(ValueError):
                mat[0, 1] = 1.0


def test_spectral_deriv_unchanged_by_multiplier_cache():
    """The rfft derivative against the complex-FFT formula, to 4 ulp of the field's largest value."""
    rng = np.random.default_rng(1)
    f = rng.standard_normal((16, 16, 6))
    for axis in (0, 1):
        for order in (1, 2):
            k = np.fft.fftfreq(16, d=1.0 / 16)
            if order == 1:
                k[8] = 0.0
            shape = [1, 1, 1]
            shape[axis] = 16
            expected = np.fft.ifft(np.fft.fft(f, axis=axis) * ((1j * k) ** order).reshape(shape),
                                   axis=axis).real
            err = np.max(np.abs(grids.deriv(f, axis, "spectral", order) - expected))
            assert err <= 4 * np.spacing(np.max(np.abs(expected)))


COMPONENTS = [(), (2,), (6,), (2, 2)]  # scalars, one-forms, ambient vectors, 2x2 tensors


@pytest.mark.parametrize("n", [16, 64])
def test_rfft_derivative_matches_the_complex_fft_formula(n):
    """Both spectral paths, the rfft pair and the matrix product, on every field shape."""
    rng = np.random.default_rng(n)
    k = np.fft.fftfreq(n, d=1.0 / n)
    first = 1j * k
    first[n // 2] = 0.0  # the Nyquist mode has no odd derivative
    for components in COMPONENTS:
        f = rng.standard_normal((n, n) + components)
        for order, mult in ((1, first), (2, -k**2)):
            for axis in (0, 1):
                shape = [1] * f.ndim
                shape[axis] = n
                expected = np.fft.ifft(np.fft.fft(f, axis=axis) * mult.reshape(shape),
                                       axis=axis).real
                bound = 8 * np.spacing(np.max(np.abs(expected)))
                for path in (grids._direct_deriv, grids._matrix_deriv):
                    err = np.max(np.abs(path(f, axis, "spectral", order) - expected))
                    assert err <= bound, (path.__name__, components, order, axis)


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("scheme", grids.SCHEMES)
def test_matrix_derivative_matches_the_direct_path(scheme, n):
    """One GEMM against the rfft pair or shifted stencil, to 8 ulp of the largest derivative."""
    rng = np.random.default_rng(n)
    for components in COMPONENTS:
        f = rng.standard_normal((n, n) + components)
        for order in (1, 2):
            for axis in (0, 1):
                direct = grids._direct_deriv(f, axis, scheme, order)
                err = np.max(np.abs(grids._matrix_deriv(f, axis, scheme, order) - direct))
                assert err <= 8 * np.spacing(np.max(np.abs(direct))), (components, order, axis)


def test_odd_length_spectral_first_derivative_keeps_its_highest_mode():
    """At odd n the top rfft frequency (n - 1) / 2 is a Fourier mode, not the Nyquist mode."""
    n = 15
    u = grids.LENGTH * np.arange(n) / n
    f = np.sin(7 * u)[:, None] * np.ones((1, 3))
    for path in (grids._direct_deriv, grids._matrix_deriv):
        err = np.max(np.abs(path(f, 0, "spectral", 1) - 7 * np.cos(7 * u)[:, None]))
        assert err <= 1e-12, path.__name__


@pytest.mark.parametrize("n", [4, 15, 16, 64, grids._MATRIX_MAX_N])
def test_first_derivative_matrices_are_exactly_antisymmetric(n):
    """D.T == -D bit for bit, so summation by parts holds on the grid for every scheme."""
    for scheme in grids.SCHEMES:
        mat = grids._diff_matrix(n, scheme, 1)
        assert np.array_equal(mat.T, -mat), scheme


def test_deriv_takes_the_matrix_path_up_to_the_cutoff_and_the_direct_path_above():
    rng = np.random.default_rng(3)
    for n, path in ((grids._MATRIX_MAX_N, grids._matrix_deriv),
                    (2 * grids._MATRIX_MAX_N, grids._direct_deriv)):
        f = rng.standard_normal((n, n, 2))
        for scheme in grids.SCHEMES:
            for order in (1, 2):
                for axis in (0, 1):
                    grids._diff_matrix(grids._MATRIX_MAX_N, scheme, order)
                    misses = grids._diff_matrix.cache_info().misses
                    got = grids.deriv(f, axis, scheme, order)
                    assert np.array_equal(got, path(f, axis, scheme, order)), (n, scheme)
                    assert grids._diff_matrix.cache_info().misses == misses  # nothing built


@pytest.mark.parametrize("scheme", grids.SCHEMES)
def test_deriv_bits_do_not_depend_on_the_input_layout(scheme):
    """The fancy-indexed distinct metric entries, as DerivedGeometry.dg reads them.

    Without a contiguous copy, the axis-1 matrix product over this strided
    field rounds differently at N = 16, by up to 3.6e-15 (spectral).
    """
    g = np.random.default_rng(0).standard_normal((16, 16, 2, 2))
    f = g[..., [0, 0, 1], [0, 1, 1]]
    assert not f.flags.c_contiguous
    for order in (1, 2):
        assert np.array_equal(grids.deriv(f, 1, scheme, order),
                              grids.deriv(np.ascontiguousarray(f), 1, scheme, order)), order


@pytest.mark.parametrize("scheme", grids.SCHEMES)
@pytest.mark.parametrize("axis, order", [(2, 1), (-1, 1), (0, 0), (1, 3)],
                         ids=["axis=2", "axis=-1", "order=0", "order=3"])
def test_deriv_rejects_axes_and_orders_it_cannot_take(scheme, axis, order):
    """Only axis 0 (u) or 1 (v) is periodic, and only orders 1 and 2 are defined."""
    f = np.zeros((12, 12, 6))
    misses = grids._diff_matrix.cache_info().misses
    with pytest.raises(ValueError, match="axis" if order == 1 else "order"):
        grids.deriv(f, axis, scheme, order)
    assert grids._diff_matrix.cache_info().misses == misses


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("multiplier", ["descent", "band"])
def test_real_fourier_filter_matches_the_complex_fft2_formula(n, multiplier):
    """Both flow multipliers are even in k, which the real filter needs."""
    mult = flow.torus_jacobi_multiplier(n) if multiplier == "descent" else flow._aliased_band(n)
    assert np.array_equal(mult, np.roll(mult[::-1, ::-1], 1, axis=(0, 1)))  # mult(-k) = mult(k)
    f = np.random.default_rng(n).standard_normal((n, n))
    expected = np.fft.ifft2(np.fft.fft2(f) * mult).real
    (filtered,) = grids.fourier_filter(f, mult)
    assert np.max(np.abs(filtered - expected)) <= 1e-15 * np.max(np.abs(f))


def _counter(monkeypatch, owner, name):
    """A list that grows by one per call of owner.name from here on."""
    wrapped, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _calls(monkeypatch, op, owner=grids, name="deriv"):
    """owner.name calls op makes on a fresh spectral N=32 perturbed torus (no cached reads)."""
    geo = grid_ops.derived_geometry(immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral",
                                                               seed=0, mode="generic"))
    assert geo.frame.legendrian
    calls = _counter(monkeypatch, owner, name)
    op(geo)
    return len(calls)


@pytest.mark.parametrize("n", [16, 64])
def test_one_transform_filters_by_several_multipliers_with_the_bits_of_one_each(n):
    f = np.random.default_rng(n).standard_normal((n, n))
    mults = flow.torus_jacobi_multiplier(n), flow._aliased_band(n)
    both = grids.fourier_filter(f, *mults)
    assert len(both) == 2
    for field, mult in zip(both, mults):
        assert np.array_equal(field, grids.fourier_filter(f, mult)[0])


def test_spectral_flow_transforms_each_accepted_potential_once(monkeypatch):
    """One rfft2 and two irfft2 (descent field, band part) per accepted surface, start included.

    The seed-0 spectral N=32 start converges in 4 preconditioned steps, so 5
    surfaces; the band split once took a transform of its own.  The
    derivatives are counted from the start's build on, as a flow op makes
    them: 11 per step and 32 for the start and the final certificate (at 80
    steps, before preconditioning, 918).  The certificate reads
    surface_integrals, so it differentiates nothing for the tangential route.
    """
    transforms = [name for name in np.fft.__all__ if name.endswith(("fft", "fft2", "fftn"))]
    ffts = {name: _counter(monkeypatch, np.fft, name) for name in transforms}
    derivs = _counter(monkeypatch, grids, "deriv")
    result = flow.run_flow(immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral", seed=0))
    assert result.converged and result.state.step_index == 4
    counts = {name: len(calls) for name, calls in ffts.items() if calls}
    assert counts == {"rfft2": 5, "irfft2": 10}
    assert len(derivs) == 76


def test_gradient_norm_decomposition_differentiates_each_frame_field_once(monkeypatch):
    """One pair of coordinate derivatives per field gives both frame directions.

    The normals J0 E1, J0 E2, J0 p are not differentiated: the tangents'
    connection table is the normal one.
    """
    # 2 tangents, the 3 distinct Bhat slices and h^1, h^2: H's derivatives are half
    # the traces of Bhat's (frame-free) and of h's (frame components)
    assert _calls(monkeypatch, grid_ops.gradient_norm_decomposition) == 12


def test_flow_certificate_takes_neither_the_tangential_route_nor_the_identity_checks(monkeypatch):
    """run_flow reports no decomposition diagnostic, h^3 or symmetry residual, so it takes none."""
    skipped = [_counter(monkeypatch, grid_ops, "gradient_norm_decomposition"),
               _counter(monkeypatch, extrinsic, "pointwise_identity_residuals")]
    result = flow.run_flow(immersions.perturbed_torus(eps=0.02, n=32, scheme="spectral", seed=0))
    assert result.report["final_Sigma_Simons"] is not None
    assert skipped == [[], []]


def test_integral_report_takes_the_frame_connection_and_each_route_once(monkeypatch):
    """The frame-free norms and the connection table are cached on the geometry for both routes."""
    tables = _counter(monkeypatch, grid_ops, "_frame_connection")
    routes = _counter(monkeypatch, grid_ops, "gradient_norm_decomposition")
    assert _calls(monkeypatch, grid_ops.integral_report, grid_ops, "_full_gradient_norms") == 1
    assert (len(tables), len(routes)) == (1, 1)


def test_residual_pack_differentiates_the_metric_once(monkeypatch):
    """The Brioschi curvature reads the metric derivatives that gamma took."""
    assert _calls(monkeypatch, cli._residual_pack) == 49


def test_residual_pack_projects_once_per_connection_laplacian(monkeypatch):
    """18 normal projections per grid, 24 before the two Laplacians projected once each.

    Each connection Laplacian (normal and omega) projects its contracted
    second derivatives once instead of four times.  Bhat's three
    projections are taken by derived_geometry, before the pack, and
    nabla^nu H is read off the projected derivatives of Bhat's diagonal.
    """
    assert _calls(monkeypatch, cli._residual_pack, extrinsic.AdaptedFrame, "normal_part") == 18


def test_geometry_and_residual_pack_project_21_times_together(monkeypatch):
    """One grid's total: Bhat's three projections in the build, the pack's 18.

    H = (1/2) tr Bhat takes no projection of its own, in the build or in the pack.
    """
    calls = _counter(monkeypatch, extrinsic.AdaptedFrame, "normal_part")
    cli._residual_pack(grid_ops.derived_geometry(immersions.perturbed_torus(
        eps=0.02, n=32, scheme="spectral", seed=0, mode="generic")))
    assert len(calls) == 21


@pytest.mark.parametrize("mode", ["generic", "stable"])
def test_no_second_order_jet_outlives_derived_geometry(mode, monkeypatch):
    """After the build and a whole residual pack, d_uu x, d_uv x and d_vv x are freed.

    Bhat is built eagerly from them, so neither the geometry nor its
    extrinsic data keeps a Jet2; the stable start is a LegendrianGraph,
    whose jets() drops the Reeb part of the second derivatives.
    """
    surface = immersions.perturbed_torus(eps=0.02, n=16, scheme="fd4", seed=0, mode=mode)
    refs, jets = [], type(surface).jets

    def watched_jets(self):
        jet = jets(self)
        refs.extend(weakref.ref(d2) for d2 in (jet.duu, jet.duv, jet.dvv))
        return jet

    monkeypatch.setattr(type(surface), "jets", watched_jets)
    geo = grid_ops.derived_geometry(surface)
    cli._residual_pack(geo)
    gc.collect()
    assert len(refs) == 3 and all(ref() is None for ref in refs)
    held = [*vars(geo).values(), *vars(geo.data).values()]
    assert not any(isinstance(value, immersions.Jet2) for value in held)


def test_fd4_verify_traced_peak_is_pinned(tmp_path):
    """The fd4 N=16 verify op peaks at 1.37 MB traced (1.78 MB when the pack kept every field).

    Measured on the op's second run, after the first has filled the cached
    differentiation matrices and node tables; the bound is 5% above it.
    """
    argv = ["verify", "--epsilon", "0.02", "--grid", "16", "--scheme", "fd4",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 1.366e6


@pytest.mark.parametrize("scheme, grid, builds", [("spectral", 32, 1), ("fd4", 16, 2)])
def test_verify_builds_a_2n_geometry_for_fd_schemes_only(scheme, grid, builds, monkeypatch,
                                                          tmp_path):
    """A spectral Legendrian verify is judged at N alone; fd4 fits orders from N and 2N."""
    calls = _counter(monkeypatch, grid_ops, "derived_geometry")
    assert cli.main(["verify", "--epsilon", "0.02", "--grid", str(grid), "--scheme", scheme,
                     "--out", str(tmp_path)]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("grid, sizes", [(16, [16, 32]), (32, [32, 64]), (64, [64, 32]),
                                         (66, [66, 132])])
def test_fd_verify_pairs_n_with_2n_below_64_and_with_half_n_from_64_up(grid, sizes, monkeypatch,
                                                                      tmp_path):
    """The requested N is built first, then its partner: N/2 from N = 64 up, else 2N.

    N = 66 keeps 2N, as N/2 = 33 is odd, and no grid is.
    """
    wrapped, built = grid_ops.derived_geometry, []

    def sized(surface):
        built.append(surface.n)
        return wrapped(surface)

    monkeypatch.setattr(grid_ops, "derived_geometry", sized)
    assert cli.main(["verify", "--epsilon", "0.02", "--grid", str(grid), "--scheme", "fd4",
                     "--out", str(tmp_path)]) == 0
    assert built == sizes


def test_d_frame_matches_the_full_coefficient_combination(geometry_cache):
    """D_E1 from D_u alone gives the bits of c11 D_u + c12 D_v, as c12 is exactly 0."""
    geo = geometry_cache("torus", 32, "fd4", eps=0.02)
    c = geo.frame.coeff
    assert np.all(c[..., 0, 1] == 0.0)
    field = geo.data.Bhat[..., 0, 1, :]
    du, dv = geo.d(field, 0), geo.d(field, 1)
    for k, got in enumerate(geo.d_frame(field)):
        assert np.array_equal(got, c[..., k, 0, None] * du + c[..., k, 1, None] * dv)


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_connection_laplacian_sums_in_place_with_the_bits_of_the_unfused_sum(scheme,
                                                                             geometry_cache):
    """Summed in place from the g^{01} term, as X + Y rounds as Y + X: the bits do not move."""
    geo = geometry_cache("torus", 32, scheme, eps=0.02)
    first = grid_ops.covariant_derivative_normal(geo.data.Hvec, geo)
    ginv, gam, d = geo.data.ginv[..., None], geo.gamma_trace, geo.d
    mixed = d(first[0], 1) + d(first[1], 0)
    expected = geo.frame.normal_part(ginv[..., 0, 0, :] * d(first[0], 0)
                                     + ginv[..., 0, 1, :] * mixed
                                     + ginv[..., 1, 1, :] * d(first[1], 1))
    expected -= gam[..., 0, None] * first[0] + gam[..., 1, None] * first[1]
    got = grid_ops._connection_laplacian(first, geo, geo.frame.normal_part)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
@pytest.mark.parametrize("n", [32, 64, 128])
def test_intrinsic_gauss_curvature_matches_its_per_field_form(scheme, n):
    """Within 4 eps N^2 of the per-field Brioschi formula (g and its derivatives are O(1)).

    The batched first derivatives differ from the per-field ones by
    roundoff of order eps N, and the second derivatives taken from them
    amplify it by another factor of N.  Measured: 0 at N=32, at most
    1.3e-13 (fd4) and 9.5e-13 (spectral) at N=128.
    """
    geo = grid_ops.derived_geometry(immersions.perturbed_torus(eps=0.02, n=n, scheme=scheme,
                                                               seed=0, mode="generic"))
    err = np.max(np.abs(grid_ops.intrinsic_gauss_curvature(geo)
                        - _reference_intrinsic_gauss_curvature(geo)))
    assert err <= 4 * np.finfo(float).eps * n**2


def _legendrian_flowed_geo(flowed_geo, monkeypatch):
    """flowed_geo with its frame forced Legendrian (residual 5.8e-7 against a 1e-6 threshold)."""
    monkeypatch.setattr(extrinsic, "LEGENDRIAN_FRAME_TOL", 1e-6)
    jet = flowed_geo.surface.jets()
    frame = extrinsic.adapted_frame(jet)
    assert frame.legendrian
    return grid_ops.DerivedGeometry(surface=flowed_geo.surface, frame=frame,
                                    data=extrinsic.extrinsic_data(jet, frame))


@pytest.mark.parametrize("case", ["fd4", "spectral", "flowed"])
def test_gradient_norm_decomposition_matches_its_einsum_form(case, geometry_cache, flowed_geo,
                                                             monkeypatch):
    """Written-out sums within 16 ulp of each field's max |value|.

    The residuals cancel to far below their terms, so they are held to
    16 ulp of max full_h2 (residual_h) or max full_H2 (residual_H).
    """
    if case == "flowed":
        geo = _legendrian_flowed_geo(flowed_geo, monkeypatch)
    else:
        geo = geometry_cache("torus", 32, case, eps=0.02)
    got = grid_ops.gradient_norm_decomposition(geo)
    ref = _reference_gradient_norm_decomposition(geo)
    scale = {key: np.max(np.abs(value)) for key, value in ref.items()}
    scale["residual_h"], scale["residual_H"] = scale["full_h2"], scale["full_H2"]
    for key, expected in ref.items():
        err = np.max(np.abs(getattr(got, key) - expected))
        assert err <= 16 * np.spacing(scale[key]), (key, err / np.spacing(scale[key]))


@pytest.mark.parametrize("case", ["fd4", "spectral", "flowed"])
def test_h_copies_its_10_slice_with_the_bits_of_all_12_contractions(case, geometry_cache,
                                                                    flowed_geo, monkeypatch):
    """An adapted frame's coeff is triangular, so Bhat_10 and Bhat_01 are equal bit for bit.

    h contracts only the slices a <= b and copies h^c_10 from h^c_01, which
    must give the bits of the 12 contractions of _reference_extrinsic.
    """
    if case == "flowed":
        geo = _legendrian_flowed_geo(flowed_geo, monkeypatch)
    else:
        geo = geometry_cache("torus", 32, case, eps=0.02)
    bhat = geo.data.Bhat
    assert np.array_equal(bhat[..., 0, 1, :].view(np.uint64), bhat[..., 1, 0, :].view(np.uint64))
    ref = _reference_extrinsic(geo.surface.jets(), geo.frame)
    assert np.array_equal(geo.data.h.view(np.uint64), ref["h"].view(np.uint64))


@pytest.mark.parametrize("scheme, ulp_per_n", [("fd4", 4.0), ("spectral", 16.0)])
@pytest.mark.parametrize("n", [32, 128])
def test_half_trace_of_nabla_h_matches_the_derivative_of_hcomp(scheme, ulp_per_n, n):
    """(1/2) tr D_k h^b, the tangential route's D_k H^b, against d_frame of Hcomp itself.

    Equal by linearity; the derivatives round differently, by at most 13 N
    (spectral) and 2.6 N (fd4) ulp of max |D h| at N <= 128 on seeds 0-2.
    """
    geo = grid_ops.derived_geometry(immersions.perturbed_torus(eps=0.02, n=n, scheme=scheme,
                                                               seed=0, mode="generic"))
    h = geo.data.h
    for dh, dH in zip(geo.d_frame(h[..., :2, :, :]), geo.d_frame(geo.data.Hcomp)):
        half_trace = 0.5 * (dh[..., 0, 0] + dh[..., 1, 1])
        assert np.max(np.abs(half_trace - dH[..., :2])) <= ulp_per_n * n * np.spacing(
            np.max(np.abs(dh)))


@pytest.mark.parametrize("case", ["fd4", "spectral", "flowed"])
def test_oneform_rough_laplacian_matches_its_einsum_form(case, geometry_cache, flowed_geo):
    """Written out term by term, within 16 ulp of the Laplacian's max |value|."""
    geo = flowed_geo if case == "flowed" else geometry_cache("torus", 32, case, eps=0.02)
    uu, vv = grids.grid_nodes(geo.n)
    theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
    expected = _reference_oneform_rough_laplacian(theta, geo)
    err = np.max(np.abs(grid_ops.oneform_rough_laplacian(theta, geo) - expected))
    assert err <= 16 * np.spacing(np.max(np.abs(expected)))


def test_nyquist_mode_has_zero_first_and_exact_second_derivative():
    n = 16
    uu, _ = grids.grid_nodes(n)
    f = np.cos(n // 2 * uu)  # (-1)^a: the Nyquist mode along u, constant along v
    for axis in (0, 1):
        assert np.max(np.abs(grids.deriv(f, axis, "spectral", 1))) < 1e-12
    assert np.max(np.abs(grids.deriv(f, 0, "spectral", 2) + (n // 2) ** 2 * f)) < 1e-12
    assert np.max(np.abs(grids.deriv(f, 1, "spectral", 2))) < 1e-12


def _frame_sum_H(data, frame):
    return sum(data.Hcomp[..., k, None] * n for k, n in enumerate(frame.normals()))


@pytest.mark.parametrize("kind", ["torus"])
def test_frame_free_H_matches_the_normal_frame_sum_on_catalog_surfaces(kind, geometry_cache):
    """On the Legendrian frame of the torus the two are roundoff apart."""
    geo = geometry_cache(kind, 32, "spectral")
    assert geo.frame.legendrian
    scale = np.max(np.abs(geo.data.Bhat))
    assert np.max(np.abs(geo.data.Hvec - _frame_sum_H(geo.data, geo.frame))) <= 1e-13 * scale


def test_frame_free_H_moves_at_the_legendrian_residual_on_a_flowed_grid(flowed_geo, monkeypatch):
    """Off a Legendrian surface J E1, J E2, R leave the normal space by O(residual).

    So with that frame forced, the frame sum differs from the normal
    projection by at most max|Bhat| times the max Legendrian residual.
    """
    jet, res = flowed_geo.surface.jets(), float(np.max(flowed_geo.frame.legendrian_residual))
    scale = np.max(np.abs(flowed_geo.data.Bhat))
    monkeypatch.setattr(extrinsic, "LEGENDRIAN_FRAME_TOL", 1e-6)
    frame = extrinsic.adapted_frame(jet)
    assert frame.legendrian and res > 1e-8
    data = extrinsic.extrinsic_data(jet, frame)
    assert np.max(np.abs(data.Hvec - _frame_sum_H(data, frame))) <= scale * res


@pytest.mark.parametrize("scheme", ["fd4", "spectral"])
def test_codifferential_matches_its_expanded_divergence(scheme, geometry_cache):
    geo = geometry_cache("torus", 32, scheme, eps=0.02)
    uu, vv = grids.grid_nodes(32)
    theta = np.stack([np.cos(uu + vv), np.sin(uu - 2 * vv)], axis=-1)
    assert np.array_equal(grid_ops.codifferential(theta, geo),
                          _reference_codifferential(theta, geo))


def test_pair_quadratic_matches_index_construction():
    pairs = immersions._STABLE_PAIRS + immersions._GENERIC_PAIRS
    for i, j in pairs:
        for kind in ("re", "im"):
            got = immersions._pair_quadratic(i, j, kind)
            expected = _reference_pair_quadratic(i, j, kind)
            # through the integer view, +0.0 and -0.0 differ
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), (i, j, kind)
