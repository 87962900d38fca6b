"""Differentiation and quadrature on doubly periodic N x N grids.

Grids sample the parameter square [0, 2pi)^2 at u_a = 2pi a / N, with
axis 0 = u and axis 1 = v.  Fields may carry trailing component axes
(scalars (N,N), one-forms (N,N,2), ambient vectors (N,N,6)).

Three schemes are supported: second- and fourth-order central
differences ("fd2", "fd4") and Fourier spectral differentiation
("spectral", the multiplier (ik)^order on the real-FFT frequencies).
Each operator is defined once, by its stencil or its multiplier, and is
applied one of two ways.  Up to n = _MATRIX_MAX_N points along the
differentiated axis, it is one matrix product with the cached (n, n)
circulant differentiation matrix, whose column is the operator applied
to e_0.  Above that size, the stencil runs as shifted copies and the
multiplier as an rfft/irfft pair along the axis.  First-derivative
matrices are antisymmetric exactly, so summation by parts
sum (D f) g = -sum f (D g) holds on the grid for every scheme;
divergence-form quantities therefore integrate to zero to rounding.

The module is also the one home of the Fourier convention: integer
frequencies in FFT order and a real 2-D filter by an even multiplier.
"""

from __future__ import annotations

import functools

import numpy as np

SCHEMES = ("fd2", "fd4", "spectral")
LENGTH = 2.0 * np.pi


def check_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


# The largest n at which one GEMM with the (n, n) matrix beats the direct
# path on both axes for fd4 and spectral: one derivative of an (n, n, 6)
# field with one BLAS thread, timed by tools/deriv_timings.py (2-CPU
# x86-64 host, OpenBLAS 0.3, numpy 2.4).  At n = 32-64 GEMM wins every
# scheme, order and axis by 1.7-8.8x; at n = 128 fd4 and spectral by
# 1.7-4.8x, and fd2, whose short stencil is the cheapest direct path,
# breaks even on axis 1 (0.83-1.16x over three runs).  At n = 256 GEMM
# loses on axis 1 (down to 0.64x) and at n = 512 by up to 11x, where
# the O(n) work per point outgrows the O(log n) of the transform.
_MATRIX_MAX_N = 128


def read_only(array):
    """The array, its write flag cleared: every cached table is returned this way."""
    array.setflags(write=False)
    return array


def _shift(f, s, axis):
    """f shifted so output[i] = f[i+s] (periodic)."""
    return np.roll(f, -s, axis=axis)


@functools.lru_cache(maxsize=32)
def _fourier_multiplier(n, order):
    """(ik)^order on the rfft frequencies 0..n/2 of n points, read-only (cached)."""
    k = np.fft.rfftfreq(n, d=1.0 / n)
    if order % 2 == 1:
        k[n // 2] = 0.0  # Nyquist mode has no well-defined odd derivative
    return read_only((1j * k) ** order)


def _spectral_deriv(f, axis, order):
    n = f.shape[axis]
    shape = [1] * f.ndim
    shape[axis] = n // 2 + 1
    mult = _fourier_multiplier(n, order).reshape(shape)
    return np.fft.irfft(np.fft.rfft(f, axis=axis) * mult, n=n, axis=axis)


def _direct_deriv(f, axis, scheme, order):
    """The derivative by the rfft pair or by shifted copies of the stencil."""
    if scheme == "spectral":
        return _spectral_deriv(f, axis, order)
    h = LENGTH / f.shape[axis]
    if order == 1:
        if scheme == "fd2":
            return (_shift(f, 1, axis) - _shift(f, -1, axis)) / (2 * h)
        return (
            -_shift(f, 2, axis)
            + 8 * _shift(f, 1, axis)
            - 8 * _shift(f, -1, axis)
            + _shift(f, -2, axis)
        ) / (12 * h)
    if scheme == "fd2":
        return (_shift(f, 1, axis) - 2 * f + _shift(f, -1, axis)) / h**2
    return (
        -_shift(f, 2, axis)
        + 16 * _shift(f, 1, axis)
        - 30 * f
        + 16 * _shift(f, -1, axis)
        - _shift(f, -2, axis)
    ) / (12 * h**2)


@functools.lru_cache(maxsize=32)
def _diff_matrix(n, scheme, order):
    """The (n, n) circulant D with D f = the derivative of f, read-only (cached).

    Its column is the operator applied to e_0.  The rfft of e_0 is all
    ones, so the spectral column is the inverse real DFT of the
    multiplier, summed densely in np.longdouble and rounded once.  Every
    product D f repeats the column's rounding error, so the column must
    be closer than an irfft makes it: at n = 128 an irfft column moves
    area, W, I4 and I6 of a perturbed spectral torus by up to 5e-13
    relative to the direct path, this one by under 1e-14 (x86-64, whose
    long double has a 64-bit mantissa).  No FFT runs, so an op calls
    numpy.fft as often with the matrix cached as without.  First-order
    columns are antisymmetrized, c[m] = -c[-m], so that D.T == -D exactly.
    """
    if scheme == "spectral":
        mult = _fourier_multiplier(n, order)
        k = np.arange(mult.size)
        weight = np.where((k == 0) | (2 * k == n), 1.0, 2.0)  # Hermitian pairs count twice
        angle = (np.outer(np.arange(n), k) % n) * (2 * np.arccos(np.longdouble(-1)) / n)
        terms = np.cos(angle) * (weight * mult.real) - np.sin(angle) * (weight * mult.imag)
        col = (terms.sum(axis=1) / n).astype(float)  # Re(mult e^{i angle}), summed
    else:
        e0 = np.zeros(n)
        e0[0] = 1.0
        col = _direct_deriv(e0, 0, scheme, order)
    if order == 1:
        col = 0.5 * (col - np.roll(col[::-1], 1))  # np.roll(col[::-1], 1)[m] = col[-m]
    index = np.arange(n)
    return read_only(col[(index[:, None] - index) % n])


def _matrix_deriv(f, axis, scheme, order):
    """The derivative as one matrix product with the cached differentiation matrix."""
    n = f.shape[axis]
    mat = _diff_matrix(n, scheme, order)
    if axis == 0:
        return (mat @ f.reshape(n, -1)).reshape(f.shape)
    if f.ndim == 2:
        return f @ mat.T
    # one (n, n) @ (n, components) product per u-line: faster than moving axis 1 last
    return np.matmul(mat, f.reshape(f.shape[0], n, -1)).reshape(f.shape)


def deriv(f, axis, scheme, order=1):
    """Periodic derivative of the given order (1 or 2) along axis 0 or 1."""
    check_scheme(scheme)
    if axis not in (0, 1):
        raise ValueError(f"unsupported derivative axis {axis!r}; expected 0 (u) or 1 (v)")
    if order not in (1, 2):
        raise ValueError(f"unsupported derivative order {order!r}; expected 1 or 2")
    f = np.ascontiguousarray(f, dtype=float)  # the product's bits must not depend on layout
    if f.shape[axis] <= _MATRIX_MAX_N:
        return _matrix_deriv(f, axis, scheme, order)
    return _direct_deriv(f, axis, scheme, order)


def frequencies(n):
    """Integer Fourier frequencies of n points in FFT order: 0, 1, ..., -1."""
    return np.fft.fftfreq(n, d=1.0 / n)


def fourier_filter(f, *mults):
    """Real part of ifft2(fft2(f) * m) per (n, n) multiplier m even in k, by rfft2/irfft2.

    One rfft2 serves every m, each field with the bits of a call on m alone;
    the multipliers, cached read-only tables in the flow, are only read.
    """
    spectrum = np.fft.rfft2(f)
    return tuple(np.fft.irfft2(spectrum * m[:, : f.shape[1] // 2 + 1], s=f.shape) for m in mults)


@functools.lru_cache(maxsize=8)
def grid_nodes(n):
    """Node coordinates (U, V), each (n, n), u-major, read-only (cached)."""
    t = LENGTH * np.arange(n) / n
    return tuple(read_only(node) for node in np.meshgrid(t, t, indexing="ij"))


def quadrature(f, sqrt_det):
    """Integral of a grid scalar f against the area density sqrt_det (trapezoid rule)."""
    return float(np.sum(f * sqrt_det) * (LENGTH / len(sqrt_det)) ** 2)

